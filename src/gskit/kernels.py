"""Kernel backend selection: a C twin built on first import, with the
pure-Python reference as fallback.

gskit._pure holds the reference kernels (adaptive Dormand-Prince stepping,
ray-crossing event location, variational propagation, and probe_cell, the
whole parameter-plane map cell in one call) and documents the settings
they fix: no cap on the step size, the first-quadrant guard on
the plane field in forward time, S_MIN and STEP_LIMIT.  _kernel.c, next to
this file, mirrors them statement for statement in plain C99, so the two
backends return the same bits.  On first import the C source is compiled
with gcc into the user cache directory ($XDG_CACHE_HOME or ~/.cache, else a
private directory under the system temporary directory), under a name keyed
by the SHA-256 of the source, the compiler and its flags; later imports load
the cached library.  The library is written under a temporary name and
renamed into place, so processes that import at the same time are safe.
A build keeps the libraries of the newest _KEPT_LIBRARIES source versions
in the cache, by modification time, and removes the rest, so a few versions
of gskit that share a cache (two checkouts being compared) load their own
library without recompiling.

When the build or the load fails, the pure backend is used and the reason
is kept in COMPILED_ERROR.  GSKIT_BACKEND=pure forces the pure backend;
_use_backend() switches explicitly (the backend-parity tests).

The status codes (OK, MAX_STEPS, UNDERFLOW, BOX_EXIT, CAPTURED, SETTLED) and
probe_cell's label codes (0 outside, the regions 1-5, 6 x; CELL_LABELS[code]
is the map label) are those of gskit._pure, which documents them.  The
entry points below check the field id before dispatch: an unknown id raises
ValueError and reaches neither backend.  The kernels need rtol > 0 and
atol > 0, so that no error scale atol + rtol * |x| is zero; every caller in
gskit takes them from a dynamics.IntegratorSettings, which rejects other
values.  probe_cell fixes its own tolerances and takes only k and F.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from pathlib import Path

from . import _pure
from ._pure import (BOX_EXIT, CAPTURED, CELL_LABELS, FIELD_CHART_V,
                    FIELD_PLANE, MAX_STEPS, OK, SETTLE_TOL, SETTLED,
                    STEP_LIMIT, UNDERFLOW)

_SOURCE = Path(__file__).with_name("_kernel.c")
_CC = "gcc"
# -ffp-contract=off: no fused multiply-add; -fno-builtin: pow(a, 2) stays a
# libm call, as Python's a ** 2 is.  Both are needed for bit-identity.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")

# the C-only return of _kernel.c, never the status of a finished call
_BUFFER_FULL = -1

# first capacity, in samples, of integrate's buffer; a call that fills it
# runs again with one eight times larger
_FIRST_CAP = 4096

# libraries, one per source version, that a build leaves in the cache
_KEPT_LIBRARIES = 4


def _private_dir(path: Path) -> bool:
    """Create path if needed; True when this user can write it and, where
    the system has user ids, owns it."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return False
    owned = not hasattr(os, "getuid") or path.stat().st_uid == os.getuid()
    return owned and os.access(path, os.W_OK)


def _cache_dir() -> Path:
    """A writable directory for the built library."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = Path(base, "gskit")
    if _private_dir(path):
        return path
    # the shared temporary directory is writable by everyone: use a private
    # directory there, and only one this user owns
    path = Path(tempfile.gettempdir(),
                f"gskit-{os.getuid()}" if hasattr(os, "getuid") else "gskit")
    if _private_dir(path):
        return path
    raise OSError("no writable cache directory for the compiled kernels")


def _build() -> Path:
    """Path of the library built from _kernel.c; compiles it on a cache miss."""
    source = _SOURCE.read_bytes()
    cmd = (_CC,) + _CFLAGS
    key = hashlib.sha256(source + "\0".join(cmd).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib = cache / f"_kernel-{key}.so"
    if lib.exists():
        return lib
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"{lib.name}.", suffix=".tmp")
    os.close(fd)
    try:
        # the compiler reads the very bytes that were hashed
        proc = subprocess.run([*cmd, "-x", "c", "-o", tmp, "-", "-lm"],
                              input=source, capture_output=True, timeout=300)
        if proc.returncode != 0:
            raise OSError(f"{_CC} exited with status {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace').strip()[-1000:]}")
        os.replace(tmp, lib)
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{_CC} did not finish: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # keep the newest libraries, this one among them
    built = []
    for path in cache.glob("_kernel-*.so"):
        try:
            built.append((path.stat().st_mtime, path))
        except OSError:
            pass    # removed by a concurrent build
    built.sort(reverse=True)
    for _, old in built[_KEPT_LIBRARIES:]:
        if old != lib:
            try:
                old.unlink()
            except OSError:
                pass
    return lib


class _CKernels:
    """The C twin in _kernel.c.  Each method takes the arguments of its
    namesake in gskit._pure, already converted, and builds the same Python
    ints, floats, lists and tuples."""

    BACKEND_NAME = "compiled"

    @staticmethod
    def _signatures() -> dict:
        """(restype, argtypes) of each function that _kernel.c exports."""
        d, i, ll = ctypes.c_double, ctypes.c_int, ctypes.c_longlong
        buf, count = ctypes.POINTER(d), ctypes.POINTER(ll)
        return {
            "gs_field_eval": (None, [i, d, d, d, d, d, buf]),
            "gs_integrate": (i, [i, d, d, d, d, d, d, d, ll, i, d, d, buf, buf,
                                 ll, count]),
            "gs_ray_crossings": (i, [d, d, d, d, d, d, d, d, i, ll, d, d, d, d,
                                     d, d, buf, count]),
            "gs_monodromy": (i, [d, d, d, d, d, d, d, buf]),
            "gs_probe_cell": (i, [d, d]),
        }

    def __init__(self, lib: ctypes.CDLL):
        for name, (restype, argtypes) in self._signatures().items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = restype
        self._lib = lib

    def field_eval(self, fid, sgn, x, y, k, F):
        out = (ctypes.c_double * 2)()
        self._lib.gs_field_eval(fid, sgn, x, y, k, F, out)
        return out[0], out[1]

    def integrate(self, fid, x0, y0, k, F, t_end, rtol, atol, max_steps,
                  record, fixed_step, box):
        end = (ctypes.c_double * 3)()
        n = ctypes.c_longlong()
        bound = max(max_steps, 1) + 1 if record else 0   # samples a call can record
        cap = min(bound, _FIRST_CAP)
        while True:
            samples = (ctypes.c_double * (3 * cap))()
            status = self._lib.gs_integrate(
                fid, x0, y0, k, F, t_end, rtol, atol, max_steps,
                record, fixed_step, box, end, samples, cap, ctypes.byref(n))
            if status != _BUFFER_FULL:
                break
            cap = min(8 * cap, bound)
        s = samples[:3 * n.value]
        return status, end[0], end[1], end[2], s[0::3], s[1::3], s[2::3]

    def ray_crossings(self, x0, y0, k, F, cx, cy, dx, dy, orient,
                      max_crossings, t_max, rtol, atol, t_min, time_sign,
                      escape_sum):
        n = ctypes.c_longlong()
        # the kernel returns once it holds max_crossings hits
        hits = (ctypes.c_double * (4 * max(max_crossings, 1)))()
        status = self._lib.gs_ray_crossings(
            x0, y0, k, F, cx, cy, dx, dy, orient, max_crossings, t_max, rtol,
            atol, t_min, time_sign, escape_sum, hits, ctypes.byref(n))
        h = hits[:4 * n.value]
        return status, list(zip(h[0::4], h[1::4], h[2::4], h[3::4]))

    def monodromy(self, x0, y0, k, F, t_total, rtol, atol):
        out = (ctypes.c_double * 6)()
        status = self._lib.gs_monodromy(x0, y0, k, F, t_total, rtol, atol, out)
        return (status, *out)

    def probe_cell(self, k, F):
        return self._lib.gs_probe_cell(k, F)


def _load():
    """(the C kernels, None), or (None, why they could not be built or
    loaded)."""
    try:
        return _CKernels(ctypes.CDLL(str(_build()))), None
    except OSError as exc:
        return None, f"{type(exc).__name__}: {exc}"


_compiled, COMPILED_ERROR = _load()

if os.environ.get("GSKIT_BACKEND", "").strip().lower() == "pure" or _compiled is None:
    _impl = _pure
else:
    _impl = _compiled


def available_backends() -> tuple:
    return ("pure",) if _compiled is None else ("compiled", "pure")


def get_backend() -> str:
    return _impl.BACKEND_NAME


def _use_backend(name: str) -> None:
    """Switch the active kernel implementation ('compiled' or 'pure')."""
    global _impl
    if name == "pure":
        _impl = _pure
    elif name == "compiled":
        if _compiled is None:
            raise RuntimeError(f"compiled kernels are not available: {COMPILED_ERROR}")
        _impl = _compiled
    else:
        raise ValueError(f"unknown backend {name!r}")


# The kernel interface.  Each entry point converts its arguments once, here:
# reals to float, counts and codes to int, flags to bool.  The pure kernels
# then run in Python float arithmetic whatever the caller passed (a numpy
# float64 would turn every stage, error norm and dense-output evaluation into
# numpy scalar arithmetic), and the C kernels receive the C types their
# signatures declare.


def _field_id(fid) -> int:
    """fid as an int; ValueError unless it is FIELD_PLANE or FIELD_CHART_V."""
    fid = int(fid)
    if fid not in (FIELD_PLANE, FIELD_CHART_V):
        raise ValueError(f"unknown field id {fid}")
    return fid

def integrate(fid, x0, y0, k, F, t_end, rtol, atol, max_steps,
              record, fixed_step=0.0, box=0.0):
    """Integrate field fid (FIELD_PLANE or FIELD_CHART_V) from (x0, y0)
    over [0, t_end]; see gskit._pure.integrate.  Returns (status, t, x, y,
    ts, xs, ys)."""
    return _impl.integrate(_field_id(fid), float(x0), float(y0), float(k), float(F),
                           float(t_end), float(rtol), float(atol),
                           int(max_steps), bool(record),
                           float(fixed_step), float(box))


def ray_crossings(x0, y0, k, F, cx, cy, dx, dy, orient, max_crossings,
                  t_max, rtol, atol, t_min, time_sign, escape_sum=0.0):
    """Crossings of the ray {(cx,cy) + s (dx,dy) : s > S_MIN} in the
    direction orient (+1 or -1); see gskit._pure.ray_crossings.  Returns
    (status, hits)."""
    return _impl.ray_crossings(float(x0), float(y0), float(k), float(F),
                               float(cx), float(cy), float(dx), float(dy),
                               int(orient), int(max_crossings), float(t_max),
                               float(rtol), float(atol), float(t_min),
                               float(time_sign), float(escape_sum))


def monodromy(x0, y0, k, F, t_total, rtol, atol):
    """State and variational matrix forward over [0, t_total]; see
    gskit._pure.monodromy.  Returns (status, x, y, m11, m12, m21, m22)."""
    return _impl.monodromy(float(x0), float(y0), float(k), float(F),
                           float(t_total), float(rtol), float(atol))


def probe_cell(k, F):
    """Label code of the map cell at positive k and F, CELL_LABELS[code]
    its map label; see gskit._pure.probe_cell."""
    return _impl.probe_cell(float(k), float(F))


def _field_eval(fid, sgn, x, y, k, F):
    """Vector field fid (FIELD_PLANE or FIELD_CHART_V) at (x, y), times
    sgn; ValueError for any other id.  For the backend-parity tests."""
    return _impl.field_eval(_field_id(fid), float(sgn), float(x), float(y),
                            float(k), float(F))
