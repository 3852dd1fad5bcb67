"""Kernel backend selection: compiled extension with pure-Python fallback.

The compiled module gskit._speedups implements the hot loops (adaptive
Dormand-Prince stepping, ray-crossing event location, variational
propagation); gskit._pure is the behaviorally identical reference.  Import
picks the compiled one when present; set GSKIT_BACKEND=pure to force the
fallback, and use use_backend() in tests/benchmarks to switch explicitly.

Status codes, shared by both backends (documented in gskit._pure): OK,
MAX_STEPS, UNDERFLOW, BOX_EXIT (left the stop box), CAPTURED (ray_crossings
only: the orbit entered an invariant box around the trivial node that the
ray misses, so no further crossing can occur) and SETTLED (ray_crossings
only: the newest three section radii agree within SETTLE_TOL).
"""
from __future__ import annotations

import os

from . import _pure

_FORCED = os.environ.get("GSKIT_BACKEND", "").strip().lower()

try:
    from . import _speedups as _compiled
except ImportError:
    _compiled = None

if _FORCED == "pure" or _compiled is None:
    _impl = _pure
else:
    _impl = _compiled


def available_backends() -> tuple:
    return ("pure",) if _compiled is None else ("compiled", "pure")


def get_backend() -> str:
    return _impl.BACKEND_NAME


def use_backend(name: str) -> None:
    """Switch the active kernel implementation ('compiled' or 'pure')."""
    global _impl
    if name == "pure":
        _impl = _pure
    elif name == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernels are not available")
        _impl = _compiled
    else:
        raise ValueError(f"unknown backend {name!r}")


OK = _pure.OK
MAX_STEPS = _pure.MAX_STEPS
UNDERFLOW = _pure.UNDERFLOW
BOX_EXIT = _pure.BOX_EXIT
CAPTURED = _pure.CAPTURED
SETTLED = _pure.SETTLED
SETTLE_TOL = _pure.SETTLE_TOL

FIELD_PLANE = _pure.FIELD_PLANE
FIELD_CHART_U = _pure.FIELD_CHART_U
FIELD_CHART_V = _pure.FIELD_CHART_V


# The kernel interface.  Each entry point converts its arguments once, here:
# reals to float, counts and codes to int, flags to bool.  The pure kernels
# then run in Python float arithmetic whatever the caller passed (a numpy
# float64 would turn every stage, error norm and dense-output evaluation into
# numpy scalar arithmetic), and the compiled kernels receive the C types
# their signatures declare.

def integrate(fid, x0, y0, k, F, t_end, rtol, atol, max_step, max_steps,
              time_sign, quadrant_guard, record, fixed_step=0.0,
              box_x=0.0, box_y=0.0):
    """Integrate field fid from (x0, y0) over [0, t_end]; see
    gskit._pure.integrate.  Returns (status, t, x, y, ts, xs, ys)."""
    return _impl.integrate(int(fid), float(x0), float(y0), float(k), float(F),
                           float(t_end), float(rtol), float(atol),
                           float(max_step), int(max_steps), float(time_sign),
                           bool(quadrant_guard), bool(record),
                           float(fixed_step), float(box_x), float(box_y))


def ray_crossings(x0, y0, k, F, cx, cy, dx, dy, orient, max_crossings,
                  t_max, rtol, atol, max_step, s_min, t_min, time_sign,
                  quadrant_guard, max_steps=20_000_000, box=0.0):
    """Crossings of the ray {(cx,cy) + s (dx,dy) : s > s_min}; see
    gskit._pure.ray_crossings.  Returns (status, hits)."""
    return _impl.ray_crossings(float(x0), float(y0), float(k), float(F),
                               float(cx), float(cy), float(dx), float(dy),
                               int(orient), int(max_crossings), float(t_max),
                               float(rtol), float(atol), float(max_step),
                               float(s_min), float(t_min), float(time_sign),
                               bool(quadrant_guard), int(max_steps), float(box))


def monodromy(x0, y0, k, F, t_total, rtol, atol, max_step, time_sign=1.0,
              max_steps=20_000_000):
    """State and variational matrix over [0, t_total]; see
    gskit._pure.monodromy.  Returns (status, x, y, m11, m12, m21, m22)."""
    return _impl.monodromy(float(x0), float(y0), float(k), float(F),
                           float(t_total), float(rtol), float(atol),
                           float(max_step), float(time_sign), int(max_steps))


def field_eval(fid, sgn, x, y, k, F):
    """Vector field fid at (x, y), times sgn."""
    return _impl.field_eval(int(fid), float(sgn), float(x), float(y),
                            float(k), float(F))
