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


def integrate(*args, **kwargs):
    return _impl.integrate(*args, **kwargs)


def ray_crossings(*args, **kwargs):
    return _impl.ray_crossings(*args, **kwargs)


def monodromy(*args, **kwargs):
    return _impl.monodromy(*args, **kwargs)


def field_eval(*args, **kwargs):
    return _impl.field_eval(*args, **kwargs)
