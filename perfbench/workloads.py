"""The four benchmark workloads: seeded inputs, the timed public calls, and
the check of their outputs against the reference in reference.json.

Inputs come from fixed pools (built from POOL_SEED, never from --seed), so
every input a run can draw has an output recorded at the seed commit;
--seed only chooses which pool entries a run uses.  An operation is one
public call, or one cell of a map.  It fails when it raises, returns a
non-OK kernel status where OK is required, labels a map cell 'x', or
misses the reference.
"""
from __future__ import annotations

import hashlib
import importlib
import math
import random
from fractions import Fraction

from gskit import bautin, bt, continuation, dynamics, kernels, mapping
from gskit.core import Params, State
from gskit.equilibria import hopf_F

# The package re-exports the function `equilibria` over its submodule's name.
eqmod = importlib.import_module("gskit.equilibria")

WORKLOADS = ("map", "cycles", "verify", "portrait")
POOL_SEED = 1702033530
POOL = 16
TRAJ_POOL = 64

MAP_WINDOW = (1e-9, 0.07)          # the criterion-10 window, in k and in F
MAP_GRID = 14
MAP_JITTER = 0.05                  # grid offset, as a share of a cell
CENSUS_SCAN = 120
CENSUS_BASES = [(0.025, 1e-5), (0.05, 1e-5)]
PORTRAIT_BASES = [(0.027, -5e-5), (0.05, 6e-5)]
LPC_K = 0.034                      # criterion 7's two-cycle point, F = hopf_F(k) - 2e-6
LPC_POINTS = 3
HOM_TOL = 1e-8                     # criterion 8's bisection tolerance
RATIONAL_POINTS = 3
TRAJECTORIES = 32

# Float outputs of integration and continuation are compared within these;
# exact-arithmetic outputs are compared as strings, by equality.
RTOL, ATOL = 1e-6, 1e-10


def _rng(name):
    return random.Random(f"{POOL_SEED}:{name}")


def _pool_map():
    r = _rng("map")
    return [(MAP_JITTER * r.random(), MAP_JITTER * r.random()) for _ in range(POOL)]


def _pool_near(name, bases):
    """Each base point (k, dF) perturbed by up to 1% in k and 10% in dF; the
    perturbation changes every float a run computes but not the regime, so
    the cost of a pass does not depend on which entries a seed draws."""
    r = _rng(name)
    return [[(k * (1 + r.uniform(-0.01, 0.01)), d * (1 + r.uniform(-0.1, 0.1)))
             for k, d in bases] for _ in range(POOL)]


def _pool_uniform(name, lo, hi):
    r = _rng(name)
    return [r.uniform(lo, hi) for _ in range(POOL)]


def _pool_rational():
    r = _rng("rational")
    out = []
    while len(out) < POOL:
        q = r.randint(5, 60)
        y = Fraction(r.randint(1, q - 1), q)
        if y not in out:
            out.append(y)
    return out


def _pool_traj():
    r = _rng("traj")
    return [(r.uniform(0.01, 0.09), r.uniform(0.005, 0.12),
             r.uniform(0.0, 1.2), r.uniform(0.0, 0.8)) for _ in range(TRAJ_POOL)]


POOLS = {
    "map": _pool_map(),
    # census points straddle the Hopf curve on both sides of the generalized
    # Hopf point k = 9/256: F = hopf_F(k) -/+ dF
    "census": _pool_near("census", CENSUS_BASES),
    "hom": _pool_uniform("hom", 0.058, 0.0624),
    "rational": _pool_rational(),
    # criterion 5 seeds its curves at k0 = 0.03
    "k0": [0.03 * (1 + x) for x in _pool_uniform("k0", -0.05, 0.05)],
    # F = hopf_F(k) + dF: an attracting cycle below the Hopf curve at small k,
    # a repelling one above it at large k
    "portrait": _pool_near("portrait", PORTRAIT_BASES),
    "traj": _pool_traj(),
}


def select(workload: str, seed: int) -> dict:
    """Pool indices a run uses; the same seed gives the same inputs."""
    r = random.Random(f"{workload}:{seed}")
    if workload == "map":
        return {"map": [r.randrange(POOL)]}
    if workload == "cycles":
        return {"census": [r.randrange(POOL)], "hom": [r.randrange(POOL)]}
    if workload == "verify":
        return {"rational": r.sample(range(POOL), RATIONAL_POINTS),
                "k0": [r.randrange(POOL)]}
    if workload == "portrait":
        return {"portrait": [r.randrange(POOL)],
                "traj": r.sample(range(TRAJ_POOL), TRAJECTORIES)}
    raise ValueError(f"unknown workload {workload!r}")


def everything(workload: str) -> dict:
    """Selection covering the whole pool, used to record the reference."""
    sel = select(workload, 0)
    return {kind: list(range(len(POOLS[kind]))) for kind in sel}


# ---------------------------------------------------------------------------
# Timed passes.  Each appends (key, result or exception) to `out`; keys name
# the reference entry.  Every public call goes through its module attribute,
# so a traced pass sees it.
# ---------------------------------------------------------------------------

def _attempt(out, key, fn, *args, **kwargs):
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        res = exc
    out.append((key, res))
    return res


def map_ranges(i):
    fk, fF = POOLS["map"][i]
    lo, hi = MAP_WINDOW
    h = (hi - lo) / MAP_GRID
    k0, F0 = lo + fk * h, lo + fF * h
    return (k0, k0 + (MAP_GRID - 1) * h), (F0, F0 + (MAP_GRID - 1) * h)


def run_map(sel, out):
    for i in sel["map"]:
        kr, Fr = map_ranges(i)
        res = _attempt(out, f"map/{i}", mapping.region_map, kr, Fr,
                       MAP_GRID, MAP_GRID, fast=True, threads=1)
        if not isinstance(res, Exception):
            _attempt(out, f"map_csv/{i}", mapping.map_to_csv, *res)


def run_cycles(sel, out):
    for i in sel["census"]:
        for j, (k, d) in enumerate(POOLS["census"][i]):
            Fh = float(hopf_F(k))
            for side, F in (("below", Fh - d), ("above", Fh + d)):
                _attempt(out, f"census_{side}/{i}.{j}", dynamics.limit_cycle_census,
                         Params(k, F), n_scan=CENSUS_SCAN)
    a = Params(LPC_K, float(hopf_F(LPC_K)) - 2e-6)
    seed = _attempt(out, "lpc_seed/0", continuation.lpc_seed_from_region3, a)
    if not isinstance(seed, Exception):
        for name, direction in (("lpc_up", 1.0), ("lpc_down", -1.0)):
            _attempt(out, f"{name}/0", continuation.lpc_curve, seed,
                     max_points=LPC_POINTS, k_bounds=(5e-3, 9 / 256 - 5e-5),
                     direction=direction)
    for i in sel["hom"]:
        _attempt(out, f"hom/{i}", continuation.homoclinic_F, POOLS["hom"][i],
                 f_tol=HOM_TOL)


def rational_hopf_point(y: Fraction) -> Params:
    """Exact point on the Hopf curve: x = (1 - y^2)/4, k = x^2,
    F = (x - 2x^2 - xy)/2."""
    x = (1 - y * y) / 4
    return Params(x * x, (x - 2 * x * x - x * y) / 2)


def run_verify(sel, out):
    _attempt(out, "bt/0", bt.bt_nondegeneracy)
    _attempt(out, "gh_locate/0", bautin.gh_locate)
    _attempt(out, "l2_gh_exact/0", bautin.l2_gh_exact)
    _attempt(out, "param_map/0", bautin.param_map_transversality)
    _attempt(out, "newton_bt/0", continuation.newton_bt)
    for i in sel["rational"]:
        a = rational_hopf_point(POOLS["rational"][i])
        eq = _attempt(out, f"eq_exact/{i}", eqmod.equilibria, a)
        if not isinstance(eq, Exception):
            _attempt(out, f"classify_exact/{i}", eqmod.classify, eq.p_mp, a)
        _attempt(out, f"l1_exact/{i}", bautin.l1_clw, a)
        _attempt(out, f"l2_float/{i}", bautin.l2_kuz, Params(float(a.k), float(a.F)))
    for i in sel["k0"]:
        k0 = POOLS["k0"][i]
        for name, kind, seed, direction, events in (
                ("hopf_up", "hopf", continuation.hopf_seed(k0), 1.0, True),
                ("hopf_down", "hopf", continuation.hopf_seed(k0), -1.0, True),
                ("fold_lower", "fold", continuation.fold_seed(k0, "lower"), 1.0, False)):
            _attempt(out, f"{name}/{i}", continuation.continue_curve, kind, seed,
                     direction=direction, detect_events=events)


def run_portrait(sel, out):
    for i in sel["portrait"]:
        for j, (k, d) in enumerate(POOLS["portrait"][i]):
            a = Params(k, float(hopf_F(k)) + d)
            _attempt(out, f"portrait/{i}.{j}", dynamics.render_portrait, a)
            _attempt(out, f"manifold/{i}.{j}", dynamics.manifold_from_infinity, a)
    for i in sel["traj"]:
        k, F, u0, v0 = POOLS["traj"][i]
        _attempt(out, f"traj/{i}", dynamics.integrate, State(u0, v0), Params(k, F), 200.0)


RUNNERS = {"map": run_map, "cycles": run_cycles, "verify": run_verify,
           "portrait": run_portrait}


# ---------------------------------------------------------------------------
# Summaries: what of each output the reference pins down
# ---------------------------------------------------------------------------

def _s(x):
    return str(x)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cycles(cycles):
    return {"n": len(cycles), "stability": "".join("s" if c.stable else "u" for c in cycles),
            "radius": [c.radius for c in cycles], "period": [c.period for c in cycles],
            "multiplier": [c.nontrivial_multiplier for c in cycles]}


def _curve(run):
    return {"status": run.status, "n": len(run.points),
            "k": [float(p.params.k) for p in run.points],
            "F": [float(p.params.F) for p in run.points],
            "events": [[e.name, float(e.params.k), float(e.params.F)] for e in run.events]}


def _lpc(run):
    s = _curve(run)
    s["radius"] = [p.aux["radius"] for p in run.points]
    return s


def summarize(key: str, res):
    """JSON-able summary of one operation's result.  Entries under
    'same_backend' are compared only against a reference recorded on the
    same kernel backend (byte digests and step-dependent sample counts)."""
    kind = key.split("/")[0]
    if kind == "map":
        labels, _ = res
        return {"labels": [lab for row in labels for lab in row]}
    if kind == "map_csv":
        return {"sha256": _sha(res)}
    if kind.startswith("census_"):
        return _cycles(res)
    if kind == "lpc_seed":
        return {"seed": [float(x) for x in res]}
    if kind in ("lpc_up", "lpc_down"):
        return _lpc(res)
    if kind == "hom":
        F, width = res
        return {"F": F, "width_ok": width <= HOM_TOL}
    if kind == "bt":
        return {"a20": _s(res.a20), "b20": _s(res.b20), "b11": _s(res.b11),
                "s": res.s, "det": _s(res.transversality_det)}
    if kind == "gh_locate":
        gh = res["gh"]
        return {"matches_expected": res["matches_expected"], "sign": res["sign"],
                "roots": _s(res["roots"]), "k": _s(gh["k"]), "F": _s(gh["F"]),
                "point": _s(gh["point"])}
    if kind == "l2_gh_exact":
        return {"c1": repr(res[0]), "c2": repr(res[1])}
    if kind in ("param_map", "l2_float"):
        return {"value": float(res)}
    if kind == "newton_bt":
        return {"value": list(res)}
    if kind == "eq_exact":
        return {"kind": res.kind, "p_mp": _s(res.p_mp), "p_pm": _s(res.p_pm)}
    if kind == "classify_exact":
        return {"label": res.label, "trace": _s(res.trace), "det": _s(res.det)}
    if kind == "l1_exact":
        return {"value": _s(res)}
    if kind in ("hopf_up", "hopf_down", "fold_lower"):
        return _curve(res)
    if kind == "portrait":
        svg, csv, meta = res
        return {"cycles": [[c["radius"], c["period"], c["multiplier"], c["stable"]]
                           for c in meta["cycles"]],
                "equilibria": [[e["u"], e["v"], e["class"]] for e in meta["equilibria"]],
                "polylines": svg.count("<polyline"),
                "same_backend": {"svg_sha256": _sha(svg), "csv_sha256": _sha(csv)}}
    if kind == "manifold":
        entry, tag = res
        return {"entry": None if entry is None else [entry.u, entry.v], "attractor": tag}
    if kind == "traj":
        return {"status": res.status, "final": [float(res.u[-1]), float(res.v[-1])],
                "same_backend": {"samples": len(res.t)}}
    raise KeyError(key)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def check(results: list, ref: dict, same_backend: bool) -> tuple:
    """(attempted, failed, messages) for one pass's results."""
    attempted = failed = 0
    msgs = []
    for key, res in results:
        want = ref.get(key)
        n = MAP_GRID * MAP_GRID if key.startswith("map/") else 1
        attempted += n
        if isinstance(res, Exception):
            failed += n
            msgs.append(f"{key}: raised {type(res).__name__}: {res}")
            continue
        got = summarize(key, res)
        if want is None:
            failed += n
            msgs.append(f"{key}: no reference entry")
            continue
        if key.startswith("map/"):
            bad = sum(1 for g, w in zip(got["labels"], want["labels"])
                      if g == "x" or g != w)
            bad += abs(len(got["labels"]) - len(want["labels"]))
            failed += min(bad, n)
            if bad:
                msgs.append(f"{key}: {bad} cells labelled 'x' or off the reference")
            continue
        if key.startswith("traj/") and got["status"] != kernels.OK:
            failed += 1
            msgs.append(f"{key}: kernel status {got['status']}, OK required")
            continue
        if not same_backend:
            got.pop("same_backend", None)
            want = {k: v for k, v in want.items() if k != "same_backend"}
        if not _close(got, want):
            failed += 1
            msgs.append(f"{key}: {got} != reference {want}")
    return attempted, failed, msgs


def corrupt(value):
    """A reference entry every correct output misses (negative control)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * (1 + 1e-3) + 1e-3
    if isinstance(value, str):
        return value + "#"
    if isinstance(value, list):
        return [corrupt(v) for v in value] if value else ["#"]
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    return "#"
