"""Command-line surface: verification batteries, curve generation,
continuation runs, cycle census, portraits, parameter maps, and the one-shot
acceptance battery.

Numbers given as 'p/q' run through exact rational arithmetic; decimals take
the floating-point path.  Outputs are deterministic for fixed arguments.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bautin, bt, continuation, dynamics, mapping
from .core import Params, State
from .equilibria import (classify, disc_curve_F, discriminants, equilibria,
                         hopf_F, neutral_saddle_F, saddle_node_F)
from .errors import DomainError, GSKitError
from .ratmath import Sqrt2, parse_number


def _json_default(o):
    if isinstance(o, Fraction):
        return {"num": o.numerator, "den": o.denominator, "value": float(o)}
    if isinstance(o, (State, Params)):
        return o.__dict__ if hasattr(o, "__dict__") else str(o)
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    return str(o)


def _write(text: str, out: str | None):
    """text to the file out, or to stdout without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None):
    _write(json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
           + "\n", out)


def _num_pair(pt) -> dict:
    return {"u": pt.u, "v": pt.v}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eq(args) -> int:
    a = Params(args.k, args.F)
    d = discriminants(a)
    eq = equilibria(a)
    reports = {}
    for name, pt in (("p0", eq.p0), ("p_mp", eq.p_mp), ("p_pm", eq.p_pm)):
        if pt is None:
            continue
        rep = classify(pt, a)
        reports[name] = {
            "point": _num_pair(pt),
            "class": rep.label,
            "trace": rep.trace,
            "det": rep.det,
            "disc": rep.disc,
            "eigenvalues": [str(e) for e in rep.eigenvalues],
        }
    _emit_json({
        "schema": 1,
        "k": a.k, "F": a.F,
        "gamma": d.gamma, "Delta": d.delta,
        "kind": eq.kind,
        "exact": a.is_exact(),
        "equilibria": reports,
    }, args.out)
    return 0


def cmd_verify_bt(args) -> int:
    rep = bt.bt_nondegeneracy()
    a20, b20, b11, s = rep.a20, rep.b20, rep.b11, rep.s
    det = rep.transversality_det
    if args.mutate:
        # negative control: corrupt the computed model and watch checks fail
        b20, det = -b20, det + Fraction(1, 512)
        s = -s
    checks = {
        "a20_is_-1/2": a20 == Fraction(-1, 2),
        "b20_is_-1/16": b20 == Fraction(-1, 16),
        "b11_is_0": b11 == 0,
        "bt1_a20_plus_b11_nonzero": a20 + b11 != 0,
        "bt2_b20_nonzero": b20 != 0,
        "s_is_+1": s == 1,
        "transversality_det_is_-1/512": det == Fraction(-1, 512),
    }
    _emit_json({
        "schema": 1,
        "params": {"k": bt.BT_PARAMS.k, "F": bt.BT_PARAMS.F},
        "point": _num_pair(bt.BT_POINT),
        "a20": a20, "b20": b20, "b11": b11, "s": s,
        "transversality_det": det,
        "checks": checks,
        "mutated": bool(args.mutate),
        "all_passed": all(checks.values()),
    }, args.out)
    return 0 if all(checks.values()) else 1


def cmd_verify_bautin(args) -> int:
    loc = bautin.gh_locate()
    if args.mutate:
        loc["matches_expected"] = False
        loc["gh"] = None
    c1, c2 = bautin.l2_gh_exact()
    l1_left = bautin.l1_clw(Params(Fraction(25, 1296), Fraction(5, 1296)))
    l1_right = bautin.l1_clw(Params(Fraction(4, 81), Fraction(2, 81)))
    det = bautin.param_map_transversality()
    gh_ok = (loc["gh"] is not None
             and loc["gh"]["k"] == Fraction(9, 256)
             and loc["gh"]["F"] == Fraction(3, 256))
    checks = {
        "resultant_matches_2_(y-1)^16_(2y-1)": loc["matches_expected"],
        "gh_at_9/256_3/256": gh_ok,
        "gh_point_1/4_3/16": (loc["gh"] is not None and
                              loc["gh"]["point"] == State(Fraction(1, 4), Fraction(3, 16))),
        "l1_negative_left_of_gh": l1_left < 0,
        "l1_positive_right_of_gh": l1_right > 0,
        "l1_zero_at_gh_exact": bautin.l1_clw(bautin.GH_PARAMS) == 0,
        "re_c1_zero_exact": c1.re.is_zero(),
        "l2_positive_exact": c2.re.sign() > 0,
        "param_map_det_9sqrt2/2_exact": det == Sqrt2(0, Fraction(9, 2)),
    }
    _emit_json({
        "schema": 1,
        "gh": None if loc["gh"] is None else {
            "k": loc["gh"]["k"], "F": loc["gh"]["F"],
            "point": _num_pair(loc["gh"]["point"]),
        },
        "resultant_sign": loc["sign"],
        "resultant_roots": [{"root": r, "multiplicity": m} for r, m in loc["roots"]],
        "l1_exact_left": l1_left, "l1_exact_right": l1_right,
        "l2_exact_re_c2": c2.re.a,
        "l2_float": bautin.l2_kuz(bautin.GH_PARAMS),
        "param_map_det": {"a": det.a, "b": det.b, "value": float(det)},
        "checks": checks,
        "mutated": bool(args.mutate),
        "all_passed": all(checks.values()),
    }, args.out)
    return 0 if all(checks.values()) else 1


def cmd_curves(args) -> int:
    ks = np.linspace(*args.k_range, args.n)
    lines = ["curve,k,F"]
    for k in ks:
        k = float(k)
        try:
            if args.which == "sn":
                up, down = saddle_node_F(k)
                lines.append(f"sn_upper,{k!r},{float(up)!r}")
                lines.append(f"sn_lower,{k!r},{float(down)!r}")
            elif args.which == "hopf":
                lines.append(f"hopf,{k!r},{float(hopf_F(k))!r}")
            elif args.which == "neutral":
                lines.append(f"neutral,{k!r},{float(neutral_saddle_F(k))!r}")
            elif args.which == "disc":
                for F in disc_curve_F(k):
                    lines.append(f"disc,{k!r},{F!r}")
        except DomainError:
            continue
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _curve_csv(result) -> str:
    aux_keys = sorted({k for p in result.points for k in p.aux})
    tan_len = max((len(p.tangent) for p in result.points), default=0)
    header = (["k", "F"] + [f"aux_{k}" for k in aux_keys]
              + [f"tangent_{i}" for i in range(tan_len)] + ["arc_step", "flags"])
    lines = [",".join(header)]
    ev_params = {(float(e.params.k), float(e.params.F)): e.name for e in result.events}
    for p in result.points:
        row = [repr(float(p.params.k)), repr(float(p.params.F))]
        row += [repr(float(p.aux.get(k, float("nan")))) for k in aux_keys]
        row += [repr(float(t)) for t in p.tangent]
        row += [""] * (tan_len - len(p.tangent))
        flag = ev_params.get((float(p.params.k), float(p.params.F)), "")
        row += [repr(float(p.arc_step)), flag]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_continue(args) -> int:
    kind = args.curve
    if kind == "hopf":
        seed = continuation.hopf_seed(args.k0)
        result = continuation.continue_curve("hopf", seed, direction=args.direction)
    elif kind == "fold":
        seed = continuation.fold_seed(args.k0, args.branch)
        result = continuation.continue_curve("fold", seed, direction=args.direction)
    elif kind == "lpc":
        _, F_mid, _ = continuation.lpc_bracket(args.k0)
        seed = continuation.lpc_seed_from_region3(Params(args.k0, F_mid))
        result = continuation.lpc_curve(seed, max_points=args.n)
    elif kind == "homoclinic":
        result = continuation.homoclinic_curve(np.linspace(*args.k_range, args.n))
    else:
        raise DomainError(f"unknown curve {kind!r}")
    if args.format == "json":
        payload = {
            "schema": 1,
            "kind": result.kind,
            "status": result.status,
            "points": [{"k": float(p.params.k), "F": float(p.params.F),
                        "aux": p.aux, "tangent": list(p.tangent),
                        "arc_step": p.arc_step} for p in result.points],
            "events": [{"name": e.name, "k": float(e.params.k),
                        "F": float(e.params.F)} for e in result.events],
        }
        _emit_json(payload, args.out)
    else:
        _write(_curve_csv(result), args.out)
    return 0


def cmd_cycles(args) -> int:
    a = Params(args.k, args.F)
    cycles = dynamics.limit_cycle_census(a)
    _emit_json({
        "schema": 1,
        "k": float(a.k), "F": float(a.F),
        "count": len(cycles),
        "cycles": [{
            "section_point": _num_pair(c.section_point),
            "radius": c.radius,
            "period": c.period,
            "nontrivial_multiplier": c.nontrivial_multiplier,
            "stable": c.stable,
            "section_direction": list(c.section_normal),
        } for c in cycles],
    }, args.out)
    return 0


def cmd_portrait(args) -> int:
    a = Params(args.k, args.F)
    svg, csv_text, meta = dynamics.render_portrait(a)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"portrait_k{float(a.k):g}_F{float(a.F):g}"
    (outdir / f"{stem}.svg").write_text(svg)
    (outdir / f"{stem}.csv").write_text(csv_text)
    (outdir / f"{stem}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {stem}.svg/.csv/.json in {outdir}\n")
    return 0


def cmd_map(args) -> int:
    nk, nF = args.grid
    k_lo, k_hi = args.k
    F_lo, F_hi = args.F
    labels, meta = mapping.region_map(
        (max(k_lo, 1e-9), k_hi), (max(F_lo, 1e-9), F_hi), nk, nF,
        fast=not args.census)
    _write(mapping.map_to_csv(labels, meta), args.out)
    return 0


def cmd_repro(args) -> int:
    # only this command needs the battery, so only it pays for its import
    from . import acceptance

    # a malformed GSKIT_THREADS is a usage error, not a failed criterion 10
    mapping.thread_budget()
    numbers = set(args.only) if args.only else None
    results = acceptance.run_battery(numbers)
    sys.stdout.write(acceptance.format_battery(results) + "\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_infinity_scan(args) -> int:
    a = Params(args.k, args.F)
    entry, attractor = dynamics.manifold_from_infinity(a)
    _emit_json({
        "schema": 1,
        "k": float(a.k), "F": float(a.F),
        "entry": None if entry is None else _num_pair(entry),
        "attractor": attractor,
        "note": "experimental diagnostic for the infinity-connection scan",
    }, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument types: a malformed value is a usage error (exit 2)

def parse_range(text: str) -> tuple:
    """'lo..hi' or 'lo:hi' as a pair of floats."""
    lo, hi = text.split("..") if ".." in text else text.split(":")
    return float(parse_number(lo)), float(parse_number(hi))


def parse_grid(text: str) -> tuple:
    """'NKxNF' as a pair of ints."""
    nk, nF = (int(s) for s in text.lower().split("x"))
    return nk, nF


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gskit",
        description="Bifurcation toolkit for the homogeneous Gray-Scott kinetics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eq", help="equilibria and stability at one parameter point")
    p.add_argument("--k", type=parse_number, required=True)
    p.add_argument("--F", type=parse_number, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("verify-bt", help="double-zero checkpoint battery")
    p.add_argument("--mutate", action="store_true",
                   help="corrupt the model first (negative control)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify_bt)

    p = sub.add_parser("verify-bautin", help="generalized-Hopf checkpoint battery")
    p.add_argument("--mutate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify_bautin)

    p = sub.add_parser("curves", help="closed-form curve samples as CSV")
    p.add_argument("--which", choices=("sn", "hopf", "neutral", "disc"), required=True)
    p.add_argument("--k-range", type=parse_range, default="0.001..0.0625")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_curves)

    p = sub.add_parser("continue", help="curve continuation")
    p.add_argument("--curve", choices=("hopf", "fold", "lpc", "homoclinic"),
                   required=True)
    p.add_argument("--k0", type=float, default=0.03)
    p.add_argument("--branch", choices=("upper", "lower"), default="lower")
    p.add_argument("--direction", type=float, default=1.0,
                   help="+1 continues a hopf or fold curve toward increasing F")
    p.add_argument("--k-range", type=parse_range, default="0.058..0.0624")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_continue)

    p = sub.add_parser("cycles", help="limit-cycle census at one parameter point")
    p.add_argument("--k", type=parse_number, required=True)
    p.add_argument("--F", type=parse_number, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("portrait", help="phase portrait (SVG + CSV + JSON)")
    p.add_argument("--k", type=parse_number, required=True)
    p.add_argument("--F", type=parse_number, required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_portrait)

    p = sub.add_parser("map", help="region labels over a parameter grid (CSV)")
    p.add_argument("--grid", type=parse_grid, default="200x200")
    p.add_argument("--k", type=parse_range, default="0..0.07")
    p.add_argument("--F", type=parse_range, default="0..0.07")
    p.add_argument("--census", action="store_true",
                   help="use the full census classifier (slow, for zoom insets)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("repro", help="run the acceptance battery")
    p.add_argument("--only", type=int, nargs="*", help="criterion numbers")
    p.set_defaults(fn=cmd_repro)

    p = sub.add_parser("infinity-scan",
                       help="follow the manifold from the point at infinity "
                            "(experimental; no acceptance weight)")
    p.add_argument("--k", type=parse_number, required=True)
    p.add_argument("--F", type=parse_number, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_infinity_scan)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except GSKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
