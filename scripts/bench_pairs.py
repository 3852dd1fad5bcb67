#!/usr/bin/env python3
"""Benchmark a change against a base commit in alternating pairs.

Usage (from the repository root):
    python3 scripts/bench_pairs.py --base REF --out BENCH_<pr>.json [--pairs N]

The base commit is exported with `git archive` into a temporary directory
(no worktree is registered, so an interrupted run leaves nothing in .git),
and the working tree's tracked and unignored files are copied into another,
so both sides run from a fresh copy and neither from the checkout (where a
run's peak RSS read up to 0.25 MB higher than from an export of the same
code).  For each seed 1..N, `perfbench/run.py --workload all --trace 0`
runs for BENCHMARK.json's `run_seconds` once in each copy, the base first
on even seeds and second on odd ones.  The
output records, per workload and end-to-end metric, each side's run values
with their median and quartiles and the number of pairs in which the
change's value is better, together with the operations attempted and
failed, the kernel backend each side ran on and the number of cores.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    """The files of commit ref, written under dest."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and unignored files, copied under dest."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    for name in dict.fromkeys(n for n in names if n):
        src = ROOT / name
        if src.is_file():    # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)


def command(seed) -> list:
    return ["perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", f"{BENCHMARK['run_seconds']:g}", "--trace", "0"]


def run_once(tree: Path, seed: int) -> dict:
    """Metrics, operations and backends of one perfbench run in tree."""
    proc = subprocess.run(
        [sys.executable, *command(seed)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench/run.py failed in {tree}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    backends = {json.loads(line[5:]).get("backend") for line in lines
                if line.startswith("env: ")}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": metrics, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "backends": sorted(b for b in backends if b)}


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the base commit")
    ap.add_argument("--out", required=True, help="BENCH_<pr>.json to write")
    ap.add_argument("--pairs", type=int, default=10, help="number of seeds")
    args = ap.parse_args()

    seeds = list(range(1, args.pairs + 1))
    runs = {"parent": [], "change": []}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    try:
        for tree in trees.values():
            tree.mkdir()
        export(args.base, trees["parent"])
        copy_working_tree(trees["change"])
        for seed in seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], seed))
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in runs[side][-1]["metrics"].items()
                    if k.endswith("wall_s")), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    workloads = {}
    for name in runs["change"][0]["metrics"]:
        workload, metric = name.split(".", 1)
        lower = METRICS.get(metric, "lower") == "lower"
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(sides["parent"], sides["change"]))
        entry = {side: summary(values) for side, values in sides.items()}
        entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_won"] = won
        workloads.setdefault(workload, {})[metric] = entry

    report = {
        "parent_commit": git("rev-parse", args.base),
        "change_base_commit": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "harness": {
            "command": " ".join(["python3", *command("S")]),
            "seeds": seeds,
            "pairs": "one parent run and one change run per seed; the parent "
                     "runs first on even seeds and second on odd seeds",
            "trees": "the parent runs in a git archive export of the base "
                     "commit and the change in a copy of the working tree's "
                     "tracked and unignored files, each in a temporary "
                     "directory; neither runs in the checkout",
            "metric_runs": "each run's value is the median over the passes of "
                           "one run; q1/q3 are statistics.quantiles(n=4, "
                           "method='inclusive') of the run values",
            "change_won": "pairs in which the change's value is better",
        },
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "machine": platform.machine(),
                "backends": {side: sorted({b for r in runs[side] for b in r["backends"]})
                             for side in runs}},
        "operations": {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                              "failed": sum(r["failed"] for r in runs[side]),
                              "correct": all(r["correct"] for r in runs[side])}
                       for side in runs},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, metrics in workloads.items():
        for metric, e in metrics.items():
            print(f"{workload:9} {metric:12} {e['parent']['median']:.5g} -> "
                  f"{e['change']['median']:.5g} (ratio {e['ratio']:.4f}); change "
                  f"better in {e['change_won']} of {len(seeds)}; parent IQR "
                  f"{e['parent']['q3'] - e['parent']['q1']:.3g}")


if __name__ == "__main__":
    main()
