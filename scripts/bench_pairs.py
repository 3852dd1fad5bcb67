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
on even seeds and second on odd ones.  After each of those runs, one more
interpreter in the same copy, with GSKIT_THREADS=1, times each criterion of
one `acceptance.run_battery()` (its `elapsed`) and one 200x200
`mapping.region_map` over criterion 10's window.  The output records, per
workload and end-to-end metric, per criterion and for the map, each side's
run values with their median and quartiles and the number of pairs in
which the change's value is better, together with the operations attempted
and failed, the criteria each battery passed, the kernel backend each side
ran on and the number of cores.  After the pairs, the Tier-1 command
(`python -m pytest -q --continue-on-collection-errors` with src on
PYTHONPATH) runs once in each copy, the base first; its wall time and its
passed, failed, skipped and error counts go under `tier1`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
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


# one battery and one 200x200 map, timed in the interpreter that runs them
BATTERY_AND_MAP = """\
import json, time
from gskit import acceptance, mapping
results = acceptance.run_battery()
t0 = time.perf_counter()
mapping.region_map((1e-9, 0.07), (1e-9, 0.07), 200, 200)
print(json.dumps({"criteria": {str(r.number): r.elapsed for r in results},
                  "passed": sum(r.passed for r in results),
                  "map_s": time.perf_counter() - t0}))
"""


def run_once(tree: Path, seed: int) -> dict:
    """Metrics, operations and backends of one perfbench run in tree, and
    the times of one battery and one 200x200 map there."""
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
    env = {**os.environ, "GSKIT_THREADS": "1",
           "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", BATTERY_AND_MAP], cwd=tree,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the battery or the map failed in {tree}:\n"
                         f"{proc.stderr[-2000:]}")
    return {"metrics": metrics, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "backends": sorted(b for b in backends if b),
            **json.loads(proc.stdout)}


TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_tier1(tree: Path) -> dict:
    """Wall time, outcome counts and exit code of one Tier-1 run in tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    counts = dict.fromkeys(("passed", "failed", "skipped", "errors"), 0)
    for n, word in re.findall(r"(\d+) (passed|failed|skipped|errors?)\b",
                              lines[-1] if lines else ""):
        counts["errors" if word.startswith("error") else word] += int(n)
    return {"wall_s": wall, **counts, "exit": proc.returncode}


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(sides: dict, lower: bool) -> dict:
    """Each side's summary of its run values sides[side], the ratio of the
    medians, and the pairs in which the change's value is better."""
    won = sum((c < p) if lower else (c > p)
              for p, c in zip(sides["parent"], sides["change"]))
    entry = {side: summary(values) for side, values in sides.items()}
    entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
    entry["change_won"] = won
    return entry


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
                last = runs[side][-1]
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in last["metrics"].items()
                    if k.endswith("wall_s")) + f", map 200x200 {last['map_s']:.3g}",
                    flush=True)
        tier1 = {side: run_tier1(trees[side]) for side in ("parent", "change")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    workloads = {}
    for name in runs["change"][0]["metrics"]:
        workload, metric = name.split(".", 1)
        lower = METRICS.get(metric, "lower") == "lower"
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        workloads.setdefault(workload, {})[metric] = compare(sides, lower)
    criteria = {n: compare({side: [r["criteria"][n] for r in runs[side]]
                            for side in runs}, True)
                for n in runs["change"][0]["criteria"]}
    map_200 = compare({side: [r["map_s"] for r in runs[side]] for side in runs},
                      True)

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
            "battery_and_map": "after each perfbench run, one interpreter in "
                               "the same tree with GSKIT_THREADS=1 runs "
                               "acceptance.run_battery() (criteria: each "
                               "criterion's elapsed, s) and then times one "
                               "200x200 mapping.region_map over (1e-9, 0.07)^2 "
                               "(map_200x200, s)",
            "tier1": "after the pairs, one run of python "
                     + " ".join(TIER1) + " in each tree, the parent first, "
                     "with the tree's src on PYTHONPATH: wall_s and the "
                     "counts of its last pytest line",
        },
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "machine": platform.machine(),
                "backends": {side: sorted({b for r in runs[side] for b in r["backends"]})
                             for side in runs}},
        "operations": {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                              "failed": sum(r["failed"] for r in runs[side]),
                              "correct": all(r["correct"] for r in runs[side]),
                              "criteria_passed": [r["passed"] for r in runs[side]]}
                       for side in runs},
        "workloads": workloads,
        "criteria": criteria,
        "map_200x200": map_200,
        "tier1": tier1,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    rows = [(w, m, e) for w, metrics in workloads.items() for m, e in metrics.items()]
    rows += [("criterion", n, e) for n, e in criteria.items()]
    rows.append(("map", "200x200", map_200))
    for group, metric, e in rows:
        print(f"{group:9} {metric:12} {e['parent']['median']:.5g} -> "
              f"{e['change']['median']:.5g} (ratio {e['ratio']:.4f}); change "
              f"better in {e['change_won']} of {len(seeds)}; parent IQR "
              f"{e['parent']['q3'] - e['parent']['q1']:.3g}")
    for side, r in tier1.items():
        print(f"tier1     {side:12} {r['wall_s']:.1f} s: {r['passed']} passed, "
              f"{r['failed']} failed, {r['skipped']} skipped, {r['errors']} errors")


if __name__ == "__main__":
    main()
