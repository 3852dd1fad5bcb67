#!/usr/bin/env python3
"""gskit benchmark: run one workload and print its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload {map,cycles,verify,portrait,all}
        --seed N --seconds S --trace {0,1} [--mutate]

Passes run back to back for S seconds, each in a fresh interpreter
(one_pass.py), so no pass reuses interpreter state.  Each pass yields a
set-up time (interpreter start to every gskit module imported) and a wall
time (the workload's public calls), and checks its outputs against
reference.json.  With --trace 0 the
last line carries the end-to-end metrics; with --trace 1, traced and
untraced passes alternate and it carries the per-layer metrics.  --mutate
corrupts the reference (negative control): every check must then fail.
`--workload all` runs the four in turn, S seconds each, and its last line
prefixes each metric with its workload.  Each workload's whole result, with
the environment, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("map", "cycles", "verify", "portrait")
RUN_LIMIT_S = 170          # a run must end within 180 s: no pass starts or runs past this


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one worker: no thread pools under numpy, no process pool in mapping
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GSKIT_THREADS"):
        env[var] = "1"
    return env


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (a
    benchmark checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


IMPORT_CMD = [sys.executable, "-c", "import gskit.cli; print(gskit.__file__)"]


def check_import(env) -> None:
    """Exit without a result unless the checkout's own gskit imports; the
    import also writes the bytecode cache before anything is timed."""
    warm = subprocess.run(IMPORT_CMD, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    expected = ROOT / "src" / "gskit" / "__init__.py"
    if warm.returncode != 0 or Path(warm.stdout.strip()) != expected:
        sys.stderr.write(f"cannot import gskit from {expected}:\n{warm.stderr}")
        sys.exit(2)


def run_pass(env, workload, seed, spans, mutate, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans:
        cmd += ["--spans", str(spans)]
    if mutate:
        cmd.append("--mutate")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready_at"] - started
    return res


def high_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"none (needs 11 samples, have {n})"
    q = int(100 * (n - 10) / n)
    return f"p{q} = {statistics.quantiles(values, n=100)[q - 1]:.4f}"


def run_workload(workload, args, env) -> dict:
    """Run one workload's passes, print its metrics and write its result."""
    t_start = time.perf_counter()
    passes, traced = [], []
    deadline = t_start + args.seconds
    i = 0
    while True:
        is_traced = bool(args.trace) and i % 2 == 1
        spans = OUT / f"spans-{workload}-{args.seed}-{i}.jsonl" if is_traced else None
        res = run_pass(env, workload, args.seed, spans, args.mutate,
                       RUN_LIMIT_S - (time.perf_counter() - t_start))
        (traced if is_traced else passes).append(res)
        i += 1
        if "crashed" in res:
            break
        now = time.perf_counter()
        if now - t_start > RUN_LIMIT_S / 2 or (now >= deadline and i >= 2 + args.trace):
            break

    done = [p for p in passes + traced if "crashed" not in p]
    crashed = len(passes) + len(traced) - len(done)
    attempted = sum(p["attempted"] for p in done) + crashed
    failed = sum(p["failed"] for p in done) + crashed
    env_rec = dict(done[0]["env"]) if done else {}
    env_rec.update({"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "commit": git_commit()})
    walls = [p["wall_s"] for p in passes if "crashed" not in p]
    setup = [p["setup_s"] for p in passes if "crashed" not in p]

    if args.trace:
        twalls = [p["wall_s"] for p in traced if "crashed" not in p]
        layers = [p["layers"] for p in traced if "crashed" not in p]
        metrics = {name: {"value": statistics.median(l[name] for l in layers),
                          "unit": unit(name)}
                   for name in (layers[0] if layers else {})}
        cpu = [p["cpu_s"] for p in passes if "crashed" not in p]
        if walls and twalls:
            metrics["process.cpu_s"] = {"value": statistics.median(cpu),
                                        "unit": unit("process.cpu_s")}
            metrics["trace.overhead_frac"] = {
                "value": statistics.median(twalls) / statistics.median(walls) - 1,
                "unit": unit("trace.overhead_frac")}
    else:
        metrics = {}
        if walls:
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
            metrics["peak_rss_mb"] = {"value": statistics.median(
                p["peak_rss_mb"] for p in passes if "crashed" not in p), "unit": "MB"}

    print(f"env: {json.dumps(env_rec, sort_keys=True)}")
    if env_rec.get("backend") != env_rec.get("reference_backend"):
        print(f"note: backend {env_rec.get('backend')} differs from the reference's "
              f"{env_rec.get('reference_backend')}; byte digests were not compared")
    print(f"workload {workload}, seed {args.seed}: {len(passes)} untraced"
          f"{f' and {len(traced)} traced' if args.trace else ''} passes in "
          f"{time.perf_counter() - t_start:.1f} s")
    if setup and not args.trace:
        print(f"  setup_s      {statistics.median(setup):.4f} s   median of {len(setup)} "
              f"passes, fresh interpreter to every gskit module imported")
    if walls:
        print(f"  wall_s       {statistics.median(walls):.4f} s   median of {len(walls)} "
              f"passes; max {max(walls):.4f}; highest supported percentile: "
              f"{high_percentile(walls)}")
    if not args.trace and walls:
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  median of "
              f"{len(walls)} passes")
    print(f"  fail_frac    {failed / max(attempted, 1):.4f}      {failed} of {attempted} "
          f"operations failed")
    msgs = [m for p in done for m in p["messages"]]
    msgs += [f"pass crashed: {p['crashed'].strip().splitlines()[-1:]}"
             for p in passes + traced if "crashed" in p]
    for msg in list(dict.fromkeys(msgs))[:5]:
        print(f"    {msg}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:.6g} {m['unit']}")

    result = {"correct": bool(done) and failed == 0 and not crashed,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "mutate": args.mutate, "env": env_rec, **result,
            "samples": {"setup_s": setup, "wall_s": walls}}
    (OUT / f"result-{workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mutate", action="store_true",
                    help="corrupt the reference; the check must fail")
    args = ap.parse_args()

    env = child_env()
    check_import(env)
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_workload(args.workload, args, env)
    else:
        results = {w: run_workload(w, args, env) for w in WORKLOADS}
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{name}": m for w, r in results.items()
                              for name, m in r["metrics"].items()}}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
