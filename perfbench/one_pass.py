"""One pass of a benchmark workload, in the fresh interpreter run.py starts.

Usage: python3 perfbench/one_pass.py --workload NAME --seed N
           [--spans FILE] [--mutate]

Times the workload's public calls (imports excluded), checks the outputs
against reference.json and prints one JSON line: wall and CPU seconds, peak
RSS, operations attempted and failed, the environment and, with --spans,
the per-layer metrics of the traced pass (its spans go to FILE).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import time
import warnings
from pathlib import Path

import numpy

import gskit
import gskit.cli
from gskit import kernels

import workloads as wl
from spans import Tracer, install

# Every module is loaded: run.py takes set-up time as this instant minus the
# moment it started the interpreter (both read the system-wide monotonic clock).
READY_AT = time.monotonic()
HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--mutate", action="store_true")
    args = ap.parse_args()

    ref = json.loads((HERE / "reference.json").read_text())
    entries = ref["entries"]
    if args.mutate:
        entries = {key: wl.corrupt(value) for key, value in entries.items()}
    sel = wl.select(args.workload, args.seed)
    tracer = None
    if args.spans:
        tracer = Tracer()
        install(tracer)

    results = []
    with (warnings.catch_warnings(record=True) if tracer
          else contextlib.nullcontext()) as caught:
        if tracer:
            warnings.simplefilter("always", RuntimeWarning)
        cpu0, t0 = time.process_time(), time.perf_counter()
        wl.RUNNERS[args.workload](sel, results)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    backend = kernels.get_backend()
    attempted, failed, msgs = wl.check(results, entries, backend == ref["backend"])
    out = {
        "ready_at": READY_AT, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb,
        "attempted": attempted, "failed": failed, "messages": msgs[:10],
        "env": {"backend": backend,
                "available_backends": list(kernels.available_backends()),
                "reference_backend": ref["backend"],
                "gskit": gskit.__version__, "gskit_path": gskit.__file__,
                "python": platform.python_version(), "numpy": numpy.__version__},
        "layers": None,
    }
    if tracer:
        tracer.write(args.spans)
        layers = tracer.layer_metrics()
        layers["warnings.RuntimeWarning"] = sum(
            1 for w in caught if issubclass(w.category, RuntimeWarning))
        out["layers"] = layers
    print(json.dumps(out))


if __name__ == "__main__":
    main()
