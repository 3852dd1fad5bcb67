"""Record reference.json: the outputs of every pool input of every workload.

Usage: PYTHONPATH=src python3 perfbench/record.py

Run it at the commit whose outputs are the reference, never to make a
failing check pass.  It prints the time of each operation, which shows how
evenly the pools spread the cost across seeds.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

from gskit import kernels

import workloads as wl

HERE = Path(__file__).resolve().parent


def main():
    entries = {}
    for workload in wl.WORKLOADS:
        results = []
        t0 = time.perf_counter()
        wl.RUNNERS[workload](wl.everything(workload), _Timed(results))
        print(f"{workload}: {time.perf_counter() - t0:.1f} s")
        for key, res in results:
            if isinstance(res, Exception):
                raise SystemExit(f"{key} raised {type(res).__name__}: {res}")
            entries[key] = wl.summarize(key, res)
    backend = kernels.get_backend()
    lines = [f"  {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    (HERE / "reference.json").write_text(
        f'{{"backend": {json.dumps(backend)}, "entries": {{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"{len(entries)} entries on the {backend} backend")


class _Timed(list):
    """Result list that prints how long each operation took."""

    def __init__(self, target):
        super().__init__()
        self.target = target
        self.t = time.perf_counter()

    def append(self, item):
        now = time.perf_counter()
        print(f"  {item[0]:<22} {now - self.t:7.3f} s")
        self.t = now
        self.target.append(item)


if __name__ == "__main__":
    main()
