#!/usr/bin/env python3
"""Compare two benchmark results written by run.py to perfbench/out/.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's base and new value and their ratio, and, for end-to-end
metrics, whether the change exceeds the bound in BENCHMARK.json.  When the
two results ran on different kernel backends, or differ in any other
recorded part of the environment, it says so first: such a pair compares
two setups, not two commits.  Exits 3 when the backends differ.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    base, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    bounds = {m["name"]: m for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    status = 0
    for key in sorted(set(base["env"]) | set(new["env"])):
        if key in ("commit", "gskit_path"):
            continue
        b, n = base["env"].get(key), new["env"].get(key)
        if b != n:
            print(f"ENVIRONMENT DIFFERS: {key} {b} -> {n}")
            if key == "backend":
                print("BACKENDS DIFFER: these numbers compare two kernel "
                      "implementations, not two commits")
                status = 3
    for key in ("workload", "seed", "seconds", "trace"):
        if base[key] != new[key]:
            print(f"RUN SETTINGS DIFFER: {key} {base[key]} -> {new[key]}")
    print(f"{base['env'].get('commit', '?')[:12]} -> {new['env'].get('commit', '?')[:12]}"
          f"  {base['workload']} seed {base['seed']}  correct {base['correct']} -> "
          f"{new['correct']}  failed {base['failed']}/{base['attempted']} -> "
          f"{new['failed']}/{new['attempted']}")
    for name in sorted(set(base["metrics"]) | set(new["metrics"])):
        b = base["metrics"].get(name, {}).get("value")
        n = new["metrics"].get(name, {}).get("value")
        ratio = f"{n / b:8.3f}x" if b and n is not None else "        -"
        verdict = ""
        if name in bounds and b and n is not None:
            worse = (n - b) / b if bounds[name]["better"] == "lower" else (b - n) / b
            verdict = ("  WORSE than bound" if worse > bounds[name]["bound"]
                       else "  within bound")
        print(f"  {name:<52} {b!s:>22} {n!s:>22} {ratio}{verdict}")
    sys.exit(status)


if __name__ == "__main__":
    main()
