"""Self-test of the harness: two traced runs agree on every count.

    python3 bench/selftest.py [--seed 3] [--workload NAME ...]

Runs bench/run.py --trace 1 twice per workload with the same seed and
fails unless both are correct, both report exactly the per-layer
metrics of BENCHMARK.json, and every count and ratio (everything but
times) is identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads as wl
from report import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = ap.parse_args()
    declared = {m["name"] for m in json.loads((wl.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    problems = []
    for workload in args.workload or list(wl.WORKLOADS):
        first, second = run(workload, args.seed, trace=1), run(workload, args.seed, trace=1)
        for res in (first, second):
            if not res["correct"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} commands differ")
            if set(res["metrics"]) != declared:
                problems.append(f"{workload}: metrics differ from BENCHMARK.json per_layer")
        exact = [n for n, m in first["metrics"].items() if m["unit"] in ("count", "ratio")
                 and n != "trace.overhead_frac"]
        for name in exact:
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]:
                problems.append(f"{workload}: {name} {first['metrics'][name]['value']} != "
                                f"{second['metrics'][name]['value']}")
        print(f"{workload}: {len(exact)} count metrics compared", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
