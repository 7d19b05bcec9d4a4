"""Print every end-to-end and per-layer metric of every workload.

    python3 bench/report.py [--seed 1] [--workload NAME ...]

Runs bench/run.py with --trace 0 and --trace 1 on each workload, for
the run_seconds of BENCHMARK.json, so the correctness gate runs on both, and prints one line per metric with its
value and unit.  Exits 1 if any command differs from its golden report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import workloads as wl


def run(workload: str, seed: int, trace: int) -> dict:
    seconds = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, cwd=wl.ROOT, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload}: {proc.stderr.decode()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = ap.parse_args()
    ok = True
    for workload in args.workload or list(wl.WORKLOADS):
        for trace in (0, 1):
            res = run(workload, args.seed, trace)
            ok &= res["correct"]
            print(f"== {workload} trace={trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
