"""Write the committed simple-id lists and golden reports.

    python3 bench/make_golden.py

First it lists the simple ids of each query config (the `simples`
report at the radius in workloads.ID_RADIUS) into bench/simple_ids.json.
Then it runs every command that a session of any workload can contain,
each as its own CLI process, and stores its exit code and stdout in
bench/golden/<workload>.json.  Every golden command must exit 0.
Run it only on a commit whose reports are trusted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import workloads as wl

JOBS = 2  # CLI processes run at a time


def cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(wl.ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "bicrossed.cli", *argv],
        capture_output=True,
        env=env,
        cwd=wl.ROOT,
        check=False,
    )


def simple_ids() -> dict:
    out = {}
    for cfg, radius in wl.ID_RADIUS.items():
        proc = cli(wl.CONFIGS[cfg] + ["--radius", str(radius), "simples"])
        if proc.returncode != 0:
            raise SystemExit(f"simples failed on {cfg}: {proc.stdout!r} {proc.stderr!r}")
        out[cfg] = [s["id"] for s in json.loads(proc.stdout)["payload"]["simples"]]
    return out


def main() -> None:
    ids = simple_ids()
    wl.SIMPLE_IDS.write_text(json.dumps(ids, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.SIMPLE_IDS.relative_to(wl.ROOT)}", flush=True)
    wl.GOLDEN.mkdir(exist_ok=True)
    for name in wl.WORKLOADS:
        commands = wl.universe(name, ids)
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            procs = list(pool.map(cli, commands))
        golden = {}
        for argv, proc in zip(commands, procs):
            if proc.returncode != 0:
                raise SystemExit(f"{wl.key_of(argv)} exited {proc.returncode}: {proc.stderr!r}")
            golden[wl.key_of(argv)] = {"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")}
        path = wl.GOLDEN / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(wl.ROOT)} ({len(golden)} commands)", flush=True)


if __name__ == "__main__":
    main()
