"""The bicrossed benchmark: closed-loop CLI sessions, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  --trace 0 repeats the seeded
session of the workload until S seconds have passed (at least twice,
and starting no further session likely to end after 1.25 S), each
command a fresh `python3 -m bicrossed.cli` process, and reports the
end-to-end metrics.  --trace 1 runs the session once in process without tracing
and once with bench/tracer.py installed, and reports the per-layer
metrics.  Every command's exit code and stdout must equal its golden
report; the last stdout line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads as wl

RESULTS = wl.BENCH / "results"
SETUP_PROBES = 5  # per session
HARD_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
STARTED = time.perf_counter()


def child_env() -> dict:
    src = str(wl.ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    # Cache bytecode as an installed package does, whatever the caller's
    # setting, so every command and setup probe imports the same way.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str]) -> dict:
    """Run argv to completion; wall time, exit code, output and max RSS."""
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - STARTED))
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=wl.ROOT
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "stdout": out,
        "stderr": b"".join(err),
        "maxrss_kb": usage.ru_maxrss,
    }


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, a gauge of machine speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "calib_s": calibrate(),
    }


def inproc(*args: str) -> dict:
    res = run_child([sys.executable, str(wl.BENCH / "inproc.py"), *args])
    if res["exit"] != 0:
        raise RuntimeError(f"inproc.py {' '.join(args)} exited {res['exit']}: {res['stderr'].decode()}")
    return res


def timed_run(workload: str, seed: int, seconds: int) -> dict:
    inproc("setup", workload)  # warm-up: writes the bytecode caches
    golden = wl.load_golden(workload)
    argvs = wl.session(workload, seed)
    setup, sessions, commands = [], [], []
    start = time.perf_counter()
    while True:
        # Setup probes go ahead of every session, so that their median
        # spans the run as the session times do.
        setup += [inproc("setup", workload)["wall_s"] for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        for argv in argvs:
            res = run_child([sys.executable, "-m", "bicrossed.cli", *argv])
            commands.append(
                {
                    "argv": argv,
                    "kind": wl.kind_of(argv),
                    "wall_s": res["wall_s"],
                    "exit": res["exit"],
                    "maxrss_kb": res["maxrss_kb"],
                    "ok": wl.matches(golden, argv, res["exit"], res["stdout"]),
                }
            )
        sessions.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # Measure at least two sessions; then stop once the run has
        # measured `seconds`, or when one more session would likely end
        # past 1.25 x `seconds` or the hard limit.
        if time.perf_counter() - STARTED + sessions[-1] > HARD_LIMIT_S - 20:
            break
        if len(sessions) >= 2 and (elapsed >= seconds or elapsed + sessions[-1] > 1.25 * seconds):
            break
    metrics = {
        "wall_s": (statistics.median(sessions), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(c["maxrss_kb"] for c in commands) / 1024, "MB"),
    }
    return {"metrics": metrics, "commands": commands, "sessions_s": sessions, "setup_s": setup}


def traced_run(workload: str, seed: int) -> dict:
    spans = RESULTS / f"spans-{workload}-seed{seed}.json"
    plain = json.loads(inproc("session", workload, str(seed))["stdout"].splitlines()[-1])
    traced = json.loads(inproc("session", workload, str(seed), str(spans))["stdout"].splitlines()[-1])
    values = dict(traced["layers"])
    for kind in ("verify", "query", "table", "simples"):
        values[f"cli.{kind}_s"] = sum((c["wall_s"] for c in plain["commands"] if c["kind"] == kind), 0.0)
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics = {name: (values[name], unit) for name, unit in tracer.LAYER_METRICS.items()}
    return {
        "metrics": metrics,
        "commands": plain["commands"] + traced["commands"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans_file": str(spans.relative_to(wl.ROOT)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measuring time of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (wl.ROOT / "src" / "bicrossed" / "cli.py").is_file():
        print(f"no bicrossed sources under {wl.ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    host = host_record()
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed)
        else:
            run = timed_run(args.workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    host["loadavg_after"] = list(os.getloadavg())
    failed = sum(not c["ok"] for c in run["commands"])
    result = {
        "correct": failed == 0,
        "attempted": len(run["commands"]),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run["metrics"].items()},
    }
    detail = dict(run, workload=args.workload, seed=args.seed, trace=args.trace, host=host, result=result)
    detail.pop("metrics")
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
