"""Child process of the benchmark: one session through bicrossed.cli.run.

    python3 bench/inproc.py session WORKLOAD SEED [SPANS]
    python3 bench/inproc.py setup WORKLOAD

`session` runs every command of the seeded session in this process,
checks each stdout and exit code against the golden report, and prints
one JSON object: per-command wall times and verdicts, the session wall
time and, if SPANS is given, the layer metrics of a traced run, whose
spans it writes to the file SPANS.  `setup` imports bicrossed and
resolves and builds the workload's configs, and nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import workloads as wl


def setup_only(workload: str) -> None:
    sys.path.insert(0, str(wl.ROOT / "src"))
    from bicrossed import cli

    for name in wl.configs_of(workload):
        how, where = wl.CONFIGS[name]
        cfg = cli.resolve_preset(where) if how == "--preset" else cli.load_config_file(where)
        cli.build_config(cfg)


def run_session(workload: str, seed: int, spans_path: str | None) -> dict:
    sys.path.insert(0, str(wl.ROOT / "src"))
    from bicrossed import cli

    rec = None
    if spans_path:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    golden = wl.load_golden(workload)
    commands = []
    start = time.perf_counter()
    for argv in wl.session(workload, seed):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        wall = time.perf_counter() - t0
        out = buf.getvalue().encode("utf-8")
        commands.append(
            {
                "argv": argv,
                "kind": wl.kind_of(argv),
                "wall_s": wall,
                "exit": code,
                "ok": wl.matches(golden, argv, code, out),
            }
        )
    result = {"wall_s": time.perf_counter() - start, "commands": commands}
    if rec is not None:
        result["layers"] = rec.metrics()
        rec.write_spans(spans_path)
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = ap.add_subparsers(dest="mode", required=True)
    setup = modes.add_parser("setup")
    setup.add_argument("workload", choices=sorted(wl.WORKLOADS))
    session = modes.add_parser("session")
    session.add_argument("workload", choices=sorted(wl.WORKLOADS))
    session.add_argument("seed", type=int)
    session.add_argument("spans", nargs="?", help="trace the session and write its spans here")
    args = ap.parse_args()
    if args.mode == "setup":
        setup_only(args.workload)
        return
    print(json.dumps(run_session(args.workload, args.seed, args.spans)))


if __name__ == "__main__":
    main()
