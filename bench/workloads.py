"""Workload sessions of the bicrossed benchmark and their golden reports.

A session is a list of CLI invocations, each an argv for
`python3 -m bicrossed.cli`.  Fixed commands come first, then point
queries whose simple ids a seeded generator draws from the committed
lists in bench/simple_ids.json.  The same seed gives the same session.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SIMPLE_IDS = BENCH / "simple_ids.json"
GOLDEN = BENCH / "golden"

# How each config is named on the command line.
CONFIGS = {
    "drinfeld:A4": ["--preset", "drinfeld:A4"],
    "drinfeld:S3": ["--preset", "drinfeld:S3"],
    "h_z_z2n:3": ["--preset", "h_z_z2n:3"],
    "z_poly_zp:3": ["--preset", "z_poly_zp:3"],
    "z4_twisted": ["--config", "bench/configs/z4_twisted.json"],
    "b3_z3": ["--config", "bench/configs/b3_z3.json"],
    "s4_z4": ["--config", "bench/configs/s4_z4.json"],
}

# Radius of the ball whose simples make up each query config's id list.
ID_RADIUS = {
    "drinfeld:A4": 0,
    "drinfeld:S3": 0,
    "h_z_z2n:3": 1,
    "z_poly_zp:3": 1,
    "z4_twisted": 1,
}

# fixed: (config, arguments after the config); queries: config -> query
# commands, one draw each per session.
WORKLOADS = {
    "drinfeld": {
        "fixed": [("drinfeld:A4", ["verify"]), ("drinfeld:S3", ["cqg-check"])],
        "queries": {
            "drinfeld:A4": ("character", "fuse", "dual"),
            "drinfeld:S3": ("character", "fuse", "dual"),
        },
    },
    "lattice-fusion": {
        "fixed": [
            ("h_z_z2n:3", ["--radius", "4", "fusion-table"]),
            ("z_poly_zp:3", ["--radius", "2", "fusion-table"]),
            ("z4_twisted", ["--radius", "6", "fusion-table"]),
        ],
        "queries": {
            "h_z_z2n:3": ("fuse",),
            "z_poly_zp:3": ("fuse",),
            "z4_twisted": ("fuse",),
        },
    },
    "point-group": {
        "fixed": [
            ("b3_z3", ["--radius", "1", "simples"]),
            ("s4_z4", ["--radius", "1", "simples"]),
            ("s4_z4", ["--radius", "0", "fusion-table"]),
        ],
        "queries": {},
    },
}

KINDS = {
    "verify": "verify",
    "cqg-check": "verify",
    "character": "query",
    "fuse": "query",
    "dual": "query",
    "fusion-table": "table",
    "indicators": "table",
    "simples": "simples",
}


def kind_of(argv: list[str]) -> str:
    return next(KINDS[a] for a in argv if a in KINDS)


def key_of(argv: list[str]) -> str:
    return " ".join(argv)


def configs_of(workload: str) -> list[str]:
    """The distinct configs a session of the workload uses, in order."""
    spec = WORKLOADS[workload]
    names = [cfg for cfg, _rest in spec["fixed"]] + list(spec["queries"])
    return list(dict.fromkeys(names))


def load_simple_ids() -> dict:
    return json.loads(SIMPLE_IDS.read_text(encoding="utf-8"))


def _query_argv(config: str, command: str, ids: tuple[str, ...]) -> list[str]:
    if command == "character":
        f_label, _, index = ids[0].rpartition(":")
        return CONFIGS[config] + ["character", f_label, index]
    return CONFIGS[config] + [command, *ids]


_ARITY = {"character": 1, "fuse": 2, "dual": 1}


def session(workload: str, seed: int) -> list[list[str]]:
    """The argv list of one session of the workload for this seed."""
    spec = WORKLOADS[workload]
    ids = load_simple_ids()
    rng = random.Random(seed)
    out = [CONFIGS[cfg] + list(rest) for cfg, rest in spec["fixed"]]
    for cfg, commands in spec["queries"].items():
        for command in commands:
            drawn = tuple(rng.choice(ids[cfg]) for _ in range(_ARITY[command]))
            out.append(_query_argv(cfg, command, drawn))
    return out


def universe(workload: str, simple_ids: dict) -> list[list[str]]:
    """Every argv that session() can generate for the workload."""
    spec = WORKLOADS[workload]
    out = [CONFIGS[cfg] + list(rest) for cfg, rest in spec["fixed"]]
    for cfg, commands in spec["queries"].items():
        ids = simple_ids[cfg]
        for command in commands:
            if _ARITY[command] == 1:
                out.extend(_query_argv(cfg, command, (a,)) for a in ids)
            else:
                out.extend(_query_argv(cfg, command, (a, b)) for a in ids for b in ids)
    return out


def load_golden(workload: str) -> dict:
    """argv key -> {"exit": code, "stdout": text} for every command."""
    return json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))


def matches(golden: dict, argv: list[str], exit_code: int, stdout: bytes) -> bool:
    want = golden.get(key_of(argv))
    return (
        want is not None
        and want["exit"] == exit_code
        and want["stdout"].encode("utf-8") == stdout
    )
