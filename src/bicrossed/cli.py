"""Command-line interface: deterministic JSON reports over one config.

Commands: verify, simples, character, fuse, dual, indicators,
fusion-table, cqg-check.  Each is registered once, by the @_command
decorator on its cmd_* function, with its help and positionals; the
parser, the leading-config-path test and the dispatch all read that
registration.  The config comes from --preset NAME (a generator in
presets.py, never a file) or --config PATH.  Exit codes: 0 success,
1 verification failure (the report carries witnesses), 2 invalid config
or usage, 3 internal inconsistency.  JSON is the machine output; text
rendering is a view of the same payload.

A cmd_* computes every value of its payload, and raises every error,
before _emit writes the first byte; the emitter only formats.  A payload
may hold records (objects with to_payload(), such as FusionRow), which
both formats convert as they are written, so a fusion table's rows are
never all dicts at once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certs import dimension_audit, direct_sum_check
from .cocycles import verify_cocycles
from .comodules import SimpleIndex
from .config import Build, build_config, load_config_file
from .cyclotomic import rational
from .errors import ConfigError, InternalInconsistencyError, VerificationFailure
from .fusion import FusionRing
from .hopf import HElem, verify_hopf, verify_star
from .matched_pair import verify_matched_pair
from .presets import resolve_preset

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _report(build: Build, command: str, status: str, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": build.name,
        "config_hash": build.config_hash,
        "level": build.level,
        "status": status,
        "payload": payload,
    }


# List items encoded per call when a long list is streamed.
_SLICE = 256


def _payload_of(obj):
    """The JSON value of a record: its to_payload(), called as it is encoded."""
    to_payload = getattr(obj, "to_payload", None)
    if to_payload is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return to_payload()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_payload_of)


def _write_json(report: dict) -> None:
    """Write the report as json.dumps(report, sort_keys=True,
    separators=(",", ":")) would, with records as their payloads, while
    it is encoded: a dict with str keys goes out key by key and a long
    list slice by slice, so no encoding of the whole report is held."""
    write = sys.stdout.write
    _stream_json(report, write)
    write("\n")


def _stream_json(value, write) -> None:
    if isinstance(value, dict) and all(type(k) is str for k in value):
        write("{")
        for i, k in enumerate(sorted(value)):
            write(f"{',' if i else ''}{_ENCODER.encode(k)}:")
            _stream_json(value[k], write)
        write("}")
    elif isinstance(value, list) and len(value) > _SLICE:
        write("[")
        for start in range(0, len(value), _SLICE):
            # one slice's items, without the slice's own brackets
            items = _ENCODER.encode(value[start : start + _SLICE])[1:-1]
            write(f"{',' if start else ''}{items}")
        write("]")
    else:
        # a dict with a non-str key too, so json's key coercion and order apply
        write(_ENCODER.encode(value))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(report)
    else:
        _write_text(report)


def _write_text(report: dict) -> None:
    """Write the text view of a report, line by line as it is made."""
    write = sys.stdout.write
    write(f"command:  {report['command']}\n")
    write(f"config:   {report['config']} (hash {report['config_hash']}, level {report['level']})\n")
    write(f"status:   {report['status']}\n")
    _write_value(report["payload"], 0, write)


def _write_value(value, indent: int, write) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        items = ((f"{pad}{k}:", value[k]) for k in sorted(value))
    elif isinstance(value, list):
        dash = f"{pad}-"
        items = ((dash, v) for v in value)
    else:
        write(f"{pad}{value}\n")
        return
    for head, v in items:
        if hasattr(v, "to_payload"):
            v = v.to_payload()
        if isinstance(v, (dict, list)):
            write(f"{head}\n")
            _write_value(v, indent + 1, write)
        else:
            write(f"{head} {v}\n")


def _character_terms(build: Build, elem: HElem) -> list[dict]:
    F = build.hopf.F
    terms = sorted(elem.terms.items(), key=lambda kv: (F.order_key(kv[0][1]), kv[0][0]))
    return [
        {"g": g, "f": F.label(f), "coeff": v.literal()}
        for (g, f), v in terms
    ]


def _simple_payload(build: Build, d) -> dict:
    return {
        "id": d.uid,
        "orbit_rep": build.hopf.F.label(d.orbit.representative),
        "orbit_size": d.orbit.size,
        "stabilizer_order": len(d.orbit.stabilizer),
        "dim_v": d.dim_v,
        "dim_total": d.dim_total,
    }


# --------------------------------------------------------------------------
# Command implementations: each returns (status, payload, exit_code)
# --------------------------------------------------------------------------

# CLI name -> (help, positionals as (dest, type, help), cmd_* name)
_COMMAND_TABLE: dict = {}


def _command(name: str, help: str, *positionals: tuple):
    """Register a cmd_* under its CLI name.  run calls it as
    cmd_*(build, *positionals, radius), looked up by its global name at
    call time, so a wrapper set on this module is the one called."""

    def register(fn):
        _COMMAND_TABLE[name] = (help, positionals, fn.__name__)
        return fn

    return register


_SIMPLE_ID = "simple id '<f>:<index>'"


@_command("verify", "matched pair + cocycles + Hopf axioms")
def cmd_verify(build: Build, radius: int) -> tuple[str, dict, int]:
    # The premise reports decide whether the Hopf laws are read off them
    # or walked (verify_hopf); the payload is the same either way.
    premises = (
        verify_matched_pair(build.ctx, radius),
        verify_cocycles(build.ctx, build.sigma, build.tau, radius),
    )
    reports = [*premises, verify_hopf(build.hopf, radius, premises=premises)]
    ok = all(r.ok for r in reports)
    payload = {"radius": radius, "reports": reports}
    return ("pass" if ok else "fail"), payload, (EXIT_OK if ok else EXIT_VERIFICATION)


def _require_verified(build: Build, radius: int) -> tuple:
    """Raise unless the matched-pair and cocycle laws pass; return their
    two reports, the premises of verify_hopf and verify_star."""
    mp = verify_matched_pair(build.ctx, radius)
    if not mp.ok:
        raise VerificationFailure("matched-pair laws fail", mp.to_payload())
    cc = verify_cocycles(build.ctx, build.sigma, build.tau, radius)
    if not cc.ok:
        raise VerificationFailure("cocycle laws fail", cc.to_payload())
    return mp, cc


@_command("simples", "enumerate simple comodules in the ball")
def cmd_simples(build: Build, radius: int) -> tuple[str, dict, int]:
    _require_verified(build, radius)
    index = SimpleIndex(build.hopf)
    simples = index.enumerate(radius)
    audit = dimension_audit(build.hopf, index, radius)
    cert = direct_sum_check(build.hopf, index, radius)
    payload = {
        "radius": radius,
        "count": len(simples),
        "simples": [_simple_payload(build, d) for d in simples],
        "dimension_audit": audit,
        "direct_sum": cert,
    }
    ok = audit["ok"] and cert.ok
    return ("pass" if ok else "fail"), payload, (EXIT_OK if ok else EXIT_VERIFICATION)


@_command(
    "character",
    "irreducible character of one simple",
    ("f", str, "F element label (e.g. 3, -1, (1,0,2), or a finite index)"),
    ("chi_index", int, "index into the stabilizer character table"),
)
def cmd_character(build: Build, f_label: str, chi_index: int, radius: int) -> tuple[str, dict, int]:
    _require_verified(build, radius)
    index = SimpleIndex(build.hopf)
    f = build.hopf.F.parse_label(f_label)
    simples = index.simples_for_f(f)
    if not 0 <= chi_index < len(simples):
        raise ConfigError(
            f"character index {chi_index} out of range; the orbit of {f_label} "
            f"has {len(simples)} simples"
        )
    d = simples[chi_index]
    chi = index.character(d)
    counit = build.hopf.counit(chi)
    payload = {
        "id": d.uid,
        "dim_total": d.dim_total,
        "counit": counit.literal(),
        "terms": _character_terms(build, chi),
    }
    return "pass", payload, EXIT_OK


@_command(
    "fuse", "decompose a product of two simples", ("id1", str, _SIMPLE_ID), ("id2", str, _SIMPLE_ID)
)
def cmd_fuse(build: Build, id1: str, id2: str, radius: int) -> tuple[str, dict, int]:
    _require_verified(build, radius)
    ring = FusionRing(build.hopf)
    d1, d2 = ring.index.find(id1), ring.index.find(id2)
    row = ring.decompose_product(d1, d2)
    payload = {
        "row": row,
        "dimension_product": d1.dim_total * d2.dim_total,
    }
    return "pass", payload, EXIT_OK


@_command("dual", "dual of a simple", ("id", str, _SIMPLE_ID))
def cmd_dual(build: Build, uid: str, radius: int) -> tuple[str, dict, int]:
    _require_verified(build, radius)
    ring = FusionRing(build.hopf)
    d = ring.index.find(uid)
    dual = ring.dual_of(d)
    payload = {"id": d.uid, "dual": dual.uid, "self_dual": dual.uid == d.uid}
    return "pass", payload, EXIT_OK


@_command("indicators", "Frobenius-Schur indicators in the ball")
def cmd_indicators(build: Build, radius: int) -> tuple[str, dict, int]:
    _require_verified(build, radius)
    ring = FusionRing(build.hopf)
    items = []
    for d in ring.index.enumerate(radius):
        items.append(
            {
                "id": d.uid,
                "nu2": ring.fs_indicator(d),
                "self_dual": ring.is_self_dual(d),
                "dual": ring.dual_of(d).uid,
            }
        )
    payload = {"radius": radius, "items": items}
    return "pass", payload, EXIT_OK


@_command("fusion-table", "all pairwise products in the ball")
def cmd_fusion_table(build: Build, radius: int) -> tuple[str, dict, int]:
    _require_verified(build, radius)
    ring = FusionRing(build.hopf)
    table = ring.fusion_table(radius)
    based = ring.verify_based_ring(table)
    payload = {
        "radius": radius,
        "simples": [_simple_payload(build, d) for d in table.simples],
        "rows": table.rows,
        "duals": table.duals,
        "indicators": table.indicators,
        "noncommutative_pairs": table.noncommutative_pairs,
        "based_ring": based,
    }
    ok = based["ok"]
    return ("pass" if ok else "fail"), payload, (EXIT_OK if ok else EXIT_VERIFICATION)


@_command("cqg-check", "compact-quantum-group certification")
def cmd_cqg_check(build: Build, radius: int) -> tuple[str, dict, int]:
    # Unitarity is the gate: report its witness before any law sweep, so
    # non-modulus-one data is rejected with the offending tuple.  The
    # verdict stays on H, where verify_star reads it.
    ok, witness = build.hopf.unitary(radius)
    if not ok:
        payload = {"unitary": False, "witness": witness}
        return "fail", payload, EXIT_VERIFICATION
    premises = _require_verified(build, radius)
    star = verify_star(build.hopf, radius, premises=premises)
    unit = build.hopf.unit()
    haar_unit = build.hopf.integral(unit)
    gram_expected = rational(1) / rational(build.hopf.G.order)
    payload = {
        "unitary": True,
        "radius": radius,
        "star_checks": star,
        "haar_unit": haar_unit.literal(),
        "gram_diagonal_expected": gram_expected.literal(),
        "gram_certified": "exact (rational coefficients)",
    }
    ok = star.ok and haar_unit.is_one()
    return ("pass" if ok else "fail"), payload, (EXIT_OK if ok else EXIT_VERIFICATION)


# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps subcommand-level flags from clobbering values parsed
    # at the top level when they are omitted after the subcommand.
    p.add_argument("--radius", type=int, default=argparse.SUPPRESS, help="ball radius override")
    p.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS, dest="format"
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicrossed",
        description="Exact bicrossed-product Hopf algebras: construction, "
        "verification, simple comodules, fusion rings.",
    )
    parser.add_argument("--preset", help="named preset (e.g. h_z_z2, h_z_z2n:2, drinfeld:S3)")
    parser.add_argument(
        "--config", help="path to a JSON config file (may also be given positionally)"
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--radius", type=int, default=None, help="ball radius override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, positionals, _handler) in _COMMAND_TABLE.items():
        p = sub.add_parser(name, help=help_)
        for dest, type_, arg_help in positionals:
            p.add_argument(dest, type=type_, help=arg_help)
        _add_common(p)
    return parser


# The flags that take a value; a value may start with '-' (--radius -1).
_VALUE_FLAGS = ("--preset", "--config", "--format", "--radius")


def _takes_value(tok: str) -> bool:
    # argparse also accepts an unambiguous prefix such as --rad
    return len(tok) > 2 and any(flag.startswith(tok) for flag in _VALUE_FLAGS)


def _shield_negative_ids(argv):
    """Insert '--' before the first id-like token starting with '-'
    (orbit representatives of free-abelian F are canonically negative),
    so argparse reads it as a positional.  The value of a flag that takes
    one is never an id.  Flags must precede such ids."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # leading positional config path, per the CLI contract
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMAND_TABLE:
        argv = ["--config", argv[0]] + argv[1:]
    if "--" in argv:
        return argv
    for i, tok in enumerate(argv):
        if i and _takes_value(argv[i - 1]):
            continue
        if len(tok) > 1 and tok[0] == "-" and (tok[1].isdigit() or tok[1] == "("):
            return argv[:i] + ["--"] + argv[i:]
    return argv


def run(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_shield_negative_ids(argv))
    fmt = args.format
    try:
        if bool(args.preset) == bool(args.config):
            raise ConfigError("choose exactly one of --preset NAME or --config PATH")
        if args.radius is not None and args.radius < 0:
            raise ConfigError("--radius must be >= 0")
        cfg = resolve_preset(args.preset) if args.preset else load_config_file(args.config)
        build = build_config(cfg)
        radius = args.radius if args.radius is not None else build.radius
        _help, positionals, handler = _COMMAND_TABLE[args.command]
        values = [getattr(args, dest) for dest, _type, _arg_help in positionals]
        status, payload, code = globals()[handler](build, *values, radius)
        _emit(_report(build, args.command, status, payload), fmt)
        return code
    except ConfigError as exc:
        _emit_error(args, fmt, "invalid-config", str(exc), None)
        return EXIT_CONFIG
    except VerificationFailure as exc:
        _emit_error(args, fmt, "verification-failure", str(exc), exc.witness)
        return EXIT_VERIFICATION
    except InternalInconsistencyError as exc:
        _emit_error(args, fmt, "internal-inconsistency", str(exc), None)
        return EXIT_INTERNAL


def _emit_error(args, fmt: str, status: str, message: str, witness) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": getattr(args, "command", None),
        "status": status,
        "error": message,
    }
    if witness is not None:
        report["witness"] = witness
    if fmt == "json":
        _write_json(report)
    else:
        sys.stdout.write(f"status: {status}\nerror:  {message}\nwitness: {witness}\n")


def main() -> None:
    """Entry point of `python -m bicrossed.cli` and the console script.

    After the report is flushed the process ends with os._exit, which
    skips interpreter finalization (module teardown, freeing every cached
    table), work whose effects no caller can observe.  That is safe here
    because the CLI registers no atexit handler, starts no thread and
    holds no open file but stdout and stderr, which are flushed first.
    Everything else takes the normal exit: an exception from run,
    argparse's SystemExit (--help, usage errors) and a flush that raises,
    whose error the interpreter then reports as before (exit 120 on a
    closed pipe).
    """
    code = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
