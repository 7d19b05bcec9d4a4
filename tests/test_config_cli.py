from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from conftest import (
    broken_compat_config,
    build_preset,
    checkout_env,
    drinfeld_s3_relabeled_config,
    sigma_two_config,
    twisted_tau_config,
)

from bicrossed import cli
from bicrossed.cli import run
from bicrossed.config import build_config, config_hash, load_config_file, parse_scalar
from bicrossed.cyclotomic import one, rational, root_of_unity
from bicrossed.errors import ConfigError
from bicrossed.fusion import FusionRow
from bicrossed import presets
from bicrossed.presets import resolve_preset, z_poly_zp_config


def capture(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(args)
    return code, buf.getvalue()


def capture_json(args):
    code, out = capture(args)
    return code, json.loads(out)


# -- scalar literals --------------------------------------------------------


def test_parse_scalar_examples():
    assert parse_scalar("z^1@4 + 1") == one() + root_of_unity(1, 4)
    assert parse_scalar("1/2") == rational(Fraction(1, 2))
    assert parse_scalar("-2/3 * z@8") == root_of_unity(1, 8) * rational(Fraction(-2, 3))
    assert parse_scalar("-2/3*z@8") == root_of_unity(1, 8) * rational(Fraction(-2, 3))
    assert parse_scalar("(1 + z@3) * (1 + z^2@3)") == one()
    assert parse_scalar("z^5@4") == root_of_unity(1, 4)
    assert parse_scalar(7) == rational(7)


def test_parse_scalar_errors():
    for bad in ["z^1", "1//2", "z@0", "1 +", "(1", "q", "1/0", ""]:
        with pytest.raises(ConfigError):
            parse_scalar(bad)


def test_parse_scalar_rejects_non_json_numbers():
    # JSON yields ints and strings; a Fraction or a float is no scalar
    for bad in (Fraction(1, 2), 1.5):
        with pytest.raises(ConfigError, match="cannot parse scalar from"):
            parse_scalar(bad)


# -- config validation --------------------------------------------------------


def test_bad_configs_rejected():
    base = resolve_preset("h_z_z2")
    bad_rank = json.loads(json.dumps(base))
    bad_rank["f_group"]["rank"] = -1
    with pytest.raises(ConfigError):
        build_config(bad_rank)
    bad_group = json.loads(json.dumps(base))
    bad_group["group"]["table"] = [[0, 1], [0, 1]]
    with pytest.raises(ConfigError):
        build_config(bad_group)
    bad_mat = json.loads(json.dumps(base))
    bad_mat["action"]["matrices"] = [[[1]], [[2]]]
    with pytest.raises(ConfigError):
        build_config(bad_mat)
    unknown = json.loads(json.dumps(base))
    unknown["surprise"] = 1
    with pytest.raises(ConfigError):
        build_config(unknown)
    # malformed fields are ConfigErrors, not tracebacks
    for key, value in [
        ("radius", "abc"),
        ("group", {"type": "table"}),
        ("tau", {"type": "quotient_lift", "moduli": [2]}),
        ("tau", {"type": "quotient_lift", "moduli": [2], "values": 5}),
        ("action", {"type": "linear", "matrices": [[["a"]], [[-1]]]}),
        ("level", 0),
        ("level", -6),
        # integer fields are not truncated or read from booleans; each of
        # these would otherwise build (radius 1, or a valid Z2 table)
        ("radius", 1.9),
        ("radius", True),
        ("group", {"type": "table", "table": [[0, 1], [1, 0.5]]}),
        ("group", {"type": "table", "table": [[0, True], [True, 0]]}),
    ]:
        malformed = json.loads(json.dumps(base))
        malformed[key] = value
        with pytest.raises(ConfigError):
            build_config(malformed)


def test_declared_level():
    cfg = twisted_tau_config()
    cfg["level"] = 2
    assert build_config(cfg).level == 2
    cfg["level"] = 8
    assert build_config(cfg).level == 8
    cfg["level"] = 3
    with pytest.raises(ConfigError):
        build_config(cfg)


def test_config_hash_stability():
    cfg = resolve_preset("h_z_z2")
    assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))


# The config hash of each named example, as every report carries it; the
# presets were once also stored as JSON files with exactly these hashes.
_PRESET_HASHES = {
    "h_z_z2": "a5fb9299ac0556a6",
    "h_z_z2n:1": "b624fe1de22e583a",
    "h_z_z2n:2": "7b33801ca83dd23b",
    "h_z_z2n:3": "9a41c981717e7eb3",
    "z_poly_zp:2": "277a977d9a66287a",
    "z_poly_zp:3": "98fed25ed52ac8d1",
    "drinfeld:S3": "f4082296432f41a7",
    "drinfeld:Z2": "170b7abae62e8dd2",
}


def test_resolve_preset_matches_generator():
    assert sorted(_PRESET_HASHES) == sorted(presets.SHIPPED)
    for name, digest in _PRESET_HASHES.items():
        assert config_hash(resolve_preset(name)) == digest, name
    cfg = resolve_preset("h_z_z2n:5")
    assert cfg["name"] == "h_z_z2n:5"
    with pytest.raises(ConfigError):
        resolve_preset("nope")


def test_preset_order_bound_before_tables(monkeypatch):
    def no_tables(n):
        raise AssertionError(f"built a table of order {n}")

    monkeypatch.setattr(presets, "_cyclic_table", no_tables)
    for name in ("z_poly_zp:65", "h_z_z2n:33"):
        with pytest.raises(ConfigError, match="exceeds the configured bound"):
            resolve_preset(name)


def test_z_poly_zp_shifts_are_matrix_powers():
    for p in range(2, 9):
        shift = [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]
        power = [[1 if i == j else 0 for j in range(p)] for i in range(p)]
        powers = []
        for _ in range(p):
            powers.append(power)
            power = [
                [sum(shift[i][t] * power[t][j] for t in range(p)) for j in range(p)]
                for i in range(p)
            ]
        assert z_poly_zp_config(p)["action"]["matrices"] == powers


# -- CLI ------------------------------------------------------------------


def test_cli_verify_pass():
    code, rep = capture_json(["--preset", "h_z_z2", "verify", "--radius", "3"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["schema_version"] == 1
    assert set(rep) >= {"command", "config_hash", "payload", "status", "level"}


def test_cli_simples():
    code, rep = capture_json(["--preset", "h_z_z2", "simples", "--radius", "5"])
    assert code == 0
    ids = [s["id"] for s in rep["payload"]["simples"]]
    assert ids == ["0:0", "0:1", "-1:0", "-2:0", "-3:0", "-4:0", "-5:0"]
    assert rep["payload"]["dimension_audit"]["ok"]


def test_cli_character_and_dual():
    code, rep = capture_json(["--preset", "h_z_z2", "character", "1", "0"])
    assert code == 0
    assert rep["payload"]["terms"] == [
        {"g": 0, "f": "-1", "coeff": "1"},
        {"g": 0, "f": "1", "coeff": "1"},
    ]
    code, rep = capture_json(["--preset", "h_z_z2", "dual", "-2:0"])
    assert code == 0
    assert rep["payload"] == {"id": "-2:0", "dual": "-2:0", "self_dual": True}


def test_cli_fuse():
    code, rep = capture_json(["--preset", "h_z_z2", "fuse", "-1:0", "-2:0"])
    assert code == 0
    assert rep["payload"]["row"]["summands"] == [
        {"id": "-1:0", "multiplicity": 1},
        {"id": "-3:0", "multiplicity": 1},
    ]


def test_cli_invalid_usage_exit_2():
    code, rep = capture_json(["--preset", "h_z_z2", "character", "1", "9"])
    assert code == 2
    code, rep = capture_json(["--preset", "nope", "verify"])
    assert code == 2
    code, rep = capture_json(["verify"])  # neither preset nor config
    assert code == 2
    code, rep = capture_json(["--preset", "h_z_z2", "--config", "x.json", "verify"])
    assert code == 2
    for preset in ("h_z_z2n:abc", "z_poly_zp:65", "h_z_z2n:+2", "h_z_z2n:1_0", "z_poly_zp: 2"):
        code, rep = capture_json(["--preset", preset, "verify"])
        assert code == 2
        assert rep["status"] == "invalid-config"
    # malformed simple ids and F labels
    for argv in (
        ["--preset", "drinfeld:S3", "fuse", "x:0", "0:0"],
        ["--preset", "h_z_z2", "character", "abc", "0"],
        ["--preset", "drinfeld:S3", "dual", "0:-1"],
        ["--preset", "z_poly_zp:2", "dual", "(,1,,0):0"],
        ["--preset", "h_z_z2", "character", "3,", "0"],
        ["--preset", "h_z_z2", "character", "1_0", "0"],
        ["--preset", "h_z_z2", "character", "+1", "0"],
        ["--preset", "h_z_z2", "character", "\u0661", "0"],
        ["--preset", "z_poly_zp:2", "dual", "(1, 0):0"],
        ["--preset", "z_poly_zp:2", "dual", "(1,0):+0"],
        ["--preset", "drinfeld:S3", "dual", "+1:0"],
        ["--preset", "drinfeld:S3", "dual", "1_0:0"],
        ["--preset", "drinfeld:S3", "dual", "0:\u0660"],
    ):
        code, rep = capture_json(argv)
        assert code == 2
        assert rep["status"] == "invalid-config"


def test_cli_negative_radius_exit_2():
    # Rejected before any command runs, for free-abelian F (h_z_z2) and
    # finite F (drinfeld:S3), where a ball ignores its radius.
    for preset, command in (
        ("h_z_z2", "verify"),
        ("h_z_z2", "simples"),
        ("drinfeld:S3", "cqg-check"),
        ("drinfeld:S3", "verify"),
    ):
        # the value may follow the flag as its own token, before or after
        # the command; it is no id, so it is not shielded with '--'
        for argv in (
            ["--preset", preset, "--radius=-1", command],
            ["--preset", preset, "--radius", "-1", command],
            ["--preset", preset, command, "--radius", "-1"],
            ["--preset", preset, "--rad", "-1", command],  # argparse's abbreviation
        ):
            code, rep = capture_json(argv)
            assert code == 2, argv
            assert rep["status"] == "invalid-config", argv
            assert rep["error"] == "--radius must be >= 0", argv


def test_cli_ball_budget_exit_2(bounded_ball_enumeration):
    code, rep = capture_json(["--preset", "z_poly_zp:3", "--radius=1000", "verify"])
    assert code == 2
    assert rep["status"] == "invalid-config"


def test_cli_verification_failure_exit_1(tmp_path):
    cfg = twisted_tau_config()
    cfg["tau"]["values"][1][1][1] = "z^1@3"  # breaks the compatibility law
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    code, rep = capture_json(["--config", str(path), "verify"])
    assert code == 1
    assert rep["status"] == "fail"


def test_cli_sigma_two_witness(tmp_path):
    path = tmp_path / "sigma2.json"
    path.write_text(json.dumps(sigma_two_config()))
    code, rep = capture_json(["--config", str(path), "cqg-check"])
    assert code == 1
    assert rep["status"] == "fail"
    w = rep["payload"]["witness"]
    assert w["kind"] == "sigma"
    assert (w["g"], w["f"], w["f2"], w["value"]) == (1, "1", "1", "2")


def test_cli_identity_not_at_index_0(tmp_path):
    """A double of S3 whose class 0 is the transpositions, not the identity
    class, has the simples and the based ring of drinfeld:S3."""
    path = tmp_path / "s3_identity_at_1.json"
    path.write_text(json.dumps(drinfeld_s3_relabeled_config()))

    def shape(rep):
        keys = ("dim_total", "orbit_size", "stabilizer_order")
        return sorted(tuple(s[k] for k in keys) for s in rep["payload"]["simples"])

    code, rep = capture_json(["--config", str(path), "simples"])
    assert code == 0 and rep["status"] == "pass"
    assert rep["payload"]["count"] == 8
    _, ref = capture_json(["--preset", "drinfeld:S3", "simples", "--radius", "0"])
    assert shape(rep) == shape(ref)
    code, rep = capture_json(["--config", str(path), "fusion-table"])
    assert code == 0
    assert rep["payload"]["based_ring"]["ok"]
    assert shape(rep) == shape(ref)


def test_cli_cqg_pass():
    code, rep = capture_json(["--preset", "h_z_z2", "cqg-check", "--radius", "3"])
    assert code == 0
    assert rep["payload"]["unitary"] is True
    assert rep["payload"]["gram_diagonal_expected"] == "1/2"


def test_cli_cqg_check_walks_unitarity_once(tmp_path, monkeypatch):
    # the gate's verdict stays on H, where verify_star reads it
    from bicrossed import cocycles, hopf

    calls = []
    real = cocycles.is_unitary

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, hopf):  # wherever the name is looked up
        if hasattr(module, "is_unitary"):
            monkeypatch.setattr(module, "is_unitary", counted)
    path = tmp_path / "twisted_tau.json"
    path.write_text(json.dumps(twisted_tau_config()))
    code, rep = capture_json(["--config", str(path), "cqg-check"])
    assert code == 0 and rep["payload"]["unitary"] is True
    assert len(calls) == 1


def test_cli_text_format():
    code, out = capture(["--preset", "h_z_z2", "--format", "text", "dual", "-1:0"])
    assert code == 0
    assert "self_dual: True" in out


def test_cli_determinism_subprocess(tmp_path):
    # `python -m bicrossed.cli` ends with os._exit once its report is
    # flushed: each process prints the bytes and exits with the code that
    # run gives in process, on every exit path and in both formats, and the
    # 414 KB z_poly_zp:3 table arrives whole through the pipe.
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(broken_compat_config()))
    cases = [
        (0, ["--preset", "z_poly_zp:3", "--radius", "2", "fusion-table"]),
        (0, ["--preset", "h_z_z2", "fusion-table", "--radius", "3", "--format", "text"]),
        (1, ["--config", str(broken), "verify"]),
        (1, ["--config", str(broken), "--format", "text", "verify"]),
        (2, ["--preset", "no_such_preset", "verify"]),
        (2, ["--preset", "no_such_preset", "--format", "text", "verify"]),
    ]
    env = checkout_env()
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, so the flush matters
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "bicrossed.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _code, argv in cases
    ]
    for (code, argv), proc in zip(cases, procs):
        want_code, want_out = capture(argv)
        out, err = proc.communicate()
        assert (proc.returncode, want_code) == (code, code), argv
        assert out == want_out.encode() and err == b"", argv
        if argv[1] == "z_poly_zp:3":
            assert len(out) > 400_000


# -- report emission ----------------------------------------------------------

# sha256 of text reports as the emitter wrote them when it still joined
# every line into one string; the streamed writer must give the same bytes.
TEXT_REPORT_DIGESTS = [
    (
        0,
        ["--preset", "h_z_z2", "fusion-table", "--radius", "3"],
        "368c91b5b4ec17e3b6266ddfa6050e8618c01423deec11271e4d78de9667c528",
    ),
    (
        0,
        ["--preset", "h_z_z2n:3", "--radius", "4", "fusion-table"],
        "bd8e3e2857e3528cf40cb919556b87240b29cd4d568376fcf358747c0178ee12",
    ),
    (
        1,
        ["--config", "BROKEN", "verify"],
        "c2ff4b0873a397d83a76ef4c8167c6b8d0ef746030b6ea55e84076b0bc6e1b60",
    ),
]


def test_cli_text_reports_pinned(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(broken_compat_config()))
    for want_code, argv, digest in TEXT_REPORT_DIGESTS:
        argv = [str(broken) if a == "BROKEN" else a for a in argv]
        code, out = capture(["--format", "text", *argv])
        assert code == want_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class _Wrapped:
    """A record whose payload holds another value, records included."""

    def __init__(self, inner):
        self.inner = inner

    def to_payload(self) -> dict:
        return {"kind": "wrapped", "inner": self.inner}


def _materialized(value):
    """value with every record replaced by its to_payload(), all the way down."""
    if hasattr(value, "to_payload"):
        return _materialized(value.to_payload())
    if isinstance(value, dict):
        return {k: _materialized(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_materialized(v) for v in value]
    return value


def _emitted(report, fmt: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._emit(report, fmt)
    return buf.getvalue()


def test_streamed_report_matches_one_shot_encoding():
    build = build_preset("h_z_z2n:3")
    status, payload, _code = cli.cmd_fusion_table(build, 4)
    table_report = cli._report(build, "fusion-table", status, payload)
    assert len(payload["rows"]) == 324 > cli._SLICE
    n = cli._SLICE
    row = FusionRow("0:0", "-1:0", (("-1:0", 1),))
    synthetic = {
        "empty": [],
        "empty_dict": {},
        "one_slice": list(range(n)),
        "one_slice_plus_one": [{"i": i, "row": row} for i in range(n + 1)],
        "two_slices": [[i, "x", None] for i in range(2 * n)],
        "int_keys": {10: "ten", 2: [row], -1: None},
        "nested": {"b": [{"z": 1, "a": [1, {"y": 2.5, "x": True}]}], "a": {"deep": {"er": []}}},
        "non_ascii": "caf\u00e9 \u03b6\u2081\u2082 \u2014 \u221e \"q\"\n",
        "k\u00e9y \"quoted\"": 1,
        "record": _Wrapped(_Wrapped(row)),
        "records": [_Wrapped(row)] * (n + 1),
    }
    for report in (table_report, synthetic, {"payload": synthetic}):
        want = json.dumps(_materialized(report), sort_keys=True, separators=(",", ":")) + "\n"
        assert _emitted(report, "json") == want
    # the text view renders a record as its payload
    assert _emitted(table_report, "text") == _emitted(_materialized(table_report), "text")


class _CharCount:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


def test_emit_memory_bounded(z_poly_zp3):
    # Writing the 414 KB z_poly_zp:3 table raised the traced heap by 3.4 MB
    # when the rows became dicts and the report one string; streamed, with
    # rows converted as they are encoded, it rises by about 0.4 MB.
    status, payload, _code = cli.cmd_fusion_table(z_poly_zp3, 2)
    report = cli._report(z_poly_zp3, "fusion-table", status, payload)
    sink = _CharCount()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        with redirect_stdout(sink):
            cli._emit(report, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 400_000
    assert peak - entry < 1_000_000


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    for path in (tmp_path, latin1):  # a directory, a non-UTF-8 file
        with pytest.raises(ConfigError):
            load_config_file(str(path))
        code, rep = capture_json(["--config", str(path), "verify"])
        assert code == 2
        assert rep["status"] == "invalid-config"


def test_cli_integer_fields_not_truncated(tmp_path):
    for key, value in (("radius", 1.9), ("radius", True)):
        cfg = resolve_preset("h_z_z2n:2")
        cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, rep = capture_json(["--config", str(path), "simples"])
        assert code == 2
        assert rep["status"] == "invalid-config"
        assert "radius" in rep["error"]


def test_cli_preset_names_never_reach_files(monkeypatch):
    # a path-like name, and names that a case-folding file lookup would
    # have found; every one is an unknown preset
    for name in ("../../../bench/configs/b3_z3", "H_Z_Z2N:2", "H_Z_Z2N:5", "DRINFELD:S3"):
        code, rep = capture_json(["--preset", name, "verify"])
        assert code == 2, name
        assert rep["status"] == "invalid-config"
        assert "unknown preset" in rep["error"]

    def no_files(*args, **kwargs):
        raise AssertionError(f"a preset opened {args!r}")

    monkeypatch.setattr("builtins.open", no_files)
    for name in presets.SHIPPED:
        assert resolve_preset(name)["name"] == name


def test_cli_dispatch_reaches_each_command(monkeypatch):
    import bicrossed.cli as cli

    calls = []

    def stub(name):
        def cmd(build, *args):
            calls.append((name, build.name, args))
            return "pass", {}, 0

        return cmd

    for attr in dir(cli):
        if attr.startswith("cmd_"):
            monkeypatch.setattr(cli, attr, stub(attr))
    cases = [
        (["verify"], ("cmd_verify", ())),
        (["simples"], ("cmd_simples", ())),
        (["character", "-1", "1"], ("cmd_character", ("-1", 1))),
        (["fuse", "-1:0", "2:0"], ("cmd_fuse", ("-1:0", "2:0"))),
        (["dual", "-2:0"], ("cmd_dual", ("-2:0",))),
        (["indicators"], ("cmd_indicators", ())),
        (["fusion-table"], ("cmd_fusion_table", ())),
        (["cqg-check"], ("cmd_cqg_check", ())),
    ]
    assert len(cases) == len([a for a in dir(cli) if a.startswith("cmd_")])
    for argv, (name, positionals) in cases:
        for flags, radius in (([], 4), (["--radius", "2"], 2)):
            calls.clear()
            code, rep = capture_json(["--preset", "h_z_z2", *flags, *argv])
            assert code == 0 and rep["command"] == argv[0]
            assert calls == [(name, "h_z_z2", (*positionals, radius))], argv


def test_cli_internal_inconsistency_exit_3(monkeypatch):
    import bicrossed.cli as cli
    from bicrossed.errors import InternalInconsistencyError

    def boom(build, radius):
        raise InternalInconsistencyError("fabricated inconsistency")

    monkeypatch.setattr(cli, "cmd_simples", boom)
    code, rep = capture_json(["--preset", "h_z_z2", "simples"])
    assert code == 3
    assert rep["status"] == "internal-inconsistency"


def test_cli_positional_config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(resolve_preset("h_z_z2")))
    code, rep = capture_json([str(path), "dual", "-1:0"])
    assert code == 0
    assert rep["payload"]["self_dual"] is True
