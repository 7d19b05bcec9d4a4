"""Start-up of the CLI: what `import bicrossed.cli` loads, and --help.

Every command runs in a fresh process, so the import path is paid on each
one.  The import must not pull in dataclasses (with inspect, ast, dis and
tokenize), fractions (with decimal) or _hashlib (which maps OpenSSL);
fractions is imported only where a Fraction is built or accepted, and
config_hash takes SHA-256 from the interpreter's _sha2 or _sha256, with
hashlib as the fallback.  The --help texts are pinned byte for byte, at
COLUMNS=80, to the snapshot in help_snapshot.json.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

from bicrossed import cli, presets
from bicrossed.config import config_hash

HELP_SNAPSHOT = Path(__file__).with_name("help_snapshot.json")
HEAVY_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "_hashlib"}


def _probe(program: str) -> str:
    """The stdout of program, run in a fresh interpreter that imports
    bicrossed from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=checkout_env(),
        check=True,
    ).stdout


def _loaded_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running statement."""
    return set(_probe(f"import sys\n{statement}\nprint('\\n'.join(sys.modules))").split())


def test_cli_import_skips_dataclasses_and_fractions():
    extra = _loaded_modules("import bicrossed.cli") - _loaded_modules("pass")
    assert "bicrossed.cli" in extra
    assert not extra & HEAVY_MODULES, sorted(extra & HEAVY_MODULES)


def _hashlib_hashes() -> list[str]:
    return [
        hashlib.sha256(
            json.dumps(presets.resolve_preset(name), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:16]
        for name in presets.SHIPPED
    ]


def test_config_hash_is_the_hashlib_digest():
    got = [config_hash(presets.resolve_preset(name)) for name in presets.SHIPPED]
    assert got == _hashlib_hashes()


def test_config_hash_falls_back_to_hashlib():
    # with neither _sha2 nor _sha256 importable, config takes hashlib's
    # sha256 and gives the same digests
    out = _probe(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from bicrossed import config, presets\n"
        "print(config._new_sha256 is hashlib.sha256)\n"
        "for name in presets.SHIPPED:\n"
        "    print(config.config_hash(presets.resolve_preset(name)))\n"
    )
    assert out.split() == ["True", *_hashlib_hashes()]


HELP = json.loads(HELP_SNAPSHOT.read_text())


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_matches_snapshot(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [] if command == "(top)" else [command]
    with pytest.raises(SystemExit) as exc:
        cli.run([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_help_snapshot_covers_every_command():
    assert set(HELP) == {"(top)", *cli._COMMAND_TABLE}
