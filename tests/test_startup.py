"""Start-up of the CLI: what `import bicrossed.cli` loads, and --help.

Every command runs in a fresh process, so the import path is paid on each
one.  The import must not pull in dataclasses (with inspect, ast, dis and
tokenize) or fractions (with decimal); fractions is imported only where a
Fraction is built or accepted.  The --help texts are pinned byte for
byte, at COLUMNS=80, to the snapshot in help_snapshot.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicrossed
from bicrossed import cli

HELP_SNAPSHOT = Path(__file__).with_name("help_snapshot.json")
HEAVY_MODULES = {"dataclasses", "inspect", "fractions", "decimal"}


def _loaded_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running statement."""
    env = dict(os.environ)
    src = str(Path(bicrossed.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout
    return set(out.split())


def test_cli_import_skips_dataclasses_and_fractions():
    extra = _loaded_modules("import bicrossed.cli") - _loaded_modules("pass")
    assert "bicrossed.cli" in extra
    assert not extra & HEAVY_MODULES, sorted(extra & HEAVY_MODULES)


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
