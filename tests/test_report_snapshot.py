"""Pin the full verification payloads to a committed JSON snapshot.

The snapshot holds, per fixture, the to_payload() of every verifier:
matched pair, cocycles, Hopf axioms and (for unitary cocycle data) the
star structure.  Names, scopes, instance counts, violation counts and the
witnesses in enumeration order must all stay fixed.

To write the snapshot afresh (only when a report is meant to change):
    PYTHONPATH=src:tests python3 -c "import test_report_snapshot as t; t.write_snapshot()"
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import (
    broken_compat_config,
    broken_linear_config,
    build_preset,
    twisted_sigma_config,
    twisted_tau_config,
)

from bicrossed.cocycles import is_unitary, verify_cocycles
from bicrossed.config import build_config
from bicrossed.hopf import verify_hopf, verify_star
from bicrossed.matched_pair import verify_matched_pair

SNAPSHOT = Path(__file__).with_name("report_snapshot.json")

# case name -> (build thunk, max_violations or None for each verifier's default)
CASES = {
    "broken_compat": (lambda: build_config(broken_compat_config()), None),
    "broken_compat@max2": (lambda: build_config(broken_compat_config()), 2),
    "twisted_tau": (lambda: build_config(twisted_tau_config()), None),
    "twisted_sigma": (lambda: build_config(twisted_sigma_config()), None),
    "drinfeld:S3": (lambda: build_preset("drinfeld:S3"), None),
    "broken_linear": (lambda: build_config(broken_linear_config()), None),
    "z_poly_zp:2": (lambda: build_preset("z_poly_zp:2"), None),
}


def case_payloads(name: str) -> dict:
    make, max_violations = CASES[name]
    build = make()
    radius = build.radius
    kw = {} if max_violations is None else {"max_violations": max_violations}
    out = {
        "matched_pair": verify_matched_pair(build.ctx, radius, **kw).to_payload(),
        "cocycles": verify_cocycles(build.ctx, build.sigma, build.tau, radius, **kw).to_payload(),
        "hopf": verify_hopf(build.hopf, radius, **kw).to_payload(),
    }
    if is_unitary(build.sigma, build.tau, build.ctx, radius)[0]:
        out["star"] = verify_star(build.hopf, radius, **kw).to_payload()
    return out


def write_snapshot() -> None:
    data = {name: case_payloads(name) for name in CASES}
    SNAPSHOT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", list(CASES))
def test_reports_match_snapshot(name):
    expected = json.loads(SNAPSHOT.read_text())[name]
    # Round-trip through JSON so tuples and lists compare alike.
    assert json.loads(json.dumps(case_payloads(name))) == expected


def test_truncation_keeps_count_and_first_witnesses():
    full = json.loads(SNAPSHOT.read_text())["broken_compat"]["hopf"]["checks"]
    cut = json.loads(SNAPSHOT.read_text())["broken_compat@max2"]["hopf"]["checks"]
    truncated = [c for c in cut if c["violation_count"] > 2]
    assert truncated, "broken_compat no longer exercises truncation"
    for a, b in zip(full, cut):
        assert a["violation_count"] == b["violation_count"]
        assert b["violations"] == a["violations"][: len(b["violations"])]
        assert len(b["violations"]) == min(2, b["violation_count"])
