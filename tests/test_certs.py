from __future__ import annotations

from pathlib import Path

import pytest
from conftest import build_preset
from hypothesis import given
from hypothesis import strategies as st
from haar_oracle import HaarOracle

from bicrossed.certs import dimension_audit, direct_sum_check, exact_rank, solve_in_span
from bicrossed.comodules import SimpleIndex, coefficient_basis
from bicrossed.config import build_config, load_config_file
from bicrossed.cyclotomic import rational, root_of_unity
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing
from bicrossed.groups import f_ball
from bicrossed.hopf import HElem
from bicrossed.matched_pair import Orbit
from bicrossed.presets import SHIPPED, resolve_preset

BENCH_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "bench" / "configs").glob("*.json"))


def test_exact_rank_examples(h_z_z2):
    H = h_z_z2.hopf
    index = SimpleIndex(H)
    (d,) = index.simples_for_f((1,))
    basis = coefficient_basis(H, d)
    assert exact_rank(basis) == 4
    # duplicates never change the rank
    assert exact_rank(basis + basis) == 4
    chars = [index.character(x) for x in index.enumerate(3)]
    assert exact_rank(chars) == len(chars)


def test_exact_rank_with_cyclotomic_coeffs():
    i = root_of_unity(1, 4)
    v1 = HElem.basis(0, 0).scale(i) + HElem.basis(1, 0)
    v2 = HElem.basis(0, 0) + HElem.basis(1, 0).scale(-i)  # = -i * v1
    assert exact_rank([v1, v2]) == 1
    v3 = HElem.basis(0, 0) + HElem.basis(1, 0).scale(i)
    assert exact_rank([v1, v3]) == 2


@given(st.permutations(range(4)))
def test_exact_rank_order_independent(perm):
    vs = [
        HElem.basis(0, 0) + HElem.basis(1, 0),
        HElem.basis(0, 0) - HElem.basis(1, 0),
        HElem.basis(0, 1).scale(rational(3)),
        HElem.basis(0, 0) + HElem.basis(0, 1),
    ]
    shuffled = [vs[i] for i in perm]
    assert exact_rank(shuffled) == exact_rank(vs)


def test_solve_in_span(h_z_z2):
    ring = FusionRing(h_z_z2.hopf)
    chars = [ring.index.character(d) for d in ring.index.enumerate(2)]
    target = chars[0].scale(rational(2)) + chars[3]
    coeffs = solve_in_span(chars, target, HaarOracle(ring).pair)
    assert [c.literal() for c in coeffs] == ["2", "0", "0", "1"]


def test_solve_in_span_rejects_residual(h_z_z2):
    ring = FusionRing(h_z_z2.hopf)
    chars = [ring.index.character(d) for d in ring.index.enumerate(1)]
    outside = HElem.basis(0, (2,))
    with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
        solve_in_span(chars, outside, HaarOracle(ring).pair)


def test_direct_sum_drinfeld(drinfeld_s3):
    index = SimpleIndex(drinfeld_s3.hopf)
    cert = direct_sum_check(drinfeld_s3.hopf, index, 0)
    assert cert["ok"]
    dims = sorted(b["dimension"] for b in cert["details"]["blocks"])
    assert dims == [6, 12, 18]
    assert cert["details"]["covers_full_basis"]


def test_direct_sum_h_z_z2(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    cert = direct_sum_check(h_z_z2.hopf, index, 2)
    assert cert["ok"]
    assert cert["details"]["covers_ball"]
    dims = sorted(b["dimension"] for b in cert["details"]["blocks"])
    assert dims == [2, 4, 4]


def test_radius0_single_block(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    cert = direct_sum_check(h_z_z2.hopf, index, 0)
    assert cert["ok"]
    assert [b["dimension"] for b in cert["details"]["blocks"]] == [2]  # C_1F = k^G


def test_dimension_audit(drinfeld_s3, z_poly_zp3):
    index = SimpleIndex(drinfeld_s3.hopf)
    audit = dimension_audit(drinfeld_s3.hopf, index, 0)
    assert audit["ok"]
    assert sorted(r["sum_dim_sq"] for r in audit["rows"]) == [6, 12, 18]
    index2 = SimpleIndex(z_poly_zp3.hopf)
    audit2 = dimension_audit(z_poly_zp3.hopf, index2, 1)
    assert audit2["ok"]
    for row in audit2["rows"]:
        assert row["sum_dim_sq"] == row["expected"] == 3 * row["orbit_size"]


def test_direct_sum_monotone_in_radius(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    results = [direct_sum_check(h_z_z2.hopf, index, r)["ok"] for r in range(4)]
    assert results == [True] * 4


def _direct_sum_by_keys(hopf, index, radius: int) -> dict:
    """The direct-sum payload by basis keys: every (g, x) of every C_f, a
    clash reported at the last key where two orbits meet."""
    ctx = hopf.ctx
    orbits = index.orbits_in_ball(radius)
    seen: dict = {}
    blocks = []
    ok = True
    details: dict = {"blocks": blocks}
    for orb in orbits:
        keys = [(g, x) for g in ctx.G.elements() for x in orb.elements]
        blocks.append({"orbit": ctx.F.label(orb.representative), "dimension": len(keys)})
        for key in keys:
            if key in seen:
                ok = False
                details["overlap"] = {
                    "key": [key[0], ctx.F.label(key[1])],
                    "orbits": [ctx.F.label(seen[key]), ctx.F.label(orb.representative)],
                }
            seen[key] = orb.representative
    if ctx.F.is_finite:
        details["covers_full_basis"] = len(seen) == ctx.G.order * ctx.F.group.order
        ok = ok and details["covers_full_basis"]
    else:
        ball = {(g, f) for f in f_ball(ctx.F, radius) for g in ctx.G.elements()}
        details["covers_ball"] = ball <= set(seen)
    return {
        "description": "direct sum of coefficient subcoalgebras",
        "rows": len(orbits),
        "cols": len(seen),
        "rank": len(seen),
        "ok": ok,
        "details": details,
    }


@pytest.mark.parametrize(
    "source", [*SHIPPED, "drinfeld:S4", *(path.stem for path in BENCH_CONFIGS)]
)
def test_direct_sum_matches_key_oracle(source):
    paths = {path.stem: path for path in BENCH_CONFIGS}
    cfg = load_config_file(str(paths[source])) if source in paths else resolve_preset(source)
    hopf = build_config(cfg).hopf
    index = SimpleIndex(hopf)
    for radius in range(3):
        cert = direct_sum_check(hopf, index, radius)
        assert cert == _direct_sum_by_keys(hopf, index, radius), radius
        assert cert["ok"]


class _BallIndex:
    """An index whose ball holds the given orbits, real or not."""

    def __init__(self, orbits):
        self.orbits = orbits

    def orbits_in_ball(self, radius):
        return self.orbits


@pytest.mark.parametrize("name", ["h_z_z2", "drinfeld:S3"])
def test_direct_sum_reports_an_overlap(name):
    """x, not a representative, is claimed by its orbit, then by a fake
    orbit anchored at x, then by one anchored at 1: the overlap names the
    last two claimants."""
    build = build_preset(name)
    hopf, F = build.hopf, build.hopf.F
    real = SimpleIndex(hopf).orbits_in_ball(1)
    x = next(y for orb in real[1:] for y in orb.elements if y != orb.representative)
    fakes = [Orbit(x, (F.identity, x), (0,), (0,)), Orbit(F.identity, (x,), (0,), (0,))]
    index = _BallIndex([*real, *fakes])
    cert = direct_sum_check(hopf, index, 1)
    assert cert == _direct_sum_by_keys(hopf, index, 1)
    assert not cert["ok"]
    assert cert["details"]["overlap"] == {
        "key": [hopf.G.order - 1, F.label(x)],
        "orbits": [F.label(x), F.label(F.identity)],
    }


@pytest.mark.parametrize("name, ok", [("h_z_z2", True), ("drinfeld:S3", False)])
def test_direct_sum_reports_a_gap(name, ok):
    """Orbits that miss part of the ball: a finite F is not covered, which
    fails the check; an uncovered ball of a free-abelian F is reported."""
    hopf = build_preset(name).hopf
    index = _BallIndex(SimpleIndex(hopf).orbits_in_ball(1)[:-1])
    cert = direct_sum_check(hopf, index, 1)
    assert cert == _direct_sum_by_keys(hopf, index, 1)
    assert cert["ok"] is ok
    assert cert["details"].get("covers_full_basis", False) is False
    assert cert["details"].get("covers_ball", False) is False
