"""The orbit route of FusionRing against the Haar route, on one ring.

With sigma and tau trivial and a trivial left action, decompose_product
reads each row off the stabilizer tables at the product orbits'
representatives (the orbit route); every other config takes the Haar
route, which stays callable as FusionRing._haar_row and is the oracle
here: both routes run on the same ring, row for row.

Mutations of the orbit route, each of which fails a tier-1 test:
- the transport dropped, rho1(h) read for rho1(z_x h z_x^-1)
  (test_routes_agree on drinfeld:S3 and A4,
  test_split_extensions_routes_agree[S4 = V4 x| S3]);
- x y taken as y x, the pairs (x, f3 x^-1) (test_routes_agree
  [z2_trivial_on_s3], test_split_extensions_routes_agree[S4 = A4 x| Z2],
  test_fusion.py::test_noncommutative_fusion_table; an abelian F hides it);
- the G_x n G_y restriction dropped, every h in G_f3 counted for every
  pair (test_routes_agree and every split extension);
- the 1/|G_f3| factor dropped (test_routes_agree and every split
  extension);
- rho_c(h) read for rho_c(h^-1) (test_routes_agree on h_z_z2n:2, h_z_z2n:3,
  drinfeld:S3 and A4, test_split_extensions_routes_agree[A4 = V4 x| Z3]);
- a character index left out of the decomposition memo's key
  (test_routes_agree and every split extension);
- the check that an orbit's simples are the rows of its stabilizer table
  dropped (test_certs.py::test_solve_in_span_rejects_non_orthonormal_orbit,
  whose orbit repeats one character);
- the stabilizer residual skipped
  (test_orbit_route_residual_catches_a_wrong_table).

The full tables of z_poly_zp:3 at radius 2 and drinfeld:S4 at radius 0
are compared behind the sweep marker.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import SPLIT_EXTENSIONS, build_preset, split_extension_ctx
from test_fusion import _ORACLE_CONFIGS

from bicrossed import fusion
from bicrossed.cocycles import SigmaCocycle, TauCocycle
from bicrossed.config import build_config
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing
from bicrossed.hopf import BicrossedHopf
from bicrossed.matched_pair import orbit_product, verify_matched_pair

S4_Z4 = Path(__file__).resolve().parents[1] / "bench" / "configs" / "s4_z4.json"

_ORBIT_ROUTE = ("drinfeld:A4", "drinfeld:S3", "h_z_z2n:2", "z2_trivial_on_s3", "z_poly_zp:2")
_HAAR_ROUTE = ("s3_factorization", "sigma_and_tau", "twisted_sigma", "twisted_tau", "z4_twisted")


def _summands(pairs) -> tuple:
    return tuple(sorted((c.uid, m) for c, m in pairs))


def _disagreements(ring, radius) -> list:
    """The pairs of simples in the ball whose rows differ between routes."""
    simples = ring.index.enumerate(radius)
    return [
        (d1.uid, d2.uid)
        for d1 in simples
        for d2 in simples
        if _summands(ring._orbit_row(d1, d2)) != _summands(ring._haar_row(d1, d2))
    ]


def test_route_choice():
    assert sorted(_ORBIT_ROUTE + _HAAR_ROUTE) == sorted(_ORACLE_CONFIGS)
    for name in _ORBIT_ROUTE + _HAAR_ROUTE:
        ring = FusionRing(_ORACLE_CONFIGS[name][0]().hopf)
        assert ring.orbit_route is (name in _ORBIT_ROUTE), name


def test_orbit_route_forms_no_character_product(monkeypatch):
    ring = FusionRing(build_preset("h_z_z2n:3").hopf)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the orbit route reached the Haar route")

    monkeypatch.setattr(ring.hopf, "mul", refuse)
    monkeypatch.setattr(ring, "pair", refuse)
    monkeypatch.setattr(fusion, "solve_in_span", refuse)
    monkeypatch.setattr(ring.index, "character", refuse)
    simples = ring.index.enumerate(2)
    rows = [ring.decompose_product(d1, d2) for d1 in simples for d2 in simples]
    assert len(rows) == 12 * 12


_ROUTE_CASES = {
    **{name: _ORACLE_CONFIGS[name] for name in _ORBIT_ROUTE},
    "h_z_z2n:3": (lambda: build_preset("h_z_z2n:3"), 4),
    "s4_z4": (lambda: build_config(json.loads(S4_Z4.read_text(encoding="utf-8"))), 0),
}


@pytest.mark.parametrize("name", sorted(_ROUTE_CASES))
def test_routes_agree(name):
    build, radius = _ROUTE_CASES[name]
    ring = FusionRing(build().hopf)
    assert ring.orbit_route
    assert _disagreements(ring, radius) == []


@pytest.mark.parametrize("name", sorted(_ORBIT_ROUTE))
def test_product_orbits_match_orbit_product(name):
    # the orbits of f1 O2 are those of O1 O2
    build, radius = _ORACLE_CONFIGS[name]
    ring = FusionRing(build().hopf)
    orbits = ring.index.orbits_in_ball(radius)
    for o1 in orbits:
        for o2 in orbits:
            got = [simples[0].orbit for simples, _stab, _terms in ring._products_for(o1, o2)]
            got.sort(key=lambda o: ring.hopf.F.order_key(o.representative))
            assert got == orbit_product(ring.hopf.ctx, o1, o2), (o1.representative, o2.representative)


@pytest.mark.parametrize("name", sorted(SPLIT_EXTENSIONS))
def test_split_extensions_routes_agree(name):
    ctx = split_extension_ctx(*SPLIT_EXTENSIONS[name])
    assert verify_matched_pair(ctx, 0).ok
    ring = FusionRing(BicrossedHopf(ctx, SigmaCocycle.trivial(), TauCocycle.trivial()))
    assert ring.orbit_route
    assert _disagreements(ring, 0) == []
    assert ring.verify_based_ring(ring.fusion_table(0))["ok"]


def test_orbit_route_residual_catches_a_wrong_table(drinfeld_s3):
    # the trivial character of S3 read in place of the sign character: the
    # two coefficients of chi0 * chi0 sum to 2 on a psi that is 1
    ring = FusionRing(drinfeld_s3.hopf)
    unit = ring.index.unit_simple()
    stab = ring._simples_on(unit.orbit)[1]
    stab.values[1] = stab.values[0]
    with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
        ring.decompose_product(unit, unit)


def test_haar_route_rejects_non_orthonormal_orbit(monkeypatch):
    """The per-orbit Gram certificate of the Haar route, on a config the
    orbit route does not serve."""
    build, radius = _ORACLE_CONFIGS["s3_factorization"]
    ring = FusionRing(build().hopf)
    assert not ring.orbit_route
    index = ring.index
    d = index.enumerate(radius)[0]
    real = index.simples_for_orbit
    monkeypatch.setattr(index, "simples_for_orbit", lambda orb: real(orb)[:1] * 2)
    with pytest.raises(InternalInconsistencyError, match="not orthonormal"):
        ring.decompose_product(d, d)


_SWEEP_CASES = {
    "z_poly_zp:3": (lambda: build_preset("z_poly_zp:3"), 2),
    "drinfeld:S4": (lambda: build_preset("drinfeld:S4"), 0),
}


@pytest.mark.sweep
@pytest.mark.parametrize("name", sorted(_SWEEP_CASES))
def test_full_tables_match_haar_route(name):
    build, radius = _SWEEP_CASES[name]
    H = build().hopf
    orbit_ring, haar_ring = FusionRing(H), FusionRing(H)
    assert orbit_ring.orbit_route
    haar_ring.orbit_route = False
    tables = [ring.fusion_table(radius) for ring in (orbit_ring, haar_ring)]
    assert [r.to_payload() for r in tables[0].rows] == [r.to_payload() for r in tables[1].rows]
    assert tables[0].duals == tables[1].duals
    assert orbit_ring.verify_based_ring(tables[0]) == haar_ring.verify_based_ring(tables[1])
