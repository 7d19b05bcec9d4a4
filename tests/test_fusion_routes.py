"""The orbit route of FusionRing against the Haar route, on one ring.

decompose_product reads each row at the representatives of the product
orbits.  With sigma and tau trivial it reads it on the classes of each
pair-orbit stabilizer K_i (class form), and dual_of reads the dual off
the stabilizer tables too.  With either cocycle twisted it reads psi on
the elements of G_f3, off the two factors' character terms, against the
beta-projective slices of the simples over O3 (slice form), and dual_of
searches the antipode, FusionRing._antipode_dual.  The Haar route of
tests/haar_oracle.py is the oracle of both forms: both run on the same
ring, row for row.  _full_residual, the walk over every pair and every
element of G_f3 that the class form no longer makes, pins the reading
of psi on classes.

Mutations of the class form, each of which fails a tier-1 test:
- the transport dropped, the class of s < f1 read in G_f2 without the
  conjugation by z_y (test_routes_agree on drinfeld:S3 and A4,
  test_class_residual_matches_full_residual,
  test_fusion.py::test_drinfeld_s3_matches_dpr_rules,
  test_factorizations.py::test_factorization_routes_agree);
- x y taken as y x, the product f1 y read as y f1 (test_routes_agree
  [z2_trivial_on_s3], test_split_extensions_routes_agree[S4 = A4 x| Z2],
  test_product_orbits_match_orbit_product[z2_trivial_on_s3],
  test_factorization_routes_agree on S4 with |F| = 6; an abelian F hides
  it);
- the pair stabilizer taken as all of G_f1, every s counted for every
  pair (test_routes_agree and every split extension and factorization);
- the 1/|G_f3| factor dropped (test_routes_agree and every split
  extension and factorization);
- rho_c(D) read for rho_c(D^-1) (test_routes_agree on h_z_z2n:2,
  h_z_z2n:3, drinfeld:S3, A4 and s3_factorization,
  test_split_extensions_routes_agree[A4 = V4 x| Z3]);
- a character index left out of the decomposition memo's key
  (test_routes_agree and every split extension and factorization);
- the check that an orbit's simples are the rows of its stabilizer table
  dropped (test_certs.py::test_solve_in_span_rejects_non_orthonormal_orbit,
  whose orbit has fewer simples than rows, and
  test_orbit_route_rejects_simples_off_the_table, which alone catches
  dropping the identity part of the check);
- the stabilizer residual skipped
  (test_orbit_route_residual_catches_a_wrong_table,
  test_orbit_route_residual_reads_every_class);
- the < twist dropped, s read for s < f1 (test_routes_agree
  [s3_factorization], test_class_residual_matches_full_residual on
  s3_factorization and s4_factorization, test_factorization_routes_agree
  on every case of S3 and A4);
- K_i read at (f1, y) without the move to f3, the class of s in G_f3
  for that of t s t^-1 (test_routes_agree on drinfeld:S3 and A4,
  test_drinfeld_s3_matches_dpr_rules, test_factorization_routes_agree on
  S4 with |F| = 3);
- the index factor [G_f3 : K_i] dropped from the weights
  (test_routes_agree on drinfeld:S3, A4, h_z_z2n:2 and h_z_z2n:3,
  test_split_extensions_routes_agree[S4 = V4 x| S3]);
- the residual read on the classes of K_i instead of G_f3, only at the
  classes some term meets (test_orbit_route_residual_reads_every_class,
  whose free pair orbit meets the identity class alone);
- a dual read as rho instead of rho*, k = h < x for (h < x)^-1
  (test_stabilizer_duals_match_antipode on drinfeld:S3, A4, h_z_z2n:2,
  h_z_z2n:3 and s3_factorization, test_drinfeld_s3_matches_dpr_rules).

Mutations of the slice form, each of which fails a tier-1 test:
- conj dropped in m_c, psi(h) s_c(h) summed for psi(h) conj(s_c(h))
  (test_slice_form_matches_haar_route on z4_twisted, twisted_tau,
  sigma_and_tau and s3_factorization_tau, whose slices take non-real
  values; test_fusion.py::test_rows_match_dense_solve);
- the sigma(h; x, y) factor dropped (test_slice_form_matches_haar_route
  on twisted_sigma and sigma_and_tau,
  test_slice_form_refuses_sigma_two_like_the_haar_route,
  test_deep_twisted.py::test_sigma_and_tau_pipeline);
- the right factor read at h instead of h < x
  (test_slice_form_matches_haar_route[s3_factorization_tau], the one
  twisted fixture whose left action moves g);
- zero values skipped in a slice, so that it no longer runs over all of
  G_f (test_slice_form_matches_haar_route[klein_twisted] and
  test_klein_twisted_simples_are_projective: the only fixture whose
  projective characters vanish somewhere);
- the residual skipped (test_slice_form_residual_catches_a_wrong_slice);
- O3 left out of the decomposition memo key, so that equal psi on two
  product orbits give one orbit's simples (test_slice_form_matches_haar_route
  on every twisted fixture but s3_factorization_tau, where no psi recurs
  on a second product orbit, and test_fusion.py::test_rows_match_dense_solve);
- the check that an orbit's simples are the rows of its table dropped
  (test_slice_form_rejects_non_orthonormal_orbit, whose duplicated
  simples the residual would reject with another message).

The full tables of z_poly_zp:3 at radius 2, drinfeld:S4 at radius 0 and
z4_twisted at radius 6 are compared behind the sweep marker.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import (
    SPLIT_EXTENSIONS,
    build_preset,
    klein_twisted_config,
    s4_factorization_ctx,
    sigma_two_config,
    split_extension_ctx,
)
from haar_oracle import HaarOracle, HaarRing
from test_deep_twisted import s3_factorization_tau_config, z4_twisted_config
from test_fusion import _ORACLE_CONFIGS

from bicrossed import fusion
from bicrossed.cocycles import SigmaCocycle, TauCocycle, verify_cocycles
from bicrossed.config import build_config
from bicrossed.cyclotomic import rational
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing
from bicrossed.hopf import BicrossedHopf
from bicrossed.matched_pair import orbit_product, verify_matched_pair

S4_Z4 = Path(__file__).resolve().parents[1] / "bench" / "configs" / "s4_z4.json"

_CLASS_FORM = (
    "drinfeld:A4",
    "drinfeld:S3",
    "h_z_z2n:2",
    "s3_factorization",
    "z2_trivial_on_s3",
    "z_poly_zp:2",
)
_SLICE_FORM = ("sigma_and_tau", "twisted_sigma", "twisted_tau", "z4_twisted")


def _summands(pairs) -> tuple:
    return tuple(sorted((c.uid, m) for c, m in pairs))


def _disagreements(ring, radius) -> list:
    """The pairs of simples in the ball whose rows differ between routes."""
    haar = HaarOracle(ring)
    simples = ring.index.enumerate(radius)
    return [
        (d1.uid, d2.uid)
        for d1 in simples
        for d2 in simples
        if _summands(ring._orbit_row(d1, d2)) != _summands(haar.row(d1, d2))
    ]


def test_route_choice():
    assert sorted(_CLASS_FORM + _SLICE_FORM) == sorted(_ORACLE_CONFIGS)
    for name in _CLASS_FORM + _SLICE_FORM:
        ring = FusionRing(_ORACLE_CONFIGS[name][0]().hopf)
        assert ring._twisted is (name in _SLICE_FORM), name


def test_orbit_route_forms_no_character_product(monkeypatch):
    ring = FusionRing(build_preset("h_z_z2n:3").hopf)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the orbit route reached the Haar route")

    monkeypatch.setattr(ring.hopf, "mul", refuse)
    monkeypatch.setattr(fusion, "solve_in_span", refuse)
    monkeypatch.setattr(ring.index, "character", refuse)
    monkeypatch.setattr(ring.hopf, "antipode", refuse)
    simples = ring.index.enumerate(2)
    rows = [ring.decompose_product(d1, d2) for d1 in simples for d2 in simples]
    assert len(rows) == 12 * 12
    assert len({ring.dual_of(d).uid for d in simples}) == 12


def test_slice_form_forms_no_product_in_h(monkeypatch):
    # the slice form reads the factors' character terms, but forms no
    # product in H and solves in no span
    ring = FusionRing(build_config(z4_twisted_config()).hopf)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the slice form reached the Haar route")

    monkeypatch.setattr(ring.hopf, "mul", refuse)
    monkeypatch.setattr(fusion, "solve_in_span", refuse)
    simples = ring.index.enumerate(3)
    rows = [ring.decompose_product(d1, d2) for d1 in simples for d2 in simples]
    assert len(rows) == 10 * 10


_ROUTE_CASES = {
    **{name: _ORACLE_CONFIGS[name] for name in _CLASS_FORM},
    "h_z_z2n:3": (lambda: build_preset("h_z_z2n:3"), 4),
    "s4_z4": (lambda: build_config(json.loads(S4_Z4.read_text(encoding="utf-8"))), 0),
}


@pytest.mark.parametrize("name", sorted(_ROUTE_CASES))
def test_routes_agree(name):
    build, radius = _ROUTE_CASES[name]
    ring = FusionRing(build().hopf)
    assert not ring._twisted
    assert _disagreements(ring, radius) == []


@pytest.mark.parametrize("name", sorted(_ROUTE_CASES))
def test_stabilizer_duals_match_antipode(name):
    build, radius = _ROUTE_CASES[name]
    ring = FusionRing(build().hopf)
    simples = ring.index.enumerate(radius)
    assert [ring.dual_of(d).uid for d in simples] == [ring._antipode_dual(d).uid for d in simples]


def _full_residual(ring, d1, d2) -> list:
    """The elements h of each product stabilizer G_f3 at which
    psi(h) != sum m_c rho_c(h), psi read by walking every pair (x, y) in
    O1 x O2 with xy = f3 that h fixes, rho1(z_x h z_x^-1)
    rho2(z_y (h < x) z_y^-1) from the unlifted character values, and m_c
    from the orbit route: the oracle of reading psi on classes only."""
    H = ring.hopf
    G, F, ctx = H.G, H.F, H.ctx

    def transport(orbit):  # x -> z_x with z_x^-1 > f = x
        return {ctx.act_right(G.inv(z), orbit.representative): z for z in orbit.transversal}

    t1, t2 = transport(d1.orbit), transport(d2.orbit)
    chi1, chi2 = d1.chi.value_map(), d2.chi.value_map()
    m = {c.uid: n for c, n in ring._orbit_row(d1, d2)}
    bad = []
    for simples, _stab, _terms in ring._products_for(d1.orbit, d2.orbit):
        o3 = simples[0].orbit
        f3 = o3.representative
        for h in o3.stabilizer:
            psi = rational(0)
            for x, zx in t1.items():
                y = F.mul(F.inv(x), f3)
                hx = ctx.act_left(h, x)
                if y in t2 and ctx.act_right(h, x) == x and ctx.act_right(hx, y) == y:
                    zy = t2[y]
                    a = G.mul(G.mul(zx, h), G.inv(zx))
                    b = G.mul(G.mul(zy, hx), G.inv(zy))
                    psi = psi + chi1[a] * chi2[b]
            total = rational(0)
            for c in simples:
                total = total + rational(m.get(c.uid, 0)) * c.chi.value_map()[h]
            if total != psi:
                bad.append((f3, h))
    return bad


def _untwisted(ctx):
    return BicrossedHopf(ctx, SigmaCocycle.trivial(), TauCocycle.trivial())


_RESIDUAL_CASES = {
    "drinfeld:S3": (lambda: build_preset("drinfeld:S3").hopf, 0),
    "s3_factorization": (lambda: _ORACLE_CONFIGS["s3_factorization"][0]().hopf, 0),
    "s4_factorization": (lambda: _untwisted(s4_factorization_ctx()), 0),
    "z2_trivial_on_s3": (lambda: _ORACLE_CONFIGS["z2_trivial_on_s3"][0]().hopf, 0),
    "h_z_z2n:2": (lambda: build_preset("h_z_z2n:2").hopf, 2),
}


@pytest.mark.parametrize("name", sorted(_RESIDUAL_CASES))
def test_class_residual_matches_full_residual(name):
    build, radius = _RESIDUAL_CASES[name]
    ring = FusionRing(build())
    simples = ring.index.enumerate(radius)
    bad = [(d1.uid, d2.uid) for d1 in simples for d2 in simples if _full_residual(ring, d1, d2)]
    assert bad == []


def test_orbit_route_residual_reads_every_class():
    # a free pair orbit over the orbit of 0 contributes to the identity
    # class of its stabilizer Z3 alone; with the w^2 row of the table read
    # as the w row, the residual fails only at the other two classes
    ring = FusionRing(build_preset("z_poly_zp:3").hopf)
    d1, d2 = ring.index.find("(-1,-1,0):0"), ring.index.find("(0,1,1):0")
    zero = ring.index.find("(0,0,0):0")
    assert any(c.orbit == zero.orbit for c, _m in ring._orbit_row(d1, d2))
    stab = ring._simples_on(zero.orbit)[1]
    stab.values[2] = stab.values[1]
    ring._decompositions.clear()
    with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
        ring.decompose_product(d1, d2)


@pytest.mark.parametrize("name", sorted(_CLASS_FORM))
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
    assert not ring._twisted
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


def test_slice_form_rejects_non_orthonormal_orbit(monkeypatch):
    """The check that an orbit's simples are the rows of its table, on a
    twisted config: the same error as the class form's."""
    build, radius = _ORACLE_CONFIGS["twisted_sigma"]
    ring = FusionRing(build().hopf)
    assert ring._twisted
    index = ring.index
    d = index.enumerate(radius)[0]
    real = index.simples_for_orbit
    monkeypatch.setattr(index, "simples_for_orbit", lambda orb: real(orb)[:1] * 2)
    with pytest.raises(InternalInconsistencyError, match="not orthonormal"):
        ring.decompose_product(d, d)


_SWEEP_CASES = {
    "z_poly_zp:3": (lambda: build_preset("z_poly_zp:3"), 2),
    "drinfeld:S4": (lambda: build_preset("drinfeld:S4"), 0),
    "z4_twisted": (lambda: build_config(z4_twisted_config()), 6),
}


@pytest.mark.sweep
@pytest.mark.parametrize("name", sorted(_SWEEP_CASES))
def test_full_tables_match_haar_route(name):
    build, radius = _SWEEP_CASES[name]
    H = build().hopf
    orbit_ring, haar_ring = FusionRing(H), HaarRing(H)
    tables = [ring.fusion_table(radius) for ring in (orbit_ring, haar_ring)]
    assert [r.to_payload() for r in tables[0].rows] == [r.to_payload() for r in tables[1].rows]
    assert tables[0].duals == tables[1].duals
    assert orbit_ring.verify_based_ring(tables[0]) == haar_ring.verify_based_ring(tables[1])


def test_orbit_route_rejects_simples_off_the_table(monkeypatch):
    # S3's trivial character in place of its sign character: as many
    # simples as rows, but not the rows of the table
    ring = FusionRing(build_preset("drinfeld:S3").hopf)
    index = ring.index
    d = index.unit_simple()
    real = index.simples_for_orbit
    monkeypatch.setattr(index, "simples_for_orbit", lambda orb: (real(orb)[0], *real(orb)[:-1]))
    with pytest.raises(InternalInconsistencyError, match="not the rows of its stabilizer table"):
        ring.decompose_product(d, d)


_SLICE_CASES = {
    **{name: _ORACLE_CONFIGS[name] for name in _SLICE_FORM},
    "klein_twisted": (lambda: build_config(klein_twisted_config()), 3),
    "s3_factorization_tau": (lambda: build_config(s3_factorization_tau_config()), 0),
}


@pytest.mark.parametrize("name", sorted(_SLICE_CASES))
def test_slice_form_matches_haar_route(name):
    build, radius = _SLICE_CASES[name]
    H = build().hopf
    assert verify_cocycles(H.ctx, H.sigma, H.tau).ok
    ring = FusionRing(H)
    assert ring._twisted
    assert _disagreements(ring, radius) == []
    assert ring.verify_based_ring(ring.fusion_table(radius))["ok"]
    G = ring.hopf.G
    for orbit in ring.index.orbits_in_ball(radius):
        dims = [d.dim_total for d in ring.index.simples_for_orbit(orbit)]
        assert sum(n * n for n in dims) == G.order * orbit.size


def test_klein_twisted_simples_are_projective():
    # one 2-dimensional simple per odd orbit, whose slice vanishes off the
    # identity: the zeros the slice form must read as values
    ring = FusionRing(build_config(klein_twisted_config()).hopf)
    index = ring.index
    (odd,) = index.simples_for_f((1,))
    assert odd.dim_total == 2
    slices = ring._slices_on(odd.orbit)
    assert [[v.literal() for v in row] for row in slices.rows] == [["2", "0", "0", "0"]]
    assert [d.dim_total for d in index.simples_for_f((2,))] == [1, 1, 1, 1]
    row = ring.decompose_product(odd, odd)
    assert row.summands == tuple((f"2:{j}", 1) for j in range(4))


def test_slice_form_residual_catches_a_wrong_slice():
    # the slices of z4_twisted's two simples over the orbit of 1 (values
    # 1, +-i on Z2) read as one: both coefficients of the unit times 1:0
    # come out 1, and their sum misses psi
    ring = FusionRing(build_config(z4_twisted_config()).hopf)
    unit = ring.index.unit_simple()
    d = ring.index.find("1:0")
    slices = ring._slices_on(d.orbit)
    slices.rows[1], slices.conj_rows[1] = slices.rows[0], slices.conj_rows[0]
    with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
        ring.decompose_product(unit, d)


def test_slice_form_refuses_sigma_two_like_the_haar_route():
    # sigma(1; 1, 1) = 2 breaks the compatibility law; both routes give
    # the same rows, and the same refusals where a multiplicity is 3/2
    ring = FusionRing(build_config(sigma_two_config()).hopf)
    haar = HaarOracle(ring)

    def outcome(row, d1, d2):
        try:
            return _summands(row(d1, d2))
        except InternalInconsistencyError as exc:
            return str(exc)

    simples = ring.index.enumerate(1)
    got = [outcome(ring._orbit_row, d1, d2) for d1 in simples for d2 in simples]
    assert got == [outcome(haar.row, d1, d2) for d1 in simples for d2 in simples]
    assert sum(isinstance(x, str) for x in got) == 4
