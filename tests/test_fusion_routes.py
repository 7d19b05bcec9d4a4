"""The orbit route of FusionRing against the Haar route, on one ring.

decompose_product reads each row at the representatives of the product
orbits, by one route for every cocycle: each non-free pair orbit is
walked over f3, each pair (x, y) and each h in its stabilizer giving a
term on the cells of the three stabilizer tables (conjugacy classes of
an untwisted table, single elements of a beta-twisted one) with the
weight w1(h, x) w2(h < x, y) sigma(h; x, y), and m_c comes from
conjugate orthogonality.  dual_of reads the dual off the stabilizer
tables, with the antipode coefficient of antipode_basis and the tau
weight.  The Haar route of tests/haar_oracle.py is the oracle of the
rows, and its antipode search, HaarOracle.antipode_dual, the oracle of
the duals: both run on the same ring, row for row and dual for dual.
_full_residual, the walk over every pair and every element of G_f3 that
the rows no longer make on an untwisted table, pins the reading of psi
on classes.  The tests named for the slice form, the route that served
twisted cocycles until the cell form took them over, run on those
twisted configs.  s4_sign_tau is the one fixture whose twisted
characters are no class functions and whose tau weights differ from 1.

Mutations, each run on a scratch copy against the whole tier-1 suite,
and each failing at least one tier-1 test:
- w1 dropped, the left factor's tau weight read as 1
  (test_slice_form_matches_haar_route[s4_sign_tau]);
- w2 dropped (test_slice_form_matches_haar_route[s4_sign_tau]);
- sigma(h; x, y) dropped (test_slice_form_matches_haar_route on
  twisted_sigma and sigma_and_tau,
  test_slice_form_refuses_sigma_two_like_the_haar_route,
  test_fusion.py::test_rows_match_dense_solve,
  test_deep_twisted.py::test_sigma_and_tau_pipeline);
- the right factor read at h instead of h < x
  (test_slice_form_matches_haar_route[s3_factorization_tau],
  test_routes_agree[s3_factorization], test_factorization_routes_agree
  on S3, A4 and S4);
- conjugacy classes used as cells on a beta-twisted table
  (test_slice_form_matches_haar_route[s4_sign_tau]);
- the antipode coefficient dropped in the dual
  (test_stabilizer_duals_match_antipode on twisted_tau, twisted_sigma,
  z4_twisted and s4_sign_tau, test_slice_form_matches_haar_route on the
  same configs, test_deep_twisted.py::test_z4_twisted_fusion);
- the tau weight w dropped in the dual
  (test_stabilizer_duals_match_antipode[s4_sign_tau]);
- conj dropped in m_c, rho_c(C) for conj(rho_c(C)) (test_routes_agree,
  test_factorization_routes_agree, the acceptance criteria and the
  report pins);
- the cell of h read in G_f for that of z_x h z_x^-1, the transport
  dropped (test_routes_agree on drinfeld:S3 and A4,
  test_fusion.py::test_drinfeld_s3_matches_dpr_rules,
  test_factorization_routes_agree on S4,
  test_slice_form_matches_haar_route[s4_sign_tau]);
- x y taken as y x, the product f1 y read as y f1 (test_routes_agree
  [z2_trivial_on_s3], test_split_extensions_routes_agree[S4 = A4 x| Z2],
  test_product_orbits_match_orbit_product[z2_trivial_on_s3],
  test_factorization_routes_agree on S4; an abelian F hides it);
- the pair stabilizer taken as all of G_f1 (test_routes_agree,
  test_factorization_routes_agree, the report pins);
- the 1/|G_f3| factor dropped (test_fusion.py::test_unit_row,
  test_deep_twisted.py::test_z4_twisted_fusion, the report pins);
- a character index left out of the decomposition memo's key
  (test_fusion.py::test_rows_match_dense_solve,
  test_factorization_routes_agree, the report pins);
- the check that an orbit's simples are the rows of its stabilizer table
  dropped from SimpleIndex, which builds both
  (test_comodules.py::test_simples_are_the_rows_of_their_table, on a
  repeated and a rotated row of drinfeld:S3 and on twisted_sigma);
- the residual skipped (test_orbit_route_residual_catches_a_wrong_table,
  test_orbit_route_residual_reads_every_class,
  test_slice_form_residual_catches_a_wrong_slice);
- the residual read only at the cells some term meets
  (test_orbit_route_residual_reads_every_class, whose free pair orbit
  meets the identity class alone);
- the < twist dropped, s read for s < f1
  (test_class_residual_matches_full_residual[s4_factorization],
  test_factorization_routes_agree on S4);
- (f1, y) walked without the move to f3, t = 1 (test_routes_agree on
  drinfeld:S3 and A4, test_drinfeld_s3_matches_dpr_rules,
  test_slice_form_matches_haar_route[s4_sign_tau]);
- one coset of K walked, the rest of the pair orbit over f3 dropped
  (test_routes_agree, test_slice_form_matches_haar_route[z4_twisted],
  test_factorization_routes_agree on S4);
- a dual read at k^-1 for k = (h < x)^-1
  (test_stabilizer_duals_match_antipode,
  test_acceptance.py::test_criterion_06_duality,
  test_fusion.py::test_drinfeld_s3_matches_dpr_rules);
- the refusal of unnormalized cocycles dropped
  (test_unnormalized_cocycles_are_refused);
- the beta values left out of SimpleIndex's table key, so that a twisted
  orbit reads an untwisted table (test_klein_twisted_simples_are_projective,
  test_comodules.py::test_shared_stabilizer_tables_match_per_orbit
  [z4_twisted], every z4_twisted test);
- a fresh _Stabilizer per orbit, the table's record no longer shared
  (test_comodules.py::test_orbits_with_one_table_share_one_record).

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
    s4_sign_tau_config,
    sigma_two_config,
    split_extension_ctx,
)
from haar_oracle import HaarOracle, HaarRing
from test_deep_twisted import s3_factorization_tau_config, z4_twisted_config
from test_fusion import _ORACLE_CONFIGS
from test_implied_laws import unnormalized_hopf

from bicrossed import fusion
from bicrossed.cocycles import SigmaCocycle, TauCocycle, verify_cocycles
from bicrossed.config import build_config
from bicrossed.cyclotomic import rational
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing
from bicrossed.hopf import BicrossedHopf
from bicrossed.matched_pair import orbit_product, verify_matched_pair

S4_Z4 = Path(__file__).resolve().parents[1] / "bench" / "configs" / "s4_z4.json"

_UNTWISTED = (
    "drinfeld:A4",
    "drinfeld:S3",
    "h_z_z2n:2",
    "s3_factorization",
    "z2_trivial_on_s3",
    "z_poly_zp:2",
)
_TWISTED = ("sigma_and_tau", "twisted_sigma", "twisted_tau", "z4_twisted")


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


def _refuse(*_args, **_kwargs):
    raise AssertionError("a row or dual reached the Haar route")


def test_route_choice(monkeypatch):
    # every config takes the one route: no row or dual forms a character, a
    # product or antipode in H, or a span solve
    assert sorted(_UNTWISTED + _TWISTED) == sorted(_ORACLE_CONFIGS)
    for name in sorted(_ORACLE_CONFIGS):
        build, radius = _ORACLE_CONFIGS[name]
        ring = FusionRing(build().hopf)
        with monkeypatch.context() as m:
            for owner, attr in (
                (ring.hopf, "mul"),
                (ring.hopf, "antipode"),
                (ring.index, "character"),
                (fusion, "solve_in_span"),
            ):
                m.setattr(owner, attr, _refuse)
            simples = ring.index.enumerate(min(radius, 2))
            rows = [ring.decompose_product(d1, d2) for d1 in simples for d2 in simples]
            duals = [ring.dual_of(d) for d in simples]
        assert len(rows) == len(simples) ** 2 and len(duals) == len(simples), name


def test_orbit_route_forms_no_character_product(monkeypatch):
    ring = FusionRing(build_preset("h_z_z2n:3").hopf)
    monkeypatch.setattr(ring.hopf, "mul", _refuse)
    monkeypatch.setattr(fusion, "solve_in_span", _refuse)
    monkeypatch.setattr(ring.index, "character", _refuse)
    monkeypatch.setattr(ring.hopf, "antipode", _refuse)
    simples = ring.index.enumerate(2)
    rows = [ring.decompose_product(d1, d2) for d1 in simples for d2 in simples]
    assert len(rows) == 12 * 12
    assert len({ring.dual_of(d).uid for d in simples}) == 12


def test_slice_form_forms_no_product_in_h(monkeypatch):
    # z4_twisted, the twisted config the slice form served, forms no
    # character, product or antipode in H and solves in no span either
    ring = FusionRing(build_config(z4_twisted_config()).hopf)
    monkeypatch.setattr(ring.hopf, "mul", _refuse)
    monkeypatch.setattr(fusion, "solve_in_span", _refuse)
    monkeypatch.setattr(ring.index, "character", _refuse)
    monkeypatch.setattr(ring.hopf, "antipode", _refuse)
    simples = ring.index.enumerate(3)
    rows = [ring.decompose_product(d1, d2) for d1 in simples for d2 in simples]
    assert len(rows) == 10 * 10
    assert len({ring.dual_of(d).uid for d in simples}) == 10


_ROUTE_CASES = {
    **{name: _ORACLE_CONFIGS[name] for name in _UNTWISTED},
    "h_z_z2n:3": (lambda: build_preset("h_z_z2n:3"), 4),
    "s4_z4": (lambda: build_config(json.loads(S4_Z4.read_text(encoding="utf-8"))), 0),
}


_SLICE_CASES = {
    **{name: _ORACLE_CONFIGS[name] for name in _TWISTED},
    "klein_twisted": (lambda: build_config(klein_twisted_config()), 3),
    "s3_factorization_tau": (lambda: build_config(s3_factorization_tau_config()), 0),
    "s4_sign_tau": (lambda: build_config(s4_sign_tau_config()), 2),
}


@pytest.mark.parametrize("name", sorted(_ROUTE_CASES))
def test_routes_agree(name):
    build, radius = _ROUTE_CASES[name]
    ring = FusionRing(build().hopf)
    assert _disagreements(ring, radius) == []


@pytest.mark.parametrize("name", sorted({**_ROUTE_CASES, **_SLICE_CASES}))
def test_stabilizer_duals_match_antipode(name):
    build, radius = {**_ROUTE_CASES, **_SLICE_CASES}[name]
    ring = FusionRing(build().hopf)
    oracle = HaarOracle(ring)
    simples = ring.index.enumerate(radius)
    assert [ring.dual_of(d).uid for d in simples] == [oracle.antipode_dual(d).uid for d in simples]


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
    stab = ring.index.stabilizer(zero.orbit)
    stab.values[2], stab.conj_values[2] = stab.values[1], stab.conj_values[1]
    ring._decompositions.clear()
    with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
        ring.decompose_product(d1, d2)


@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
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
    assert _disagreements(ring, 0) == []
    assert ring.verify_based_ring(ring.fusion_table(0))["ok"]


def test_orbit_route_residual_catches_a_wrong_table(drinfeld_s3):
    # the trivial character of S3 read in place of the sign character: the
    # two coefficients of chi0 * chi0 sum to 2 on a psi that is 1
    ring = FusionRing(drinfeld_s3.hopf)
    unit = ring.index.unit_simple()
    stab = ring.index.stabilizer(unit.orbit)
    stab.values[1], stab.conj_values[1] = stab.values[0], stab.conj_values[0]
    with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
        ring.decompose_product(unit, unit)


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


@pytest.mark.parametrize("name", sorted(_SLICE_CASES))
def test_slice_form_matches_haar_route(name):
    build, radius = _SLICE_CASES[name]
    H = build().hopf
    assert verify_cocycles(H.ctx, H.sigma, H.tau).ok
    ring = FusionRing(H)
    assert _disagreements(ring, radius) == []
    assert ring.verify_based_ring(ring.fusion_table(radius))["ok"]
    G = ring.hopf.G
    for orbit in ring.index.orbits_in_ball(radius):
        dims = [d.dim_total for d in ring.index.simples_for_orbit(orbit)]
        assert sum(n * n for n in dims) == G.order * orbit.size


def test_klein_twisted_simples_are_projective():
    # one 2-dimensional simple per odd orbit, whose character vanishes off
    # the identity: the zeros the rows must read as values, one cell per
    # element of the twisted table
    ring = FusionRing(build_config(klein_twisted_config()).hopf)
    index = ring.index
    (odd,) = index.simples_for_f((1,))
    assert odd.dim_total == 2
    stab = ring.index.stabilizer(odd.orbit)
    assert stab.reps == list(odd.orbit.stabilizer)
    assert [[v.literal() for v in row] for row in stab.values] == [["2", "0", "0", "0"]]
    assert [d.dim_total for d in index.simples_for_f((2,))] == [1, 1, 1, 1]
    row = ring.decompose_product(odd, odd)
    assert row.summands == tuple((f"2:{j}", 1) for j in range(4))


def test_slice_form_residual_catches_a_wrong_slice():
    # the rows of z4_twisted's two simples over the orbit of 1 (values
    # 1, +-i on Z2) read as one in the table's record: both coefficients
    # of the unit times 1:0 come out 1, and their sum misses psi
    ring = FusionRing(build_config(z4_twisted_config()).hopf)
    unit = ring.index.unit_simple()
    d = ring.index.find("1:0")
    stab = ring.index.stabilizer(d.orbit)
    stab.values[1], stab.conj_values[1] = stab.values[0], stab.conj_values[0]
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


def test_unnormalized_cocycles_are_refused():
    # sigma = tau = -1 on drinfeld:Z2, the coboundaries of the constant
    # cochain -1, made past the config's normalization check: a free pair
    # orbit would be counted with weight 1, so no row is read at all
    H = unnormalized_hopf()
    assert verify_cocycles(H.ctx, H.sigma, H.tau).ok
    with pytest.raises(InternalInconsistencyError, match="normalized sigma and tau"):
        FusionRing(H)
