"""Differential oracles for the term-level fusion shortcuts.

The Haar route of tests/haar_oracle.py, the oracle of every fusion row,
has shortcuts of its own: HaarOracle.pair dots a product with a dual
vector kept per simple, and a row resolves its candidates once per pair
of orbits.  solve_in_span accumulates its residual in place,
MatchedPairCtx.orbit_of looks its argument up by element, and
verify_based_ring steps straight to its sampled triples.  Each is pinned
here to the slow exact path it replaces: integral_of_product against the
antipode, orbit_product with the per-orbit Gram check, a fresh orbit
computation, and the filter over all n^3 index triples.  Both the dual
vectors and integral_of_product read BicrossedHopf.haar_partner and
haar_weight, so the Haar partner rule itself is pinned by
test_pair_matches_integral_of_mul to the integral of the full product
H.mul(x, S(chi)), which reads neither.

Mutations of the fast paths, each of which fails a test:
- a dual vector without sigma(g; f, f^-1) (twisted_sigma and sigma_and_tau
  in test_pair_matches_integral_of_product; on sign_sigma the characters
  live on g-parts where sigma(g; f, f^-1) = 1);
- a dual vector without the left action (s3_factorization there);
- a dual vector without the 1/|G| factor (every config there);
- haar_weight without sigma(g; f, f^-1) (twisted_sigma and sigma_and_tau
  in test_pair_matches_integral_of_mul; test_pair_matches_integral_of_product
  passes, since both of its sides read the rule);
- haar_weight without the 1/|G| factor (every config in
  test_pair_matches_integral_of_mul; the same);
- haar_partner without the left action (s3_factorization there);
- the candidate memo keyed by one orbit only
  (test_candidates_match_orbit_product, and the route agreement tests of
  test_fusion_routes.py, whose oracle row reads it);
- the residual skipping a candidate's terms (test_certs.py::
  test_solve_in_span, whose target has two summands);
- orbit_of registering only the representative
  (test_orbit_of_by_element_matches_fresh);
- BicrossedHopf.is_commutative without the abelian-F condition, so that a
  row of z2_trivial_on_s3 answers for its swap (test_fusion.py::
  test_is_commutative_by_brute_force, test_noncommutative_fusion_table
  and test_rows_match_dense_solve there);
- BicrossedHopf.is_commutative without the trivial-sigma condition
  (test_fusion.py::test_is_commutative_by_brute_force on twisted_sigma,
  whose symmetric sigma commutes all the same, and on sigma_and_tau).
"""

from __future__ import annotations

import random

import pytest

from conftest import build_preset, s4_factorization_ctx
from haar_oracle import HaarOracle
from test_fusion import _ORACLE_CONFIGS, sign_sigma_config

from bicrossed.config import build_config
from bicrossed.cyclotomic import rational, root_of_unity
from bicrossed.fusion import SAMPLE_TRIPLES, FusionRing, _sampled_triples
from bicrossed.groups import f_ball
from bicrossed.hopf import HElem
from bicrossed.matched_pair import MatchedPairCtx, orbit_product

_PAIR_CONFIGS = {**_ORACLE_CONFIGS, "sign_sigma": (lambda: build_config(sign_sigma_config()), 2)}


def _candidates(ring, o1, o2):
    """The candidates of a row by the slow path: every orbit of O1 O2."""
    orbits = orbit_product(ring.hopf.ctx, o1, o2)
    return [c for orb in orbits for c in ring.index.simples_for_orbit(orb)]


def _random_element(rng, keys, level):
    """A sparse element on a random subset of keys, with coefficients
    drawn from +-1, 2 and powers of zeta_level."""
    zeta = root_of_unity(1, level)
    coeffs = [rational(1), rational(-1), rational(2), zeta, zeta.inv()]
    chosen = rng.sample(keys, min(len(keys), 12))
    return HElem({k: rng.choice(coeffs) for k in chosen})


@pytest.mark.parametrize("name", sorted(_PAIR_CONFIGS))
def test_pair_matches_integral_of_product(name):
    build, radius = _PAIR_CONFIGS[name]
    b = build()
    H = b.hopf
    ring = FusionRing(H)
    pair = HaarOracle(ring).pair
    simples = ring.index.enumerate(radius)
    candidates = {
        c.uid: c for d1 in simples for d2 in simples for c in _candidates(ring, d1.orbit, d2.orbit)
    }
    rng = random.Random(20261018)
    level = max(b.level, 4)
    for uid in sorted(candidates):
        chi = ring.index.character(candidates[uid])
        s_chi = H.antipode(chi)
        # keys the dual vector can reach (f the inverse of an f-part of
        # S(chi)) together with keys it cannot
        fs = {H.F.inv(e) for _h, e in s_chi.terms} | {e for _h, e in chi.terms}
        keys = sorted((g, f) for f in fs for g in H.G.elements())
        for _ in range(3):
            x = _random_element(rng, keys, level)
            assert pair(x, chi) == H.integral_of_product(x, s_chi), (uid, x)
        assert pair(chi, chi) == H.integral_of_product(chi, s_chi)


@pytest.mark.parametrize("name", sorted(_PAIR_CONFIGS))
def test_pair_matches_integral_of_mul(name):
    """The Haar partner rule, weight included, against the integral of the
    full product x S(chi), a path that never reads haar_partner."""
    build, radius = _PAIR_CONFIGS[name]
    b = build()
    H = b.hopf
    ring = FusionRing(H)
    pair = HaarOracle(ring).pair
    rng = random.Random(20261019)
    level = max(b.level, 4)
    for d in ring.index.enumerate(radius):
        chi = ring.index.character(d)
        s_chi = H.antipode(chi)
        fs = {H.F.inv(e) for _h, e in s_chi.terms} | {e for _h, e in chi.terms}
        keys = sorted((g, f) for f in fs for g in H.G.elements())
        for x in [chi] + [_random_element(rng, keys, level) for _ in range(3)]:
            assert pair(x, chi) == H.integral(H.mul(x, s_chi)), (d.uid, x)


@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
def test_candidates_match_orbit_product(name):
    build, radius = _ORACLE_CONFIGS[name]
    ring = FusionRing(build().hopf)
    haar = HaarOracle(ring)
    simples = ring.index.enumerate(radius)
    for d1 in simples:
        for d2 in simples:
            got = haar._candidates_for(d1.orbit, d2.orbit)
            assert got == _candidates(ring, d1.orbit, d2.orbit), (d1.uid, d2.uid)


_ORBIT_CTXS = {
    "z_poly_zp:3": (lambda: build_preset("z_poly_zp:3").ctx, 2),
    "h_z_z2n:3": (lambda: build_preset("h_z_z2n:3").ctx, 4),
    "drinfeld:A4": (lambda: build_preset("drinfeld:A4").ctx, 0),
    "s4_factorization": (s4_factorization_ctx, 0),
}


@pytest.mark.parametrize("name", sorted(_ORBIT_CTXS))
def test_orbit_of_by_element_matches_fresh(name):
    make, radius = _ORBIT_CTXS[name]
    ctx = make()
    for f in f_ball(ctx.F, radius):
        orb = ctx.orbit_of(f)
        fresh = MatchedPairCtx(ctx.G, ctx.F, ctx.action).orbit_of(f)
        assert orb == fresh, (name, f)
        # one computation serves every element of the orbit
        assert all(ctx.orbit_of(x) is orb for x in orb.elements), (name, f)


def test_sampled_triples_match_filter():
    for n in range(1, 61):
        step = max(1, (n * n * n) // SAMPLE_TRIPLES + 1)
        want = [
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if not (a * 7 + b * 3 + c) % step
        ]
        assert list(_sampled_triples(n)) == want, n
