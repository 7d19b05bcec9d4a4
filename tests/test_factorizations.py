"""Exact factorizations X = F G with a nontrivial left action, against the
Haar route and brute sweeps.

exact_factorizations(X) enumerates, deterministically, the ordered pairs
(F, G) of subgroups of a permutation group X with F n G = 1 and
|F||G| = |X|, both factors proper.  Every x in X is then f g for exactly
one f in F and g in G, and g f = (g > f)(g < f) defines a matched pair,
whose TableActions factorization_ctx builds as
conftest.s4_factorization_ctx does.  The cases whose left action is
nontrivial are the ones the orbit route reads through the twist
s -> s < f1 of its pair orbits.  With trivial cocycles, each case checks:
- the orbit route against the Haar route (tests/haar_oracle.py), row for
  row;
- the stabilizer dual against the antipode-search dual,
  HaarOracle.antipode_dual;
- the indicator read off the stabilizer, FusionRing.fs_indicator,
  against the coproduct walk, HaarOracle.nu2;
- sum dim^2 = |G||O| for each orbit;
- BicrossedHopf.is_commutative against a sweep of basis_mul over every
  pair of basis elements.

A seeded subset of the cases of S3, A4 and S4 runs in tier-1; every case
of S3, A4, S4, D4, D6 and S3 x Z2 runs under the sweep marker.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from conftest import _permutation_closure
from haar_oracle import HaarOracle

from bicrossed.cocycles import SigmaCocycle, TauCocycle
from bicrossed.cyclotomic import rational
from bicrossed.fusion import FusionRing
from bicrossed.groups import FiniteF, permutation_group
from bicrossed.hopf import BicrossedHopf
from bicrossed.matched_pair import MatchedPairCtx, TableActions, verify_matched_pair

# Each group as generating permutations of 0..n-1.
GROUPS = {
    "S3": [(1, 0, 2), (1, 2, 0)],
    "A4": [(1, 2, 0, 3), (0, 2, 3, 1)],
    "S4": [(1, 0, 2, 3), (1, 2, 3, 0)],
    "D4": [(1, 2, 3, 0), (0, 3, 2, 1)],
    "D6": [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)],
    "S3 x Z2": [(1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3)],
}


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def exact_factorizations(generators) -> list:
    """The ordered pairs (F, G) of proper subgroups of X = <generators>,
    each a sorted tuple of permutations, with F n G = 1 and |F||G| = |X|.
    Every group here is 2-generated, and so is each of its subgroups, so
    the subgroups are the closures of the pairs of elements; they are
    ordered by size, then elements."""
    elements = _permutation_closure(generators)
    pairs = itertools.combinations_with_replacement(elements, 2)
    subgroups = {tuple(_permutation_closure([a, b])) for a, b in pairs}
    proper = sorted((s for s in subgroups if 1 < len(s) < len(elements)), key=lambda s: (len(s), s))
    return [
        (F, G)
        for F in proper
        for G in proper
        if len(F) * len(G) == len(elements) and set(F) & set(G) == {elements[0]}
    ]


def factorization_ctx(F, G) -> MatchedPairCtx:
    """The matched pair of X = F G: g f = (g > f)(g < f) in X, with F and G
    indexed in sorted order, as permutation_group indexes them."""
    split = {_compose(f, g): (fi, gi) for fi, f in enumerate(F) for gi, g in enumerate(G)}
    pairs = [[split[_compose(g, f)] for f in F] for g in G]
    right = tuple(tuple(fi for fi, _gi in row) for row in pairs)
    left = tuple(tuple(gi for _fi, gi in row) for row in pairs)
    return MatchedPairCtx(
        permutation_group(G, name="G"),
        FiniteF(permutation_group(F, name="F")),
        TableActions(right=right, left=left),
    )


@functools.cache
def _twisted_cases(name) -> list:
    """(id, F, G) for each factorization of the group with a nontrivial
    left action, numbered in enumeration order."""
    out = []
    for i, (F, G) in enumerate(exact_factorizations(GROUPS[name])):
        if not factorization_ctx(F, G).left_action_trivial:
            out.append((f"{name} #{i}: |F|={len(F)}, |G|={len(G)}", F, G))
    return out


_ALL_CASES = [case for name in GROUPS for case in _twisted_cases(name)]
# the tier-1 subset: every case of S3 and A4, a seeded sample of S4's
_TIER1_CASES = (
    _twisted_cases("S3") + _twisted_cases("A4") + random.Random(26).sample(_twisted_cases("S4"), 16)
)


def _summands(pairs) -> tuple:
    return tuple(sorted((c.uid, m) for c, m in pairs))


def _check_factorization(F, G) -> None:
    ctx = factorization_ctx(F, G)
    assert verify_matched_pair(ctx, 0).ok
    H = BicrossedHopf(ctx, SigmaCocycle.trivial(), TauCocycle.trivial())
    ring = FusionRing(H)
    haar = HaarOracle(ring)
    index = ring.index
    simples = index.enumerate(0)
    rows = [
        (d1.uid, d2.uid)
        for d1 in simples
        for d2 in simples
        if _summands(ring._orbit_row(d1, d2)) != _summands(haar.row(d1, d2))
    ]
    assert rows == []
    duals = [ring._stabilizer_dual(d).uid for d in simples]
    assert duals == [haar.antipode_dual(d).uid for d in simples]
    nu2 = [rational(ring.fs_indicator(d)) for d in simples]
    assert nu2 == [haar.nu2(d) for d in simples]
    for orbit in index.orbits_in_ball(0):
        dims = [d.dim_total for d in index.simples_for_orbit(orbit)]
        assert sum(n * n for n in dims) == H.G.order * orbit.size
    keys = [(g, f) for f in H.F.ball(0) for g in H.G.elements()]
    commute = all(H.basis_mul(k1, k2) == H.basis_mul(k2, k1) for k1 in keys for k2 in keys)
    assert H.is_commutative is commute


def test_factorization_counts():
    # g < f = g for all g and f exactly when g f g^-1 lies in F, that is
    # when F is normal: S4 keeps 58 of its 68 factorizations (F = V4 and
    # F = A4 are normal), A4 4 of 8 (F = V4) and S3 3 of 6 (F = Z3)
    counts = [len(exact_factorizations(GROUPS[name])) for name in ("S3", "A4", "S4")]
    assert counts == [6, 8, 68]
    assert [len(_twisted_cases(name)) for name in ("S3", "A4", "S4")] == [3, 4, 58]


@pytest.mark.parametrize("case", _TIER1_CASES, ids=[c[0] for c in _TIER1_CASES])
def test_factorization_routes_agree(case):
    _check_factorization(*case[1:])


@pytest.mark.sweep
@pytest.mark.parametrize("case", _ALL_CASES, ids=[c[0] for c in _ALL_CASES])
def test_every_factorization_routes_agree(case):
    _check_factorization(*case[1:])
