from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicrossed.errors import ConfigError
from bicrossed.groups import (
    MAX_BALL_SIZE,
    FiniteF,
    FreeAbelianF,
    abelian_invariants,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    f_ball,
    finite_group,
    permutation_group,
    subgroup_of,
)


def test_finite_group_z2():
    G = finite_group([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.identity == 0
    assert G.inverse == (0, 1)


def test_finite_group_rejects_non_groups():
    with pytest.raises(ConfigError):
        finite_group([[0, 1], [0, 1]])  # no identity column for row 1
    with pytest.raises(ConfigError):
        finite_group([[1, 1], [1, 1]])  # no identity at all
    with pytest.raises(ConfigError):
        finite_group([[0, 1, 2], [1, 2, 0]])  # not square
    # a latin square that is not associative
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ConfigError):
        finite_group(rows)


def test_permutation_group_s3():
    # closure of a transposition and a 3-cycle has 6 elements
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    assert S3.order == 6
    assert S3.identity == 0
    assert sorted(S3.element_order(a) for a in S3.elements()) == [1, 2, 2, 2, 3, 3]


def test_permutation_group_rejects():
    with pytest.raises(ConfigError):
        permutation_group([(0, 0, 1)])
    with pytest.raises(ConfigError):
        permutation_group([tuple(range(1, 9)) + (0,)], max_order=5)


def test_conjugacy_classes():
    Z2 = cyclic_group(2)
    assert conjugacy_classes(Z2) == ((0,), (1,))
    Z4 = cyclic_group(4)
    assert conjugacy_classes(Z4) == ((0,), (1,), (2,), (3,))
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    sizes = sorted(len(c) for c in conjugacy_classes(S3))
    assert sizes == [1, 2, 3]
    # oracle: brute-force conjugation directly on permutation tuples
    perms = sorted(itertools.permutations(range(3)))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inverse(p):
        out = [0] * 3
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    classes = set()
    for p in perms:
        cls = frozenset(compose(compose(q, p), inverse(q)) for q in perms)
        classes.add(cls)
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_abelian_invariants():
    assert abelian_invariants(cyclic_group(2))[0] == (2,)
    K4 = direct_product(cyclic_group(2), cyclic_group(2))
    factors, gens = abelian_invariants(K4)
    assert factors == (2, 2)
    # oracle: the Klein table has no element of order 4
    assert all(K4.element_order(a) <= 2 for a in K4.elements())
    Z6 = cyclic_group(6)
    factors, gens = abelian_invariants(Z6)
    assert factors == (6,)
    assert Z6.element_order(gens[0]) == 6
    Z2xZ4 = direct_product(cyclic_group(2), cyclic_group(4))
    factors, gens = abelian_invariants(Z2xZ4)
    assert factors == (2, 4)
    # generators realize the decomposition
    seen = set()
    for i in range(2):
        for j in range(4):
            x = Z2xZ4.mul(Z2xZ4.power(gens[0], i), Z2xZ4.power(gens[1], j))
            seen.add(x)
    assert len(seen) == 8


def _product(*orders):
    G = cyclic_group(orders[0])
    for n in orders[1:]:
        G = direct_product(G, cyclic_group(n))
    return G


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: _product(2, 4), ((2, 4), (4, 1))),
        (lambda: _product(4, 2), ((2, 4), (1, 2))),
        (lambda: _product(3, 6), ((3, 6), (6, 1))),
        (lambda: _product(6, 3), ((3, 6), (1, 3))),
        (lambda: _product(2, 2, 4), ((2, 2, 4), (8, 4, 1))),
        (lambda: _product(4, 8), ((4, 8), (8, 1))),
        (lambda: _product(2, 4, 8), ((2, 4, 8), (32, 8, 1))),
        (lambda: _product(4, 8, 8), ((4, 8, 8), (64, 8, 1))),
        (lambda: permutation_group([(1, 0, 3, 2), (2, 3, 0, 1)]), ((2, 2), (2, 1))),
    ],
    ids=["Z2xZ4", "Z4xZ2", "Z3xZ6", "Z6xZ3", "Z2xZ2xZ4", "Z4xZ8", "Z2xZ4xZ8", "Z4xZ8xZ8", "V4perm"],
)
def test_abelian_invariants_choices(build, expected):
    """The greedy choices (first coset of maximal order, first lift of the
    right order) fix the generators, and through them every abelian
    character table and report; these are their values."""
    assert abelian_invariants(build()) == expected


def test_abelian_invariants_rejects_nonabelian():
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    with pytest.raises(ConfigError):
        abelian_invariants(S3)


def test_subgroup_of():
    Z6 = cyclic_group(6)
    H, to_parent = subgroup_of(Z6, [0, 2, 4])
    assert H.order == 3
    assert to_parent == (0, 2, 4)
    for bad in ([0, 1, 2], []):  # not closed; empty
        with pytest.raises(ConfigError):
            subgroup_of(Z6, bad)


def test_f_ball_free_abelian():
    F = FreeAbelianF(1)
    assert f_ball(F, 2) == [(0,), (-1,), (1,), (-2,), (2,)]
    F2 = FreeAbelianF(2)
    assert len(f_ball(F2, 1)) == 9
    assert f_ball(F2, 1)[0] == (0, 0)


def test_f_ball_finite():
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    F = FiniteF(S3)
    assert f_ball(F, 0) == list(range(6))
    assert f_ball(F, 99) == list(range(6))


def test_f_ball_budget_rejects_before_enumerating(bounded_ball_enumeration):
    with pytest.raises(ConfigError):
        f_ball(FreeAbelianF(3), 1000)  # (2*1000 + 1)^3, about 8e9 vectors
    with pytest.raises(ConfigError):
        f_ball(FreeAbelianF(1), MAX_BALL_SIZE // 2)  # 2r + 1 = MAX_BALL_SIZE + 1


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=2))
def test_f_ball_properties(radius, rank):
    F = FreeAbelianF(rank)
    ball = f_ball(F, radius)
    bigger = f_ball(F, radius + 1)
    assert set(ball) <= set(bigger)
    assert F.identity in ball
    assert all(F.inv(v) in ball for v in ball)
    assert len(ball) == (2 * radius + 1) ** rank


@given(st.sampled_from([2, 3, 4, 5, 6, 8, 12]))
def test_group_axioms_exhaustive(n):
    G = cyclic_group(n)
    for a in G.elements():
        assert G.mul(a, G.identity) == a == G.mul(G.identity, a)
        assert G.mul(a, G.inv(a)) == G.identity
    if n <= 6:
        for a in G.elements():
            for b in G.elements():
                for c in G.elements():
                    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_element_labels():
    F = FreeAbelianF(1)
    assert F.label((3,)) == "3"
    assert F.parse_label("-2") == (-2,)
    F3 = FreeAbelianF(3)
    assert F3.label((1, 0, -2)) == "(1,0,-2)"
    assert F3.parse_label("(1,0,-2)") == (1, 0, -2)
    assert F3.parse_label("1,0,-2") == (1, 0, -2)
    with pytest.raises(ConfigError):
        F3.parse_label("1,0")


def test_parse_label_rejects_empty_parts():
    # an empty part is malformed, not a part to skip: "(,1,,0)" is not (0, 1);
    # nor is a part anything but an optional '-' and ASCII digits, which
    # int() alone would read from "1_0", "+1", " 1" or non-ASCII digits
    for rank, label in (
        (2, "(,1,,0)"),
        (1, "3,"),
        (1, ""),
        (2, "(1,)"),
        (2, "1,,0"),
        (1, "1_0"),
        (1, "+1"),
        (1, " 1"),
        (2, "(1, 0)"),
        (2, "1 ,0"),
        (1, "\u0661"),
        (2, "(1,\u0662)"),
        (1, "--1"),
        (1, "-"),
    ):
        with pytest.raises(ConfigError):
            FreeAbelianF(rank).parse_label(label)
    F = FiniteF(cyclic_group(12))
    for label in ("1_0", "+1", " 1", "1 ", "\u0661", "-1", ""):
        with pytest.raises(ConfigError):
            F.parse_label(label)
    assert F.parse_label("10") == 10
    # every printed label reads back as its vector
    for rank in (1, 2, 3):
        F = FreeAbelianF(rank)
        for f in F.ball(3):
            assert F.parse_label(F.label(f)) == f
