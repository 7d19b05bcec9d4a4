"""Matched-pair actions, orbits and the verify_matched_pair laws.

A linear action implies four laws for any integer matrices and the right
action law when its homomorphism check passes: a passing check walks no
law, a failing one only the right action law.  Mutations of that rule,
each of which fails a test here:
- walk the five laws after a passing check:
  test_linear_laws_follow_from_homomorphism_check counts 147,759 and
  1,476 act_right calls in place of 9 and 6;
- walk the four implied laws after a failing check as well: the same test
  counts 4,747,572 act_right calls in place of 40,072 on z_poly(4) with
  M_1 and M_2 swapped;
- skip the walk after a failing check as well: test_sweeps_match_naive_laws
  fails on the shear action and on that swapped z_poly(4).
Each was rerun after table actions moved to generator checks and still
fails: 1, 1 and 4 failing tier-1 tests.  Table actions check four laws
over a generating set and walk a law only when its check fails; skipping
that walk fails test_sweeps_match_naive_laws here and the witness-parity
tests of test_implied_laws, which also catch a dropped generator.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import broken_linear_config, build_preset, s4_factorization_ctx

from bicrossed.cli import run
from bicrossed.config import build_config
from bicrossed.errors import ConfigError
from bicrossed.groups import (
    FiniteF,
    FreeAbelianF,
    cyclic_group,
    f_ball,
    generating_set,
    permutation_group,
)
from bicrossed.matched_pair import (
    LinearAction,
    MatchedPairCtx,
    TableActions,
    _int_det,
    g_f_finv,
    orbit_product,
    run_check,
    verify_matched_pair,
)


def make_h_z_z2():
    G = cyclic_group(2)
    F = FreeAbelianF(1)
    return MatchedPairCtx(G, F, LinearAction(matrices=(((1,),), ((-1,),))))


def make_conjugation(G):
    n = G.order
    right = tuple(tuple(G.mul(G.mul(g, f), G.inv(g)) for f in range(n)) for g in range(n))
    left = tuple(tuple(g for _ in range(n)) for g in range(n))
    return MatchedPairCtx(G, FiniteF(G), TableActions(right=right, left=left))


def make_z_poly(p):
    G = cyclic_group(p)
    F = FreeAbelianF(p)
    shift = tuple(
        tuple(1 if i == (j + 1) % p else 0 for j in range(p)) for i in range(p)
    )

    def matpow(k):
        M = tuple(tuple(1 if i == j else 0 for j in range(p)) for i in range(p))
        for _ in range(k):
            M = tuple(
                tuple(sum(shift[i][t] * M[t][j] for t in range(p)) for j in range(p))
                for i in range(p)
            )
        return M

    return MatchedPairCtx(G, F, LinearAction(matrices=tuple(matpow(k) for k in range(p))))


def test_actions_h_z_z2():
    ctx = make_h_z_z2()
    assert ctx.act_right(1, (5,)) == (-5,)
    assert ctx.act_right(0, (7,)) == (7,)
    assert ctx.act_left(1, (5,)) == 1


def test_actions_z_poly():
    ctx = make_z_poly(3)
    assert ctx.act_right(1, (1, 2, 3)) == (3, 1, 2)
    assert ctx.act_right(2, (1, 2, 3)) == (2, 3, 1)
    assert ctx.act_left(2, (1, 2, 3)) == 2


# Unimodular matrices that are not monomial, indexed by G = Z3 and Z2.
SHEARS_RANK2 = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)))
SHEARS_RANK3 = (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, 1, 0), (1, 1, 0), (0, 3, 1)))


def naive_act(M, f):
    return tuple(sum(M[i][j] * f[j] for j in range(len(f))) for i in range(len(M)))


@given(st.data())
def test_linear_kernels_match_matrix_product(data):
    for mats in (SHEARS_RANK2, SHEARS_RANK3):
        r = len(mats[0])
        ctx = MatchedPairCtx(cyclic_group(len(mats)), FreeAbelianF(r), LinearAction(mats))
        f = tuple(data.draw(st.lists(st.integers(-50, 50), min_size=r, max_size=r)))
        for g, M in enumerate(mats):
            assert ctx.act_right(g, f) == naive_act(M, f)
            assert ctx.act_left(g, f) == g


def test_table_kernels_match_tables():
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    not_an_action = TableActions(
        right=((0, 1, 2, 3), (0, 3, 1, 2)), left=((0, 1, 0, 1), (1, 1, 0, 0))
    )
    for ctx in (make_conjugation(S3), MatchedPairCtx(Z2, FiniteF(Z4), not_an_action)):
        action = ctx.action
        for g in ctx.G.elements():
            for f in range(ctx.F.group.order):
                assert ctx.act_right(g, f) == action.right[g][f]
                assert ctx.act_left(g, f) == action.left[g][f]


@st.composite
def vector_pairs(draw):
    r = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-9, 9), min_size=r, max_size=r).map(tuple)
    return draw(vec), draw(vec)


@given(vector_pairs())
def test_free_abelian_mul_inv_match_generator_forms(pair):
    a, b = pair
    F = FreeAbelianF(len(a))
    assert F.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert F.inv(a) == tuple(-x for x in a)


def naive_matched_pair_laws(ctx, ball):
    """The five laws of verify_matched_pair, written out from their
    definitions: (name, instances, witnesses in enumeration order)."""
    G, F, R, L = ctx.G, ctx.F, ctx.act_right, ctx.act_left
    Gs, lab = list(G.elements()), F.label
    return [
        ("right action law", len(Gs) ** 2 * len(ball), [
            {"g": g, "g2": g2, "f": lab(f)}
            for g in Gs for g2 in Gs for f in ball
            if not (R(G.identity, f) == f and R(G.mul(g, g2), f) == R(g, R(g2, f)))
        ]),
        ("left action law", len(Gs) * len(ball) ** 2, [
            {"g": g, "f": lab(f), "f2": lab(f2)}
            for g in Gs for f in ball for f2 in ball
            if not (L(g, F.identity) == g and L(g, F.mul(f, f2)) == L(L(g, f), f2))
        ]),
        ("compatibility: g>(f f') = (g>f)((g<f)>f')", len(Gs) * len(ball) ** 2, [
            {"g": g, "f": lab(f), "f2": lab(f2)}
            for g in Gs for f in ball for f2 in ball
            if R(g, F.mul(f, f2)) != F.mul(R(g, f), R(L(g, f), f2))
        ]),
        ("compatibility: (g g')<f = (g<(g'>f))(g'<f)", len(Gs) ** 2 * len(ball), [
            {"g": g, "g2": g2, "f": lab(f)}
            for g in Gs for g2 in Gs for f in ball
            if L(G.mul(g, g2), f) != G.mul(L(g, R(g2, f)), L(g2, f))
        ]),
        ("inverse identities", len(Gs) * len(ball), [
            {"g": g, "f": lab(f)}
            for g in Gs for f in ball
            if not (
                R(g, F.identity) == F.identity
                and L(g, F.identity) == g
                and F.inv(R(g, f)) == R(L(g, f), F.inv(f))
                and G.inv(L(g, f)) == L(G.inv(g), R(g, f))
            )
        ]),
    ]


def _swap_entries(ctx, which, g, a, b):
    """ctx with action[which][g][a] and [g][b] exchanged: no longer a matched pair."""
    tables = {
        "right": [list(r) for r in ctx.action.right],
        "left": [list(r) for r in ctx.action.left],
    }
    row = tables[which][g]
    row[a], row[b] = row[b], row[a]
    action = TableActions(**{k: tuple(map(tuple, v)) for k, v in tables.items()})
    return MatchedPairCtx(ctx.G, ctx.F, action)


def test_sweeps_match_naive_laws():
    s4 = s4_factorization_ctx()
    assert not s4.left_action_trivial
    assert any(s4.act_right(g, f) != f for g in s4.G.elements() for f in s4.F.ball(0))
    shear = MatchedPairCtx(cyclic_group(3), FreeAbelianF(2), LinearAction(SHEARS_RANK2))
    z_poly = make_z_poly(4)
    swapped = list(z_poly.action.matrices)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    cases = [
        (s4, 0),
        (_swap_entries(s4, "right", 1, 1, 3), 0),
        (_swap_entries(s4, "right", s4.G.identity, 1, 3), 0),
        (_swap_entries(s4, "left", 2, 0, 1), 0),
        (shear, 2),
        (make_z_poly(3), 1),
        (MatchedPairCtx(z_poly.G, z_poly.F, LinearAction(tuple(swapped))), 2),
    ]
    verdicts = []
    for ctx, radius in cases:
        rep = verify_matched_pair(ctx, radius, max_violations=10**6)
        laws = rep.checks if ctx.F.is_finite else rep.checks[1:]
        ball = f_ball(ctx.F, radius if ctx.F.is_finite else min(radius, 2))
        got = [(c.name, c.instances, c.violations) for c in laws]
        assert got == naive_matched_pair_laws(ctx, ball)
        assert all(c.violation_count == len(c.violations) for c in laws)
        verdicts.append(rep.ok)
    assert verdicts == [True, False, False, False, False, True, False]


def test_linear_laws_follow_from_homomorphism_check():
    # With no homomorphism witness the five spot-ball laws are not walked:
    # act_right runs only in the homomorphism check, rank times per pair
    # (g, s) with s in the generating set {1} of the cyclic G.
    for preset, radius, expected in (("z_poly_zp:3", 2, 9), ("h_z_z2n:3", 4, 6)):
        ctx = build_preset(preset).ctx
        act_right, calls = ctx.act_right, []
        ctx.act_right = lambda g, f: calls.append(g) or act_right(g, f)
        rep = verify_matched_pair(ctx, radius)
        assert rep.ok
        assert generating_set(ctx.G.table, ctx.G.identity) == (1,)
        assert len(calls) == ctx.G.order * ctx.F.rank == expected
    # With a witness only the right action law is walked after that check:
    # the generator pre-check stops at its first failure, (g, s) = (1, 1),
    # after 2 x 4 calls; the full walk then makes 16 x 4, and the law four
    # act_right calls per (g, g2, f), as M_e = I, over 16 x 625 tuples.
    z_poly = make_z_poly(4)
    swapped = list(z_poly.action.matrices)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    ctx = MatchedPairCtx(z_poly.G, z_poly.F, LinearAction(tuple(swapped)))
    act_right, calls = ctx.act_right, []
    ctx.act_right = lambda g, f: calls.append(g) or act_right(g, f)
    rep = verify_matched_pair(ctx, 2)
    assert [c.violation_count for c in rep.checks] == [7, 4280, 0, 0, 0, 0]
    assert len(calls) == 2 * 4 + 16 * 4 + 4 * 16 * 625 == 40_072


def test_implied_linear_laws_have_no_witness_on_non_homomorphisms():
    """The left action law, both compatibility laws and the inverse
    identities, written out and walked, hold for integer matrices that are
    no homomorphism (M_e = I, the others random unimodular)."""
    rnd = random.Random(12)
    for n, r, radius in ((2, 2, 2), (3, 2, 2), (4, 3, 1), (3, 4, 1)):
        ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        mats = (ident,) + tuple(_random_unimodular(rnd, r) for _ in range(n - 1))
        ctx = MatchedPairCtx(cyclic_group(n), FreeAbelianF(r), LinearAction(mats))
        rep = verify_matched_pair(ctx, radius, max_violations=10**6)
        naive = naive_matched_pair_laws(ctx, f_ball(ctx.F, radius))
        assert not rep.checks[0].ok and naive[0][2]
        assert [witnesses for _name, _count, witnesses in naive[1:]] == [[]] * 4
        assert [(c.name, c.instances, c.violations) for c in rep.checks[1:]] == naive


Z2_TABLE = [[0, 1], [1, 0]]
Z_RANK1 = {"type": "free_abelian", "rank": 1}
Z2_FINITE = {"type": "finite", "table": Z2_TABLE}
BAD_ACTIONS = {
    "tables over free-abelian F": (
        Z_RANK1,
        {"type": "tables", "right": [[0, 1], [0, 1]], "left": [[0, 0], [1, 1]]},
        "table actions require a finite F",
    ),
    "linear over finite F": (
        Z2_FINITE,
        {"type": "linear", "matrices": [[[1]], [[-1]]]},
        "linear actions require a free-abelian F",
    ),
    "one matrix for two elements": (
        Z_RANK1,
        {"type": "linear", "matrices": [[[1]]]},
        "need one matrix per G element",
    ),
    "non-square matrix": (
        {"type": "free_abelian", "rank": 2},
        {"type": "linear", "matrices": [[[1, 0], [0, 1]], [[1, 0]]]},
        "action matrices must be 2x2",
    ),
    "singular matrix": (
        Z_RANK1,
        {"type": "linear", "matrices": [[[1]], [[0]]]},
        "action matrix is not invertible over the integers",
    ),
    "table entry out of range": (
        Z2_FINITE,
        {"type": "tables", "right": [[0, 1], [1, 2]], "left": [[0, 0], [1, 1]]},
        "right action table entry 2 out of range",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_ACTIONS))
def test_action_validation_rejects(case, tmp_path, capsys):
    f_group, action, message = BAD_ACTIONS[case]
    if action["type"] == "tables":
        spec = TableActions(*(tuple(map(tuple, action[k])) for k in ("right", "left")))
    else:
        spec = LinearAction(tuple(tuple(map(tuple, M)) for M in action["matrices"]))
    F = FreeAbelianF(f_group["rank"]) if "rank" in f_group else FiniteF(cyclic_group(2))
    with pytest.raises(ConfigError, match=message):
        MatchedPairCtx(cyclic_group(2), F, spec)
    cfg = {
        "name": "bad_action",
        "group": {"type": "table", "table": Z2_TABLE, "name": "Z2"},
        "f_group": f_group,
        "action": action,
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 1,
    }
    path = tmp_path / "bad_action.json"
    path.write_text(json.dumps(cfg))
    assert run(["--config", str(path), "verify"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["error"]) == ("invalid-config", message)


def test_verify_matched_pair_pass():
    assert verify_matched_pair(make_h_z_z2(), 3).ok
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    assert verify_matched_pair(make_conjugation(S3), 0).ok
    assert verify_matched_pair(make_z_poly(3), 2).ok


def test_verify_matched_pair_linear_scope_global():
    rep = verify_matched_pair(make_z_poly(3), 2)
    assert any("global" in c.scope for c in rep.checks)


def test_verify_matched_pair_fail_lists_witnesses():
    # right action table that is not a homomorphic action
    Z2 = cyclic_group(2)
    F = FiniteF(cyclic_group(4))
    right = ((0, 1, 2, 3), (0, 3, 1, 2))  # g acts by a 3-cycle: not an involution
    left = ((0, 0, 0, 0), (1, 1, 1, 1))
    ctx = MatchedPairCtx(Z2, F, TableActions(right=right, left=left))
    rep = verify_matched_pair(ctx, 0)
    assert not rep.ok
    bad = [c for c in rep.checks if c.violations]
    assert bad and all(isinstance(v, dict) for c in bad for v in c.violations)


def test_linear_action_rejects_non_invertible():
    G = cyclic_group(2)
    F = FreeAbelianF(1)
    with pytest.raises(ConfigError):
        MatchedPairCtx(G, F, LinearAction(matrices=(((1,),), ((2,),))))


def test_orbit_h_z_z2():
    ctx = make_h_z_z2()
    orb = ctx.orbit_of((1,))
    assert orb.representative == (-1,)
    assert orb.elements == ((-1,), (1,))
    assert orb.stabilizer == (0,)
    assert orb.transversal == (0, 1)
    orb0 = ctx.orbit_of((0,))
    assert orb0.elements == ((0,),)
    assert orb0.stabilizer == (0, 1)
    assert orb0.transversal == (0,)


def test_orbit_z_poly_constant_is_fixed():
    ctx = make_z_poly(3)
    orb = ctx.orbit_of((2, 2, 2))
    assert orb.size == 1
    assert len(orb.stabilizer) == 3
    orb2 = ctx.orbit_of((1, 0, 0))
    assert orb2.size == 3
    assert orb2.stabilizer == (0,)


def test_orbit_invariants():
    ctx = make_conjugation(permutation_group([(1, 0, 2), (1, 2, 0)]))
    for f in range(6):
        orb = ctx.orbit_of(f)
        assert orb.size * len(orb.stabilizer) == 6
        assert len(orb.transversal) == orb.size
        assert orb.transversal[0] == ctx.G.identity
        # z -> z^-1 > f is a bijection from the transversal onto the orbit
        rep = orb.representative
        image = {ctx.act_right(ctx.G.inv(z), rep) for z in orb.transversal}
        assert image == set(orb.elements)


def test_g_f_finv():
    ctx = make_h_z_z2()
    assert g_f_finv(ctx, (1,)) == (1,)
    assert g_f_finv(ctx, (0,)) == (0, 1)
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    ctx2 = make_conjugation(S3)
    # a transposition conjugates a 3-cycle to its inverse
    three_cycle = next(f for f in range(6) if S3.element_order(f) == 3)
    assert g_f_finv(ctx2, three_cycle)


def test_g_f_finv_equivalences():
    # nonempty iff f^-1 in O_f iff every orbit member has its inverse there
    for ctx, fs in [
        (make_h_z_z2(), [(j,) for j in range(-3, 4)]),
        (make_z_poly(3), [(1, 0, 0), (1, 2, 0), (2, 2, 2), (1, -1, 0)]),
    ]:
        for f in fs:
            orb = ctx.orbit_of(f)
            nonempty = bool(g_f_finv(ctx, f))
            finv_in = ctx.F.inv(f) in set(orb.elements)
            all_in = all(ctx.F.inv(x) in set(orb.elements) for x in orb.elements)
            assert nonempty == finv_in == all_in


def test_orbit_product_examples():
    ctx = make_h_z_z2()
    o1 = ctx.orbit_of((1,))
    o2 = ctx.orbit_of((2,))
    o0 = ctx.orbit_of((0,))
    assert [o.representative for o in orbit_product(ctx, o1, o1)] == [(0,), (-2,)]
    assert [o.representative for o in orbit_product(ctx, o1, o2)] == [(-1,), (-3,)]
    assert [o.representative for o in orbit_product(ctx, o1, o0)] == [(-1,)]


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_orbit_product_partition(j, k):
    ctx = make_h_z_z2()
    o1, o2 = ctx.orbit_of((j,)), ctx.orbit_of((k,))
    prods = {ctx.F.mul(x, y) for x in o1.elements for y in o2.elements}
    orbs = orbit_product(ctx, o1, o2)
    union = set()
    for o in orbs:
        assert not (union & set(o.elements))
        union |= set(o.elements)
    assert union == prods


def test_inverse_lemma_identities():
    ctx = make_z_poly(3)
    ball = f_ball(ctx.F, 1)
    G, F = ctx.G, ctx.F
    for g in G.elements():
        for f in ball:
            assert ctx.act_right(G.identity, f) == f
            assert ctx.act_right(g, F.identity) == F.identity
            assert ctx.act_left(g, F.identity) == g
            assert F.inv(ctx.act_right(g, f)) == ctx.act_right(ctx.act_left(g, f), F.inv(f))
            assert G.inv(ctx.act_left(g, f)) == ctx.act_left(G.inv(g), ctx.act_right(g, f))


@pytest.mark.parametrize("n_witnesses", [0, 3, 7])
def test_run_check_counts_all_and_keeps_first(n_witnesses):
    # 0: no violation; 3: exactly max_violations kept; 7: truncated to 3.
    res = run_check("law", "global", 50, ({"i": i} for i in range(n_witnesses)), 3)
    assert (res.name, res.scope, res.instances) == ("law", "global", 50)
    assert res.violation_count == n_witnesses
    assert res.violations == [{"i": i} for i in range(min(n_witnesses, 3))]
    assert res.ok == (n_witnesses == 0)


def dense_homomorphism_witnesses(ctx):
    """The linear-action homomorphism law by the dense product M_g M_g2,
    written out: the oracle for the column-by-kernel sweep."""
    G, mats = ctx.G, ctx.action.matrices
    r = len(mats[0])
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    out = [] if mats[G.identity] == ident else [{"law": "identity matrix", "g": G.identity}]
    for g in G.elements():
        for g2 in G.elements():
            prod = tuple(
                tuple(sum(mats[g][i][k] * mats[g2][k][j] for k in range(r)) for j in range(r))
                for i in range(r)
            )
            if prod != mats[G.mul(g, g2)]:
                out.append({"law": "matrix homomorphism", "g": g, "g2": g2})
    return out


def _random_unimodular(rnd, r):
    """A product of random elementary integer row operations and a sign."""
    M = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(3 * r):
        i, j = rnd.sample(range(r), 2)
        c = rnd.choice((-2, -1, 1, 2))
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    M[0] = [-a for a in M[0]]
    return tuple(map(tuple, M))


def test_homomorphism_sweep_matches_dense_product():
    rnd = random.Random(7)
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    # M_p e_j = e_p(j), so M_p M_q = M_pq: a homomorphism of a non-abelian G
    perms = tuple(
        tuple(tuple(int(i == p[j]) for j in range(3)) for i in range(3))
        for p in sorted(itertools.permutations(range(3)))
    )
    z_poly = make_z_poly(4)
    corrupted = list(z_poly.action.matrices)
    corrupted[1], corrupted[2] = corrupted[2], corrupted[1]
    cases = [
        build_config(broken_linear_config()).ctx,
        z_poly,
        MatchedPairCtx(z_poly.G, z_poly.F, LinearAction(tuple(corrupted))),
        make_h_z_z2(),
        MatchedPairCtx(S3, FreeAbelianF(3), LinearAction(perms)),
        MatchedPairCtx(S3, FreeAbelianF(3), LinearAction(perms[:3] + perms[4:] + perms[3:4])),
    ] + [
        MatchedPairCtx(cyclic_group(n), FreeAbelianF(r), LinearAction(
            tuple(_random_unimodular(rnd, r) for _ in range(n))
        ))
        for n, r in ((2, 2), (3, 3), (4, 2), (3, 4))
    ]
    counts = []
    for ctx in cases:
        check = verify_matched_pair(ctx, 0, max_violations=10**6).checks[0]
        expected = dense_homomorphism_witnesses(ctx)
        assert (check.violation_count, check.violations) == (len(expected), expected)
        counts.append(len(expected))
    assert counts[1] == counts[3] == counts[4] == 0
    assert all(counts[i] for i in (0, 2, 5, 6, 7, 8, 9))


def _leibniz_det(mat) -> int:
    """The determinant as the signed sum over permutations."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def test_int_det_matches_leibniz():
    """The fraction-free elimination agrees with the permutation expansion,
    on singular matrices, zero pivots that need a row swap, and 1x1 and
    empty matrices."""
    rng = random.Random(20261018)
    cases = [(), ((5,),), ((0, 1), (1, 0)), ((0, 0, 1), (0, 1, 0), (1, 0, 0)), ((2, 4), (1, 2))]
    for n in range(1, 6):
        for _ in range(40):
            cases.append(tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)))
    for mat in cases:
        assert _int_det(mat) == _leibniz_det(mat), mat
