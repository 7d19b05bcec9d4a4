"""The finite-group certificates at the cost of classes and generators,
each pinned to the walk over all elements, pairs or triples it replaces:

- Light's associativity test over a greedy generating set, against the
  cubic sweep, on random loops and on group tables with two entries
  swapped: the same verdict and the same first (a, b, c);
- the linear-action homomorphism check on generators, against the walk
  over all |G|^2 pairs, on B3, S4 and z_poly matrices with one matrix
  perturbed: the same witness list;
- the class-level character-table check, against elimination plus the
  element-wise row relations, on every untwisted table of the fusion
  oracle configs and the B3 and S4 Dixon tables, and on corrupted copies
  of them, each of which both checks reject; it also rejects a row that
  is no class function, which the element-wise relations accept;
- the same check on every twisted table of the twisted fixtures, on
  single-element cells, against the element-wise relations with
  conjugates.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import klein_twisted_config, s4_sign_tau_config
from test_deep_twisted import s3_factorization_tau_config, z4_twisted_config
from test_fusion import _ORACLE_CONFIGS

from bicrossed.cocycles import beta_for_orbit
from bicrossed.config import build_config
from bicrossed.cyclotomic import rational, root_of_unity, row_reduce
from bicrossed.errors import ConfigError, InternalInconsistencyError
from bicrossed.groups import (
    FreeAbelianF,
    check_associative,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    f_ball,
    finite_group,
    generating_set,
    light_associative,
    permutation_group,
    subgroup_of,
)
from bicrossed.matched_pair import LinearAction, MatchedPairCtx
from bicrossed.reps import (
    CharTable,
    TwistedChar,
    dixon_char_table,
    twisted_char_table,
    verify_char_table,
)

# --------------------------------------------------------------------------
# Light's test against the cubic sweep
# --------------------------------------------------------------------------


def cubic_first_failure(table):
    for a, b, c in itertools.product(range(len(table)), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"table is not associative at ({a},{b},{c})"
    return None


def random_loop(n: int, rnd: random.Random):
    """A random Latin square, cell by cell with backtracking, with its
    columns and rows reordered so that 0 is a two-sided identity."""
    square = [[None] * n for _ in range(n)]

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        free = [v for v in range(n) if v not in used]
        rnd.shuffle(free)
        for v in free:
            square[i][j] = v
            if fill(cell + 1):
                return True
        square[i][j] = None
        return False

    assert fill(0)
    col_of = {v: j for j, v in enumerate(square[0])}
    square = [[row[col_of[v]] for v in range(n)] for row in square]
    row_of = {row[0]: row for row in square}
    return tuple(tuple(row_of[v]) for v in range(n))


_S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
_GROUP_TABLES = {
    "Z6": cyclic_group(6).table,
    "S3": _S3.table,
    "Z2xZ4": direct_product(cyclic_group(2), cyclic_group(4)).table,
    "D4": permutation_group([(1, 2, 3, 0), (3, 2, 1, 0)]).table,
    "S4": permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)]).table,
}

# the non-associative Latin square of test_groups.py
_LATIN5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def assert_light_matches_cubic(table):
    expected = cubic_first_failure(table)
    assert light_associative(table, generating_set(table, 0)) is (expected is None)
    if expected is None:
        check_associative(table, 0)
    else:
        with pytest.raises(ConfigError) as err:
            check_associative(table, 0)
        assert str(err.value) == expected


def test_light_on_the_non_associative_square():
    assert_light_matches_cubic(_LATIN5)
    with pytest.raises(ConfigError) as err:
        finite_group([list(row) for row in _LATIN5])
    assert str(err.value) == cubic_first_failure(_LATIN5) == "table is not associative at (1,1,2)"


@settings(max_examples=60)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_light_matches_cubic_on_random_loops(n, seed):
    assert_light_matches_cubic(random_loop(n, random.Random(seed)))


@given(st.sampled_from(sorted(_GROUP_TABLES)), st.data())
def test_light_matches_cubic_on_group_tables_with_a_swap(name, data):
    table = _GROUP_TABLES[name]
    n = len(table)
    assert table[0][0] == 0  # 0 is the identity of each table here
    gens = generating_set(table, 0)
    assert len(gens) <= (n - 1).bit_length()  # each generator doubles the subgroup
    assert_light_matches_cubic(table)
    # two entries of one row, off the identity's row and column, swapped
    a = data.draw(st.integers(1, n - 1))
    b, c = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
    rows = [list(row) for row in table]
    rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
    swapped = tuple(tuple(row) for row in rows)
    assert cubic_first_failure(swapped) is not None
    assert_light_matches_cubic(swapped)


# --------------------------------------------------------------------------
# The homomorphism check on generators against the |G|^2 walk
# --------------------------------------------------------------------------


def matrix_group(matrices):
    """The group of a finite set of integer matrices closed under product,
    its elements indexed in sorted order."""
    mats = sorted(set(matrices))
    index = {M: i for i, M in enumerate(mats)}
    rows = [[index[matmul(A, B)] for B in mats] for A in mats]
    return finite_group(rows), tuple(mats)


def matmul(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A)


def _signed_permutations(r, signs):
    for perm in itertools.permutations(range(r)):
        for sign in itertools.product(signs, repeat=r):
            yield tuple(tuple(sign[i] if j == perm[i] else 0 for j in range(r)) for i in range(r))


def _z_poly(p):
    shift = tuple(tuple(int(i == (j + 1) % p) for j in range(p)) for i in range(p))
    power = tuple(tuple(int(i == j) for j in range(p)) for i in range(p))
    mats = []
    for _ in range(p):
        mats.append(power)
        power = matmul(shift, power)
    return cyclic_group(p), tuple(mats)


_LINEAR = {
    "B3": matrix_group(_signed_permutations(3, (1, -1))),
    "S4": matrix_group(_signed_permutations(4, (1,))),
    "z_poly4": _z_poly(4),
}


def walked_homomorphism_witnesses(G, mats):
    ident = tuple(tuple(int(i == j) for j in range(len(mats[0]))) for i in range(len(mats[0])))
    out = []
    if mats[G.identity] != ident:
        out.append({"law": "identity matrix", "g": G.identity})
    for g, g2 in itertools.product(G.elements(), repeat=2):
        if matmul(mats[g], mats[g2]) != mats[G.mul(g, g2)]:
            out.append({"law": "matrix homomorphism", "g": g, "g2": g2})
    return out


def homomorphism_check(G, mats):
    ctx = MatchedPairCtx(G, FreeAbelianF(len(mats[0])), LinearAction(mats))
    checks, _ball, _scope, _implied = ctx.action.certificate(ctx, 0, max_violations=10**6)
    return checks[0]


@pytest.mark.parametrize("name", sorted(_LINEAR))
def test_generator_check_on_homomorphisms(name):
    G, mats = _LINEAR[name]
    assert G.order == {"B3": 48, "S4": 24, "z_poly4": 4}[name]
    hom = homomorphism_check(G, mats)
    assert (hom.instances, hom.violation_count, hom.violations) == (G.order**2, 0, [])
    assert walked_homomorphism_witnesses(G, mats) == []


@settings(max_examples=15)
@given(st.sampled_from(sorted(_LINEAR)), st.data())
def test_generator_check_matches_walk_on_a_perturbed_matrix(name, data):
    G, mats = _LINEAR[name]
    k = data.draw(st.integers(0, G.order - 1), label="perturbed element")
    how = data.draw(st.sampled_from(("negate", "another element's matrix")))
    if how == "negate":
        new = tuple(tuple(-x for x in row) for row in mats[k])
    else:
        j = data.draw(st.integers(0, G.order - 2))
        new = mats[j if j < k else j + 1]
    perturbed = mats[:k] + (new,) + mats[k + 1 :]
    hom = homomorphism_check(G, perturbed)
    walked = walked_homomorphism_witnesses(G, perturbed)
    assert walked
    assert (hom.instances, hom.violation_count, hom.violations) == (G.order**2, len(walked), walked)


# --------------------------------------------------------------------------
# The class-level character-table check against the element-wise one
# --------------------------------------------------------------------------


def elementwise_check(group, table, to_parent):
    """The check the class-level one replaces: dimension sum, values at the
    identity, independence by elimination and the row relations summed
    over every element, for every ordered pair of rows."""
    n = group.order
    rows = [[c.value_map()[to_parent[g]] for g in range(n)] for c in table.chars]
    if sum(c.dim**2 for c in table.chars) != n:
        return False
    if any(row[group.identity] != rational(c.dim) for c, row in zip(table.chars, rows)):
        return False
    if len(row_reduce([list(r) for r in rows], n)) != len(rows):
        return False
    for i, j in itertools.product(range(len(rows)), repeat=2):
        s = sum((rows[i][g] * rows[j][group.inv(g)] for g in range(n)), rational(0))
        if s != rational(n if i == j else 0):
            return False
    return True


def class_check(group, table, to_parent):
    try:
        verify_char_table(group, table, to_parent=to_parent)
    except InternalInconsistencyError:
        return False
    return True


def untwisted_tables():
    """(label, subgroup, to_parent, table) for each untwisted stabilizer
    table of the fusion oracle configs, and the B3 and S4 Dixon tables."""
    out = []
    for name in sorted(_ORACLE_CONFIGS):
        build, radius = _ORACLE_CONFIGS[name]
        hopf = build().hopf
        stabilizers = {}
        for f in f_ball(hopf.F, radius):
            orbit = hopf.ctx.orbit_of(f)
            if orbit.stabilizer not in stabilizers:
                beta = beta_for_orbit(hopf.ctx, hopf.tau, orbit)
                if beta.is_trivial:
                    stabilizers[orbit.stabilizer] = twisted_char_table(hopf.G, orbit.stabilizer, beta)
        for stab, table in stabilizers.items():
            sub, to_parent = subgroup_of(hopf.G, stab)
            out.append((f"{name}/{len(stab)}", sub, to_parent, table))
    for name in ("B3", "S4"):
        G = _LINEAR[name][0]
        out.append((name, G, tuple(range(G.order)), dixon_char_table(G)))
    return out


def _replace(table, i, char):
    chars = list(table.chars)
    chars[i] = char
    return CharTable(tuple(chars), table.provenance)


def corruptions(group, table):
    """A value changed off its class representative (at a non-identity
    element for an abelian group), a row replaced by a copy of another row
    of the same degree, and a row scaled by 2."""
    last = table.chars[-1]
    classes = [c for c in conjugacy_classes(group) if group.identity not in c]
    if classes:
        cls = max(classes, key=len)
        g = cls[-1]  # values run in increasing parent order: by subgroup index
        values = list(last.values)
        values[g] = values[g] + rational(1)
        yield "changed off the representative", _replace(
            table, len(table) - 1, TwistedChar(last.elements, tuple(values), last.dim)
        )
    for i, j in itertools.combinations(range(len(table)), 2):
        if table.chars[i].dim == table.chars[j].dim:
            yield "duplicated row", _replace(table, j, table.chars[i])
            break
    doubled = tuple(v * rational(2) for v in last.values)
    yield "scaled row", _replace(table, len(table) - 1, TwistedChar(last.elements, doubled, 2 * last.dim))


def test_class_check_matches_elementwise_check():
    tables = untwisted_tables()
    assert len(tables) >= 12
    kinds = set()
    for label, group, to_parent, table in tables:
        assert class_check(group, table, to_parent), label
        assert elementwise_check(group, table, to_parent), label
        for kind, bad in corruptions(group, table):
            kinds.add(kind)
            assert not class_check(group, bad, to_parent), (label, kind)
            assert not elementwise_check(group, bad, to_parent), (label, kind)
    assert kinds == {"changed off the representative", "duplicated row", "scaled row"}


def test_class_check_rejects_a_non_class_function_the_relations_accept():
    # chi_2 of S3 plus (1, w, w^2) on its three transpositions, w = zeta_3,
    # keeps the degrees, the independence and every element-wise relation
    # (the added values sum to 0, as do their squares), but is no class
    # function: only the class-level check sees it.
    table = dixon_char_table(_S3)
    two = next(i for i, c in enumerate(table.chars) if c.dim == 2)
    transpositions = next(c for c in conjugacy_classes(_S3) if len(c) == 3)
    values = list(table.chars[two].values)
    for k, g in enumerate(transpositions):
        values[g] = values[g] + root_of_unity(k, 3)
    bad = _replace(table, two, TwistedChar(table.chars[two].elements, tuple(values), 2))
    to_parent = tuple(range(6))
    assert elementwise_check(_S3, bad, to_parent)
    assert not class_check(_S3, bad, to_parent)


# --------------------------------------------------------------------------
# Twisted tables: the same check on single-element cells
# --------------------------------------------------------------------------

_TWISTED_FIXTURES = {
    "klein_twisted": (klein_twisted_config, 1),
    "s4_sign_tau": (s4_sign_tau_config, 1),
    "s3_factorization_tau": (s3_factorization_tau_config, 0),
    "z4_twisted": (z4_twisted_config, 2),
}


@pytest.mark.parametrize("name", sorted(_TWISTED_FIXTURES))
def test_twisted_tables_are_certified_on_single_elements(name):
    # each beta-twisted stabilizer table is certified on the single elements
    # of its stabilizer, and its rows obey the element-wise relations
    # sum_g chi_i(g) conj(chi_j(g)) = |G_f| delta_ij; on s4_sign_tau some
    # rows are no class functions, so conjugacy classes as cells would fail
    config, radius = _TWISTED_FIXTURES[name]
    hopf = build_config(config()).hopf
    tables = 0
    for f in f_ball(hopf.F, radius):
        orbit = hopf.ctx.orbit_of(f)
        beta = beta_for_orbit(hopf.ctx, hopf.tau, orbit)
        if beta.is_trivial:
            continue
        table = twisted_char_table(hopf.G, orbit.stabilizer, beta)
        tables += 1
        assert table.provenance == "central-extension"
        assert table.cls == {g: i for i, g in enumerate(orbit.stabilizer)}
        sub, to_parent = subgroup_of(hopf.G, orbit.stabilizer)
        verify_char_table(sub, table, to_parent=to_parent, twisted=True)
        for a, b in itertools.combinations_with_replacement(table.chars, 2):
            s = sum((x * y.conj() for x, y in zip(a.values, b.values)), rational(0))
            assert s == rational(sub.order if a is b else 0)
        if name == "s4_sign_tau":
            assert not class_check(sub, table, to_parent)
    assert tables > 0
