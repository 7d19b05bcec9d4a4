from __future__ import annotations

import pytest

from bicrossed.cocycles import Beta2Cocycle
from bicrossed.cyclotomic import one, rational, root_of_unity
from bicrossed.errors import ConfigError, InternalInconsistencyError
from bicrossed.groups import (
    cyclic_group,
    direct_product,
    finite_group,
    permutation_group,
    subgroup_of,
)
from bicrossed.reps import (
    abelian_char_table,
    dixon_char_table,
    ordinary_char_table,
    twisted_char_table,
    user_char_table,
)


def klein_beta():
    K4 = direct_product(cyclic_group(2), cyclic_group(2))

    def bits(i):
        return (i // 2, i % 2)

    values = {}
    for i in range(4):
        for j in range(4):
            values[(i, j)] = rational((-1) ** (bits(i)[1] * bits(j)[0]))
    return K4, Beta2Cocycle.from_table(K4, (0, 1, 2, 3), values)


def test_abelian_tables():
    t = abelian_char_table(cyclic_group(2))
    assert [c.dim for c in t.chars] == [1, 1]
    vals = sorted(tuple(v.literal() for v in c.values) for c in t.chars)
    assert vals == [("1", "-1"), ("1", "1")]
    t4 = abelian_char_table(direct_product(cyclic_group(2), cyclic_group(2)))
    assert len(t4.chars) == 4
    assert all(c.dim == 1 for c in t4.chars)
    t3 = abelian_char_table(cyclic_group(3))
    z3 = root_of_unity(1, 3)
    assert any(c.values[1] == z3 for c in t3.chars)


# abelian_char_table(Z3 x Z6), one string of literals per character in
# table order, values in element order.
Z3XZ6_TABLE = [
    "1 -1 1 -1 1 -1 -1-z^1@3 z^1@6 -1-z^1@3 "
    "z^1@6 -1-z^1@3 z^1@6 z^1@3 1-z^1@6 z^1@3 1-z^1@6 z^1@3 1-z^1@6",
    "1 -1 1 -1 1 -1 1 -1 1 "
    "-1 1 -1 1 -1 1 -1 1 -1",
    "1 -1 1 -1 1 -1 z^1@3 1-z^1@6 z^1@3 "
    "1-z^1@6 z^1@3 1-z^1@6 -1-z^1@3 z^1@6 -1-z^1@3 z^1@6 -1-z^1@3 z^1@6",
    "1 -1+z^1@6 -z^1@6 1 -1+z^1@6 -z^1@6 -1-z^1@3 1 -1+z^1@6 "
    "-1-z^1@3 1 -1+z^1@6 z^1@3 -z^1@6 1 z^1@3 -z^1@6 1",
    "1 -1+z^1@6 -z^1@6 1 -1+z^1@6 -z^1@6 1 -1+z^1@6 -z^1@6 "
    "1 -1+z^1@6 -z^1@6 1 -1+z^1@6 -z^1@6 1 -1+z^1@6 -z^1@6",
    "1 -1+z^1@6 -z^1@6 1 -1+z^1@6 -z^1@6 z^1@3 -z^1@6 1 "
    "z^1@3 -z^1@6 1 -1-z^1@3 1 -1+z^1@6 -1-z^1@3 1 -1+z^1@6",
    "1 -z^1@6 -1+z^1@6 1 -z^1@6 -1+z^1@6 -1-z^1@3 -1+z^1@6 1 "
    "-1-z^1@3 -1+z^1@6 1 z^1@3 1 -z^1@6 z^1@3 1 -z^1@6",
    "1 -z^1@6 -1+z^1@6 1 -z^1@6 -1+z^1@6 1 -z^1@6 -1+z^1@6 "
    "1 -z^1@6 -1+z^1@6 1 -z^1@6 -1+z^1@6 1 -z^1@6 -1+z^1@6",
    "1 -z^1@6 -1+z^1@6 1 -z^1@6 -1+z^1@6 z^1@3 1 -z^1@6 "
    "z^1@3 1 -z^1@6 -1-z^1@3 -1+z^1@6 1 -1-z^1@3 -1+z^1@6 1",
    "1 1 1 1 1 1 -1-z^1@3 -1-z^1@3 -1-z^1@3 "
    "-1-z^1@3 -1-z^1@3 -1-z^1@3 z^1@3 z^1@3 z^1@3 z^1@3 z^1@3 z^1@3",
    "1 1 1 1 1 1 1 1 1 "
    "1 1 1 1 1 1 1 1 1",
    "1 1 1 1 1 1 z^1@3 z^1@3 z^1@3 "
    "z^1@3 z^1@3 z^1@3 -1-z^1@3 -1-z^1@3 -1-z^1@3 -1-z^1@3 -1-z^1@3 -1-z^1@3",
    "1 1-z^1@6 -z^1@6 -1 -1+z^1@6 z^1@6 -1-z^1@3 -1 -1+z^1@6 "
    "z^1@6 1 1-z^1@6 z^1@3 z^1@6 1 1-z^1@6 -z^1@6 -1",
    "1 1-z^1@6 -z^1@6 -1 -1+z^1@6 z^1@6 1 1-z^1@6 -z^1@6 "
    "-1 -1+z^1@6 z^1@6 1 1-z^1@6 -z^1@6 -1 -1+z^1@6 z^1@6",
    "1 1-z^1@6 -z^1@6 -1 -1+z^1@6 z^1@6 z^1@3 z^1@6 1 "
    "1-z^1@6 -z^1@6 -1 -1-z^1@3 -1 -1+z^1@6 z^1@6 1 1-z^1@6",
    "1 z^1@6 -1+z^1@6 -1 -z^1@6 1-z^1@6 -1-z^1@3 1-z^1@6 1 "
    "z^1@6 -1+z^1@6 -1 z^1@3 -1 -z^1@6 1-z^1@6 1 z^1@6",
    "1 z^1@6 -1+z^1@6 -1 -z^1@6 1-z^1@6 1 z^1@6 -1+z^1@6 "
    "-1 -z^1@6 1-z^1@6 1 z^1@6 -1+z^1@6 -1 -z^1@6 1-z^1@6",
    "1 z^1@6 -1+z^1@6 -1 -z^1@6 1-z^1@6 z^1@3 -1 -z^1@6 "
    "1-z^1@6 1 z^1@6 -1-z^1@3 1-z^1@6 1 z^1@6 -1+z^1@6 -1",
]


def test_abelian_table_z3xz6_literals():
    """The table follows the invariant-factor generators: another
    decomposition would move these literals, and with them the reports."""
    t = abelian_char_table(direct_product(cyclic_group(3), cyclic_group(6)))
    assert all(c.elements == tuple(range(18)) for c in t.chars)
    assert [" ".join(v.literal() for v in c.values) for c in t.chars] == Z3XZ6_TABLE


def test_dim_sum_property():
    for G in (cyclic_group(5), cyclic_group(6), direct_product(cyclic_group(2), cyclic_group(4))):
        t = abelian_char_table(G)
        assert sum(c.dim**2 for c in t.chars) == G.order


def test_dixon_s3():
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    t = dixon_char_table(S3)
    assert sorted(c.dim for c in t.chars) == [1, 1, 2]
    two = next(c for c in t.chars if c.dim == 2)
    transpositions = [g for g in S3.elements() if S3.element_order(g) == 2]
    three_cycles = [g for g in S3.elements() if S3.element_order(g) == 3]
    assert all(two.value(g).is_zero() for g in transpositions)
    assert all(two.value(g) == rational(-1) for g in three_cycles)
    # column orthogonality oracle, computed directly from the table values
    for g in S3.elements():
        s = sum((c.value(g) * c.value(S3.inv(g)) for c in t.chars), rational(0))
        expected = 6 // len([h for h in S3.elements() if _conjugate(S3, h, g)])
        assert s == rational(expected)


def _conjugate(G, h, g):
    return any(G.mul(G.mul(x, g), G.inv(x)) == h for x in G.elements())


def test_dixon_s4():
    S4 = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)], max_order=24)
    t = dixon_char_table(S4)
    assert sorted(c.dim for c in t.chars) == [1, 1, 2, 3, 3]


def test_dixon_quaternion_like():
    # the dihedral group of order 8 via permutations of the square
    D4 = permutation_group([(1, 2, 3, 0), (1, 0, 3, 2)], max_order=8)
    t = ordinary_char_table(D4)
    assert sorted(c.dim for c in t.chars) == [1, 1, 1, 1, 2]


def test_ordinary_routes_abelian():
    t = ordinary_char_table(cyclic_group(4))
    assert t.provenance == "abelian-direct"
    assert len(t.chars) == 4


def test_twisted_reduces_to_ordinary_for_trivial_beta():
    K4 = direct_product(cyclic_group(2), cyclic_group(2))
    values = {(i, j): one() for i in range(4) for j in range(4)}
    beta = Beta2Cocycle.from_table(K4, (0, 1, 2, 3), values)
    t = twisted_char_table(K4, (0, 1, 2, 3), beta)
    t0 = ordinary_char_table(K4)
    assert sorted(c.sort_key() for c in t.chars) == sorted(c.sort_key() for c in t0.chars)


def test_twisted_klein():
    K4, beta = klein_beta()
    t = twisted_char_table(K4, (0, 1, 2, 3), beta)
    assert len(t.chars) == 1
    c = t.chars[0]
    assert c.dim == 2
    assert c.value(K4.identity) == rational(2)
    assert all(c.value(g).is_zero() for g in (1, 2, 3))
    assert sum(ch.dim**2 for ch in t.chars) == 4


def test_twisted_klein_oracle():
    """Brute-force the twisted group algebra: center dimension and the
    regular traces determine the unique simple and its character."""
    K4, beta = klein_beta()
    n = 4
    # structure constants of e_a e_b = beta(a,b) e_{ab}
    def emul(a, b):
        return K4.mul(a, b), beta.eval(a, b)

    # center: x = sum_a x_a e_a with e_b x = x e_b for all b
    rows = []
    for b in range(n):
        for c in range(n):
            row = [rational(0)] * n
            for a in range(n):
                ba, cba = emul(b, a)
                if ba == c:
                    row[a] = row[a] + cba
                ab, cab = emul(a, b)
                if ab == c:
                    row[a] = row[a] - cab
            rows.append(row)
    # exact nullspace dimension over the cyclotomics
    rank = _rank(rows)
    center_dim = n - rank
    assert center_dim == 1  # a single simple block
    # regular trace of e_a is 4*delta(a, 1); with reg = 2 * V this gives
    # chi(1) = 2 and chi(a) = 0 otherwise
    for a in range(n):
        tr = sum((emul(a, b)[1] for b in range(n) if emul(a, b)[0] == b), rational(0))
        assert tr == rational(4 if a == K4.identity else 0)


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0])
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_twisted_z2_beta_minus_one():
    Z2 = cyclic_group(2)
    values = {(0, 0): one(), (0, 1): one(), (1, 0): one(), (1, 1): rational(-1)}
    beta = Beta2Cocycle.from_table(Z2, (0, 1), values)
    t = twisted_char_table(Z2, (0, 1), beta)
    assert len(t.chars) == 2
    i4 = root_of_unity(1, 4)
    vals = sorted(c.values[1].literal() for c in t.chars)
    assert vals == sorted([i4.literal(), (-i4).literal()])


def test_twisted_rejects_non_root_values():
    Z2 = cyclic_group(2)
    values = {(0, 0): one(), (0, 1): one(), (1, 0): one(), (1, 1): rational(1)}
    beta = Beta2Cocycle(Z2, (0, 1), values)
    beta.values[(1, 1)] = rational(2)
    with pytest.raises((ConfigError, InternalInconsistencyError)):
        twisted_char_table(Z2, (0, 1), beta)


def test_subgroup_char_table():
    Z6 = cyclic_group(6)
    sub, to_parent = subgroup_of(Z6, [0, 2, 4])
    t = abelian_char_table(sub, to_parent)
    assert len(t.chars) == 3
    assert t.chars[0].elements == (0, 2, 4)


def test_user_char_table_accept_and_reject():
    S3 = permutation_group([(1, 0, 2), (1, 2, 0)])
    good = dixon_char_table(S3)
    data = [
        {"dim": c.dim, "values": {g: c.value(g) for g in range(6)}} for c in good.chars
    ]
    t = user_char_table(S3, range(6), data)
    assert len(t.chars) == 3
    # a wrong sign breaks orthogonality
    bad = [dict(row, values=dict(row["values"])) for row in data]
    two = next(r for r in bad if r["dim"] == 2)
    flip = next(g for g in range(6) if two["values"][g] == rational(-1))
    two["values"][flip] = rational(1)
    with pytest.raises(InternalInconsistencyError):
        user_char_table(S3, range(6), bad)
    with pytest.raises(InternalInconsistencyError):
        user_char_table(S3, range(6), [])  # dimension sum 0 != 6


def test_central_extension_structure():
    from bicrossed.reps import central_extension

    K4, beta = klein_beta()
    sub, to_parent = subgroup_of(K4, (0, 1, 2, 3))
    E, m = central_extension(sub, beta, to_parent)
    assert E.order == 8
    assert m == 2
    # the section {(1, j)}, at index 1*m + j, is central of order m
    for j in range(m):
        z = sub.identity * m + j
        assert all(E.mul(z, x) == E.mul(x, z) for x in E.elements())
    assert E.element_order(sub.identity * m + 1) == 2
    # the quotient by the center section is the Klein group again: every
    # coset {(a,0), (a,1)} squares into the section
    for a in range(4):
        x = a * m
        sq = E.mul(x, x)
        assert sq // m == sub.identity


def test_user_char_table_json_literals():
    Z4 = cyclic_group(4)
    data = [
        {"dim": 1, "values": {"0": "1", "1": "1", "2": "1", "3": "1"}},
        {"dim": 1, "values": {"0": "1", "1": "-1", "2": "1", "3": "-1"}},
        {"dim": 1, "values": {"0": "1", "1": "z@4", "2": "-1", "3": "-z@4"}},
        {"dim": 1, "values": {"0": "1", "1": "-z@4", "2": "-1", "3": "z@4"}},
    ]
    t = user_char_table(Z4, range(4), data)
    assert len(t.chars) == 4


def test_dixon_quaternion_group():
    """Q8 via its regular permutation action: dims (1,1,1,1,2) and the
    2-dim character supported on the center."""
    # elements 1,-1,i,-i,j,-j,k,-k as indices 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def qmul(a, b):
        sign = 1
        for x in (a, b):
            if x.startswith("-"):
                sign = -sign
        ua, ub = a.lstrip("-"), b.lstrip("-")
        table = {
            ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
        }
        prod = table[(ua, ub)]
        if prod.startswith("-"):
            sign = -sign
            prod = prod[1:]
        return ("-" if sign < 0 else "") + prod

    rows = [[names.index(qmul(a, b)) for b in names] for a in names]
    Q8 = finite_group(rows, name="Q8")
    t = ordinary_char_table(Q8)
    assert sorted(c.dim for c in t.chars) == [1, 1, 1, 1, 2]
    two = next(c for c in t.chars if c.dim == 2)
    assert two.value(1) == rational(-2)  # the central element -1
    assert all(two.value(g).is_zero() for g in range(2, 8))
