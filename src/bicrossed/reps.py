"""Irreducible characters of the (possibly twisted) stabilizer groups.

Three providers build CharTables: a direct construction for abelian
groups via invariant factors, a Burnside-Dixon computation over F_p for
the general case (common eigenspaces of the class matrices kept in
row-echelon form, so no linear solve; the identity class found by
lookup) with exact lifting to Q(zeta_exp), and a parser/verifier for
user-supplied tables.  twisted_char_table is the one entry from a
stabilizer and its beta to a table; a nontrivial beta reduces it to the
ordinary table of a central extension by the cocycle values.

Whatever the search path, every table is verified exactly, and the same
way, before it is returned (verify_char_table): the dimension sum, the
values at the identity, each row constant on each cell (a conjugacy
class of an untwisted table, a single element of a twisted one) and the
rows orthonormal on the cells, which proves them independent with no
elimination.  The verification is the correctness contract, and the
cell form it runs on (CharTable) is the one the fusion ring reads.
"""

from __future__ import annotations

import itertools
import operator
from math import isqrt, lcm

from .cyclotomic import CycNum, rational, root_of_unity
from .errors import ConfigError, InternalInconsistencyError
from .groups import (
    FiniteGroup,
    abelian_invariants,
    conjugacy_classes,
    finite_group,
    subgroup_of,
)

MAX_EXTENSION_ORDER = 256


class TwistedChar:
    """A character of a (twisted) group algebra of a subgroup of G.

    values maps parent G-indices to exact scalars; dim is the value at
    the identity, always a positive rational integer.
    """

    __slots__ = ("elements", "values", "dim")

    def __init__(self, elements: tuple[int, ...], values: tuple[CycNum, ...], dim: int):
        self.elements = elements
        self.values = values
        self.dim = dim

    def value(self, g: int) -> CycNum:
        return self.values[self.elements.index(g)]

    def value_map(self) -> dict:
        return dict(zip(self.elements, self.values))

    def sort_key(self):
        return (self.dim, tuple(v.literal() for v in self.values))


class CharTable:
    """The characters of a table and, once verify_char_table has certified
    it, the cell form it was certified on (None until then): cls maps each
    element (parent index) to its cell, reps holds a representative of
    each cell and identity the identity's cell; values[i] is row i at the
    representatives (rational integers at level 1, the other values at one
    even level for the table) and conj_values their conjugates; inv_order is
    1/|G| and inv_sizes each 1/|C|, None where 1."""

    __slots__ = ("chars", "provenance", "cls", "reps", "identity", "values", "conj_values", "inv_order", "inv_sizes")

    def __init__(self, chars: tuple[TwistedChar, ...], provenance: str):
        self.chars = chars
        self.provenance = provenance
        self.cls = self.reps = self.identity = self.values = self.conj_values = None
        self.inv_order = self.inv_sizes = None

    def __len__(self):
        return len(self.chars)


def _sorted_table(chars, provenance: str) -> CharTable:
    return CharTable(tuple(sorted(chars, key=lambda c: c.sort_key())), provenance)


# --------------------------------------------------------------------------
# Abelian provider
# --------------------------------------------------------------------------


def abelian_char_table(group: FiniteGroup, to_parent=None) -> CharTable:
    """All |A| linear characters from an invariant-factor decomposition."""
    if not group.is_abelian():
        raise ConfigError("abelian character table requested for a non-abelian group")
    factors, gens = abelian_invariants(group)
    n = group.order
    parent = tuple(to_parent) if to_parent is not None else tuple(range(n))
    # Exponent vector of every element in the chosen generators.
    exps = {}
    for ex in itertools.product(*map(range, factors)):
        x = group.identity
        for g, e in zip(gens, ex):
            x = group.mul(x, group.power(g, e))
        exps[x] = ex
    if len(exps) != n:
        raise InternalInconsistencyError("invariant-factor generators do not generate")
    chars = []
    for k in itertools.product(*map(range, factors)):
        vals = [None] * n
        for x, ex in exps.items():
            v = rational(1)
            for d, ki, ei in zip(factors, k, ex):
                if (ki * ei) % d:
                    v = v * root_of_unity(ki * ei, d)
            vals[x] = v
        pairs = sorted(zip(parent, vals))
        chars.append(TwistedChar(tuple(p for p, _ in pairs), tuple(v for _, v in pairs), 1))
    table = _sorted_table(chars, "abelian-direct")
    verify_char_table(group, table, to_parent=parent, twisted=False)
    return table


# --------------------------------------------------------------------------
# Burnside-Dixon provider
# --------------------------------------------------------------------------


def _find_dixon_prime(order: int, exponent: int) -> int:
    p = max(2 * isqrt(order) + 1, exponent + 1, 3)
    while True:
        if p % exponent == 1 and all(p % q for q in range(2, isqrt(p) + 1)):
            return p
        p += 1


def _primitive_root(p: int) -> int:
    factors = []
    m = p - 1
    q = 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InternalInconsistencyError("no primitive root found")


def _row_reduce_fp(rows, ncols: int, p: int) -> list[int]:
    """Gauss-Jordan elimination over F_p on the first ncols columns of
    rows, in place; returns the pivot columns in order (row i has its
    leading 1 in column pivots[i])."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        for piv in range(rank, len(rows)):
            if rows[piv][col] % p:
                break
        else:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col] % p:
                f = row[col]
                rows[r] = [(a - f * b) % p for a, b in zip(row, prow)]
        pivots.append(col)
    return pivots


def _nullspace_fp(A, p):
    """Basis of the right nullspace of A over F_p (rows of the result)."""
    m = len(A[0]) if A else 0
    rows = [row[:] for row in A]
    pivots = _row_reduce_fp(rows, m, p)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        vec = [0] * m
        vec[fc] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rows[r][fc]) % p
        basis.append(vec)
    return basis


def dixon_char_table(G: FiniteGroup, to_parent=None) -> CharTable:
    """Ordinary irreducible characters over Q(zeta_exp(G)), Burnside-Dixon.

    The commuting class matrices (M_i)[j][k] = #{x in C_i : x^-1 z_k in
    C_j}, z_k the representative of C_k, have the central characters as
    common eigenvectors over F_p.  Each common eigenspace is a basis S in
    reduced row-echelon form, so w = sum_t w[piv_t] S_t for w in it: M_i
    restricted to it is read off M_i S_t at the pivots, with no solve, and
    M_i S_t is summed over the classes of x^-1 z_k.  The identity class,
    found by lookup, is skipped.  Degrees come from the orthogonality
    normalization, and values lift exactly through eigenvalue-multiplicity
    recovery (a discrete Fourier inversion over F_p).
    """
    classes = conjugacy_classes(G)
    r = len(classes)
    e = G.exponent()
    p = _find_dixon_prime(G.order, e)
    class_of = {g: k for k, cls in enumerate(classes) for g in cls}
    reps = [cls[0] for cls in classes]
    ident_class = class_of[G.identity]

    # Split F_p^r into common eigenspaces, one class matrix at a time;
    # the class matrices commute, so every block is invariant.
    spaces = [([[int(i == j) for j in range(r)] for i in range(r)], list(range(r)))]
    for i in range(r):
        if all(len(S) == 1 for S, _ in spaces):
            break
        if i == ident_class:
            continue
        rows_inv = [G.table[G.inv(x)] for x in classes[i]]
        new_spaces = []
        for S, piv in spaces:
            d = len(S)
            if d == 1:
                new_spaces.append((S, piv))
                continue
            A = [[0] * d for _ in range(d)]  # M_i S_j = sum_t A[t][j] S_t
            for j, v in enumerate(S):
                Mv = [0] * r
                for k, c in enumerate(v):
                    if c:
                        z = reps[k]
                        for row in rows_inv:
                            Mv[class_of[row[z]]] += c
                for t, col in enumerate(piv):
                    A[t][j] = Mv[col] % p
            S_cols = list(zip(*S))
            found = 0
            for lam in range(p):
                B = [[(A[t][j] - (lam if t == j else 0)) % p for j in range(d)] for t in range(d)]
                null = _nullspace_fp(B, p)
                if null:
                    block = [
                        [sum(map(operator.mul, vec, col)) % p for col in S_cols]
                        for vec in null
                    ]
                    new_spaces.append((block, _row_reduce_fp(block, r, p)))
                    found += len(null)
                    if found == d:
                        break
            if found != d:
                raise InternalInconsistencyError(
                    "class-matrix restriction not diagonalizable over F_p"
                )
        spaces = new_spaces
    if any(len(S) > 1 for S, _ in spaces) or len(spaces) != r:
        raise InternalInconsistencyError("class matrices failed to separate characters")

    inv_class = [class_of[G.inv(z)] for z in reps]
    inv_sizes = [pow(len(cls), p - 2, p) for cls in classes]
    chars_fp = []
    for (v,), _ in spaces:
        if v[ident_class] == 0:
            raise InternalInconsistencyError("eigenvector vanishes at the identity class")
        inv = pow(v[ident_class], p - 2, p)
        om = [(x * inv) % p for x in v]
        s = sum(om[k] * om[inv_class[k]] * inv_sizes[k] for k in range(r)) % p
        if s == 0:
            raise InternalInconsistencyError("degenerate norm in Dixon normalization")
        chi1_sq = (G.order * pow(s, p - 2, p)) % p
        chi1 = next((min(c, p - c) for c in range(1, p) if c * c % p == chi1_sq), None)
        if chi1 is None:
            raise InternalInconsistencyError("character degree is not a square mod p")
        chars_fp.append((chi1, [(om[k] * chi1 * inv_sizes[k]) % p for k in range(r)]))

    # Exact lift. chi(g) = sum_t mu_t zeta_e^t with mu_t the multiplicity
    # of the eigenvalue zeta_e^t; 0 <= mu_t <= dim < p recovers exactly.
    # omega has order e in F_p^x, dft[t][a] = omega^(-ta) / e, and
    # power_class[k][a] is the class of z_k^a.
    omega = pow(_primitive_root(p), (p - 1) // e, p)
    e_inv = pow(e, p - 2, p)
    dft = [[pow(omega, -t * a % e, p) * e_inv % p for a in range(e)] for t in range(e)]
    zetas = [root_of_unity(t, e) for t in range(e)]
    power_class = [[class_of[G.power(z, a)] for a in range(e)] for z in reps]
    n = G.order
    parent = tuple(to_parent) if to_parent is not None else tuple(range(n))
    order = sorted(range(n), key=parent.__getitem__)
    elements = tuple(parent[g] for g in order)
    chars = []
    for chi1, row in chars_fp:
        values_by_class = []
        for pcs in power_class:
            ys = [row[c] for c in pcs]
            val = rational(0)
            for zeta, wt in zip(zetas, dft):
                mu = sum(map(operator.mul, ys, wt)) % p
                if mu:
                    val = val + rational(mu) * zeta
            values_by_class.append(val)
        values = tuple(values_by_class[class_of[g]] for g in order)
        chars.append(TwistedChar(elements, values, chi1))
    table = _sorted_table(chars, "burnside-dixon")
    verify_char_table(G, table, to_parent=parent, twisted=False)
    return table


# --------------------------------------------------------------------------
# Verification and front-end providers
# --------------------------------------------------------------------------


def verify_char_table(group: FiniteGroup, table: CharTable, to_parent=None, twisted: bool = False):
    """Exact postconditions, the same for every table: the dimension sum,
    the values at the identity, each row constant on each cell, and
    sum_C |C| chi_i(c) conj(chi_j(c)) = |G| delta_ij over the cells C,
    once per pair i <= j (swapping i and j conjugates the sum).  The
    cells are the conjugacy classes of an untwisted table and the single
    elements of a twisted one, whose beta-projective characters obey the
    same relations for a root-of-unity beta (Karpilovsky 1985).  The Gram
    matrix |G| I proves the rows independent, so no elimination runs.
    The relations are checked on the cell form itself (CharTable), which
    is stored on the table only once every check has passed."""
    n = group.order
    parent = tuple(to_parent) if to_parent is not None else tuple(range(n))
    total = sum(c.dim * c.dim for c in table.chars)
    if total != n:
        raise InternalInconsistencyError(
            f"dimension sum {total} != group order {n} ({table.provenance})"
        )
    # Value matrix indexed by subgroup element, computed once.
    rows = []
    for c in table.chars:
        vmap = c.value_map()
        rows.append([vmap[parent[g]] for g in range(n)])
    for c, row in zip(table.chars, rows):
        if row[group.identity] != rational(c.dim):
            raise InternalInconsistencyError("character value at identity differs from dim")
    cells = [(g,) for g in range(n)] if twisted else conjugacy_classes(group)
    for row in rows:
        for cell in cells:
            v = row[cell[0]]
            if any(row[g] != v for g in cell[1:]):
                raise InternalInconsistencyError(
                    f"character is not constant on the cell of {cell[0]} ({table.provenance})"
                )
    level = lcm(*(v.level for row in rows for v in row))
    if level > 1 and level % 2:
        # Q(zeta_n) = Q(zeta_2n) and phi(2n) = phi(n) for odd n: the even
        # level keeps the tables of one field at one level
        level *= 2
    values = [tuple(_at_level(row[cell[0]], level) for cell in cells) for row in rows]
    conj_values = [tuple(v.conj() for v in row) for row in values]
    sizes = [None if len(cell) == 1 else rational(len(cell)) for cell in cells]
    for i, ri in enumerate(values):
        weighted = [v if m is None else m * v for m, v in zip(sizes, ri)]
        for j in range(i, len(values)):
            s = rational(0)
            for w, v in zip(weighted, conj_values[j]):
                s = s + w * v
            if s != rational(n if i == j else 0):
                raise InternalInconsistencyError(
                    f"orthogonality fails for characters {i},{j} ({table.provenance})"
                )
    table.cls = {parent[g]: k for k, cell in enumerate(cells) for g in cell}
    table.reps = [parent[cell[0]] for cell in cells]
    table.identity = table.cls[parent[group.identity]]
    table.values = values
    table.conj_values = conj_values
    table.inv_order = None if n == 1 else rational(n).inv()
    table.inv_sizes = [None if m is None else m.inv() for m in sizes]


def _at_level(v: CycNum, level: int) -> CycNum:
    """v at level 1 if it is a rational integer (every rational character
    value is), else at the given level."""
    return rational(v.num[0]) if v.is_integer() else v.lift(level)


def ordinary_char_table(G: FiniteGroup, to_parent=None) -> CharTable:
    if G.is_abelian():
        return abelian_char_table(G, to_parent)
    return dixon_char_table(G, to_parent)


def central_extension(sub: FiniteGroup, beta, to_parent) -> tuple[FiniteGroup, int]:
    """The extension (E, m) of sub by the cyclic group of order m that
    the values of beta (parent-indexed) generate.

    E has elements (a, j), a in sub and j mod m, at index a*m + j, with
    (a, j)(b, l) = (ab, j + l + ind(a, b)) where beta(a, b) = zeta_m^ind(a, b).
    The section {(1_G, j)} is central of order m and the quotient by it
    is sub.
    """
    orders = []
    for v in beta.values.values():
        o = v.root_of_unity_order()
        if o is None:
            raise ConfigError("twisted character tables need root-of-unity cocycle values")
        orders.append(o)
    m = lcm(*orders)
    ns = sub.order
    if m * ns > MAX_EXTENSION_ORDER:
        raise ConfigError(
            f"central extension order {m * ns} exceeds {MAX_EXTENSION_ORDER}; "
            "supply the table via user_char_table"
        )
    powers = [root_of_unity(t, m) for t in range(m)]

    def dlog(v: CycNum) -> int:
        for t, w in enumerate(powers):
            if v == w:
                return t
        raise ConfigError("cocycle value is not a power of zeta_m")

    ind = {}
    for i, a in enumerate(to_parent):
        for j, b in enumerate(to_parent):
            ind[(i, j)] = dlog(beta.eval(a, b))
    order = m * ns
    rows = []
    for x in range(order):
        a, j = divmod(x, m)
        row = []
        for y in range(order):
            b, l = divmod(y, m)
            ab = sub.mul(a, b)
            row.append(ab * m + (j + l + ind[(a, b)]) % m)
        rows.append(row)
    return finite_group(rows, name=f"{sub.name}~beta", max_order=MAX_EXTENSION_ORDER), m


def twisted_char_table(G: FiniteGroup, elements, beta) -> CharTable:
    """Characters of the beta-twisted group algebra of the subgroup on
    elements (parent G-indices): the one entry from an orbit's stabilizer
    and beta to its table, the ordinary one where beta is None or trivial.
    Else beta is a verified 2-cocycle with root-of-unity values, and the
    table is read off the central extension by <zeta_m>: the characters
    where the central generator acts by zeta_m, restricted to the (a, 0)
    section."""
    sub, to_parent = subgroup_of(G, elements)
    if beta is None or beta.is_trivial:
        return ordinary_char_table(sub, to_parent)
    ext, m = central_extension(sub, beta, to_parent)
    ext_table = ordinary_char_table(ext)
    central = sub.identity * m + 1  # (1_G, 1)
    zeta_m = root_of_unity(1, m)
    kept = []
    for c in ext_table.chars:
        vmap = c.value_map()
        if vmap[central] == rational(c.dim) * zeta_m:
            vals = {to_parent[a]: vmap[a * m] for a in range(sub.order)}
            elems = tuple(sorted(vals))
            kept.append(TwistedChar(elems, tuple(vals[g] for g in elems), c.dim))
    table = _sorted_table(kept, "central-extension")
    verify_char_table(sub, table, to_parent=to_parent, twisted=True)
    return table


def user_char_table(G: FiniteGroup, elements, data, twisted: bool = False) -> CharTable:
    """Accept an externally supplied character table after verification.

    data is a JSON-style list of {"dim": int, "values": {element index:
    scalar}} rows; scalars may be CycNum, integers, or cyclotomic literal
    strings such as "1/2 + z^3@8".  The table is rejected with a precise
    reason unless verify_char_table passes: its rows orthonormal on its
    cells, so a twisted table must be orthonormal, not just independent.
    """
    elems = tuple(sorted(int(x) for x in elements))
    chars = []
    for row in data:
        dim = int(row["dim"])
        if dim < 1:
            raise ConfigError("character dimension must be positive")
        values = row["values"]
        vals = []
        for g in elems:
            if g not in values and str(g) not in values:
                raise ConfigError(f"missing character value at element {g}")
            v = values.get(g, values.get(str(g)))
            if not isinstance(v, CycNum):
                if isinstance(v, str):
                    from .config import parse_scalar

                    v = parse_scalar(v)
                else:
                    v = rational(v)
            vals.append(v)
        chars.append(TwistedChar(elems, tuple(vals), dim))
    table = _sorted_table(chars, "user-supplied")
    sub, to_parent = subgroup_of(G, elems)
    verify_char_table(sub, table, to_parent=to_parent, twisted=twisted)
    return table
