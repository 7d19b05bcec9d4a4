"""Finite groups by multiplication table, and the F-side group backends.

A FiniteGroup stores a validated Cayley table over element indices.  The
F side of a matched pair is either a finite group or a free-abelian
lattice Z^r; both expose the same small interface (mul, inv, identity,
ball enumeration, canonical element ordering), which is also the
extension point for further backends.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd

from .errors import ConfigError

DEFAULT_MAX_GROUP_ORDER = 64
MAX_BALL_SIZE = 100_000


class FiniteGroup:
    """A finite group on indices 0..n-1 with a validated Cayley table."""

    __slots__ = ("table", "identity", "inverse", "name")

    def __init__(self, table: tuple, identity: int, inverse: tuple[int, ...], name: str = "G"):
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self.name = name

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        e = 1
        for a in self.elements():
            o = self.element_order(a)
            e = e // gcd(e, o) * o
        return e

    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self.table[a][b] == self.table[b][a] for a in range(n) for b in range(a + 1, n)
        )

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        x = self.identity
        for _ in range(k):
            x = self.mul(x, a)
        return x

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def check_group_order(n: int, max_order: int) -> None:
    """Refuse an order over the bound; callers run it before building
    anything of that size."""
    if n > max_order:
        raise ConfigError(f"group order {n} exceeds the configured bound {max_order}")


def finite_group(
    rows,
    name: str = "G",
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
    check_associativity: bool | None = None,
) -> FiniteGroup:
    """Validate a Cayley table and build a FiniteGroup.

    Rejects non-groups: missing identity or inverses, non-closure and,
    when the associativity check runs, non-associativity.  That check is
    Light's test over a greedy generating set (check_associative), n^2|S|
    lookups; callers that construct tables from an already-verified
    2-cocycle may skip it above the default size bound.
    """
    table = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(table)
    if n == 0:
        raise ConfigError("empty multiplication table")
    check_group_order(n, max_order)
    for row in table:
        if len(row) != n:
            raise ConfigError("multiplication table is not square")
        for x in row:
            if not 0 <= x < n:
                raise ConfigError(f"table entry {x} out of range 0..{n - 1}")
    identity = None
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise ConfigError("table has no two-sided identity")
    inverse = []
    for a in range(n):
        inv_a = None
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inv_a = b
                break
        if inv_a is None:
            raise ConfigError(f"element {a} has no two-sided inverse")
        inverse.append(inv_a)
    if check_associativity is None:
        check_associativity = n <= DEFAULT_MAX_GROUP_ORDER
    if check_associativity:
        check_associative(table, identity)
    return FiniteGroup(table=table, identity=identity, inverse=tuple(inverse), name=name)


def generating_set(table, identity: int) -> tuple[int, ...]:
    """A greedy generating set of a table with a two-sided identity: scan
    the elements in index order and keep each one not yet reached, where
    the reached set is the identity closed under right multiplication by
    the kept elements.  In a group each kept element at least doubles the
    reached subgroup, so at most log2(n) are kept."""
    reached, gens = {identity}, []
    for g in range(len(table)):
        if g not in reached:
            gens.append(g)
            reached = _generated_subgroup(table, identity, gens)
    return tuple(gens)


def light_associative(table, gens) -> bool:
    """Light's test: (xy)s = x(ys) for all x, y and each s in gens.

    The s that pass for all x, y form a set closed under multiplication
    ((xy)(st) = ((xy)s)t = (x(ys))t = x((ys)t) = x(y(st))) that holds the
    identity, so when gens reaches every element from a two-sided identity
    through right products the whole table is associative."""
    for s in gens:
        col = [row[s] for row in table]  # x -> xs
        for row in table:  # the row of x: y -> xy
            if [col[v] for v in row] != [row[v] for v in col]:
                return False
    return True


def check_associative(table, identity: int) -> None:
    """Raise ConfigError at the first non-associative (a, b, c) in index
    order; identity must be a two-sided identity of table, so that the
    generating set reaches every element.  Light's test certifies a group
    table at n^2|S| lookups; only a table that fails it is walked over all
    n^3 triples for the witness."""
    if light_associative(table, generating_set(table, identity)):
        return
    n = len(table)
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab = table[ta[b]]
            tb = table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    raise ConfigError(f"table is not associative at ({a},{b},{c})")


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ConfigError("cyclic group order must be >= 1")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return finite_group(rows, name=name or f"Z{n}", max_order=max(n, DEFAULT_MAX_GROUP_ORDER))


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with index (i, j) -> i * |b| + j."""
    nb = b.order
    n = a.order * nb
    rows = [
        [a.mul(i // nb, k // nb) * nb + b.mul(i % nb, k % nb) for k in range(n)]
        for i in range(n)
    ]
    return finite_group(rows, name=name or f"{a.name}x{b.name}", max_order=max(n, DEFAULT_MAX_GROUP_ORDER))


def permutation_group(generators, name: str = "G", max_order: int = DEFAULT_MAX_GROUP_ORDER) -> FiniteGroup:
    """Closure of permutation generators; elements are indexed by the
    sorted image tuples, so the identity always lands at index 0."""
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise ConfigError("need at least one permutation generator")
    deg = len(gens[0])
    for g in gens:
        if len(g) != deg or sorted(g) != list(range(deg)):
            raise ConfigError(f"not a permutation of 0..{deg - 1}: {g}")
    ident = tuple(range(deg))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(deg))
                if q not in elems:
                    if len(elems) >= max_order:
                        raise ConfigError(f"permutation closure exceeds the bound {max_order}")
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    rows = []
    for p in ordered:
        rows.append([index[tuple(p[q[i]] for i in range(deg))] for q in ordered])
    return finite_group(rows, name=name, max_order=max_order)


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted tuples, ordered by least member."""
    seen = [False] * G.order
    classes = []
    for a in G.elements():
        if seen[a]:
            continue
        cls = set()
        for x in G.elements():
            y = G.mul(G.mul(x, a), G.inv(x))
            cls.add(y)
        for y in cls:
            seen[y] = True
        classes.append(tuple(sorted(cls)))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def abelian_invariants(A: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invariant factors d_1 | d_2 | ... and a generating tuple realizing
    A = <x_1> x ... x <x_k> with ord(x_i) = d_i.

    Peels off a cyclic factor of maximal order and recurses on the
    quotient, adjusting lifted generators so their orders match.
    """
    if not A.is_abelian():
        raise ConfigError("abelian_invariants requires an abelian group")
    factors_desc: list[int] = []
    gens_desc: list[int] = []
    # Work with explicit element sets of the current quotient A / <x_1, ...>.
    # Cosets are represented by frozensets of element indices.
    cosets = [frozenset([a]) for a in A.elements()]

    def coset_mul(c1, c2):
        a = next(iter(c1))
        b = next(iter(c2))
        prod = A.mul(a, b)
        for c in cosets:
            if prod in c:
                return c
        raise AssertionError("coset partition is not closed")

    while len(cosets) > 1:
        ident_coset = next(c for c in cosets if A.identity in c)
        best, best_ord = None, 0
        for c in cosets:
            o, x = 1, c
            while x != ident_coset:
                x = coset_mul(x, c)
                o += 1
            if o > best_ord:
                best, best_ord = c, o
        # Lift the chosen coset generator to an A-element of the same order.
        # If the image of y has order m, some z in y * <gens so far> has
        # z^m = 1; the brute-force sweep below always finds one.
        lift = None
        for y in sorted(best):
            adjusted = _adjust_lift(A, y, best_ord, gens_desc)
            if adjusted is not None:
                lift = adjusted
                break
        if lift is None:
            raise AssertionError("no adjusted lift found")
        factors_desc.append(best_ord)
        gens_desc.append(lift)
        # Collapse the partition by the new subgroup generated so far.
        sub = _generated_subgroup(A.table, A.identity, gens_desc)
        cosets = _coset_partition(A, sub)
    factors = tuple(reversed(factors_desc))
    gens = tuple(reversed(gens_desc))
    return factors, gens


def _generated_subgroup(table, identity: int, gens) -> frozenset[int]:
    """The identity closed under right multiplication by gens."""
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def _coset_partition(A: FiniteGroup, sub: frozenset[int]) -> list[frozenset[int]]:
    seen = set()
    parts = []
    for a in A.elements():
        if a in seen:
            continue
        coset = frozenset(A.mul(s, a) for s in sub)
        seen |= coset
        parts.append(coset)
    return parts


def _adjust_lift(A: FiniteGroup, y: int, m: int, gens) -> int | None:
    """Find z in y * <gens> with z^m = identity, by brute force over the
    generated subgroup (small by construction)."""
    sub = _generated_subgroup(A.table, A.identity, gens) if gens else frozenset([A.identity])
    for s in sorted(sub):
        z = A.mul(y, s)
        if A.power(z, m) == A.identity:
            return z
    return None


def subgroup_of(G: FiniteGroup, elements, name: str | None = None) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Build the abstract group on a subset closed under multiplication.

    Returns (H, to_parent) where to_parent maps H-indices to G-indices,
    listed in increasing parent order.
    """
    elems = tuple(sorted(set(int(x) for x in elements)))
    pos = {g: i for i, g in enumerate(elems)}
    rows = []
    for a in elems:
        row = []
        for b in elems:
            p = G.mul(a, b)
            if p not in pos:
                raise ConfigError("subset is not closed under multiplication")
            row.append(pos[p])
        rows.append(row)
    H = finite_group(
        rows,
        name=name or f"{G.name}_sub{len(elems)}",
        max_order=max(len(elems), DEFAULT_MAX_GROUP_ORDER),
        check_associativity=False,
    )
    return H, elems


# --------------------------------------------------------------------------
# The F side: finite or free-abelian, with a common protocol.
# --------------------------------------------------------------------------


class FiniteF:
    """F backend wrapping a FiniteGroup; elements are table indices."""

    is_finite = True

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.rank = None

    @property
    def identity(self):
        return self.group.identity

    def mul(self, a, b):
        return self.group.mul(a, b)

    def inv(self, a):
        return self.group.inv(a)

    def order_key(self, a):
        return a

    def ball(self, radius: int):
        return list(self.group.elements())

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.group.order

    def label(self, a) -> str:
        return str(a)

    def parse_label(self, s: str):
        try:
            a = int(s)
        except ValueError:
            raise ConfigError(f"F element label {s!r} is not an integer") from None
        if not self.contains(a):
            raise ConfigError(f"F element index {a} out of range")
        return a

    def __repr__(self):
        return f"FiniteF({self.group.name})"


class FreeAbelianF:
    """F backend for Z^r; elements are integer tuples of length r."""

    is_finite = False

    def __init__(self, rank: int):
        if rank < 1:
            raise ConfigError("free abelian rank must be >= 1")
        self.rank = rank

    @property
    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    def order_key(self, a):
        return (max(abs(x) for x in a), a)

    def ball(self, radius: int):
        """All vectors with sup-norm <= radius, by (sup-norm, lex)."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        size = (2 * radius + 1) ** self.rank
        if size > MAX_BALL_SIZE:
            raise ConfigError(
                f"ball of radius {radius} in Z^{self.rank} has {size} elements, "
                f"more than {MAX_BALL_SIZE}; choose a smaller radius"
            )
        vecs = itertools.product(range(-radius, radius + 1), repeat=self.rank)
        return sorted(vecs, key=self.order_key)

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.rank
            and all(isinstance(x, int) for x in a)
        )

    def label(self, a) -> str:
        if self.rank == 1:
            return str(a[0])
        return "(" + ",".join(str(x) for x in a) + ")"

    def parse_label(self, s: str):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            parts = s[1:-1].split(",")
        else:
            parts = s.split(",")
        try:
            vec = tuple(int(p) for p in parts)  # an empty part is an error
        except ValueError:
            raise ConfigError(f"F element label {s!r} is not an integer vector") from None
        if len(vec) != self.rank:
            raise ConfigError(f"expected a vector of length {self.rank}, got {s!r}")
        return vec

    def __repr__(self):
        return f"FreeAbelianF(rank={self.rank})"


def f_ball(F, radius: int):
    """Finite ordered enumeration used by all ball-bounded verification."""
    return F.ball(radius)
