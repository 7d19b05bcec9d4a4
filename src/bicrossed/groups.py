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
from math import lcm

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
        return lcm(*map(self.element_order, self.elements()))

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


def finite_group(rows, name: str = "G", max_order: int = DEFAULT_MAX_GROUP_ORDER) -> FiniteGroup:
    """Validate a Cayley table and build a FiniteGroup.

    Rejects non-groups: an empty or non-square table, entries out of
    range, a missing identity or inverse, and non-associativity.  The
    associativity check always runs: Light's test over a greedy
    generating set (check_associative), n^2|S| lookups with |S| <= log2 n.
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


def conjugacy_classes(G: FiniteGroup, elements=None) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of G, or of its subgroup `elements`, as sorted
    tuples, ordered by least member."""
    elements = G.elements() if elements is None else elements
    seen: set = set()
    classes = []
    for a in elements:
        if a in seen:
            continue
        cls = {G.mul(G.mul(x, a), G.inv(x)) for x in elements}
        seen |= cls
        classes.append(tuple(sorted(cls)))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def abelian_invariants(A: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invariant factors d_1 | d_2 | ... and a generating tuple realizing
    A = <x_1> x ... x <x_k> with ord(x_i) = d_i.

    Peels off cyclic factors greedily, largest first.  With S the subgroup
    generated so far, the order of a coset xS is the least k with x^k in
    S, and the cosets are visited through their least elements.  The
    first coset of maximal order m is lifted to the first z = y * s, over
    (sorted coset) x (sorted S), with z^m = 1; such a lift exists because
    each chosen factor has maximal order in its quotient.
    """
    if not A.is_abelian():
        raise ConfigError("abelian_invariants requires an abelian group")
    factors_desc: list[int] = []
    gens_desc: list[int] = []
    in_sub = frozenset([A.identity])  # S
    while len(in_sub) < A.order:
        sub = sorted(in_sub)
        reached: set[int] = set()
        best, m = None, 0
        for a in A.elements():
            if a in reached:
                continue
            reached.update(A.mul(a, s) for s in sub)
            k, x = 1, a
            while x not in in_sub:
                x = A.mul(x, a)
                k += 1
            if k > m:
                best, m = a, k
        coset = sorted(A.mul(best, s) for s in sub)
        products = (A.mul(y, s) for y in coset for s in sub)
        lift = next(z for z in products if A.power(z, m) == A.identity)
        factors_desc.append(m)
        gens_desc.append(lift)
        in_sub = _generated_subgroup(A.table, A.identity, gens_desc)
    return tuple(reversed(factors_desc)), tuple(reversed(gens_desc))


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


def subgroup_of(G: FiniteGroup, elements, name: str | None = None) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Build the abstract group on a subset closed under multiplication.

    Returns (H, to_parent) where to_parent maps H-indices to G-indices,
    listed in increasing parent order.  Only closure is checked: a
    nonempty closed subset of a finite group is a subgroup, so its
    identity and inverses are G's and its product is associative.
    """
    elems = tuple(sorted(set(int(x) for x in elements)))
    if not elems:
        raise ConfigError("empty multiplication table")
    pos = {g: i for i, g in enumerate(elems)}
    try:
        table = tuple(tuple(pos[G.mul(a, b)] for b in elems) for a in elems)
    except KeyError:
        raise ConfigError("subset is not closed under multiplication") from None
    inverse = tuple(pos[G.inv(a)] for a in elems)
    H = FiniteGroup(table, pos[G.identity], inverse, name or f"{G.name}_sub{len(elems)}")
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
