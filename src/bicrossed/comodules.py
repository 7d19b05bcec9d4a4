"""Simple right comodules of the bicrossed product, via induction.

Each G-orbit in F contributes one simple comodule per irreducible
(twisted) character of the stabilizer of its canonical representative;
the induced comodule has dimension |T_f| * dim V.  Only character data
is needed for enumeration and fusion; explicit coaction matrices enter
solely through the optional coefficient-basis construction.

SimpleIndex owns everything the fusion ring reads of an orbit: its
simples, the _Stabilizer record of their table (shared by the orbits
with equal stabilizer and beta), the transport x -> z_x and the cells
at each x.  fusion.FusionRing keeps no per-orbit data of its own.

beta_f = tau(., .; f) picks the table of G_f, keyed by (G_f, the values
of beta_f or None where trivial); with a trivial tau no beta is built,
else one per orbit, to read its key.
"""

from __future__ import annotations

from math import lcm

from .cocycles import Beta2Cocycle, beta_for_orbit
from .cyclotomic import CycNum, rational
from .errors import ConfigError, InternalInconsistencyError
from .groups import f_ball
from .hopf import BicrossedHopf, HElem
from .matched_pair import Orbit
# the table constructors stay importable from here, as bench/tracer.py wraps them
from .reps import CharTable, TwistedChar, abelian_char_table, ordinary_char_table, twisted_char_table  # noqa: F401

_ONE = rational(1)


class SimpleDesc:
    """Descriptor of a simple comodule: orbit + stabilizer character."""

    __slots__ = ("orbit", "chi", "chi_index", "dim_v", "dim_total", "uid")

    def __init__(
        self, orbit: Orbit, chi: TwistedChar, chi_index: int, dim_v: int, dim_total: int, uid: str
    ):
        self.orbit = orbit
        self.chi = chi
        self.chi_index = chi_index
        self.dim_v = dim_v
        self.dim_total = dim_total
        self.uid = uid

    def __repr__(self):
        return f"SimpleDesc({self.uid}, dim={self.dim_total})"


class CfBasis:
    """Basis bookkeeping for the coefficient subcoalgebra of one orbit."""

    __slots__ = ("orbit", "keys", "dimension")

    def __init__(self, orbit: Orbit, keys: tuple, dimension: int):
        self.orbit = orbit
        self.keys = keys
        self.dimension = dimension


def cf_subcoalgebra(ctx, orbit: Orbit) -> CfBasis:
    """Span{p_g # x : g in G, x in O_f}; dimension |G| * |O_f|."""
    keys = tuple((g, x) for g in ctx.G.elements() for x in orbit.elements)
    return CfBasis(orbit=orbit, keys=keys, dimension=ctx.G.order * orbit.size)


def _simples_of_table(
    hopf: BicrossedHopf, orbit: Orbit, table: CharTable
) -> tuple[SimpleDesc, ...]:
    """One SimpleDesc per character of the table, in table order.

    Asserts the counting identity: the squared total dimensions add up to
    dim C_f = |G| * |O_f|."""
    t_len = len(orbit.transversal)
    out = []
    rep_label = hopf.F.label(orbit.representative)
    for i, chi in enumerate(table.chars):
        out.append(
            SimpleDesc(
                orbit=orbit,
                chi=chi,
                chi_index=i,
                dim_v=chi.dim,
                dim_total=t_len * chi.dim,
                uid=f"{rep_label}:{i}",
            )
        )
    total = sum(d.dim_total**2 for d in out)
    if total != hopf.G.order * orbit.size:
        raise InternalInconsistencyError(
            f"orbit {rep_label}: sum dim^2 = {total} != |G|*|O_f| = {hopf.G.order * orbit.size}"
        )
    return tuple(out)


def _induced_terms(hopf: BicrossedHopf, orbit: Orbit, z2, z, a: dict) -> dict:
    """The terms of sum_g tau(z2^-1, g; f)^-1 tau(z2^-1 g z, z^-1; f) a(g)
    p_{z2^-1 g z} # (z^-1 > f) over the stabilizer; g -> z2^-1 g z is
    injective, so every g gives its own key."""
    G, f = hopf.G, orbit.representative
    z2inv, zinv = G.inv(z2), G.inv(z)
    fz = hopf.ctx.act_right(zinv, f)
    tau = None if hopf.tau.is_trivial else hopf.tau.eval  # trivial: no factor
    acc: dict = {}
    for g in orbit.stabilizer:
        val = a[g]
        if val.is_zero():
            continue
        zgz = G.mul(G.mul(z2inv, g), z)
        acc[(zgz, fz)] = val if tau is None else tau(z2inv, g, f).inv() * tau(zgz, zinv, f) * val
    return acc


def irreducible_character(hopf: BicrossedHopf, d: SimpleDesc) -> HElem:
    """The induced-comodule character: the diagonal blocks z2 = z of the
    coefficient basis with a = chi, summed over the transversal (their
    f-parts z^-1 > f are distinct)."""
    chimap = d.chi.value_map()
    terms: dict = {}
    for z in d.orbit.transversal:
        terms.update(_induced_terms(hopf, d.orbit, z, z, chimap))
    return HElem(terms)


def coefficient_basis(hopf: BicrossedHopf, d: SimpleDesc, matrices=None) -> list[HElem]:
    """The dim_total^2 spanning elements of the coefficient subcoalgebra.

    For dim_v = 1 the single coaction entry is the character itself; for
    higher dimensions explicit coaction matrices must be supplied as a
    map from stabilizer elements to square matrices of scalars.  The
    matrices are checked against the stabilizer cocycle (projective
    multiplicativity) and the character (traces) before use, and the
    result is certified linearly independent.
    """
    from .certs import exact_rank

    beta = beta_for_orbit(hopf.ctx, hopf.tau, d.orbit)
    m = d.dim_v
    if matrices is None:
        if m != 1:
            raise ConfigError(
                "coaction matrices are required for characters of dimension > 1"
            )
        matrices = {g: ((d.chi.value_map()[g],),) for g in d.orbit.stabilizer}
    matrices = {
        g: tuple(tuple(a if isinstance(a, CycNum) else rational(a) for a in row) for row in M)
        for g, M in matrices.items()
        if g in d.orbit.stabilizer
    }
    _check_coaction_matrices(hopf, d, beta, matrices)
    transversal = d.orbit.transversal
    out = [
        HElem(_induced_terms(hopf, d.orbit, z2, z, {g: M[j][i] for g, M in matrices.items()}))
        for z2 in transversal
        for z in transversal
        for j in range(m)
        for i in range(m)
    ]
    cert = exact_rank(out, f"coefficient basis of {d.uid}")
    if cert.rank != d.dim_total**2 or len(out) != d.dim_total**2:
        raise InternalInconsistencyError(
            f"coefficient basis of {d.uid} has rank {cert.rank}, expected {d.dim_total ** 2}"
        )
    return out


def _check_coaction_matrices(hopf, d, beta: Beta2Cocycle, matrices):
    G = hopf.G
    m = d.dim_v
    chimap = d.chi.value_map()
    for g in d.orbit.stabilizer:
        if g not in matrices:
            raise ConfigError(f"missing coaction matrix for stabilizer element {g}")
        M = matrices[g]
        if len(M) != m or any(len(row) != m for row in M):
            raise ConfigError("coaction matrices must be dim_v x dim_v")
        if sum((M[i][i] for i in range(m)), rational(0)) != chimap[g]:
            raise ConfigError(f"coaction trace at {g} disagrees with the character")
    ident = G.identity
    for i in range(m):
        for j in range(m):
            if matrices[ident][i][j] != rational(1 if i == j else 0):
                raise ConfigError("coaction matrix at the identity must be the unit matrix")
    for a in d.orbit.stabilizer:
        for b in d.orbit.stabilizer:
            lam = beta.eval(a, b)
            A, B, AB = matrices[a], matrices[b], matrices[G.mul(a, b)]
            for i in range(m):
                for j in range(m):
                    s = sum((A[i][t] * B[t][j] for t in range(m)), rational(0))
                    if s != lam * AB[i][j]:
                        raise ConfigError(
                            f"coaction matrices are not projectively multiplicative at ({a},{b})"
                        )


class SimpleIndex:
    """Cache of orbits and their simples; the uid -> descriptor registry,
    and the one owner of each orbit's stabilizer data (module docstring).

    Computation is on demand per orbit, so fusion candidates outside any
    enumerated ball still resolve."""

    def __init__(self, hopf: BicrossedHopf):
        self.hopf = hopf
        self._by_rep: dict = {}  # representative -> (simples, its table's slot, transport)
        self._by_uid: dict = {}
        self._char_cache: dict = {}
        self._tables: dict = {}  # (stabilizer, beta values or None) -> [table, its _Stabilizer]
        self._cells: dict = {}  # (representative, x) -> cells_at(orbit, x)

    def _add_orbit(self, orbit: Orbit) -> tuple:
        """Build the orbit's simples off the table of its stabilizer and
        beta, built once per such pair (module docstring), and check that
        they are the rows of that table, in order and indexed like the
        stabilizer: the premise of the fusion ring's m_c."""
        hopf, f = self.hopf, orbit.representative
        G = hopf.G
        beta = values = None
        if not hopf.tau.is_trivial:
            beta = beta_for_orbit(hopf.ctx, hopf.tau, orbit)
            if not beta.is_trivial:
                values = tuple((v.level, v.num, v.den) for v in beta.values.values())
        key = orbit.stabilizer, values
        slot = self._tables.get(key)
        if slot is None:
            slot = self._tables[key] = [twisted_char_table(G, orbit.stabilizer, beta), None]
        table = slot[0]
        simples = _simples_of_table(hopf, orbit, table)
        if len(simples) != len(table.chars) or any(
            d.chi is not c or c.elements != orbit.stabilizer for d, c in zip(simples, table.chars)
        ):
            raise InternalInconsistencyError(
                f"characters over the orbit of {hopf.F.label(f)} "
                "are not orthonormal: they are not the rows of its stabilizer table"
            )
        act = hopf.ctx.act_right
        transport = {act(G.inv(z), f): z for z in orbit.transversal}
        found = self._by_rep[f] = (simples, slot, transport)
        for d in simples:
            self._by_uid[d.uid] = d
        return found

    def simples_for_orbit(self, orbit: Orbit) -> tuple[SimpleDesc, ...]:
        return (self._by_rep.get(orbit.representative) or self._add_orbit(orbit))[0]

    def stabilizer(self, orbit: Orbit) -> _Stabilizer:
        """The _Stabilizer record of the table the orbit's simples are the
        rows of, one object per stabilizer and beta.  It is read on first
        use, so listing simples builds none."""
        slot = (self._by_rep.get(orbit.representative) or self._add_orbit(orbit))[1]
        if slot[1] is None:
            slot[1] = _Stabilizer(self.hopf.G, slot[0])
        return slot[1]

    def transport(self, orbit: Orbit) -> dict:
        """x -> z_x over the orbit, the transversal element with z_x^-1 > f = x."""
        return (self._by_rep.get(orbit.representative) or self._add_orbit(orbit))[2]

    def cells_at(self, orbit: Orbit, x) -> dict:
        """{h in G_x: (the cell of z_x h z_x^-1 in G_f, w(h, x), None where
        1)}, w(h, x) the weight of the induced character at p_h # x (the
        fusion module docstring)."""
        key = orbit.representative, x
        found = self._cells.get(key)
        if found is None:
            cls, z = self.stabilizer(orbit).cls, self.transport(orbit)[x]
            terms = _induced_terms(self.hopf, orbit, z, z, dict.fromkeys(orbit.stabilizer, _ONE))
            # one key (z^-1 g z, x) per g in G_f, in stabilizer order
            found = self._cells[key] = {
                h: (cls[g], None if w.is_one() else w)
                for g, ((h, _x), w) in zip(orbit.stabilizer, terms.items())
            }
        return found

    def simples_for_f(self, f) -> tuple[SimpleDesc, ...]:
        return self.simples_for_orbit(self.hopf.ctx.orbit_of(f))

    def orbits_in_ball(self, radius: int) -> list[Orbit]:
        ctx = self.hopf.ctx
        seen = set()
        orbits = []
        for f in f_ball(self.hopf.F, radius):
            if f in seen:
                continue
            orb = ctx.orbit_of(f)
            seen |= set(orb.elements)
            orbits.append(orb)
        orbits.sort(key=lambda o: self.hopf.F.order_key(o.representative))
        return orbits

    def enumerate(self, radius: int) -> list[SimpleDesc]:
        out = []
        for orb in self.orbits_in_ball(radius):
            out.extend(self.simples_for_orbit(orb))
        return out

    def find(self, uid: str) -> SimpleDesc:
        if uid in self._by_uid:
            return self._by_uid[uid]
        f_label, _, idx = uid.rpartition(":")
        if not f_label:
            raise ConfigError(f"malformed simple id {uid!r}; expected '<f>:<index>'")
        f = self.hopf.F.parse_label(f_label)
        simples = self.simples_for_f(f)
        if not (idx.isascii() and idx.isdigit() and int(idx) < len(simples)):
            raise ConfigError(f"no character index {idx!r} over the orbit of {f_label}")
        return simples[int(idx)]

    def character(self, d: SimpleDesc) -> HElem:
        if d.uid not in self._char_cache:
            self._char_cache[d.uid] = irreducible_character(self.hopf, d)
        return self._char_cache[d.uid]

    def unit_simple(self) -> SimpleDesc:
        """The simple with the character H.unit() = sum_g p_g # 1: over the
        orbit of 1, that of (O_1, rho) is sum_g rho(g) p_g # 1 (tau is
        normalized, so beta_1 = w = 1), so rho is 1 everywhere."""
        for d in self.simples_for_f(self.hopf.F.identity):
            if all(v.is_one() for v in d.chi.values):
                return d
        raise InternalInconsistencyError("no simple with the unit character")


class _Stabilizer:
    """What the fusion ring reads of one stabilizer table, on its cells
    (fusion module docstring).  SimpleIndex builds one per table, when the
    ring first asks for it, and shares it between the orbits with that
    table.  It keeps the cell of each element (cls), a representative of
    each (reps), the identity's cell, the character values at the
    representatives (integers at level 1, the others at one level for the
    table, so no sum or product of them lifts an operand), their
    conjugates, and 1/|G_f| and each 1/|C|, None where 1."""

    __slots__ = ("values", "conj_values", "cls", "reps", "identity", "inv_order", "inv_sizes")

    def __init__(self, G, table: CharTable):
        elements = table.chars[0].elements
        position = {g: i for i, g in enumerate(elements)}
        level = lcm(G.exponent(), *(v.level for c in table.chars for v in c.values))
        self.cls = {g: c for c, members in enumerate(table.cells) for g in members}
        self.reps = [members[0] for members in table.cells]
        self.identity = self.cls[G.identity]
        self.values = [
            tuple(_at_level(c.values[position[g]], level) for g in self.reps) for c in table.chars
        ]
        self.conj_values = [tuple(v.conj() for v in row) for row in self.values]
        self.inv_order = None if len(elements) == 1 else rational(len(elements)).inv()
        self.inv_sizes = [None if len(c) == 1 else rational(len(c)).inv() for c in table.cells]


def _at_level(v, level: int):
    """v at level 1 if it is a rational integer (every rational character
    value is), else at the given level."""
    return rational(v.num[0]) if v.den == 1 and v.is_rational() else v.lift(level)
