"""Simple right comodules of the bicrossed product, via induction.

Each G-orbit in F contributes one simple comodule per irreducible
(twisted) character of the stabilizer of its canonical representative;
the induced comodule has dimension |T_f| * dim V.  Only character data
is needed for enumeration and fusion; explicit coaction matrices enter
solely through the optional coefficient-basis construction.
"""

from __future__ import annotations

from .cocycles import Beta2Cocycle, beta_for_orbit
from .cyclotomic import CycNum, rational
from .errors import ConfigError, InternalInconsistencyError
from .groups import f_ball, subgroup_of
from .hopf import BicrossedHopf, HElem
from .matched_pair import Orbit
from .reps import CharTable, TwistedChar, abelian_char_table, ordinary_char_table, twisted_char_table


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


def stabilizer_char_table(
    hopf: BicrossedHopf, orbit: Orbit, tables: dict | None = None
) -> tuple[CharTable, Beta2Cocycle]:
    """Character table of the twisted stabilizer algebra of the orbit.

    With beta trivial the table is that of the stabilizer subgroup alone,
    so a tables dict shares it between orbits, keyed by the stabilizer
    tuple; a twisted table depends on beta and is never read from it."""
    beta = beta_for_orbit(hopf.ctx, hopf.tau, orbit)
    if not beta.is_trivial:
        return twisted_char_table(hopf.G, orbit.stabilizer, beta), beta
    table = None if tables is None else tables.get(orbit.stabilizer)
    if table is None:
        sub, to_parent = subgroup_of(hopf.G, orbit.stabilizer)
        if sub.is_abelian():
            table = abelian_char_table(sub, to_parent)
        else:
            table = ordinary_char_table(sub, to_parent)
        if tables is not None:
            tables[orbit.stabilizer] = table
    return table, beta


def simples_for_orbit(
    hopf: BicrossedHopf, orbit: Orbit, tables: dict | None = None
) -> tuple[SimpleDesc, ...]:
    """One SimpleDesc per stabilizer character, in table order; tables is
    passed on to stabilizer_char_table.

    Asserts the counting identity: the squared total dimensions add up to
    dim C_f = |G| * |O_f|."""
    return _simples_of_table(hopf, orbit, stabilizer_char_table(hopf, orbit, tables)[0])


def _simples_of_table(
    hopf: BicrossedHopf, orbit: Orbit, table: CharTable
) -> tuple[SimpleDesc, ...]:
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
    acc: dict = {}
    for g in orbit.stabilizer:
        val = a[g]
        if val.is_zero():
            continue
        zgz = G.mul(G.mul(z2inv, g), z)
        acc[(zgz, fz)] = hopf.tau.eval(z2inv, g, f).inv() * hopf.tau.eval(zgz, zinv, f) * val
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
    """Cache of orbits and their simples; the uid -> descriptor registry.

    Computation is on demand per orbit, so fusion candidates outside any
    enumerated ball still resolve."""

    def __init__(self, hopf: BicrossedHopf):
        self.hopf = hopf
        self._by_rep: dict = {}
        self._by_uid: dict = {}
        self._char_cache: dict = {}
        self._tables: dict = {}  # stabilizer -> untwisted character table
        self._orbit_tables: dict = {}  # representative -> the table of its simples

    def simples_for_orbit(self, orbit: Orbit) -> tuple[SimpleDesc, ...]:
        rep = orbit.representative
        if rep not in self._by_rep:
            table = stabilizer_char_table(self.hopf, orbit, self._tables)[0]
            simples = _simples_of_table(self.hopf, orbit, table)
            self._by_rep[rep] = simples
            self._orbit_tables[rep] = table
            for d in simples:
                self._by_uid[d.uid] = d
        return self._by_rep[rep]

    def stabilizer_table(self, orbit: Orbit) -> CharTable | None:
        """The character table the orbit's simples were read from, or None
        before simples_for_orbit has run on the orbit: the untwisted table
        of its stabilizer, shared between orbits, or the beta-twisted table
        of the orbit alone.  Every simple of the orbit is a row of it."""
        return self._orbit_tables.get(orbit.representative)

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
        if not (idx.isdecimal() and int(idx) < len(simples)):
            raise ConfigError(f"no character index {idx!r} over the orbit of {f_label}")
        return simples[int(idx)]

    def character(self, d: SimpleDesc) -> HElem:
        if d.uid not in self._char_cache:
            self._char_cache[d.uid] = irreducible_character(self.hopf, d)
        return self._char_cache[d.uid]

    def unit_simple(self) -> SimpleDesc:
        unit = self.hopf.unit()
        for d in self.simples_for_f(self.hopf.F.identity):
            if self.character(d) == unit:
                return d
        raise InternalInconsistencyError("no simple with the unit character")
