"""Simple right comodules of the bicrossed product, via induction.

Each G-orbit in F contributes one simple comodule per irreducible
(twisted) character of the stabilizer of its canonical representative;
the induced comodule has dimension |T_f| * dim V.  Only character data
is needed for enumeration and fusion; explicit coaction matrices enter
solely through the optional coefficient-basis construction.

SimpleIndex owns everything the fusion ring reads of an orbit: its
simples, the certified table whose rows they are (shared by the orbits
with equal stabilizer and beta, and read on the cell form that
reps.verify_char_table certified it on), the transport x -> z_x and the
cells at each x.  fusion.FusionRing keeps no per-orbit data of its own.

beta_f = tau(., .; f) picks the table of G_f, keyed by (G_f, the values
of beta_f or None where trivial); with a trivial tau no beta is built,
else one per orbit, to read its key.
"""

from __future__ import annotations

from .certs import exact_rank
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
    rank = exact_rank(out)
    if rank != d.dim_total**2 or len(out) != d.dim_total**2:
        raise InternalInconsistencyError(
            f"coefficient basis of {d.uid} has rank {rank}, expected {d.dim_total ** 2}"
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
        self._by_rep: dict = {}  # representative -> (simples, its table, transport)
        self._by_uid: dict = {}
        self._char_cache: dict = {}
        self._tables: dict = {}  # (stabilizer, beta values or None) -> its table
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
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = twisted_char_table(G, orbit.stabilizer, beta)
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
        found = self._by_rep[f] = (simples, table, transport)
        for d in simples:
            self._by_uid[d.uid] = d
        return found

    def simples_for_orbit(self, orbit: Orbit) -> tuple[SimpleDesc, ...]:
        return (self._by_rep.get(orbit.representative) or self._add_orbit(orbit))[0]

    def stabilizer(self, orbit: Orbit) -> CharTable:
        """The certified table the orbit's simples are the rows of, one
        object per stabilizer and beta, with the cell form the fusion ring
        reads (reps.CharTable)."""
        return (self._by_rep.get(orbit.representative) or self._add_orbit(orbit))[1]

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
