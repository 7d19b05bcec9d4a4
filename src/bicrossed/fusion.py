"""The Grothendieck ring on irreducible characters.

A simple comodule is a pair (O_f, rho): an orbit of G on F with
representative f, and an irreducible beta_f-projective character rho of
the stabilizer G_f, beta_f = tau(., .; f) (Karpilovsky 1985), an
ordinary character where beta_f is trivial.  Its character has the
value rho(z_x h z_x^-1) w(h, x) at p_h # x for h in G_x, z_x the
transversal element with z_x^-1 > f = x and
w(h, x) = tau(z_x^-1, z_x h z_x^-1; f)^-1 tau(h, z_x^-1; f), read off
_induced_terms (w = 1 when tau is trivial, and at x = f, where z_f = 1).

Fiber.  basis_mul makes p_h#x . p_h'#y equal to sigma(h; x, y) p_h#xy
when h' = h < x and 0 otherwise.  So for f3 the representative of an
orbit O3 of O1 O2 and h in G_f3, chi1 chi2 at p_h # f3 is
psi(h) = sum rho1(z_x h z_x^-1) w1(h, x) rho2(z_y (h < x) z_y^-1)
w2(h < x, y) sigma(h; x, y) over the pairs (x, y) in O1 x O2 with
xy = f3 that h fixes under g.(x, y) = (g > x, (g < x) > y).  This is an
action of G by the left compatibility, and the product map is
equivariant for it, as g > (xy) = (g > x)((g < x) > y) (Takeuchi 1981).

Pair orbits.  Every G-orbit of pairs meets f1 x O2, on which G_f1 acts
by y -> (s < f1) > y (s -> s < f1 is a homomorphism on G_f1; with a
trivial left action these orbits are the double cosets G_f1 g G_f2,
Natale 2003).  A representative (f1, y) with stabilizer S and product
p = f1 y is moved to f3 by t = z_p: the pair (x0, y0) = t.(f1, y) lies
over f3 with stabilizer K = t S t^-1 <= G_f3, and its G_f3-orbit, the
fiber's share of the pair orbit, is walked by the cosets gK, the pair
g.(x0, y0) having the stabilizer g K g^-1.  Each pair (x, y) and each h
in its stabilizer give one term: the cells of z_x h z_x^-1 in G_f1, of
z_y (h < x) z_y^-1 in G_f2 and of h in G_f3, with the weight
w1(h, x) w2(h < x, y) sigma(h; x, y), equal cells merged.  The weight
is 1 when sigma and tau are trivial.  A pair orbit with a trivial
stabilizer (each one when G_f1 is trivial) meets psi at h = 1 alone,
where every weight is 1 as sigma and tau are normalized (FusionRing
refuses them otherwise), so it is counted, not walked: it adds |G_f3|
to the weight of the identity term.

Cells.  A table's cells are those verify_char_table certified it on
(table.cells): the conjugacy classes of an untwisted table, and the
single elements of the stabilizer for a beta-twisted one, whose
characters are no class functions.  Each character is constant on each
cell, so the terms give W(C) = sum n rho1(a) rho2(b), the sum of psi
over the cell C of G_f3.

Per-orbit data.  The ring reads an orbit's table record, its transport
x -> z_x and its cells off the SimpleIndex (comodules module docstring),
and keeps only rows, duals and the terms and decompositions of products.

Conjugate orthogonality.  chi1 chi2 is the character of a comodule, so
it is sum m_c chi_c over the simples c, and a simple over another orbit
vanishes at every key with f-part f3: psi = sum m_c rho_c on G_f3, over
the rows of its stabilizer table, which SimpleIndex checks the orbit's
simples to be.  The beta_f3 values are roots of unity (as
central_extension requires), so the rows obey Schur's orthogonality
(1/|G_f3|) sum_C |C| rho_c(C) conj(rho_c'(C)) = delta over the cells,
which verify_char_table certified on every table, twisted or not, and
m_c = (1/|G_f3|) sum_C W(C) conj(rho_c(C)).  Each row is certified by
the exact residual psi(C) = W(C)/|C| = sum m_c rho_c(C) on every cell of
G_f3.  No product in H, Haar pairing or character is formed.

Duals.  The dual of (O_f, rho) is the simple over the orbit of f^-1
whose character is S(chi).  antipode_basis sends p_h # x, h in G_x, to
(sigma(h^-1; x, x^-1) tau(h^-1, h; x))^-1 p_k # x^-1 with
k = (h < x)^-1, and for f' the representative of the orbit of f^-1 and
x = f'^-1 in O_f, h -> k maps G_x onto G_f' (by the left compatibility
and the inverse identities).  So the dual's row has the value
rho(z_x h z_x^-1) w(h, x) times that antipode coefficient at k; it is
matched against the rows of the table of G_f' on its cells.

tests/haar_oracle.py keeps the Haar route, N_ab^c = <T, chi_a chi_b S(chi_c)>,
and the antipode search for duals as the oracle of rows and duals.

Indicators.  nu_2 = <T, m(Delta(chi))>.  comul_basis writes
Delta(p_ab # x) as the sum over b of tau(a, b; x) p_a # (b > x) (x) p_b # x,
and by basis_mul, haar_partner and haar_weight such a term has the
integral sigma(a; x^-1, x)/|G| when b > x = x^-1 and a = b < x, else 0.
Then ab lies in G_x: in the group F G, where g f = (g > f)(g < f),
b x = x^-1 a gives a x^-1 = x b, and an element of F G is one of F
times one of G in one way only, so a > x^-1 = x and ab > x = a > x^-1.
Each x in O gives the same share, nu_2/|O|.  Take a basis v_i of the
simple V split by its F-degrees V_x, read through the Hopf map
pi(p_g # x) = delta(g, 1) x onto kF, and the coefficients c_ij of V:
(id (x) pi) Delta sends p_g # x to p_g # x (x) x and c_ki to
c_ki (x) deg(v_i), so c_ki has the f-part deg(v_i), and x gives the sum
of <T, c_ik c_ki> over v_i in V_x and all k.  If V is self-dual,
S(c)^T = E c E^-1 for an invertible E; as S^2 = id (verify_hopf),
E^-T E commutes with c, so E^T = nu E with nu = +-1 (Schur's lemma), and
Larson's orthogonality <T, c_ij S(c_kl)> = delta_il delta_jk / dim V
makes x give nu dim V_x / dim V = nu/|O|, as dim V_x = dim rho.  If not,
each <T, c_ik c_ki> is 0.  So nu_2 is |O| times the value at f, where
chi is rho (z_f = 1, w = 1): nu_2 = (1/|G_f|) sum rho(ab)
tau(a, b; f) sigma(a; f^-1, f) over the b in z^-1 G_f, z = z_{f^-1}, and
0 when f^-1 lies in another orbit.  With a trivial < and trivial cocycles
it is the (1/|G_f|) sum rho(b^2) of the double (Kashina, Sommerhauser and
Zhu 2006; Kashina, Mason and Montgomery 2002 for abelian extensions).
"""

from __future__ import annotations

# certs.solve_in_span stays importable from here: bench/tracer.py counts
# its calls as fusion.solve_in_span, and no row reads it any more
from .certs import solve_in_span  # noqa: F401
from .comodules import SimpleDesc, SimpleIndex
from .cyclotomic import rational
from .errors import InternalInconsistencyError
from .hopf import BicrossedHopf, _weigh
from .matched_pair import Orbit

# Triples sampled by the associativity law of verify_based_ring.
SAMPLE_TRIPLES = 60

_ZERO = rational(0)


class FusionRow:
    __slots__ = ("left", "right", "summands")

    def __init__(self, left: str, right: str, summands: tuple[tuple[str, int], ...]):
        self.left = left
        self.right = right
        self.summands = summands

    def to_payload(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "summands": [{"id": uid, "multiplicity": m} for uid, m in self.summands],
        }


class FusionTable:
    __slots__ = ("simples", "rows", "duals", "indicators", "radius", "noncommutative_pairs")

    def __init__(
        self,
        simples: list[SimpleDesc],
        rows: list[FusionRow],
        duals: dict,
        indicators: dict,
        radius: int,
        noncommutative_pairs: list | None = None,
    ):
        self.simples = simples
        self.rows = rows
        self.duals = duals
        self.indicators = indicators
        self.radius = radius
        self.noncommutative_pairs = [] if noncommutative_pairs is None else noncommutative_pairs


class FusionRing:
    """Fusion computations over a SimpleIndex, with a pure row memo.  The
    per-orbit data (stabilizer records, transport, cells) is read from the
    index, which owns it."""

    def __init__(self, hopf: BicrossedHopf):
        if not (hopf.sigma.is_normalized(hopf.ctx) and hopf.tau.is_normalized(hopf.ctx)):
            raise InternalInconsistencyError(
                "fusion rows need normalized sigma and tau: a free pair orbit "
                "is counted with weight 1"
            )
        self.hopf = hopf
        self.index = SimpleIndex(hopf)
        self._row_cache: dict = {}
        self._dual_cache: dict = {}
        # chi1 chi2 = chi2 chi1 in a commutative H, so a row also gives its swap
        self._commutative = hopf.is_commutative
        # trivial cocycles: no factor
        self._sigma = None if hopf.sigma.is_trivial else hopf.sigma.eval
        self._tau = None if hopf.tau.is_trivial else hopf.tau.eval
        self._products_left = None  # the O1 whose products are kept
        self._products: dict = {}  # rep2 -> [(simples, _Stabilizer, terms)] of O3
        self._terms: dict = {}  # key of terms -> the one terms object with that key
        # (stabilizer 1, i1, stabilizer 2, i2, stabilizer 3, id(terms)) -> [(j, m)]
        self._decompositions: dict = {}

    # -- product decomposition ------------------------------------------------

    def _products_for(self, o1: Orbit, o2: Orbit) -> list:
        """Per orbit O3 of O1 O2: its simples, its _Stabilizer and the
        terms (a, b, c, n) of its pair orbits (module docstring): the cell
        a in G_f1, b in G_f2 and c in G_f3 and the summed weight n, an
        int where it is a rational integer (always with trivial sigma and
        tau), else a CycNum.  Equal terms are one object, kept in _terms.

        The representatives are the (f1, y), one per orbit of G_f1 on O2
        under y -> (s < f1) > y, the g-part s < f1 that basis_mul asks of
        the right factor of p_s#f1.  Their stabilizers are read off those
        orbits and need no search of G.

        They are kept for one O1 at a time: fusion_table takes the simples
        orbit by orbit, so every row of O1 reads them while they are kept."""
        if o1.representative != self._products_left:
            self._products_left, self._products = o1.representative, {}
        data = self._products.get(o2.representative)
        if data is not None:
            return data
        ctx, G = self.hopf.ctx, self.hopf.G
        act, act_left, fmul, gmul = ctx.act_right, ctx.act_left, self.hopf.F.mul, G.mul
        index, sigma, f1 = self.index, self._sigma, o1.representative
        stab1, stab2 = index.stabilizer(o1), index.stabilizer(o2)
        twist = {s: act_left(s, f1) for s in o1.stabilizer}  # s -> s < f1
        free = len(twist) == 1
        fibers: dict = {}  # rep3 -> [O3, free pair orbits, {(a, b, c): summed weight} or None]
        seen: set = set()
        for y in o2.elements:
            if y in seen:
                continue
            p = fmul(f1, y)
            o3 = ctx.orbit_of(p)
            fiber = fibers.get(o3.representative)
            if fiber is None:
                fiber = fibers[o3.representative] = [o3, 0, None]
            if free:
                fiber[1] += 1
                continue
            images = [(s, act(s_f1, y)) for s, s_f1 in twist.items()]
            seen.update(image for _s, image in images)
            stabilizer = [s for s, image in images if image == y]
            if len(stabilizer) == 1:
                fiber[1] += 1
                continue
            # move (f1, y) to f3 by t = z_p, its stabilizer to K = t S t^-1
            cls3 = index.stabilizer(o3).cls
            t = index.transport(o3)[p]
            x0, y0, t_inv = act(t, f1), act(act_left(t, f1), y), G.inv(t)
            K = [gmul(gmul(t, s), t_inv) for s in stabilizer]
            if fiber[2] is None:
                fiber[2] = {}
            terms, covered = fiber[2], set()
            for g in o3.stabilizer:
                if g in covered:
                    continue
                coset = [gmul(g, k) for k in K]
                covered.update(coset)
                x, y1 = act(g, x0), act(act_left(g, x0), y0)
                at1, at2, g_inv = index.cells_at(o1, x), index.cells_at(o2, y1), G.inv(g)
                for gk in coset:
                    h = gmul(gk, g_inv)
                    a, w1 = at1[h]
                    b, w2 = at2[act_left(h, x)]
                    w = _weigh(w1, w2)
                    if sigma is not None:
                        w = _weigh(w, sigma(h, x, y1))
                    key = (a, b, cls3[h])
                    terms[key] = terms.get(key, 0) + (1 if w is None else w)
        interned = self._terms
        data = self._products[o2.representative] = []
        for o3, count, terms in fibers.values():
            simples, stab3 = index.simples_for_orbit(o3), index.stabilizer(o3)
            unit = (stab1.identity, stab2.identity, stab3.identity)
            if terms is None:
                terms = key = ((*unit, count * len(o3.stabilizer)),)
            else:
                if count:
                    terms[unit] = terms.get(unit, 0) + count * len(o3.stabilizer)
                terms = tuple(sorted((*key, _weight(n)) for key, n in terms.items()))
                key = _terms_key(terms)
            data.append((simples, stab3, interned.setdefault(key, terms)))
        return data

    def _orbit_row(self, d1: SimpleDesc, d2: SimpleDesc) -> list:
        """The (simple, multiplicity) pairs of d1 * d2, one stabilizer
        decomposition per product orbit.  A decomposition depends only on
        the three stabilizer tables, the two character indices and the
        terms, so it is kept on them."""
        products = self._products_for(d1.orbit, d2.orbit)
        stab1, stab2 = self.index.stabilizer(d1.orbit), self.index.stabilizer(d2.orbit)
        i1, i2 = d1.chi_index, d2.chi_index
        decompositions = self._decompositions
        out = []
        for simples, stab3, terms in products:
            key = (stab1, i1, stab2, i2, stab3, id(terms))
            found = decompositions.get(key)
            if found is None:
                r1, r2 = stab1.values[i1], stab2.values[i2]
                found = decompositions[key] = self._decompose_on_stabilizer(
                    r1, r2, simples, stab3, terms, d1, d2
                )
            out.extend((simples[j], m) for j, m in found)
        return out

    def _decompose_on_stabilizer(self, r1, r2, simples, stab, terms, d1, d2) -> list:
        """The (index, multiplicity) pairs of psi on G_f3, from the cell
        sums W(C) = sum n rho1(a) rho2(b) over the terms at each cell C:
        m_c = (1/|G_f3|) sum_C W(C) conj(rho_c(C)) and psi(C) = W(C)/|C|,
        certified by the residual psi = sum m_c rho_c on every cell."""
        sums: dict = {}  # cell of G_f3 -> W(C), for the cells the terms meet
        for a, b, c, n in terms:
            v = r1[a] * r2[b]
            if n.__class__ is not int:
                v = v * n
            elif n != 1:
                v = v * rational(n)
            w = sums.get(c)
            sums[c] = v if w is None else w + v
        coeffs, nonzero = [], []
        for rc, conj in zip(stab.values, stab.conj_values):
            m = None
            for c, w in sums.items():
                v = w * conj[c]
                m = v if m is None else m + v
            if stab.inv_order is not None:
                m = m * stab.inv_order
            coeffs.append(m)
            if not m.is_zero():
                nonzero.append((m, rc))
        for c, inv_size in enumerate(stab.inv_sizes):
            w = sums.get(c)
            psi = _ZERO if w is None else w if inv_size is None else w * inv_size
            total = _ZERO
            for m, rc in nonzero:
                total = total + m * rc[c]
            if total != psi:
                raise InternalInconsistencyError(
                    f"fusion {d1.uid} * {d2.uid}: nonzero residual on the stabilizer "
                    f"of {self.hopf.F.label(simples[0].orbit.representative)}"
                )
        return [(c.chi_index, m) for c, m in _multiplicities(d1, d2, zip(simples, coeffs))]

    def decompose_product(self, d1: SimpleDesc, d2: SimpleDesc) -> FusionRow:
        key = (d1.uid, d2.uid)
        if key in self._row_cache:
            return self._row_cache[key]
        pairs = self._orbit_row(d1, d2)
        total = sum(m * c.dim_total for c, m in pairs)
        if total != d1.dim_total * d2.dim_total:
            raise InternalInconsistencyError(
                f"dimension check fails for {d1.uid} * {d2.uid}: {total} != "
                f"{d1.dim_total * d2.dim_total}"
            )
        row = FusionRow(d1.uid, d2.uid, tuple(sorted((c.uid, m) for c, m in pairs)))
        self._row_cache[key] = row
        if self._commutative:
            # same product, same candidates (O1 O2 = O2 O1 for abelian F),
            # hence the same coefficients and certificates
            self._row_cache[d2.uid, d1.uid] = FusionRow(d2.uid, d1.uid, row.summands)
        return row

    # -- duality ---------------------------------------------------------------

    def dual_of(self, d: SimpleDesc) -> SimpleDesc:
        found = self._dual_cache.get(d.uid)
        if found is None:
            found = self._dual_cache[d.uid] = self._stabilizer_dual(d)
        return found

    def _stabilizer_dual(self, d: SimpleDesc) -> SimpleDesc:
        """The simple over the orbit of f^-1 whose row is
        k -> rho(z_x h z_x^-1) w(h, x) times the antipode coefficient
        (sigma(h^-1; x, x^-1) tau(h^-1, h; x))^-1 of p_h # x, for
        (h < x)^-1 = k and x = f'^-1 (module docstring), read at the cell
        representatives of G_f'."""
        H, index, sigma, tau = self.hopf, self.index, self._sigma, self._tau
        G, act_left = H.G, H.ctx.act_left
        dual_orbit = H.ctx.orbit_of(H.F.inv(d.orbit.representative))
        f_dual = dual_orbit.representative
        x = H.F.inv(f_dual)
        stab = index.stabilizer(d.orbit)
        simples, dual_stab = index.simples_for_orbit(dual_orbit), index.stabilizer(dual_orbit)
        row = stab.values[d.chi_index]
        target = {}
        for h, (a, w) in index.cells_at(d.orbit, x).items():
            h_inv = G.inv(h)
            s = _weigh(
                None if sigma is None else sigma(h_inv, x, f_dual),
                None if tau is None else tau(h_inv, h, x),
            )
            v = row[a] if s is None else row[a] * s.inv()
            target[G.inv(act_left(h, x))] = v if w is None else v * w
        if target.keys() != dual_stab.cls.keys():
            raise InternalInconsistencyError(
                f"the antipode does not map the stabilizer of {d.uid} onto that of its dual"
            )
        values = tuple(target[k] for k in dual_stab.reps)
        for simple, rc in zip(simples, dual_stab.values):
            if rc == values:
                return simple
        raise InternalInconsistencyError(
            f"no simple matches the antipode of the character of {d.uid}"
        )

    def is_self_dual(self, d: SimpleDesc) -> bool:
        return self.dual_of(d).uid == d.uid

    # -- Frobenius-Schur -----------------------------------------------------

    def fs_indicator(self, d: SimpleDesc) -> int:
        """nu_2 off the stabilizer table of the representative f (module
        docstring), 0 with no walk when f^-1 lies in another orbit; asserted
        to land in {-1, 0, 1} and to vanish exactly off the self-dual simples."""
        H, orbit, sigma, tau = self.hopf, d.orbit, self._sigma, self._tau
        G, f = H.G, orbit.representative
        f_inv = H.F.inv(f)
        z = self.index.transport(orbit).get(f_inv)  # b > f = f^-1 on the coset z^-1 G_f
        total = _ZERO
        if z is not None:
            stab, act_left = self.index.stabilizer(orbit), H.ctx.act_left
            row = stab.values[d.chi_index]
            for b in (G.mul(G.inv(z), s) for s in orbit.stabilizer):
                a = act_left(b, f)
                cell = stab.cls.get(G.mul(a, b))
                if cell is None:  # ab lies in G_f (module docstring)
                    raise InternalInconsistencyError(f"indicator of {d.uid}: ab is not in the stabilizer")
                w = _weigh(None if tau is None else tau(a, b, f), None if sigma is None else sigma(a, f_inv, f))
                total = total + (row[cell] if w is None else row[cell] * w)
            if stab.inv_order is not None:
                total = total * stab.inv_order
        if not total.is_integer():
            raise InternalInconsistencyError(
                f"indicator of {d.uid} is not an integer: {total.literal()}"
            )
        nu = total.num[0]
        if nu not in (-1, 0, 1):
            raise InternalInconsistencyError(f"indicator of {d.uid} is {nu}")
        if (nu != 0) != self.is_self_dual(d):
            raise InternalInconsistencyError(
                f"indicator of {d.uid} is {nu} but self-duality is {self.is_self_dual(d)}"
            )
        return nu

    # -- tables and the based-ring laws ---------------------------------------

    def fusion_table(self, radius: int) -> FusionTable:
        """The rows of every ordered pair of simples in the ball; the row of
        (simples[i], simples[j]) is rows[i * n + j]."""
        simples = self.index.enumerate(radius)
        # candidates resolve on demand beyond the ball; the radius only
        # selects which simples get rows
        rows = [self.decompose_product(d1, d2) for d1 in simples for d2 in simples]
        n = len(simples)
        asym = [
            [d1.uid, d2.uid]
            for i, d1 in enumerate(simples)
            for j, d2 in enumerate(simples)
            if d1.uid < d2.uid and rows[i * n + j].summands != rows[j * n + i].summands
        ]
        duals = {d.uid: self.dual_of(d).uid for d in simples}
        indicators = {d.uid: self.fs_indicator(d) for d in simples}
        return FusionTable(
            simples=simples,
            rows=rows,
            duals=duals,
            indicators=indicators,
            radius=radius,
            noncommutative_pairs=asym,
        )

    def verify_based_ring(self, table: FusionTable) -> dict:
        """Unit laws, the unit-multiplicity/duality pairing, duality as an
        anti-involution, and associativity on sampled triples.  The rows
        are in fusion_table's order, and their summands are sorted with
        distinct ids, so two rows agree exactly when their tuples do."""
        unit_uid = self.index.unit_simple().uid
        problems = []
        uids = [d.uid for d in table.simples]
        n = len(uids)
        position = {uid: i for i, uid in enumerate(uids)}

        def summands(left: str, right: str):
            i, j = position.get(left), position.get(right)
            return None if i is None or j is None else table.rows[i * n + j].summands

        for uid in uids:
            if summands(unit_uid, uid) != ((uid, 1),):
                problems.append({"law": "left unit", "id": uid})
            if summands(uid, unit_uid) != ((uid, 1),):
                problems.append({"law": "right unit", "id": uid})
        for r in table.rows:
            mult = next((m for u, m in r.summands if u == unit_uid), 0)
            want = 1 if table.duals[r.left] == r.right else 0
            if mult != want:
                problems.append({"law": "unit multiplicity", "left": r.left, "right": r.right})
        for uid in uids:
            if table.duals[table.duals[uid]] != uid:
                problems.append({"law": "duality involution", "id": uid})
        # (x y)* = y* x* at the level of rows; summands may lie outside
        # the tabulated ball, so their duals resolve through the ring, once
        # per distinct summand id
        dual_uid: dict = {}
        for r in table.rows:
            for u, _m in r.summands:
                if u not in dual_uid:
                    dual_uid[u] = self.dual_of(self.index.find(u)).uid
        for r in table.rows:
            dual_sum = tuple(sorted([(dual_uid[u], m) for u, m in r.summands]))
            if summands(table.duals[r.right], table.duals[r.left]) != dual_sum:
                problems.append({"law": "duality antihomomorphism", "left": r.left, "right": r.right})
        # associativity on a deterministic sample of triples
        triples = _sampled_triples(len(uids))
        for a, b, c in triples:
            da, db, dc = (self.index.find(uids[x]) for x in (a, b, c))
            lhs: dict = {}
            for u, m in self.decompose_product(da, db).summands:
                for u2, m2 in self.decompose_product(self.index.find(u), dc).summands:
                    lhs[u2] = lhs.get(u2, 0) + m * m2
            rhs: dict = {}
            for u, m in self.decompose_product(db, dc).summands:
                for u2, m2 in self.decompose_product(da, self.index.find(u)).summands:
                    rhs[u2] = rhs.get(u2, 0) + m * m2
            if lhs != rhs:
                triple = [uids[a], uids[b], uids[c]]
                problems.append({"law": "associativity", "triple": triple})
        return {
            "ok": not problems,
            "problems": problems[:20],
            "associativity_triples": len(triples),
        }


def _weight(n):
    """A summed term weight, an int count or a CycNum, as an int where it
    is a rational integer."""
    return n if n.__class__ is int or not n.is_integer() else n.num[0]


def _terms_key(terms: tuple) -> tuple:
    """A hashable key of terms from _products_for: each CycNum weight as
    its (level, num, den), equal for equal weights at one level."""
    return tuple(
        (a, b, c, n if n.__class__ is int else (n.level, n.num, n.den)) for a, b, c, n in terms
    )


def _multiplicities(d1: SimpleDesc, d2: SimpleDesc, coeffs) -> list:
    """The (simple, multiplicity) pairs of the nonzero coefficients, each
    asserted a nonnegative integer."""
    out = []
    for c, x in coeffs:
        if x.is_zero():
            continue
        if not x.is_integer() or x.num[0] < 0:
            raise InternalInconsistencyError(
                f"fusion multiplicity of {c.uid} in {d1.uid} * {d2.uid} "
                f"is {x.literal()}, not a nonnegative integer"
            )
        out.append((c, x.num[0]))
    return out


def _sampled_triples(n: int) -> list:
    """The triples (a, b, c) in range(n)^3 with 7a + 3b + c divisible by
    step = n^3 // SAMPLE_TRIPLES + 1, in lexicographic order; all n^2
    pairs (a, b) are visited, and only the c of the sample, stepping
    from -(7a + 3b) mod step."""
    step = n * n * n // SAMPLE_TRIPLES + 1
    ab = ((a, b) for a in range(n) for b in range(n))
    return [(a, b, c) for a, b in ab for c in range(-(7 * a + 3 * b) % step, n, step)]
