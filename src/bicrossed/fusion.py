"""The Grothendieck ring on irreducible characters.

A fusion row d1 * d2 is read by one of two routes, fixed per ring.

The orbit route serves trivial sigma and tau with a trivial left action
(the Drinfeld doubles, the lattice presets, every split extension
F x| G).  Each g> is then an automorphism of F and
(p_h#x)(p_h#y) = p_h#xy, so a simple (O_f, rho) has the value
rho(z h z^-1) at p_h # z^-1>f, and chi1 chi2 at p_h # f3, for f3 the
representative of an orbit of O1 O2, is the Mackey count
psi(h) = sum rho1(z_x h z_x^-1) rho2(z_y h z_y^-1) over the pairs
(x, y) in O1 x O2 with xy = f3 and h in G_x n G_y.  The product orbits
are the orbits of f1 O2; they and the pairs, read through their
transversal elements, are kept per pair of orbits while the rows of O1
are read.  The simples over O3 are the rows of the
stabilizer table that verify_char_table certified orthonormal and
complete, so m_c = (1/|G_f3|) sum_h psi(h) rho_c(h^-1), and the row is
certified by the exact residual psi = sum m_c rho_c on all of G_f3.
No product of characters, Haar pairing or character of a product orbit
is formed.

The Haar route serves everything else (twisted cocycles, a nontrivial
left action).  H is cosemisimple, so its normalized integral T gives
every multiplicity as one Haar pairing, N_ab^c = <T, chi_a chi_b S(chi_c)>
(Larson's character orthogonality).  Each simple keeps its dual vector
k -> <T, p_k S(chi)>, so a pairing is one sparse dot product over the
terms of the product, and a row's candidates resolve once per pair of
orbits.  The characters of each orbit are certified orthonormal for this
pairing once, and each product row by a zero sparse residual.  It stays
callable as FusionRing._haar_row, the oracle of the orbit route
(tests/test_fusion_routes.py lists the mutations that oracle catches).

On both routes the multiplicities must come out as nonnegative integers
matching the dimensions, and violations abort loudly.  Duality goes
through the antipode, the degree-2 indicator through the integral of
m(Delta(chi)).
"""

from __future__ import annotations

from .certs import solve_in_span
from .comodules import SimpleDesc, SimpleIndex
from .cyclotomic import rational
from .errors import InternalInconsistencyError
from .hopf import BicrossedHopf, HElem
from .matched_pair import Orbit, orbit_product
from .reps import CharTable

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
    """Fusion computations over a SimpleIndex, with a pure row memo."""

    def __init__(self, hopf: BicrossedHopf, index: SimpleIndex | None = None):
        self.hopf = hopf
        self.index = index if index is not None else SimpleIndex(hopf)
        self._row_cache: dict = {}
        self._dual_cache: dict = {}
        self._dual_vectors: dict = {}  # id(chi) -> (chi, dual vector of chi)
        self._candidates: dict = {}  # (rep1, rep2) -> candidate simples
        self._orthonormal: set = set()
        # chi1 chi2 = chi2 chi1 in a commutative H, so a row also gives its swap
        self._commutative = hopf.is_commutative
        # the orbit route's data (see the module docstring)
        self.orbit_route = (
            hopf.sigma.is_trivial and hopf.tau.is_trivial and hopf.ctx.left_action_trivial
        )
        self._orbits: dict = {}  # rep -> (simples, _Stabilizer)
        self._stabilizers: dict = {}  # stabilizer table -> _Stabilizer
        self._transport: dict = {}  # rep -> {x: (x^-1, z_x, z_x^-1)}
        self._products_left = None  # the O1 whose products are kept
        self._products: dict = {}  # rep2 -> [(simples, _Stabilizer, Mackey terms)] of O3
        self._terms: dict = {}  # Mackey terms -> the one object equal to them
        # (stabilizer 1, i1, stabilizer 2, i2, stabilizer 3, id(terms)) -> [(j, m)]
        self._decompositions: dict = {}
        # every stabilizer character value lies in Q(zeta_exp(G))
        self._level = hopf.G.exponent() if self.orbit_route else None

    # -- the Haar pairing ------------------------------------------------------

    def _dual_vector(self, chi: HElem) -> dict:
        """k -> <T, p_k S(chi)> where nonzero.  As in integral_of_product,
        p_k pairs only with the term of S(chi) at its Haar partner; the key
        whose partner is the term k2 is the partner of k2."""
        H = self.hopf
        dual = {}
        for k2, w in H.antipode(chi).terms.items():
            key = H.haar_partner(k2)
            dual[key] = w * H.haar_weight(key)
        return dual

    def pair(self, x: HElem, chi: HElem):
        """<x, chi> = <T, x S(chi)> for a character chi of self.index: x dotted
        with the dual vector of chi, kept per character object (per simple)."""
        entry = self._dual_vectors.get(id(chi))
        if entry is None:
            entry = self._dual_vectors[id(chi)] = (chi, self._dual_vector(chi))
        # summed from the first term, so the value stays at the terms' level
        x_terms = x.terms
        total = None
        for k, w in entry[1].items():
            v = x_terms.get(k)
            if v is not None:
                total = v * w if total is None else total + v * w
        return rational(0) if total is None else total

    def _orthonormal_simples(self, orbit: Orbit) -> tuple[SimpleDesc, ...]:
        """The orbit's simples, once the Gram matrix <chi_c, chi_c'> of their
        characters is certified to be the identity.  Characters over
        distinct orbits have disjoint f-supports and pair to zero, so this
        makes every candidate set of a product orthonormal, hence independent."""
        simples = self.index.simples_for_orbit(orbit)
        if orbit.representative in self._orthonormal:
            return simples
        chars = [self.index.character(d) for d in simples]
        for i, x in enumerate(chars):
            for j, y in enumerate(chars):
                value = self.pair(x, y)
                if not (value.is_one() if i == j else value.is_zero()):
                    raise InternalInconsistencyError(
                        f"characters over the orbit of {self.hopf.F.label(orbit.representative)} "
                        "are not orthonormal for the Haar pairing"
                    )
        self._orthonormal.add(orbit.representative)
        return simples

    # -- product decomposition ------------------------------------------------

    def _candidates_for(self, o1: Orbit, o2: Orbit) -> list[SimpleDesc]:
        """The simples over the orbits of O1 O2, each orbit certified
        orthonormal; they depend only on the pair of orbits."""
        key = (o1.representative, o2.representative)
        if key not in self._candidates:
            orbits = orbit_product(self.hopf.ctx, o1, o2)
            self._candidates[key] = [c for o in orbits for c in self._orthonormal_simples(o)]
        return self._candidates[key]

    def _haar_row(self, d1: SimpleDesc, d2: SimpleDesc) -> list:
        """The (simple, multiplicity) pairs of d1 * d2 by the Haar route:
        the product chi1 chi2 paired with every candidate character and
        certified by a zero residual on all its terms."""
        H, index = self.hopf, self.index
        product = H.mul(index.character(d1), index.character(d2))
        candidates = self._candidates_for(d1.orbit, d2.orbit)
        coeffs = solve_in_span(
            [index.character(c) for c in candidates],
            product,
            self.pair,
            description=f"fusion {d1.uid} * {d2.uid}",
        )
        return _multiplicities(d1, d2, zip(candidates, coeffs))

    def _simples_on(self, orbit: Orbit) -> tuple[tuple[SimpleDesc, ...], _Stabilizer]:
        """The orbit's simples and its _Stabilizer, once the simples are
        checked to be the rows of the certified stabilizer table, in order
        and indexed like the stabilizer: orthonormal and complete on G_f,
        the premise of m_c."""
        found = self._orbits.get(orbit.representative)
        if found is None:
            simples = self.index.simples_for_orbit(orbit)
            table = self.index.stabilizer_table(orbit)
            if (
                table is None
                or len(simples) != len(table.chars)
                or any(
                    d.chi is not c or c.elements != orbit.stabilizer
                    for d, c in zip(simples, table.chars)
                )
            ):
                raise InternalInconsistencyError(
                    f"characters over the orbit of {self.hopf.F.label(orbit.representative)} "
                    "are not orthonormal: they are not the rows of its stabilizer table"
                )
            stab = self._stabilizers.get(table)
            if stab is None:
                stab = self._stabilizers[table] = _Stabilizer(self.hopf.G, table, self._level)
            found = self._orbits[orbit.representative] = (simples, stab)
        return found

    def _transport_of(self, orbit: Orbit) -> dict:
        """x -> (x^-1, z_x, z_x^-1) over the orbit, z_x the transversal
        element with z_x^-1 > f = x."""
        f = orbit.representative
        found = self._transport.get(f)
        if found is None:
            G, F, act = self.hopf.G, self.hopf.F, self.hopf.ctx.act_right
            found = self._transport[f] = {}
            for z in orbit.transversal:
                z_inv = G.inv(z)
                x = act(z_inv, f)
                found[x] = F.inv(x), z, z_inv
        return found

    def _products_for(self, o1: Orbit, o2: Orbit) -> list:
        """Per orbit O3 of O1 O2: its simples, its _Stabilizer and its
        Mackey terms, for each h in G_f3 the triples (a, b, n) of n pairs
        (x, y) with xy = f3 and h in G_x n G_y whose transports
        z_x h z_x^-1 and z_y h z_y^-1 sit at positions a of G_f1 and b of
        G_f2.  Equal terms are one object, kept in _terms.

        O1 O2 is the union of the orbits of f1 O2, as (g>f1)y =
        g>(f1 (g^-1>y)).  h in G_f3 fixing x fixes y = x^-1 f3 too, so
        G_x n G_y is the stabilizer of x in G_f3.

        They are kept for one O1 at a time: fusion_table takes the simples
        orbit by orbit, so every row of O1 reads them while they are kept."""
        if o1.representative != self._products_left:
            self._products_left, self._products = o1.representative, {}
        data = self._products.get(o2.representative)
        if data is not None:
            return data
        ctx, F, G = self.hopf.ctx, self.hopf.F, self.hopf.G
        act, gmul, fmul, e = ctx.act_right, G.mul, F.mul, G.identity
        orbits = {}
        for y in o2.elements:
            o3 = ctx.orbit_of(fmul(o1.representative, y))
            orbits[o3.representative] = o3
        pos1 = self._simples_on(o1)[1].position
        pos2 = self._simples_on(o2)[1].position
        t1, t2 = self._transport_of(o1), self._transport_of(o2)
        interned = self._terms
        data = self._products[o2.representative] = []
        for f3, o3 in orbits.items():
            simples, stab = self._simples_on(o3)
            elements = o3.stabilizer
            counts = [{} for _ in elements]
            for x, (x_inv, zx, zx_inv) in t1.items():
                y = t2.get(fmul(x_inv, f3))
                if y is None:
                    continue
                _y_inv, zy, zy_inv = y
                for h, at_h in zip(elements, counts):
                    if h == e or act(h, x) == x:
                        ab = pos1[gmul(gmul(zx, h), zx_inv)], pos2[gmul(gmul(zy, h), zy_inv)]
                        at_h[ab] = at_h.get(ab, 0) + 1
            terms = tuple(tuple((a, b, n) for (a, b), n in at_h.items()) for at_h in counts)
            data.append((simples, stab, interned.setdefault(terms, terms)))
        return data

    def _orbit_row(self, d1: SimpleDesc, d2: SimpleDesc) -> list:
        """The (simple, multiplicity) pairs of d1 * d2 by the orbit route,
        one stabilizer decomposition per product orbit.  A decomposition
        depends only on the three stabilizer tables, the two character
        indices and the Mackey terms, so it is kept on them."""
        products = self._products_for(d1.orbit, d2.orbit)
        stab1, stab2 = self._simples_on(d1.orbit)[1], self._simples_on(d2.orbit)[1]
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
        """The (index, multiplicity) pairs of psi on G_f3, psi(h) =
        sum n rho1(a) rho2(b) over the terms at h: m_c = (1/|G_f3|)
        sum_h psi(h) rho_c(h^-1), certified by the residual
        psi = sum m_c rho_c on all of G_f3."""
        psi = []
        for at_h in terms:
            total = None
            for a, b, n in at_h:
                v = r1[a] * r2[b] if n == 1 else rational(n) * r1[a] * r2[b]
                total = v if total is None else total + v
            psi.append(_ZERO if total is None else total)
        coeffs, nonzero = [], []
        for rc in stab.values:
            m = None
            for v, i in zip(psi, stab.inv_position):
                m = v * rc[i] if m is None else m + v * rc[i]
            if stab.inv_order is not None:
                m = m * stab.inv_order
            coeffs.append(m)
            if not m.is_zero():
                nonzero.append((m, rc))
        for i, v in enumerate(psi):
            total = _ZERO
            for m, rc in nonzero:
                total = total + m * rc[i]
            if total != v:
                raise InternalInconsistencyError(
                    f"fusion {d1.uid} * {d2.uid}: nonzero residual on the stabilizer "
                    f"of {self.hopf.F.label(simples[0].orbit.representative)}"
                )
        return [(c.chi_index, m) for c, m in _multiplicities(d1, d2, zip(simples, coeffs))]

    def decompose_product(self, d1: SimpleDesc, d2: SimpleDesc) -> FusionRow:
        key = (d1.uid, d2.uid)
        if key in self._row_cache:
            return self._row_cache[key]
        pairs = (self._orbit_row if self.orbit_route else self._haar_row)(d1, d2)
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
        if d.uid in self._dual_cache:
            return self._dual_cache[d.uid]
        H, index = self.hopf, self.index
        target = H.antipode(index.character(d))
        finv = H.F.inv(d.orbit.representative)
        match = None
        for cand in index.simples_for_f(finv):
            if index.character(cand) == target:
                match = cand
                break
        if match is None:
            raise InternalInconsistencyError(
                f"no simple matches the antipode of the character of {d.uid}"
            )
        self._dual_cache[d.uid] = match
        return match

    def is_self_dual(self, d: SimpleDesc) -> bool:
        return self.dual_of(d).uid == d.uid

    # -- Frobenius-Schur -----------------------------------------------------

    def fs_indicator(self, d: SimpleDesc) -> int:
        """nu_2 = <T, m(Delta(chi))>, asserted to land in {-1, 0, 1} and to
        vanish exactly off the self-dual simples."""
        H = self.hopf
        total = rational(0)
        for key, v in self.index.character(d).terms.items():
            for (k1, k2), c in H.comul_basis(key):
                # <T, k1 . k2> as integral_of_product reads it
                if k2 == H.haar_partner(k1):
                    total = total + v * c * H.haar_weight(k1)
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


class _Stabilizer:
    """What the orbit route reads of one certified stabilizer table, shared
    by the orbits with that stabilizer: the character values at the ring's
    level (so no product lifts an operand), the position of each g of G_f
    and of each h^-1, and 1/|G_f|, None for a trivial stabilizer."""

    __slots__ = ("values", "position", "inv_position", "inv_order")

    def __init__(self, G, table: CharTable, level: int):
        elements = table.chars[0].elements
        self.values = [tuple(v.lift(level) for v in c.values) for c in table.chars]
        self.position = {g: i for i, g in enumerate(elements)}
        self.inv_position = [self.position[G.inv(h)] for h in elements]
        self.inv_order = None if len(elements) == 1 else rational(len(elements)).inv()


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
    step = n^3 // SAMPLE_TRIPLES + 1, in lexicographic order; each c
    steps from -(7a + 3b) mod step, so only the sample is walked."""
    step = n * n * n // SAMPLE_TRIPLES + 1
    ab = ((a, b) for a in range(n) for b in range(n))
    return [(a, b, c) for a, b in ab for c in range(-(7 * a + 3 * b) % step, n, step)]
