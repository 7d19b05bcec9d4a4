"""The Grothendieck ring on irreducible characters.

H is cosemisimple, so its normalized integral T gives every fusion
multiplicity as one Haar pairing, N_ab^c = <T, chi_a chi_b S(chi_c)>
(Larson's character orthogonality).  Each simple keeps its dual vector
k -> <T, p_k S(chi)>, so a pairing is one sparse dot product over the
terms of the product, and a row's candidates resolve once per pair of
orbits.  The characters of each orbit are certified orthonormal for this
pairing once, and each product row by a zero sparse residual; the
multiplicities must come out as nonnegative integers matching the
dimensions, and violations abort loudly.  Duality goes through the
antipode, the degree-2 indicator through the integral of m(Delta(chi)).
"""

from __future__ import annotations

from .certs import solve_in_span
from .comodules import SimpleDesc, SimpleIndex
from .cyclotomic import rational
from .errors import InternalInconsistencyError
from .hopf import BicrossedHopf, HElem
from .matched_pair import Orbit, orbit_product

# Triples sampled by the associativity law of verify_based_ring.
SAMPLE_TRIPLES = 60

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

    def decompose_product(self, d1: SimpleDesc, d2: SimpleDesc) -> FusionRow:
        key = (d1.uid, d2.uid)
        if key in self._row_cache:
            return self._row_cache[key]
        H, index = self.hopf, self.index
        product = H.mul(index.character(d1), index.character(d2))
        candidates = self._candidates_for(d1.orbit, d2.orbit)
        coeffs = solve_in_span(
            [index.character(c) for c in candidates],
            product,
            self.pair,
            description=f"fusion {d1.uid} * {d2.uid}",
        )
        summands = []
        for c, x in zip(candidates, coeffs):
            if x.is_zero():
                continue
            if not x.is_integer() or x.num[0] < 0:
                raise InternalInconsistencyError(
                    f"fusion multiplicity of {c.uid} in {d1.uid} * {d2.uid} "
                    f"is {x.literal()}, not a nonnegative integer"
                )
            summands.append((c.uid, x.num[0]))
        row = FusionRow(d1.uid, d2.uid, tuple(sorted(summands)))
        total = sum(m * index.find(uid).dim_total for uid, m in row.summands)
        if total != d1.dim_total * d2.dim_total:
            raise InternalInconsistencyError(
                f"dimension check fails for {d1.uid} * {d2.uid}: {total} != "
                f"{d1.dim_total * d2.dim_total}"
            )
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
        # the tabulated ball, so their duals resolve through the ring
        for r in table.rows:
            dual_sum = tuple(
                sorted((self.dual_of(self.index.find(u)).uid, m) for u, m in r.summands)
            )
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


def _sampled_triples(n: int) -> list:
    """The triples (a, b, c) in range(n)^3 with 7a + 3b + c divisible by
    step = n^3 // SAMPLE_TRIPLES + 1, in lexicographic order; each c
    steps from -(7a + 3b) mod step, so only the sample is walked."""
    step = n * n * n // SAMPLE_TRIPLES + 1
    ab = ((a, b) for a in range(n) for b in range(n))
    return [(a, b, c) for a, b in ab for c in range(-(7 * a + 3 * b) % step, n, step)]
