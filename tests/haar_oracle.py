"""The Haar route of the fusion rows, kept as the tests' oracle.

H is cosemisimple, so its normalized integral T gives every multiplicity
as one Haar pairing, N_ab^c = <T, chi_a chi_b S(chi_c)> (Larson's
character orthogonality).  HaarOracle reads a row that way: the product
chi1 chi2 by H.mul, paired with the characters over every orbit of
O1 O2 through fusion.solve_in_span, each orbit's characters certified
orthonormal for the pairing once, and the product by a zero sparse
residual.  Each simple keeps its dual vector k -> <T, p_k S(chi)>, so a
pairing is one sparse dot product over the terms of the product.  It
shares its ring's SimpleIndex and character cache.

HaarRing is a FusionRing whose rows all take this route and whose duals
all take the antipode search, so whole tables and based-ring reports can
be compared between the two.
"""

from __future__ import annotations

from bicrossed import fusion
from bicrossed.cyclotomic import rational
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing, _multiplicities
from bicrossed.matched_pair import orbit_product


class HaarOracle:
    def __init__(self, ring: FusionRing):
        self.hopf = ring.hopf
        self.index = ring.index
        self._dual_vectors: dict = {}  # id(chi) -> (chi, dual vector of chi)
        self._candidates: dict = {}  # (rep1, rep2) -> candidate simples
        self._orthonormal: set = set()

    def _dual_vector(self, chi) -> dict:
        """k -> <T, p_k S(chi)> where nonzero.  As in integral_of_product,
        p_k pairs only with the term of S(chi) at its Haar partner; the key
        whose partner is the term k2 is the partner of k2."""
        H = self.hopf
        dual = {}
        for k2, w in H.antipode(chi).terms.items():
            key = H.haar_partner(k2)
            dual[key] = w * H.haar_weight(key)
        return dual

    def pair(self, x, chi):
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

    def _orthonormal_simples(self, orbit):
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

    def _candidates_for(self, o1, o2) -> list:
        """The simples over the orbits of O1 O2, each orbit certified
        orthonormal; they depend only on the pair of orbits."""
        key = (o1.representative, o2.representative)
        if key not in self._candidates:
            orbits = orbit_product(self.hopf.ctx, o1, o2)
            self._candidates[key] = [c for o in orbits for c in self._orthonormal_simples(o)]
        return self._candidates[key]

    def row(self, d1, d2) -> list:
        """The (simple, multiplicity) pairs of d1 * d2 by the Haar route:
        the product chi1 chi2 paired with every candidate character and
        certified by a zero residual on all its terms."""
        H, index = self.hopf, self.index
        product = H.mul(index.character(d1), index.character(d2))
        candidates = self._candidates_for(d1.orbit, d2.orbit)
        coeffs = fusion.solve_in_span(
            [index.character(c) for c in candidates],
            product,
            self.pair,
            description=f"fusion {d1.uid} * {d2.uid}",
        )
        return _multiplicities(d1, d2, zip(candidates, coeffs))


class HaarRing(FusionRing):
    """A FusionRing reading every row by the Haar route and every dual by
    the antipode search."""

    def __init__(self, hopf, index=None):
        super().__init__(hopf, index)
        self.haar = HaarOracle(self)

    def _orbit_row(self, d1, d2):
        return self.haar.row(d1, d2)

    def _stabilizer_dual(self, d):
        return self._antipode_dual(d)
