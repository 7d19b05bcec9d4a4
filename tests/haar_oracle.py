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

HaarOracle.antipode_dual is the oracle of the duals: the simple over the
orbit of f^-1 whose character is the antipode of the character of d,
found by searching the characters of that orbit.

HaarOracle.nu2 is the oracle of the indicators: <T, m(Delta(chi))>
walked over the coproduct of the character of d, each term paired
through integral_of_product.  FusionRing.fs_indicator reads the same
value off the stabilizer table of the orbit's representative f, as
(1/|G_f|) sum rho(ab) tau(a, b; f) sigma(a; f^-1, f) over the b with
b > f = f^-1 and a = b < f (the fusion module docstring derives it).
Mutations of fs_indicator, each run on a scratch copy against the whole
tier-1 suite, and each failing at least one tier-1 test:
- the tau weight dropped
  (test_fusion.py::test_fs_indicator_matches_integral_of_product
  [z4_twisted], test_fusion.py::test_fusion_table_forms_no_character,
  test_deep_twisted.py::test_z4_twisted_fusion,
  test_fusion_routes.py::test_slice_form_matches_haar_route[z4_twisted]);
- the sigma weight dropped
  (test_fusion.py::test_fs_indicator_matches_integral_of_product
  [sign_sigma] alone);
- ab read as ba (test_factorizations.py::test_factorization_routes_agree
  on the S4 cases #8, #10, #12 and #13, |F| = 3 and |G| = 8, alone);
- a read as b, the left action ignored
  (test_factorization_routes_agree on every tier-1 case of S3 and S4,
  test_fs_indicator_matches_integral_of_product on s3_factorization and
  s3_factorization_tau, test_deep_twisted.py::
  test_s3_factorization_pipeline, test_fusion_table_forms_no_character);
- 1/|G_f| read as 1/|G| (40 tier-1 tests, among them
  test_acceptance.py::test_criterion_05_frobenius_schur, the report pins
  test_config_cli.py::test_cli_text_reports_pinned and
  test_fs_indicator_matches_integral_of_product on 8 configs).
The ab in G_f filter dropped (the identity's cell read for an ab off
G_f) fails no test, and is an equivalent mutation: in the group F G of
the matched pair, b f = (b > f)(b < f) = f^-1 a, so
a f^-1 = f b = (a > f^-1) b, hence a > f^-1 = f and ab > f = f.  The
filter never fires on a matched pair.

HaarRing is a FusionRing whose rows all take this route and whose duals
all take the antipode search, so whole tables and based-ring reports can
be compared between the two.
"""

from __future__ import annotations

from bicrossed import fusion
from bicrossed.cyclotomic import rational
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing, _multiplicities
from bicrossed.hopf import HElem
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

    def nu2(self, d):
        """nu_2 = <T, m(Delta(chi))> summed as <T, k1 k2> over the coproduct
        terms of the character of d, each through integral_of_product on
        two one-term elements: the oracle of FusionRing.fs_indicator."""
        H = self.hopf
        total = rational(0)
        for key, v in self.index.character(d).terms.items():
            for (k1, k2), c in H.comul_basis(key):
                total = total + H.integral_of_product(HElem.basis(*k1, v * c), HElem.basis(*k2))
        return total

    def antipode_dual(self, d):
        """The simple over the orbit of f^-1 whose character is the
        antipode of the character of d."""
        H, index = self.hopf, self.index
        target = H.antipode(index.character(d))
        for cand in index.simples_for_f(H.F.inv(d.orbit.representative)):
            if index.character(cand) == target:
                return cand
        raise InternalInconsistencyError(
            f"no simple matches the antipode of the character of {d.uid}"
        )


class HaarRing(FusionRing):
    """A FusionRing reading every row by the Haar route and every dual by
    the antipode search."""

    def __init__(self, hopf):
        super().__init__(hopf)
        self.haar = HaarOracle(self)

    def _orbit_row(self, d1, d2):
        return self.haar.row(d1, d2)

    def _stabilizer_dual(self, d):
        return self.haar.antipode_dual(d)
