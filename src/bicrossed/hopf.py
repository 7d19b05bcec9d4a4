"""The bicrossed-product Hopf algebra H = k^G # kF and its structure maps.

Elements are finitely supported linear combinations of basis tensors
p_g # f, keyed by (g index, F element).  Every structure map is
support-local: a product of two basis elements has at most one term and a
coproduct has |G| terms, so infinite F needs no truncation anywhere
except in verification sweeps, which are ball-bounded and say so.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNum, one, rational
from .errors import VerificationFailure
from .groups import f_ball
from .matched_pair import CheckResult, MatchedPairCtx, VerifyReport
from .cocycles import SigmaCocycle, TauCocycle, is_unitary

_ONE = one()


class HElem:
    """Finitely supported map from basis keys (g, f) to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                if not isinstance(v, CycNum):
                    v = rational(v)
                if not v.is_zero():
                    clean[k] = v
        self.terms = clean

    @staticmethod
    def basis(g: int, f, coeff=1) -> "HElem":
        return HElem({(g, f): coeff if isinstance(coeff, CycNum) else rational(coeff)})

    @staticmethod
    def zero() -> "HElem":
        return HElem()

    def coeff(self, key) -> CycNum:
        return self.terms.get(key, rational(0))

    def support(self):
        return set(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "HElem") -> "HElem":
        out = dict(self.terms)
        for k, v in other.terms.items():
            if k in out:
                s = out[k] + v
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = v
        res = HElem.__new__(HElem)
        res.terms = out
        return res

    def __neg__(self) -> "HElem":
        res = HElem.__new__(HElem)
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __sub__(self, other: "HElem") -> "HElem":
        return self + (-other)

    def scale(self, c) -> "HElem":
        if not isinstance(c, CycNum):
            c = rational(c)
        if c.is_zero():
            return HElem.zero()
        res = HElem.__new__(HElem)
        res.terms = {k: v * c for k, v in self.terms.items()}
        return res

    def __eq__(self, other) -> bool:
        if not isinstance(other, HElem):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "HElem(0)"
        parts = [f"({v.literal()})*p[{g}]#{f}" for (g, f), v in self.terms.items()]
        return "HElem(" + " + ".join(sorted(parts)) + ")"


class HTensor:
    """Finitely supported element of H (x) H keyed by pairs of basis keys."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for k, v in terms.items():
                if not isinstance(v, CycNum):
                    v = rational(v)
                if not v.is_zero():
                    clean[k] = v
        self.terms = clean

    def __add__(self, other: "HTensor") -> "HTensor":
        out = dict(self.terms)
        for k, v in other.terms.items():
            if k in out:
                s = out[k] + v
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = v
        res = HTensor.__new__(HTensor)
        res.terms = out
        return res

    def __sub__(self, other: "HTensor") -> "HTensor":
        neg = HTensor.__new__(HTensor)
        neg.terms = {k: -v for k, v in other.terms.items()}
        return self + neg

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, HTensor):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())

    __hash__ = None

    def __repr__(self):
        return f"HTensor({len(self.terms)} terms)"

    @staticmethod
    def of(a: HElem, b: HElem) -> "HTensor":
        out = {}
        for k1, v1 in a.terms.items():
            for k2, v2 in b.terms.items():
                out[(k1, k2)] = v1 * v2
        return HTensor(out)


class BicrossedHopf:
    """The Hopf algebra built from a matched pair and cocycle data.

    Exposes unit, multiplication, comultiplication, counit, antipode,
    the star structure (unitary cocycles only), the normalized left
    integral, and the Haar sesquilinear form.
    """

    def __init__(self, ctx: MatchedPairCtx, sigma: SigmaCocycle, tau: TauCocycle):
        self.ctx = ctx
        self.G = ctx.G
        self.F = ctx.F
        self.sigma = sigma
        self.tau = tau
        self._unitary: bool | None = None
        self._inv_g_order = Fraction(1, self.G.order)

    # -- scalars ------------------------------------------------------------

    def sigma_at(self, g, f, f2) -> CycNum:
        return self.sigma.eval(self.ctx, g, f, f2)

    def tau_at(self, g, g2, f) -> CycNum:
        return self.tau.eval(self.ctx, g, g2, f)

    # -- structure maps -------------------------------------------------------

    def unit(self) -> HElem:
        f1 = self.F.identity
        return HElem({(g, f1): _ONE for g in self.G.elements()})

    def basis_mul(self, k1, k2):
        """Product of two basis elements: None or (key, coefficient)."""
        g, f = k1
        g2, f2 = k2
        if self.ctx.act_left(g, f) != g2:
            return None
        return (g, self.F.mul(f, f2)), self.sigma_at(g, f, f2)

    def mul(self, a: HElem, b: HElem) -> HElem:
        out: dict = {}
        act_left = self.ctx.act_left
        fmul = self.F.mul
        for (g, f), va in a.terms.items():
            partner = act_left(g, f)
            for (g2, f2), vb in b.terms.items():
                if g2 != partner:
                    continue
                key = (g, fmul(f, f2))
                c = va * vb * self.sigma_at(g, f, f2)
                if key in out:
                    s = out[key] + c
                    if s.is_zero():
                        del out[key]
                    else:
                        out[key] = s
                elif not c.is_zero():
                    out[key] = c
        res = HElem.__new__(HElem)
        res.terms = out
        return res

    def comul_basis(self, key):
        """Coproduct terms of a basis element: list of ((k1, k2), coeff)."""
        g, f = key
        out = []
        G = self.G
        for x in G.elements():
            gx = G.mul(g, G.inv(x))
            c = self.tau_at(gx, x, f)
            out.append((((gx, self.ctx.act_right(x, f)), (x, f)), c))
        return out

    def comul(self, a: HElem) -> HTensor:
        out: dict = {}
        for key, v in a.terms.items():
            for pair, c in self.comul_basis(key):
                w = v * c
                if pair in out:
                    s = out[pair] + w
                    if s.is_zero():
                        del out[pair]
                    else:
                        out[pair] = s
                elif not w.is_zero():
                    out[pair] = w
        res = HTensor.__new__(HTensor)
        res.terms = out
        return res

    def counit(self, a: HElem) -> CycNum:
        e = self.G.identity
        total = rational(0)
        for (g, _f), v in a.terms.items():
            if g == e:
                total = total + v
        return total

    def antipode_basis(self, key):
        g, f = key
        G, ctx = self.G, self.ctx
        ginv = G.inv(g)
        gf = ctx.act_right(g, f)
        gf_inv = self.F.inv(gf)
        coeff = (self.sigma_at(ginv, gf, gf_inv) * self.tau_at(ginv, g, f)).inv()
        return (G.inv(ctx.act_left(g, f)), gf_inv), coeff

    def antipode(self, a: HElem) -> HElem:
        out: dict = {}
        for key, v in a.terms.items():
            k2, c = self.antipode_basis(key)
            w = v * c
            if k2 in out:
                s = out[k2] + w
                if s.is_zero():
                    del out[k2]
                else:
                    out[k2] = s
            else:
                out[k2] = w
        res = HElem.__new__(HElem)
        res.terms = out
        return res

    def require_unitary(self, radius: int = 4) -> None:
        if self._unitary is None:
            ok, witness = is_unitary(self.sigma, self.tau, self.ctx, radius)
            self._unitary = ok
            self._unitary_witness = witness
        if not self._unitary:
            raise VerificationFailure(
                "star structure needs modulus-one cocycles", self._unitary_witness
            )

    def star_basis(self, key):
        g, f = key
        finv = self.F.inv(f)
        coeff = self.sigma_at(g, f, finv).conj()
        return (self.ctx.act_left(g, f), finv), coeff

    def star(self, a: HElem) -> HElem:
        """Conjugate-linear involution; requires unitary cocycle data."""
        self.require_unitary()
        out: dict = {}
        for key, v in a.terms.items():
            k2, c = self.star_basis(key)
            w = v.conj() * c
            if k2 in out:
                s = out[k2] + w
                if s.is_zero():
                    del out[k2]
                else:
                    out[k2] = s
            else:
                out[k2] = w
        res = HElem.__new__(HElem)
        res.terms = out
        return res

    def integral(self, a: HElem) -> CycNum:
        """The normalized left integral: <T, p_g # f> = delta(f, 1)/|G|."""
        f1 = self.F.identity
        total = rational(0)
        for (_g, f), v in a.terms.items():
            if f == f1:
                total = total + v
        return total * rational(self._inv_g_order)

    def haar_gram(self, x: HElem, y: HElem) -> CycNum:
        """<x, y>_r = <T, y* x>; positive definite in the unitary case."""
        return self.integral(self.mul(self.star(y), x))

    def haar_positivity(self, x: HElem, precision: int = 30) -> dict:
        """Self-pairing <x, x>_r with a positivity certificate.

        The value always equals sum_b a_b conj(a_b)/|G| over the support.
        With rational coefficients that is a positive rational and the
        verdict is exact; otherwise the exact value is reported together
        with a numeric-embedding diagnostic, never an exact claim.
        """
        value = self.haar_gram(x, x)
        if x.is_zero():
            return {"value": value.literal(), "certified": True, "positive": False}
        if all(v.is_rational() for v in x.terms.values()):
            frac = value.as_fraction()
            return {"value": str(frac), "certified": True, "positive": frac > 0}
        approx = value.approx(precision)
        return {
            "value": value.literal(),
            "certified": False,
            "positive": approx.real > 0 and abs(approx.imag) < 10.0 ** (5 - precision),
            "numeric": [approx.real, approx.imag],
        }

    # -- tensor helpers (verification) --------------------------------------

    def tensor_mul(self, s: HTensor, t: HTensor) -> HTensor:
        """(a (x) b)(c (x) d) = ac (x) bd, componentwise on terms."""
        out: dict = {}
        for (k1, k2), v in s.terms.items():
            for (l1, l2), w in t.terms.items():
                p1 = self.basis_mul(k1, l1)
                if p1 is None:
                    continue
                p2 = self.basis_mul(k2, l2)
                if p2 is None:
                    continue
                key = (p1[0], p2[0])
                c = v * w * p1[1] * p2[1]
                if key in out:
                    s2 = out[key] + c
                    if s2.is_zero():
                        del out[key]
                    else:
                        out[key] = s2
                elif not c.is_zero():
                    out[key] = c
        res = HTensor.__new__(HTensor)
        res.terms = out
        return res

    def comul_left(self, t: HTensor) -> dict:
        """(Delta (x) id) applied to a tensor; keyed by triples."""
        out: dict = {}
        for (k1, k2), v in t.terms.items():
            for (m1, m2), c in self.comul_basis(k1):
                key = (m1, m2, k2)
                w = v * c
                out[key] = out[key] + w if key in out else w
        return {k: v for k, v in out.items() if not v.is_zero()}

    def comul_right(self, t: HTensor) -> dict:
        """(id (x) Delta) applied to a tensor; keyed by triples."""
        out: dict = {}
        for (k1, k2), v in t.terms.items():
            for (m1, m2), c in self.comul_basis(k2):
                key = (k1, m1, m2)
                w = v * c
                out[key] = out[key] + w if key in out else w
        return {k: v for k, v in out.items() if not v.is_zero()}


def pair_check_radius(H: BicrossedHopf, radius: int, budget: int = 90) -> int:
    """Largest radius <= radius whose basis-element count stays within the
    budget for pairwise/triple sweeps; at least 1.  Finite F always uses
    the full element list."""
    if H.F.is_finite:
        return radius
    r = radius
    while r > 1 and len(f_ball(H.F, r)) * H.G.order > budget:
        r -= 1
    return r


def verify_hopf(
    H: BicrossedHopf,
    radius: int = 3,
    pair_budget: int = 90,
    max_violations: int = 10,
) -> VerifyReport:
    """Axiom sweep over basis elements with f-parts in the ball.

    Per-element laws (unit laws, counit, coassociativity, antipode law,
    S^2, left integral) run on every basis element at the full radius.
    Binary and ternary laws (associativity, multiplicativity of Delta and
    of the counit, antimultiplicativity of S) enumerate tuples from a
    possibly smaller ball chosen by pair_check_radius; each check reports
    its scope.  Combined with the global cocycle-law checks these cover
    the polyadic axioms: on basis elements associativity at a triple is
    equivalent to the right-action law plus the sigma law there.
    """
    G, F = H.G, H.F
    ball = f_ball(F, radius)
    keys = [(g, f) for f in ball for g in G.elements()]
    r_pair = pair_check_radius(H, radius, pair_budget)
    pair_ball = f_ball(F, r_pair)
    pair_keys = [(g, f) for f in pair_ball for g in G.elements()]
    scope_elem = "all elements" if F.is_finite else f"ball radius {radius}"
    scope_pair = "all elements" if F.is_finite else f"ball radius {r_pair}"
    lab = F.label

    def name_key(k):
        return {"g": k[0], "f": lab(k[1])}

    checks: list[CheckResult] = []
    unit = H.unit()

    # unit laws
    viols = []
    nviol = 0
    for k in keys:
        b = HElem.basis(*k)
        if H.mul(unit, b) != b or H.mul(b, unit) != b:
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("unit laws", scope_elem, len(keys), viols, nviol))

    # associativity on basis triples
    viols = []
    nviol = 0
    count = 0
    for k1 in pair_keys:
        for k2 in pair_keys:
            p12 = H.basis_mul(k1, k2)
            for k3 in pair_keys:
                count += 1
                left = None
                if p12 is not None:
                    q = H.basis_mul(p12[0], k3)
                    if q is not None:
                        left = (q[0], p12[1] * q[1])
                p23 = H.basis_mul(k2, k3)
                right = None
                if p23 is not None:
                    q = H.basis_mul(k1, p23[0])
                    if q is not None:
                        right = (q[0], q[1] * p23[1])
                same = (
                    left is None
                    and right is None
                    or left is not None
                    and right is not None
                    and left[0] == right[0]
                    and left[1] == right[1]
                )
                if not same:
                    nviol += 1
                    if len(viols) < max_violations:
                        viols.append({"a": name_key(k1), "b": name_key(k2), "c": name_key(k3)})
    checks.append(CheckResult("associativity", scope_pair, count, viols, nviol))

    # counit laws: (eps (x) id) Delta = id = (id (x) eps) Delta
    viols = []
    nviol = 0
    e = G.identity
    for k in keys:
        left = HElem.zero()
        right = HElem.zero()
        for (k1, k2), c in H.comul_basis(k):
            if k1[0] == e:
                left = left + HElem.basis(*k2, coeff=c)
            if k2[0] == e:
                right = right + HElem.basis(*k1, coeff=c)
        b = HElem.basis(*k)
        if left != b or right != b:
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("counit laws", scope_elem, len(keys), viols, nviol))

    # coassociativity
    viols = []
    nviol = 0
    for k in keys:
        t = H.comul(HElem.basis(*k))
        lhs = H.comul_left(t)
        rhs = H.comul_right(t)
        if set(lhs) != set(rhs) or any(lhs[x] != rhs[x] for x in lhs):
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("coassociativity", scope_elem, len(keys), viols, nviol))

    # Delta and eps are algebra maps
    viols = []
    nviol = 0
    count = 0
    if H.comul(unit) != HTensor.of(unit, unit):
        nviol += 1
        viols.append({"pair": "unit"})
    for k1 in pair_keys:
        a = HElem.basis(*k1)
        da = H.comul(a)
        ea = H.counit(a)
        for k2 in pair_keys:
            count += 1
            b = HElem.basis(*k2)
            ab = H.mul(a, b)
            if H.comul(ab) != H.tensor_mul(da, H.comul(b)):
                nviol += 1
                if len(viols) < max_violations:
                    viols.append({"law": "Delta", "a": name_key(k1), "b": name_key(k2)})
            if H.counit(ab) != ea * H.counit(b):
                nviol += 1
                if len(viols) < max_violations:
                    viols.append({"law": "eps", "a": name_key(k1), "b": name_key(k2)})
    checks.append(CheckResult("bialgebra compatibility", scope_pair, count, viols, nviol))

    # antipode law: m(S (x) id)Delta = m(id (x) S)Delta = eps * unit
    viols = []
    nviol = 0
    for k in keys:
        b = HElem.basis(*k)
        target = unit.scale(H.counit(b))
        left = HElem.zero()
        right = HElem.zero()
        for (k1, k2), c in H.comul_basis(k):
            left = left + H.mul(H.antipode(HElem.basis(*k1)), HElem.basis(*k2)).scale(c)
            right = right + H.mul(HElem.basis(*k1), H.antipode(HElem.basis(*k2))).scale(c)
        if left != target or right != target:
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("antipode law", scope_elem, len(keys), viols, nviol))

    # S is antimultiplicative on basis pairs
    viols = []
    nviol = 0
    count = 0
    for k1 in pair_keys:
        a = HElem.basis(*k1)
        sa = H.antipode(a)
        for k2 in pair_keys:
            count += 1
            b = HElem.basis(*k2)
            if H.antipode(H.mul(a, b)) != H.mul(H.antipode(b), sa):
                nviol += 1
                if len(viols) < max_violations:
                    viols.append({"a": name_key(k1), "b": name_key(k2)})
    checks.append(CheckResult("antipode antimultiplicative", scope_pair, count, viols, nviol))

    # S is a coalgebra antihomomorphism: Delta(S(b)) = (S (x) S) flip Delta(b)
    viols = []
    nviol = 0
    for k in keys:
        b = HElem.basis(*k)
        lhs = H.comul(H.antipode(b))
        rhs_terms: dict = {}
        for (k1, k2), c in H.comul_basis(k):
            s2, c2 = H.antipode_basis(k2)
            s1, c1 = H.antipode_basis(k1)
            key = (s2, s1)
            w = c * c1 * c2
            rhs_terms[key] = rhs_terms[key] + w if key in rhs_terms else w
        if lhs != HTensor(rhs_terms):
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(
        CheckResult("antipode coalgebra antihomomorphism", scope_elem, len(keys), viols, nviol)
    )

    # S^2 = id
    viols = []
    nviol = 0
    for k in keys:
        b = HElem.basis(*k)
        if H.antipode(H.antipode(b)) != b:
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("S^2 = id", scope_elem, len(keys), viols, nviol))

    # left integral law: h1 <T, h2> = <T, h> unit
    viols = []
    nviol = 0
    for k in keys:
        b = HElem.basis(*k)
        lhs = HElem.zero()
        for (k1, k2), c in H.comul_basis(k):
            tval = H.integral(HElem.basis(*k2))
            if not tval.is_zero():
                lhs = lhs + HElem.basis(*k1, coeff=c * tval)
        if lhs != unit.scale(H.integral(b)):
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("left integral law", scope_elem, len(keys), viols, nviol))

    viols = []
    if not H.integral(unit).is_one():
        viols.append({"value": H.integral(unit).literal()})
    checks.append(CheckResult("<T, unit> = 1", "single", 1, viols))

    return VerifyReport("hopf axioms", checks)


def verify_star(
    H: BicrossedHopf,
    radius: int = 3,
    pair_budget: int = 90,
    max_violations: int = 10,
) -> VerifyReport:
    """Star-structure sweep: involution, conjugate linearity against the
    coproduct, antimultiplicativity, and the Haar form on basis elements.

    Callers should run is_unitary first; this raises on non-unitary data.
    """
    H.require_unitary(radius)
    G, F = H.G, H.F
    ball = f_ball(F, radius)
    keys = [(g, f) for f in ball for g in G.elements()]
    r_pair = pair_check_radius(H, radius, pair_budget)
    pair_keys = [(g, f) for f in f_ball(F, r_pair) for g in G.elements()]
    scope_elem = "all elements" if F.is_finite else f"ball radius {radius}"
    scope_pair = "all elements" if F.is_finite else f"ball radius {r_pair}"
    lab = F.label

    def name_key(k):
        return {"g": k[0], "f": lab(k[1])}

    checks: list[CheckResult] = []
    unit = H.unit()

    viols = []
    if H.star(unit) != unit:
        viols.append({"element": "unit"})
    checks.append(CheckResult("star fixes the unit", "single", 1, viols))

    viols = []
    nviol = 0
    for k in keys:
        b = HElem.basis(*k)
        if H.star(H.star(b)) != b:
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("star involution", scope_elem, len(keys), viols, nviol))

    viols = []
    nviol = 0
    for k in keys:
        b = HElem.basis(*k)
        lhs = H.comul(H.star(b))
        rhs = HTensor(
            {
                (H.star_basis(k1)[0], H.star_basis(k2)[0]): (
                    v.conj() * H.star_basis(k1)[1] * H.star_basis(k2)[1]
                )
                for (k1, k2), v in H.comul(b).terms.items()
            }
        )
        if lhs != rhs:
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("Delta is a star map", scope_elem, len(keys), viols, nviol))

    viols = []
    nviol = 0
    count = 0
    for k1 in pair_keys:
        a = HElem.basis(*k1)
        sa = H.star(a)
        for k2 in pair_keys:
            count += 1
            b = HElem.basis(*k2)
            if H.star(H.mul(a, b)) != H.mul(H.star(b), sa):
                nviol += 1
                if len(viols) < max_violations:
                    viols.append({"a": name_key(k1), "b": name_key(k2)})
    checks.append(CheckResult("star antimultiplicative", scope_pair, count, viols, nviol))

    # Haar form: <b, b>_r = 1/|G| on basis elements, 0 across distinct ones
    viols = []
    nviol = 0
    expected = rational(Fraction(1, G.order))
    for k in keys:
        b = HElem.basis(*k)
        if H.haar_gram(b, b) != expected:
            nviol += 1
            if len(viols) < max_violations:
                viols.append(name_key(k))
    checks.append(CheckResult("haar_gram(b,b) = 1/|G|", scope_elem, len(keys), viols, nviol))

    viols = []
    nviol = 0
    count = 0
    for k1 in pair_keys:
        b1 = HElem.basis(*k1)
        for k2 in pair_keys:
            if k1 == k2:
                continue
            count += 1
            if not H.haar_gram(b1, HElem.basis(*k2)).is_zero():
                nviol += 1
                if len(viols) < max_violations:
                    viols.append({"a": name_key(k1), "b": name_key(k2)})
    checks.append(CheckResult("haar_gram off-diagonal = 0", scope_pair, count, viols, nviol))

    return VerifyReport("star structure", checks)
