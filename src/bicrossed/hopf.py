"""The bicrossed-product Hopf algebra H = k^G # kF and its structure maps.

Elements are finitely supported linear combinations of basis tensors
p_g # f, keyed by (g index, F element).  Every structure map is
support-local: a product of two basis elements has at most one term and a
coproduct has |G| terms, so infinite F needs no truncation anywhere
except in verification sweeps, which are ball-bounded and say so.
"""

from __future__ import annotations

import functools

from .cyclotomic import CycNum, one, rational
from .errors import VerificationFailure
from .groups import f_ball
from .matched_pair import _LAWS, CheckResult, MatchedPairCtx, VerifyReport, run_check
from .cocycles import SigmaCocycle, TauCocycle, is_unitary

_ONE = one()


def _add_term(out: dict, key, c: CycNum) -> None:
    """Add c to the coefficient at key, dropping the key when it sums to zero.

    The structure maps call it from plain loops: feeding _accumulate a
    generator costs them about 1 us more per call on one-term inputs."""
    if key in out:
        s = out[key] + c
        if s.is_zero():
            del out[key]
        else:
            out[key] = s
    elif not c.is_zero():
        out[key] = c


def _accumulate(pairs, start=()) -> dict:
    """Sum (key, coefficient) pairs onto a copy of start."""
    out = dict(start)
    for key, c in pairs:
        _add_term(out, key, c)
    return out


class _Sparse:
    """Finitely supported map from keys to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for k, v in (terms or {}).items():
            if not isinstance(v, CycNum):
                v = rational(v)
            if not v.is_zero():
                clean[k] = v
        self.terms = clean

    @classmethod
    def _of(cls, terms: dict):
        res = cls.__new__(cls)
        res.terms = terms
        return res

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self._of(_accumulate(other.terms.items(), self.terms))

    def __neg__(self):
        return self._of({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None


class HElem(_Sparse):
    """Finitely supported map from basis keys (g, f) to coefficients."""

    __slots__ = ()

    @staticmethod
    def basis(g: int, f, coeff=1) -> "HElem":
        return HElem({(g, f): coeff if isinstance(coeff, CycNum) else rational(coeff)})

    @staticmethod
    def zero() -> "HElem":
        return HElem()

    def __bool__(self):
        return bool(self.terms)

    def scale(self, c) -> "HElem":
        if not isinstance(c, CycNum):
            c = rational(c)
        if c.is_zero():
            return HElem.zero()
        return HElem._of({k: v * c for k, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "HElem(0)"
        parts = [f"({v.literal()})*p[{g}]#{f}" for (g, f), v in self.terms.items()]
        return "HElem(" + " + ".join(sorted(parts)) + ")"


class HTensor(_Sparse):
    """Finitely supported element of H (x) H keyed by pairs of basis keys."""

    __slots__ = ()

    def __repr__(self):
        return f"HTensor({len(self.terms)} terms)"

    @staticmethod
    def of(a: HElem, b: HElem) -> "HTensor":
        b_terms = b.terms.items()
        return HTensor({(k1, k2): v1 * v2 for k1, v1 in a.terms.items() for k2, v2 in b_terms})


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
        self._unitary: tuple | None = None  # (verdict, witness) of is_unitary
        self._inv_g_order = rational(self.G.order).inv()

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
        return (g, self.F.mul(f, f2)), self.sigma.eval(g, f, f2)

    @property
    def is_commutative(self) -> bool:
        """p_g#f . p_g2#f2 = delta(g < f, g2) sigma(g; f, f2) p_g#ff2 is
        symmetric in its factors when the left action is trivial, F is
        abelian and sigma is trivial.  Structural, not a sweep; callers
        read it once (a table action walks its table on every read)."""
        F = self.F
        abelian = not F.is_finite or F.group.is_abelian()
        return self.sigma.is_trivial and abelian and self.ctx.left_action_trivial

    def mul(self, a: HElem, b: HElem) -> HElem:
        # p_g#f . p_g2#f2 is 0 unless g2 = g < f: group b's terms by g-part.
        by_g: dict = {}
        for (g2, f2), vb in b.terms.items():
            by_g.setdefault(g2, []).append((f2, vb))
        out: dict = {}
        act_left, fmul = self.ctx.act_left, self.F.mul
        sigma = None if self.sigma.is_trivial else self.sigma.eval  # trivial: no factor
        for (g, f), va in a.terms.items():
            for f2, vb in by_g.get(act_left(g, f), ()):
                c = va * vb
                _add_term(out, (g, fmul(f, f2)), c if sigma is None else c * sigma(g, f, f2))
        return HElem._of(out)

    def comul_basis(self, key):
        """Coproduct terms of a basis element: list of ((k1, k2), coeff)."""
        g, f = key
        G, act_right, tau = self.G, self.ctx.act_right, self.tau.eval
        gxs = ((G.mul(g, G.inv(x)), x) for x in G.elements())
        return [(((gx, act_right(x, f)), (x, f)), tau(gx, x, f)) for gx, x in gxs]

    def comul(self, a: HElem) -> HTensor:
        out: dict = {}
        for key, v in a.terms.items():
            for pair, c in self.comul_basis(key):
                _add_term(out, pair, v * c)
        return HTensor._of(out)

    def counit(self, a: HElem) -> CycNum:
        e = self.G.identity
        return sum((v for (g, _f), v in a.terms.items() if g == e), rational(0))

    def antipode_basis(self, key):
        g, f = key
        G, ctx = self.G, self.ctx
        ginv, gf = G.inv(g), ctx.act_right(g, f)
        gf_inv = self.F.inv(gf)
        coeff = (self.sigma.eval(ginv, gf, gf_inv) * self.tau.eval(ginv, g, f)).inv()
        return (G.inv(ctx.act_left(g, f)), gf_inv), coeff

    def antipode(self, a: HElem) -> HElem:
        out: dict = {}
        for key, v in a.terms.items():
            k2, c = self.antipode_basis(key)
            _add_term(out, k2, v * c)
        return HElem._of(out)

    def unitary(self, radius: int = 4) -> tuple[bool, dict | None]:
        """is_unitary's verdict and witness, walked once per H at the
        radius of the first call; later calls read it."""
        if self._unitary is None:
            self._unitary = is_unitary(self.sigma, self.tau, self.ctx, radius)
        return self._unitary

    def require_unitary(self, radius: int = 4) -> None:
        ok, witness = self.unitary(radius)
        if not ok:
            raise VerificationFailure("star structure needs modulus-one cocycles", witness)

    def star_basis(self, key):
        g, f = key
        finv = self.F.inv(f)
        coeff = self.sigma.eval(g, f, finv).conj()
        return (self.ctx.act_left(g, f), finv), coeff

    def star(self, a: HElem) -> HElem:
        """Conjugate-linear involution; requires unitary cocycle data."""
        self.require_unitary()
        out: dict = {}
        for key, v in a.terms.items():
            k2, c = self.star_basis(key)
            _add_term(out, k2, v.conj() * c)
        return HElem._of(out)

    def integral(self, a: HElem) -> CycNum:
        """The normalized left integral: <T, p_g # f> = delta(f, 1)/|G|."""
        f1 = self.F.identity
        total = sum((v for (_g, f), v in a.terms.items() if f == f1), rational(0))
        return total * self._inv_g_order

    def haar_partner(self, key):
        """The one basis key k2 whose product with key = p_g # f lands on an
        f-part 1: k2 = (g < f, f^-1).  By the left action law the partner
        of k2 is key again."""
        g, f = key
        return self.ctx.act_left(g, f), self.F.inv(f)

    def haar_weight(self, key):
        """<T, key . haar_partner(key)> = sigma(g; f, f^-1)/|G|.  Callers
        look the partner up first and ask for the weight only on a hit."""
        g, f = key
        return self.sigma.eval(g, f, self.F.inv(f)) * self._inv_g_order

    def integral_of_product(self, x: HElem, y: HElem) -> CycNum:
        """<T, xy> without forming xy: one pass over the terms of x, each
        read against its Haar partner in y."""
        y_terms = y.terms
        total = rational(0)
        for key, v in x.terms.items():
            w = y_terms.get(self.haar_partner(key))
            if w is not None:
                total = total + v * w * self.haar_weight(key)
        return total

    def haar_gram(self, x: HElem, y: HElem) -> CycNum:
        """<x, y>_r = <T, y* x>; positive definite in the unitary case."""
        return self.integral_of_product(self.star(y), x)


def _weigh(a, b):
    """The product of two weights; None, the weight of a trivial cocycle, is 1."""
    return b if a is None else a if b is None else a * b


def _scaled(v, terms: dict) -> dict:
    """The terms {key: weight} of one basis element, times the weight v."""
    return terms if v is None else {key: _weigh(v, c) for key, c in terms.items()}


def _number(w) -> CycNum:
    """A weight as a CycNum, for sums and comparisons with constants (None != 1)."""
    return _ONE if w is None else w


def _linear(w):  # the antipode's scalar rule: S(v p_k) = v S(p_k)
    return w


def _conj(w):  # the star's scalar rule: (v p_k)* = conj(v) p_k*
    return None if w is None else w.conj()


def comul_by_x(act_left, terms: dict) -> dict:
    """The terms ((k1, k2), c) of Delta(p_k) keyed by the g-part x of k2 = p_x#f
    (comul_basis has one per x): x -> (k1, k2, c, k1's g < f, k2's g < f)."""
    return {k2[0]: (k1, k2, c, act_left(*k1), act_left(*k2)) for (k1, k2), c in terms.items()}


def comul_product(product, da_by_x: dict, db_by_x: dict) -> dict:
    """The terms of Delta(a) Delta(b) for basis elements a and b, from their
    comul_by_x; product is basis_mul, asked only for nonzero products.  The
    x-term k1 (x) p_x#f of Delta(a) meets only the term of Delta(b) at x < f,
    and only if its left leg has g-part k1's g < f: at most |G| terms, with
    distinct right legs p_x#ff2, none of them zero, weighted by _weigh."""
    out = {}
    for k1, k2, c, h, y in da_by_x.values():
        t = db_by_x.get(y)
        if t is not None and t[0][0] == h:
            l1, l2, d, _h, _y = t
            (p1, w1), (p2, w2) = product(k1, l1), product(k2, l2)
            out[p1, p2] = _weigh(_weigh(c, d), _weigh(w1, w2))
    return out


# The premise laws a Hopf or star law is derived from, as named in the
# matched-pair and cocycle reports.
_RIGHT, _LEFT, _COMPAT_F, _COMPAT_G, _INVERSES = _LAWS
_SIGMA, _TAU, _SIGMA_TAU = "sigma cocycle law", "tau cocycle law", "sigma/tau compatibility"
_UNITARY = "unitarity"
_EVERY_LAW = (*_LAWS, _SIGMA, _TAU, _SIGMA_TAU)


def _certified(premises, H: BicrossedHopf) -> bool:
    """True when premises are the matched-pair and the cocycle report of H
    (by their subjects), both passing, every check with a global scope,
    and both cocycles are normalized.  The global scopes are "global" for
    finite F and for cocycles read on quotient representatives or
    trivial, and "global (spot ball)" for a linear action whose
    homomorphism check passed.  A "ball radius r" scope certifies the
    laws on a ball only, so it certifies nothing here."""
    if premises is None or len(premises) != 2:
        return False
    subjects = {r.title: r.subject for r in premises}
    if subjects != {"matched pair": H.ctx, "cocycles": (H.ctx, H.sigma, H.tau)}:
        return False
    if not all(r.ok and all(c.scope.startswith("global") for c in r.checks) for r in premises):
        return False
    return H.sigma.is_normalized(H.ctx) and H.tau.is_normalized(H.ctx)


PAIR_BUDGET = 90


def pair_check_radius(H: BicrossedHopf, radius: int) -> int:
    """Largest radius <= radius whose basis-element count stays within
    PAIR_BUDGET for pairwise/triple sweeps; at least 1.  Finite F always
    uses the full element list."""
    if H.F.is_finite:
        return radius
    r = radius
    while r > 1 and len(f_ball(H.F, r)) * H.G.order > PAIR_BUDGET:
        r -= 1
    return r


class _Sweep:
    """The basis keys a verifier sweeps, its structure maps and its checks.

    keys cover the ball of the full radius, pair_keys the possibly smaller
    ball chosen by pair_check_radius for binary and ternary laws.  The
    structure maps are memos for this call, each a key map, read off the
    matched pair, times a weight, read off the cocycles: product(k1, k2) is
    None or (key, weight sigma), coproduct(k) is {(k1, k2): weight tau},
    antipode(k) is (key, weight of sigma and tau) and star(k) is (key,
    weight sigma).  A weight is None where its cocycles are trivial.

    When the premises are certified (_certified), a law given the
    premise laws it derives from is reported with its scope and instance
    count and no walk; otherwise every law is walked."""

    def __init__(self, H: BicrossedHopf, radius: int, max_violations: int, premises=None):
        self.H = H
        self.certified = _certified(premises, H)
        G, F = H.G, H.F
        self.keys = [(g, f) for f in f_ball(F, radius) for g in G.elements()]
        r_pair = pair_check_radius(H, radius)
        self.pair_keys = [(g, f) for f in f_ball(F, r_pair) for g in G.elements()]
        self.scope_elem = "all elements" if F.is_finite else f"ball radius {radius}"
        self.scope_pair = "all elements" if F.is_finite else f"ball radius {r_pair}"
        self.label = F.label
        self.max_violations = max_violations
        self.checks: list[CheckResult] = []
        self._with_g: dict = {}
        sigma, tau = H.sigma.is_trivial, H.tau.is_trivial

        def keyed(term_map):  # the term (key, coefficient) or None, weight dropped
            return lambda *keys: (t := term_map(*keys)) and (t[0], None)

        self.product = functools.cache(keyed(H.basis_mul) if sigma else H.basis_mul)
        self.coproduct = functools.cache(lambda k: {p: None if tau else c for p, c in H.comul_basis(k)})
        self.antipode = functools.cache(keyed(H.antipode_basis) if sigma and tau else H.antipode_basis)
        self.star = functools.cache(keyed(H.star_basis) if sigma else H.star_basis)

    def name_key(self, k):
        return {"g": k[0], "f": self.label(k[1])}

    def keys_with_g(self, gs) -> list:
        """The pair_keys whose g-part lies in gs, in pair_keys order."""
        gs = frozenset(gs)
        if gs not in self._with_g:
            self._with_g[gs] = [k for k in self.pair_keys if k[0] in gs]
        return self._with_g[gs]

    def run(self, name, scope, instances, witnesses, by=()):
        """Report a law: implied by the premise laws `by` when the premises
        are certified and `by` names some, else walked.  witnesses is
        lazy, so an implied law evaluates no instance."""
        basis = "walked"
        if self.certified and by:
            witnesses, basis = (), "implied by: " + ", ".join(by)
        self.checks.append(run_check(name, scope, instances, witnesses, self.max_violations, basis))

    def per_element(self, name, holds, by=()):
        """A law on single basis elements, holds(key) -> bool."""
        witnesses = (self.name_key(k) for k in self.keys if not holds(k))
        self.run(name, self.scope_elem, len(self.keys), witnesses, by)

    def per_pair(self, name, law, by=()):
        """A law on pairs of basis elements; law() yields the witnesses."""
        self.run(name, self.scope_pair, len(self.pair_keys) ** 2, law(), by)

    def involution(self, name, m, scalar, by=()):
        """m(m(p_k)) = p_k for m the antipode or star memo and scalar its rule,
        m(v p_k) = scalar(v) m(p_k): one term, scalar(c) d p_t, against p_k."""

        def holds(k):
            s, c = m(k)
            t, d = m(s)
            return t == k and _number(_weigh(scalar(c), d)) == _ONE

        self.per_element(name, holds, by)

    def comultiplicative(self, name, m, scalar, flip, by=()):
        """Delta(m(p_k)) = (m (x) m) Delta(p_k), its legs flipped first if flip.
        Delta(p_s) has |G| distinct keys and nonzero values, so the right side
        matches it only if its |G| keys are distinct too: no sums needed."""

        def holds(k):
            s, c0 = m(k)
            rhs = {}
            for (k1, k2), w in self.coproduct(k).items():
                (s1, c1), (s2, c2) = m(k1), m(k2)
                rhs[(s2, s1) if flip else (s1, s2)] = _weigh(_weigh(scalar(w), c1), c2)
            return _scaled(c0, self.coproduct(s)) == rhs

        self.per_element(name, holds, by)

    def antimultiplicative(self, name, m, scalar, by=()):
        """m(ab) = m(b) m(a) on pairs of basis elements, each side 0 or one
        term.  It walks only the b with g-part g < f for a = p_g#f (ab) or
        whose image key acts on the left to the g-part of a's (m(b) m(a))."""
        product, act_left = self.product, self.H.ctx.act_left

        def law():
            images = {k: m(k) for k in self.pair_keys}
            position = {k: i for i, k in enumerate(self.pair_keys)}
            by_image: dict = {}
            for k, (s, _c) in images.items():
                by_image.setdefault(act_left(*s), []).append(k)
            for k1, (s1, c1) in images.items():
                walk = set(self.keys_with_g({act_left(*k1)}))
                walk.update(by_image.get(s1[0], ()))
                for k2 in sorted(walk, key=position.__getitem__):
                    lhs = rhs = None
                    p = product(k1, k2)
                    if p is not None:
                        s, c = m(p[0])
                        lhs = (s, _weigh(scalar(p[1]), c))
                    s2, c2 = images[k2]
                    q = product(s2, s1)
                    if q is not None:
                        rhs = (q[0], _weigh(_weigh(c2, c1), q[1]))
                    if lhs != rhs:
                        yield {"a": self.name_key(k1), "b": self.name_key(k2)}

        self.per_pair(name, law, by)


def verify_hopf(
    H: BicrossedHopf,
    radius: int = 3,
    max_violations: int = 10,
    premises=None,
) -> VerifyReport:
    """Axiom sweep over basis elements with f-parts in the ball.

    premises, when given, is the pair of reports of verify_matched_pair on
    H.ctx and verify_cocycles on H.ctx, H.sigma, H.tau.  If both pass with
    a global scope and the cocycles are normalized (_certified), each law
    below is implied by the premise laws named with it and reported with
    its scope and instance count and no walk: H is then a Hopf algebra
    (Takeuchi 1981, Masuoka 2002).  A failing or ball-scoped premise, the
    reports of another H, or none, walks every law, so the walk's
    witnesses are unchanged.  The derivations, on p_g#f with
    p_g#f . p_g2#f2 = delta(g < f, g2) sigma(g; f, f2) p_g#ff2 and
    Delta(p_g#f) = sum_x tau(g x^-1, x; f) p_{g x^-1}#(x > f) (x) p_x#f.  The
    normalizations sigma(g; 1, f) = sigma(g; f, 1) = sigma(1; f, f2) = 1 and
    tau(1, g; f) = tau(g, 1; f) = tau(g, g2; 1) = 1 are a premise too: every
    config enforces them, and a spec that fails them walks (sigma = c,
    tau = 1/c pass the cocycle laws but not the unit laws):
    - unit laws: g < 1 = g (left action law) and sigma normalized.
    - associativity: both sides are p_g#ff2f3 exactly when g2 = g < f and
      g3 = (g < f) < f2 = g < ff2 (left action law), with the two sides of
      the sigma cocycle law at (g; f, f2, f3) as coefficients.
    - counit laws: eps picks x = g with e > f = f (right action law), or
      x = e; tau normalized.
    - coassociativity: with z = y x the two sides have the keys
      p_{g x^-1 y^-1}#(y x > f) (x) p_y#(x > f) (x) p_x#f (right action law)
      and the two sides of the tau cocycle law at (g x^-1 y^-1, y, x; f).
    - bialgebra compatibility: in Delta(a) Delta(b) the right legs meet
      only at y = x < f, the left legs give g x^-1 < (x > f) = (g < f) y^-1
      (left compatibility) and (x > f)(y > f2) = x > f f2 (right
      compatibility); the coefficients are the two sides of sigma/tau
      compatibility at (g x^-1, x; f, f2).  Delta(1) = 1 (x) 1 as g > 1 = 1
      (inverse identities); eps(ab) = eps(a) eps(b) as e < f = e.
    - antipode law: S(p_{g x^-1}#(x > f)) p_x#f is nonzero only at g = e
      (inverse identities, left action law), and there its coefficient is
      tau(x^-1, x; f)/tau(x, x^-1; x > f) = 1 (tau cocycle law at
      (x, x^-1, x; f)) with sigma(x < f; f^-1, f) = sigma(x; f, f^-1)
      (sigma cocycle law at (x; f, f^-1, f)); p_{g x^-1}#(x > f) S(p_x#f)
      needs (g < f) = e by the left compatibility.
    - antipode antimultiplicative, antipode coalgebra antihomomorphism:
      with the laws above H is a bialgebra and S its convolution inverse of
      id, which in any bialgebra is an algebra and coalgebra
      antihomomorphism.
    - S^2 = id: S^2 p_g#f has key (g, f) by the inverse identities and the
      action laws, and coefficient 1 by the sigma cocycle law at
      (g; f, f^-1, f), sigma/tau compatibility at (g^-1, g; f, f^-1) and the
      tau cocycle law at (g < f, (g < f)^-1, g < f; f^-1).
    - left integral law: only f = 1 counts, and Delta(p_g#1) =
      sum_x p_{g x^-1}#1 (x) p_x#1 as x > 1 = 1 (inverse identities).
    "<T, unit> = 1" is one evaluation and always runs.

    Per-element laws (unit laws, counit, coassociativity, antipode law,
    S^2, left integral) run on every basis element at the full radius.
    Binary and ternary laws (associativity, multiplicativity of Delta and
    of the counit, antimultiplicativity of S) cover every tuple from a
    possibly smaller ball chosen by pair_check_radius; each check reports
    its scope.  They are support-indexed: p_g#f . p_g2#f2 is 0 unless
    g2 = g < f, so they walk only the tuples where a side can be nonzero;
    the rest are 0 == 0.  They read the structure maps as keys times weights
    from the memos of _Sweep.  With the global cocycle-law checks these
    cover the polyadic axioms: on basis elements associativity at a triple
    is equivalent to the left action law plus the sigma law there.

    "bialgebra compatibility" checks each pair against Delta and eps, each
    with its own witness, and Delta(1) = 1 (x) 1 once more, so its
    violation_count can reach 2 * instances + 1.
    """
    sweep = _Sweep(H, radius, max_violations, premises)
    pair_keys, name_key = sweep.pair_keys, sweep.name_key
    product, coproduct, antipode = sweep.product, sweep.coproduct, sweep.antipode
    basis = HElem.basis
    unit = H.unit()

    def unit_laws(k):
        b = basis(*k)
        return H.mul(unit, b) == b and H.mul(b, unit) == b

    sweep.per_element("unit laws", unit_laws, (_LEFT,))

    act_left = H.ctx.act_left

    def associativity():
        # k1 k2 = 0 unless k2's g-part is g < f for k1 = p_g#f, and then
        # both sides vanish, since k2 k3 keeps k2's g-part.  Otherwise
        # (k1 k2) k3 is nonzero iff g3 = (k1 k2)'s g < f and k1 (k2 k3) iff
        # g3 = k2's g < f; other k3 give 0 == 0.  If these differ, one side
        # is 0 at each such k3; else both read rows k3 -> k k3 of products.
        row = functools.cache(lambda k: [product(k, k3) for k3 in sweep.keys_with_g({act_left(*k)})])
        for k1 in pair_keys:
            for k2 in sweep.keys_with_g({act_left(*k1)}):
                k12, c12 = product(k1, k2)
                g12, g23 = act_left(*k12), act_left(*k2)
                if g12 != g23:
                    for k3 in sweep.keys_with_g((g12, g23)):
                        yield {"a": name_key(k1), "b": name_key(k2), "c": name_key(k3)}
                    continue
                for k3, (q, w), (k23, c23) in zip(sweep.keys_with_g({g12}), row(k12), row(k2)):
                    r, v = product(k1, k23)
                    if q != r or _weigh(c12, w) != _weigh(v, c23):
                        yield {"a": name_key(k1), "b": name_key(k2), "c": name_key(k3)}

    by = (_LEFT, _SIGMA)
    sweep.run("associativity", sweep.scope_pair, len(pair_keys) ** 3, associativity(), by)

    # counit laws: (eps (x) id) Delta = id = (id (x) eps) Delta, each a sum of
    # the terms of Delta(p_k) whose other leg has g-part e
    e = H.G.identity

    def counit_laws(k):
        terms = coproduct(k).items()
        left = _accumulate((k2, _number(c)) for (k1, k2), c in terms if k1[0] == e)
        right = _accumulate((k1, _number(c)) for (k1, k2), c in terms if k2[0] == e)
        return left == right == {k: _ONE}

    sweep.per_element("counit laws", counit_laws, (_RIGHT,))

    def coassociativity(k):
        # (Delta (x) id) Delta = (id (x) Delta) Delta, keyed by triples.  The terms
        # of a Delta(p_k) have distinct right legs p_x#f and left-leg g-parts g x^-1,
        # so each side has |G|^2 distinct keys and nonzero values: no sums needed.
        t = coproduct(k).items()
        lhs = {(m1, m2, b): c for (a, b), v in t for (m1, m2), c in _scaled(v, coproduct(a)).items()}
        rhs = {(a, m1, m2): c for (a, b), v in t for (m1, m2), c in _scaled(v, coproduct(b)).items()}
        return lhs == rhs

    sweep.per_element("coassociativity", coassociativity, (_RIGHT, _TAU))

    # Delta and eps are algebra maps
    def bialgebra():
        if H.comul(unit) != HTensor.of(unit, unit):
            yield {"pair": "unit"}
        gmul = H.G.mul
        by_x = {k: comul_by_x(act_left, coproduct(k)) for k in pair_keys}
        zero = rational(0)
        for k1, da in by_x.items():
            # b must have g-part g < f (ab), or (m1's g < f)(m2's g < f) for
            # a term m1 (x) m2 of Delta(a) (Delta(a) Delta(b)), or e with
            # g = e (eps(a) eps(b)); for every other b each side is 0.
            g_ab = act_left(*k1)
            gs = {g_ab, *(gmul(h, y) for *_, h, y in da.values())}
            if k1[0] == e:
                gs.add(e)
            for k2 in sweep.keys_with_g(gs):
                # ab is 0 or one term v p_k, so Delta(ab) is v Delta(p_k), and
                # eps(ab) is v when a's g-part is e; else eps(ab) = eps(a) = 0
                p = product(k1, k2) if k2[0] == g_ab else None
                lhs = comul_product(product, da, by_x[k2])
                if lhs != (_scaled(p[1], coproduct(p[0])) if p else {}):
                    yield {"law": "Delta", "a": name_key(k1), "b": name_key(k2)}
                if k1[0] == e and (_number(p[1]) if p else zero) != (_ONE if k2[0] == e else zero):
                    yield {"law": "eps", "a": name_key(k1), "b": name_key(k2)}

    by = (_RIGHT, _COMPAT_F, _COMPAT_G, _INVERSES, _SIGMA_TAU)
    sweep.per_pair("bialgebra compatibility", bialgebra, by)

    # antipode law: m(S (x) id)Delta = m(id (x) S)Delta = eps * unit, summed
    # term by term: S(p_k1) p_k2 and p_k1 S(p_k2) are 0 or one basis term
    def antipode_law(k):
        target = unit.scale(H.counit(basis(*k))).terms
        left, right = {}, {}
        for (k1, k2), c in coproduct(k).items():
            (s1, c1), (s2, c2) = antipode(k1), antipode(k2)
            for side, a, b, w in ((left, s1, k2, c1), (right, k1, s2, c2)):
                if act_left(*a) == b[0]:
                    p = product(a, b)
                    _add_term(side, p[0], _number(_weigh(_weigh(c, w), p[1])))
        return left == target and right == target

    by = (_RIGHT, _LEFT, _COMPAT_G, _INVERSES, _SIGMA, _TAU)
    sweep.per_element("antipode law", antipode_law, by)

    sweep.antimultiplicative("antipode antimultiplicative", antipode, _linear, _EVERY_LAW)
    # S is a coalgebra antihomomorphism: Delta(S(b)) = (S (x) S) flip Delta(b)
    name = "antipode coalgebra antihomomorphism"
    sweep.comultiplicative(name, antipode, _linear, flip=True, by=_EVERY_LAW)
    by = (_RIGHT, _LEFT, _INVERSES, _SIGMA, _TAU, _SIGMA_TAU)
    sweep.involution("S^2 = id", antipode, _linear, by)

    # left integral law: h1 <T, h2> = <T, h> unit.  <T, p_g#f> = delta(f, 1)/|G| and
    # Delta(p_g#f) has right legs p_x#f and distinct left legs, so only f = 1 counts.
    f1, inv_order = H.F.identity, H._inv_g_order
    t_terms = unit.scale(inv_order).terms

    def left_integral(k):
        return k[1] != f1 or {k1: _weigh(c, inv_order) for (k1, _k2), c in coproduct(k).items()} == t_terms

    sweep.per_element("left integral law", left_integral, (_INVERSES,))

    t_unit = H.integral(unit)
    witnesses = [] if t_unit.is_one() else [{"value": t_unit.literal()}]
    sweep.run("<T, unit> = 1", "single", 1, witnesses)

    return VerifyReport("hopf axioms", sweep.checks)


def verify_star(
    H: BicrossedHopf,
    radius: int = 3,
    max_violations: int = 10,
    premises=None,
) -> VerifyReport:
    """Star-structure sweep: involution, conjugate linearity against the
    coproduct, antimultiplicativity, and the Haar form on basis elements.
    The first three are antipode laws too, here read off the star memo.

    Callers should run is_unitary first; this raises on non-unitary data.
    Past that gate the cocycle values have modulus one on the cocycle
    domain, all of F when the cocycle scope is global, so conj(sigma) is
    sigma^-1 there.  premises are as for verify_hopf, and when they are
    certified each law below is implied by the laws named with it and is
    not walked; (p_g#f)* = conj(sigma(g; f, f^-1)) p_{g < f}#f^-1:
    - star involution: (p_g#f)** has key (g, f) (left action law) and
      coefficient conj(sigma(g; f, f^-1)) sigma(g < f; f^-1, f) =
      |sigma(g; f, f^-1)|^2 = 1 (sigma cocycle law at (g; f, f^-1, f)).
    - Delta is a star map: the terms of Delta((p_g#f)*) and of
      (* (x) *) Delta(p_g#f) meet at x = y < f, with left legs
      (g < f)(y < f)^-1 = g y^-1 < (y > f) (left compatibility) and
      (y < f) > f^-1 = (y > f)^-1 (inverse identities); the coefficients
      agree by sigma/tau compatibility at (g y^-1, y; f, f^-1).
    - star antimultiplicative: (p_{g < f}#f^-1)(p_g#f) = sigma(g; f, f^-1)
      p_{g < f}#1, so with unitary sigma a* is the inverse of a in the
      groupoid of arrows g -> g < f (associative by the sigma cocycle law),
      and inverses reverse products.
    - haar_gram(b,b) = 1/|G|: <T, b* b> = |sigma(g; f, f^-1)|^2/|G|, as for
      the involution.
    - haar_gram off-diagonal = 0: b2* b1 has f-part f2^-1 f1 and is nonzero
      only if g1 = (g2 < f2) < f2^-1 = g2 (left action law), so its
      integral vanishes unless b1 = b2.
    "star fixes the unit" is one evaluation and always runs.
    """
    H.require_unitary(radius)
    sweep = _Sweep(H, radius, max_violations, premises)
    pair_keys, name_key = sweep.pair_keys, sweep.name_key
    basis = HElem.basis
    unit = H.unit()

    witnesses = [] if H.star(unit) == unit else [{"element": "unit"}]
    sweep.run("star fixes the unit", "single", 1, witnesses)

    groupoid = (_LEFT, _SIGMA, _UNITARY)  # a* is the inverse of a
    sweep.involution("star involution", sweep.star, _conj, groupoid)
    by = (_LEFT, _COMPAT_G, _INVERSES, _SIGMA_TAU, _UNITARY)
    sweep.comultiplicative("Delta is a star map", sweep.star, _conj, flip=False, by=by)
    sweep.antimultiplicative("star antimultiplicative", sweep.star, _conj, groupoid)

    # Haar form: <b, b>_r = 1/|G| on basis elements, 0 off the diagonal
    def haar_diagonal(k):
        b = basis(*k)
        return H.haar_gram(b, b) == H._inv_g_order

    sweep.per_element("haar_gram(b,b) = 1/|G|", haar_diagonal, groupoid)

    def haar_off_diagonal():
        # <b1, b2>_r = <T, b2* b1> reads b1 only at the Haar partner of a
        # key of b2*, as integral_of_product does.
        partners: dict = {}
        for k2 in pair_keys:
            for p in {H.haar_partner(k) for k in H.star(basis(*k2)).terms}:
                partners.setdefault(p, []).append(k2)
        for k1 in pair_keys:
            b1 = basis(*k1)
            for k2 in partners.get(k1, ()):
                if k1 != k2 and not H.haar_gram(b1, basis(*k2)).is_zero():
                    yield {"a": name_key(k1), "b": name_key(k2)}

    n = len(pair_keys)
    name = "haar_gram off-diagonal = 0"
    sweep.run(name, sweep.scope_pair, n * (n - 1), haar_off_diagonal(), (_LEFT,))

    return VerifyReport("star structure", sweep.checks)
