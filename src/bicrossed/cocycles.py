"""Cocycle data (sigma, tau) for the crossed product and coproduct.

sigma takes (g; f, f') to a nonzero scalar, tau takes (g, g'; f).  Three
spec shapes are supported: Trivial, dense tables over a finite F, and
quotient lifts for free-abelian F (values factor through F -> prod Z_mi).
All values are exact cyclotomic numbers.
"""

from __future__ import annotations

from types import MappingProxyType

from .cyclotomic import CycNum, one
from .errors import ConfigError, InternalInconsistencyError
from .groups import f_ball
from .matched_pair import MatchedPairCtx, Orbit, VerifyReport, run_check

_ONE = one()


class _QuotientIndexer:
    """Indexes the finite quotient prod Z_mi of Z^r by mixed radix."""

    def __init__(self, moduli):
        self.moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in self.moduli):
            raise ConfigError("quotient moduli must be >= 1")
        self.size = 1
        for m in self.moduli:
            self.size *= m

    def index(self, f) -> int:
        idx = 0
        for x, m in zip(f, self.moduli):
            idx = idx * m + (x % m)
        return idx

    def representatives(self):
        reps = [()]
        for m in self.moduli:
            reps = [r + (x,) for r in reps for x in range(m)]
        return [tuple(r) for r in reps]

    def descends_through(self, ctx: MatchedPairCtx) -> bool:
        """True when every action matrix maps the kernel lattice into
        itself, so g > f mod m depends only on f mod m.  Moduli exist only
        over free-abelian F, whose actions are always linear."""
        r = len(self.moduli)
        for M in ctx.action.matrices:
            for i in range(r):
                for j in range(r):
                    if (M[i][j] * self.moduli[j]) % self.moduli[i] != 0:
                        return False
        return True


class _CocycleSpec:
    """One half of the cocycle pair: trivial, a dense table over a finite F,
    or a table over a quotient prod Z_mi of free-abelian F, lifted to F.
    Subclasses give the table shape, eval, the normalization laws and the
    walk of (witness fields, value) over an f-domain."""

    name: str

    def __init__(self, kind: str, table=None, moduli=None):
        self.kind = kind
        self.table = table
        self.quot = _QuotientIndexer(moduli) if moduli is not None else None

    @classmethod
    def trivial(cls):
        return cls("trivial")

    @classmethod
    def finite_table(cls, ctx: MatchedPairCtx, values):
        m = ctx.F.group.order
        spec = cls("table", table=_check_3d_table(values, *cls._shape(ctx.G.order, m), cls.name))
        spec._check_normalization(ctx)
        return spec

    @classmethod
    def quotient_lift(cls, ctx: MatchedPairCtx, moduli, values):
        if ctx.F.is_finite:
            raise ConfigError("quotient-lift cocycles are for free-abelian F; use a table")
        spec = cls("quotient", moduli=moduli)
        if len(moduli) != ctx.F.rank:
            raise ConfigError("moduli vector length must equal the free-abelian rank")
        spec.table = _check_3d_table(values, *cls._shape(ctx.G.order, spec.quot.size), cls.name)
        spec._check_normalization(ctx)
        return spec

    def _normalization_values(self, ctx):
        """(message, value) per normalization instance, on all of a finite
        F or one representative per quotient class; each value must be 1."""
        domain = range(ctx.F.group.order) if self.quot is None else self.quot.representatives()
        return self._normalization(ctx, domain, ctx.F.identity)

    def _check_normalization(self, ctx) -> None:
        for message, value in self._normalization_values(ctx):
            if not value.is_one():
                raise ConfigError(message)

    def is_normalized(self, ctx: MatchedPairCtx) -> bool:
        """The normalizations hold.  trivial, finite_table and quotient_lift
        enforce them; a spec made by the constructor itself need not."""
        return self.is_trivial or all(v.is_one() for _m, v in self._normalization_values(ctx))

    @property
    def is_trivial(self) -> bool:
        return self.kind == "trivial"


class SigmaCocycle(_CocycleSpec):
    """sigma(g; f, f') with the normalizations sigma(g;1,f) = sigma(g;f,1)
    = sigma(1;f,f') = 1 enforced at construction."""

    name = "sigma"

    @staticmethod
    def _shape(n: int, m: int):
        return n, m, m

    def eval(self, g: int, f, f2) -> CycNum:
        if self.kind == "trivial":
            return _ONE
        if self.kind == "table":
            return self.table[g][f][f2]
        q = self.quot
        return self.table[g][q.index(f)][q.index(f2)]

    def _normalization(self, ctx, f_domain, f_identity):
        for g in ctx.G.elements():
            for f in f_domain:
                yield f"sigma(g; 1, f) must be 1, violated at g={g}", self.eval(g, f_identity, f)
                yield f"sigma(g; f, 1) must be 1, violated at g={g}", self.eval(g, f, f_identity)
        for f in f_domain:
            for f2 in f_domain:
                yield "sigma(1; f, f') must be 1", self.eval(ctx.G.identity, f, f2)

    def _values(self, ctx, domain):
        lab = ctx.F.label
        for g in ctx.G.elements():
            for f in domain:
                for f2 in domain:
                    yield {"g": g, "f": lab(f), "f2": lab(f2)}, self.eval(g, f, f2)


class TauCocycle(_CocycleSpec):
    """tau(g, g'; f) with tau(1,g;f) = tau(g,1;f) = tau(g,g';1) = 1."""

    name = "tau"

    @staticmethod
    def _shape(n: int, m: int):
        return n, n, m

    def eval(self, g: int, g2: int, f) -> CycNum:
        if self.kind == "trivial":
            return _ONE
        if self.kind == "table":
            return self.table[g][g2][f]
        return self.table[g][g2][self.quot.index(f)]

    def _normalization(self, ctx, f_domain, f_identity):
        e = ctx.G.identity
        for g in ctx.G.elements():
            for f in f_domain:
                yield f"tau(1, g; f) must be 1, violated at g={g}", self.eval(e, g, f)
                yield f"tau(g, 1; f) must be 1, violated at g={g}", self.eval(g, e, f)
            for g2 in ctx.G.elements():
                message = f"tau(g, g'; 1) must be 1, violated at ({g},{g2})"
                yield message, self.eval(g, g2, f_identity)

    def _values(self, ctx, domain):
        lab = ctx.F.label
        for g in ctx.G.elements():
            for g2 in ctx.G.elements():
                for f in domain:
                    yield {"g": g, "g2": g2, "f": lab(f)}, self.eval(g, g2, f)


def _check_3d_table(values, n1, n2, n3, what):
    if len(values) != n1:
        raise ConfigError(f"{what} table must have {n1} outer entries")
    out = []
    for block in values:
        if len(block) != n2:
            raise ConfigError(f"{what} table block must have {n2} rows")
        rows = []
        for row in block:
            if len(row) != n3:
                raise ConfigError(f"{what} table row must have {n3} entries")
            vals = []
            for v in row:
                if not isinstance(v, CycNum):
                    raise ConfigError(f"{what} table entries must be cyclotomic numbers")
                if v.is_zero():
                    raise ConfigError(f"{what} values must be nonzero")
                vals.append(v)
            rows.append(tuple(vals))
        out.append(tuple(rows))
    return tuple(out)


def _verification_domain(ctx: MatchedPairCtx, sigma: SigmaCocycle, tau: TauCocycle, radius: int):
    """The f-enumeration for cocycle-law checks and its scope label.

    Finite F: everything.  Trivial specs: the laws hold identically, a
    one-element domain documents that.  Quotient lifts whose quotient the
    action descends to: one representative per quotient class is complete
    for all of F.  Otherwise: ball-bounded.
    """
    if ctx.F.is_finite:
        return list(ctx.F.ball(0)), "global"
    if sigma.is_trivial and tau.is_trivial:
        return [ctx.F.identity], "global (trivial cocycles)"
    quots = [spec.quot for spec in (sigma, tau) if spec.quot is not None]
    if quots and all(q.descends_through(ctx) for q in quots):
        moduli = quots[0].moduli
        if all(q.moduli == moduli for q in quots):
            reps = _QuotientIndexer(moduli).representatives()
            return reps, "global (quotient representatives)"
    return list(f_ball(ctx.F, radius)), f"ball radius {radius}"


def verify_cocycles(
    ctx: MatchedPairCtx,
    sigma: SigmaCocycle,
    tau: TauCocycle,
    radius: int = 4,
    max_violations: int = 20,
) -> VerifyReport:
    """Check the sigma law, the tau law and the sigma/tau compatibility
    condition that together make the crossed (co)product a bialgebra."""
    G, F = ctx.G, ctx.F
    domain, scope = _verification_domain(ctx, sigma, tau, radius)
    lab = F.label
    n, nd = G.order, len(domain)
    act_r, act_l = ctx.act_right, ctx.act_left
    fmul, gmul = F.mul, G.mul
    elems = G.elements()

    def sigma_law():
        for g in elems:
            for f in domain:
                gf = act_l(g, f)
                for f2 in domain:
                    sf = sigma.eval(g, f, f2)
                    ff2 = fmul(f, f2)
                    for f3 in domain:
                        lhs = sigma.eval(gf, f2, f3) * sigma.eval(g, f, fmul(f2, f3))
                        if lhs != sf * sigma.eval(g, ff2, f3):
                            yield {"g": g, "f": lab(f), "f2": lab(f2), "f3": lab(f3)}

    def tau_law():
        # image[g3][k] = g3 > domain[k], the same for every (g, g2).
        image = [[act_r(g3, f) for f in domain] for g3 in elems]
        for g in elems:
            for g2 in elems:
                gg2 = gmul(g, g2)
                for g3 in elems:
                    g2g3 = gmul(g2, g3)
                    for f, g3f in zip(domain, image[g3]):
                        lhs = tau.eval(g, g2, g3f) * tau.eval(gg2, g3, f)
                        if lhs != tau.eval(g, g2g3, f) * tau.eval(g2, g3, f):
                            yield {"g": g, "g2": g2, "g3": g3, "f": lab(f)}

    def compatibility():
        for g in elems:
            for g2 in elems:
                gg2 = gmul(g, g2)
                for f in domain:
                    g2f_r = act_r(g2, f)
                    g2f_l = act_l(g2, f)
                    g_g2f = act_l(g, g2f_r)
                    for f2 in domain:
                        lhs = sigma.eval(gg2, f, f2) * tau.eval(g, g2, fmul(f, f2))
                        rhs = (
                            sigma.eval(g, g2f_r, act_r(g2f_l, f2))
                            * sigma.eval(g2, f, f2)
                            * tau.eval(g, g2, f)
                            * tau.eval(g_g2f, g2f_l, f2)
                        )
                        if lhs != rhs:
                            yield {"g": g, "g2": g2, "f": lab(f), "f2": lab(f2)}

    # With sigma = tau = 1 every instance reads 1 * 1 == 1 * 1: the laws
    # hold identically and no tuple is walked.
    trivial = sigma.is_trivial and tau.is_trivial
    basis = "trivial cocycles, no walk" if trivial else "walked"
    checks = [
        run_check(name, scope, instances, () if trivial else law(), max_violations, basis)
        for name, instances, law in (
            ("sigma cocycle law", n * nd**3, sigma_law),
            ("tau cocycle law", n**3 * nd, tau_law),
            ("sigma/tau compatibility", n**2 * nd**2, compatibility),
        )
    ]
    return VerifyReport("cocycles", checks, (ctx, sigma, tau))


class Beta2Cocycle:
    """The 2-cocycle on a stabilizer subgroup: values on pairs of parent
    G-indices, normalized, satisfying b(a,b)b(ab,c) = b(a,bc)b(b,c).
    The values are read-only, and is_trivial is decided when it is built."""

    def __init__(self, group: "FiniteGroup", elements: tuple[int, ...], values: dict):
        self.group = group
        self.elements = tuple(elements)
        self.values = MappingProxyType(dict(values))
        self.is_trivial = all(v.is_one() for v in self.values.values())

    def eval(self, a: int, b: int) -> CycNum:
        return self.values[(a, b)]

    def verify(self) -> None:
        if self.is_trivial and len(self.values) == len(self.elements) ** 2:
            return  # b = 1 on every pair satisfies both laws identically
        ident = self.group.identity
        for a in self.elements:
            if not self.eval(ident, a).is_one() or not self.eval(a, ident).is_one():
                raise InternalInconsistencyError(f"2-cocycle not normalized at {a}")
        for a in self.elements:
            for b in self.elements:
                ab = self.group.mul(a, b)
                for c in self.elements:
                    lhs = self.eval(a, b) * self.eval(ab, c)
                    rhs = self.eval(a, self.group.mul(b, c)) * self.eval(b, c)
                    if lhs != rhs:
                        raise InternalInconsistencyError(
                            f"2-cocycle identity fails at ({a},{b},{c})"
                        )

    @staticmethod
    def from_table(group, elements, values: dict) -> "Beta2Cocycle":
        beta = Beta2Cocycle(group, elements, values)
        beta.verify()
        return beta


def beta_for_orbit(ctx: MatchedPairCtx, tau: TauCocycle, orbit: Orbit) -> Beta2Cocycle:
    """Restrict tau(.,.;f) to the stabilizer of the orbit representative.

    Within the stabilizer the tau law specializes to the 2-cocycle
    identity, which is re-verified here as a guard against inconsistent
    table data."""
    f, stab = orbit.representative, orbit.stabilizer
    values = {(a, b): tau.eval(a, b, f) for a in stab for b in stab}
    return Beta2Cocycle.from_table(ctx.G, stab, values)


def is_unitary(
    sigma: SigmaCocycle,
    tau: TauCocycle,
    ctx: MatchedPairCtx,
    radius: int = 4,
) -> tuple[bool, dict | None]:
    """All cocycle values have modulus one on the evaluated domain.

    Returns (True, None) or (False, witness); the witness names the first
    offending tuple in enumeration order."""
    if sigma.is_trivial and tau.is_trivial:
        return True, None  # every value is 1
    domain, scope = _verification_domain(ctx, sigma, tau, radius)
    for spec in (sigma, tau):
        for fields, v in spec._values(ctx, domain):
            if not v.is_modulus_one():
                return False, {"kind": spec.name, **fields, "value": v.literal(), "scope": scope}
    return True, None
