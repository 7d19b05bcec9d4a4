"""Matched pairs of groups (F, G) with mutual actions, and orbit machinery.

The right action sends (g, f) to an element of F, the left action sends
(g, f) to an element of G.  Two action kinds describe them: dense tables
for finite F, and a homomorphism G -> GL_r(Z) for free-abelian F (with
the left action constantly trivial, the only decidable shape the
matched-pair laws leave open on Z^r).

Each action kind owns its validation, its maps and its certificate:
bind checks the data against G and F and returns act_right and act_left
(closures over the tables, or each M_g compiled to sparse integer rows),
and certificate runs the checks that certify the laws globally and names
the laws they imply, each with its basis.  No caller dispatches on the
kind.
"""

from __future__ import annotations

from itertools import islice

from .errors import ConfigError
from .groups import FiniteGroup, f_ball, generating_set

# The five matched-pair laws, in report order.
_LAWS = (
    "right action law",
    "left action law",
    "compatibility: g>(f f') = (g>f)((g<f)>f')",
    "compatibility: (g g')<f = (g<(g'>f))(g'<f)",
    "inverse identities",
)

# The basis of a law certified by a check over a generating set.
_ON_GENERATORS = "generators, full walk on failure"


class TableActions:
    """Dense action tables over a finite F: right[g][f] is an F index,
    left[g][f] is a G index."""

    __slots__ = ("right", "left")

    def __init__(self, right: tuple[tuple[int, ...], ...], left: tuple[tuple[int, ...], ...]):
        self.right = right
        self.left = left

    def bind(self, G: FiniteGroup, F):
        """Check the table shapes and ranges; return (act_right, act_left)."""
        if not F.is_finite:
            raise ConfigError("table actions require a finite F")
        n, m = G.order, F.group.order
        for tbl, rng, what in ((self.right, m, "right"), (self.left, n, "left")):
            if len(tbl) != n or any(len(row) != m for row in tbl):
                raise ConfigError(f"{what} action table must be {n}x{m}")
            for row in tbl:
                for x in row:
                    if not 0 <= x < rng:
                        raise ConfigError(f"{what} action table entry {x} out of range")
        right, left = self.right, self.left
        return (lambda g, f: right[g][f]), (lambda g, f: left[g][f])

    @property
    def left_trivial(self) -> bool:
        return all(x == g for g, row in enumerate(self.left) for x in row)

    def certificate(self, ctx: "MatchedPairCtx", radius: int, max_violations: int):
        """Each of the four action and compatibility laws is checked with
        one argument running over a generating set S (groups.generating_set),
        the induction of Light's test, and the inverse identities follow
        from the four.  The laws stay global: a passing generator check
        certifies its law on all of G and F, and a law whose check fails, or
        whose induction needs a law that failed, is walked on all of F for
        its witnesses.  Law by law, for every g, f and s in S:
        - right action law: e > f = f and (g s) > f = g > (s > f).  The s that
          pass are closed under products: (g s t) > f = (g s) > (t > f)
          = g > (s > (t > f)) = g > ((s t) > f).  So they are all of G.
        - left action law: g < 1 = g and g < (f t) = (g < f) < t for t in the
          generating set of F; closed under products the same way.
        - g > (f t) = (g > f)((g < f) > t), given the left action law: for t
          and t' that pass, g > (f t t') = (g > f)((g < f) > t)((g < f t) > t')
          and g < f t = (g < f) < t, which is (g > f)((g < f) > (t t')).
        - (g s) < f = (g < (s > f))(s < f), given the right action law: for s
          and s' that pass, (g s s') < f = (g s < (s' > f))(s' < f)
          = (g < (s > (s' > f)))(s < (s' > f))(s' < f), and
          s > (s' > f) = (s s') > f.
        - inverse identities, given the four: g < 1 = g by the left action
          law; g > 1 = (g > 1)((g < 1) > 1) = (g > 1)^2, so g > 1 = 1;
          1 = g > (f f^-1) = (g > f)((g < f) > f^-1); e < f = (e < f)^2 by
          the right action law and the left compatibility at (e, e), so
          e = e < f = (g^-1 < (g > f))(g < f), the left compatibility at
          (g^-1, g)."""
        G, FG = ctx.G, ctx.F.group
        right, left = self.right, self.left
        gmul, fmul = G.table, FG.table
        e, one = G.identity, FG.identity
        gens_g, gens_f = generating_set(gmul, e), generating_set(fmul, one)

        def right_action():
            return right[e] == tuple(FG.elements()) and all(
                right[gmul[g][s]] == tuple(map(right[g].__getitem__, right[s]))
                for s in gens_g
                for g in G.elements()
            )

        def left_action():
            if any(row[one] != g for g, row in enumerate(left)):
                return False
            for t in gens_f:
                col = [row[t] for row in fmul]  # f -> f t
                left_t = [row[t] for row in left]  # x -> x < t
                if any([lg[c] for c in col] != [left_t[x] for x in lg] for lg in left):
                    return False
            return True

        def right_compatibility():
            for t in gens_f:
                col = [row[t] for row in fmul]
                right_t = [row[t] for row in right]  # x -> x > t
                for rg, lg in zip(right, left):
                    if [rg[c] for c in col] != [fmul[a][right_t[x]] for a, x in zip(rg, lg)]:
                        return False
            return True

        def left_compatibility():
            return all(
                left[gmul[g][s]] == tuple(gmul[left[g][a]][b] for a, b in zip(right[s], left[s]))
                for s in gens_g
                for g in G.elements()
            )

        ra, la = right_action(), left_action()
        holds = (ra, la, la and right_compatibility(), ra and left_compatibility())
        implied = {name: _ON_GENERATORS for name, ok in zip(_LAWS, holds) if ok}
        if all(holds):
            implied[_LAWS[4]] = "implied by: " + ", ".join(_LAWS[:4])
        return [], f_ball(ctx.F, radius), "global", implied


class LinearAction:
    """Right action by integer matrices M_g (one per G element, acting on
    column vectors of Z^r); the left action is trivial."""

    __slots__ = ("matrices",)
    left_trivial = True

    def __init__(self, matrices: tuple[tuple[tuple[int, ...], ...], ...]):
        self.matrices = matrices

    def bind(self, G: FiniteGroup, F):
        """Check for one unimodular r x r matrix per g; return (act_right,
        act_left), M_g applied as the nonzero (j, M_g[i][j]) of each row."""
        if F.is_finite:
            raise ConfigError("linear actions require a free-abelian F")
        if len(self.matrices) != G.order:
            raise ConfigError("need one matrix per G element")
        r = F.rank
        for M in self.matrices:
            if len(M) != r or any(len(row) != r for row in M):
                raise ConfigError(f"action matrices must be {r}x{r}")
            if _int_det(M) not in (1, -1):
                raise ConfigError("action matrix is not invertible over the integers")
        kernels = tuple(
            tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in M) for M in self.matrices
        )

        def act_right(g, f):
            out = []
            for row in kernels[g]:
                s = 0
                for j, c in row:
                    s += c * f[j]
                out.append(s)
            return tuple(out)

        return act_right, (lambda g, f: g)

    def certificate(self, ctx: "MatchedPairCtx", radius: int, max_violations: int):
        """The homomorphism check M_e = I, M_{gg'} = M_g M_{g'}.  As g<f = g
        and f -> M_g f is additive, every law but the right action law holds
        for any integer matrices; a passing check implies that one too.  The
        laws are reported on a spot ball of radius at most 2.

        The check covers all |G|^2 pairs but walks only M_e = I and
        M_{gs} = M_g M_s for each s of a generating set: the s that pass
        for every g are closed under products, so they are all of G.  Only
        a failing pre-check walks every pair, for the witnesses."""
        G, F = ctx.G, ctx.F
        # the spot ball first: its budget refuses a large rank before the
        # homomorphism check runs
        ball = f_ball(F, min(radius, 2))
        mats = self.matrices
        r = F.rank
        ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        # Column j of M_g M_g2 is M_g applied to column j of M_g2, so each
        # product goes through the compiled kernel of M_g: compare columns.
        cols = [tuple(zip(*M)) for M in mats]
        act_r = ctx.act_right

        def multiplies(g, g2):
            return [act_r(g, c) for c in cols[g2]] == list(cols[G.mul(g, g2)])

        def homomorphism():
            unit = mats[G.identity] == ident
            gens = generating_set(G.table, G.identity)
            if unit and all(multiplies(g, s) for g in G.elements() for s in gens):
                return
            if not unit:
                yield {"law": "identity matrix", "g": G.identity}
            for g in G.elements():
                for g2 in G.elements():
                    if not multiplies(g, g2):
                        yield {"law": "matrix homomorphism", "g": g, "g2": g2}

        name = "linear action homomorphism (implies all laws globally)"
        hom = run_check(name, "global", G.order**2, homomorphism(), max_violations, _ON_GENERATORS)
        implied = dict.fromkeys(_LAWS[1:], "implied by: integer matrices, trivial left action")
        if hom.ok:
            implied[_LAWS[0]] = f"implied by: {name}"
        return [hom], ball, "global (spot ball)", implied


def _int_det(mat) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: after step k every entry below row k is a k+1 by k+1
    minor, so each division by the previous pivot is exact."""
    rows = [list(row) for row in mat]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk, row_k = rows[k][k], rows[k]
        for r in range(k + 1, n):
            row, rk = rows[r], rows[r][k]
            for c in range(k + 1, n):
                row[c] = (row[c] * pk - rk * row_k[c]) // prev
        prev = pk
    return sign * prev


class MatchedPairCtx:
    """Validated matched-pair context: G finite, F finite or Z^r, actions.

    Construction checks shapes and basic sanity through the action kind;
    the matched-pair laws themselves are checked by verify_matched_pair,
    whose report states whether the verification is global or ball-bounded.
    """

    def __init__(self, G: FiniteGroup, F, action):
        self.G = G
        self.F = F
        self.action = action
        self._orbits: dict = {}  # every element of a computed orbit -> its Orbit
        # act_right(g, f) = g > f in F, act_left(g, f) = g < f in G
        self.act_right, self.act_left = action.bind(G, F)

    @property
    def left_action_trivial(self) -> bool:
        return self.action.left_trivial

    # -- orbits -------------------------------------------------------------

    def orbit_of(self, f) -> "Orbit":
        cached = self._orbits.get(f)
        if cached is not None:
            return cached
        elems = sorted({self.act_right(g, f) for g in self.G.elements()}, key=self.F.order_key)
        rep = elems[0]
        stab = tuple(g for g in self.G.elements() if self.act_right(g, rep) == rep)
        # The first x of each right coset Stab x, 1_G first.
        transversal, reached = [], set()
        order = [self.G.identity] + [g for g in self.G.elements() if g != self.G.identity]
        for x in order:
            if x not in reached:
                transversal.append(x)
                reached.update(self.G.mul(h, x) for h in stab)
        if len(elems) * len(stab) != self.G.order:
            raise ConfigError(
                "orbit-stabilizer count violated; the action tables do not define an action"
            )
        orbit = Orbit(
            representative=rep,
            elements=tuple(elems),
            stabilizer=stab,
            transversal=tuple(transversal),
        )
        self._orbits.update(dict.fromkeys(elems, orbit))
        return orbit


class Orbit:
    """A G-orbit in F, anchored at its canonical representative.

    The stabilizer and the transversal of its right cosets (first entry
    1_G) both refer to the representative.  Equality compares every
    field; the hash reads the representative and the elements.
    """

    __slots__ = ("representative", "elements", "stabilizer", "transversal")

    def __init__(
        self,
        representative,
        elements: tuple,
        stabilizer: tuple[int, ...],
        transversal: tuple[int, ...],
    ):
        self.representative = representative
        self.elements = elements
        self.stabilizer = stabilizer
        self.transversal = transversal

    @property
    def size(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        if other.__class__ is not Orbit:
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        return (self.representative, self.elements, self.stabilizer, self.transversal)

    def __hash__(self):
        return hash((self.representative, self.elements))


def g_f_finv(ctx: MatchedPairCtx, f) -> tuple[int, ...]:
    """All g with g acting on f giving f^-1; empty iff f^-1 is outside O_f."""
    finv = ctx.F.inv(f)
    return tuple(g for g in ctx.G.elements() if ctx.act_right(g, f) == finv)


def orbit_product(ctx: MatchedPairCtx, o1: Orbit, o2: Orbit) -> list[Orbit]:
    """Decompose {x*y : x in O1, y in O2} into orbits, sorted by representative."""
    prods = {ctx.F.mul(x, y) for x in o1.elements for y in o2.elements}
    out = {}
    while prods:
        f = next(iter(prods))
        orb = ctx.orbit_of(f)
        if not set(orb.elements) <= prods:
            missing = set(orb.elements) - prods
            raise AssertionError(f"orbit product is not orbit-closed, missing {missing}")
        prods -= set(orb.elements)
        out[orb.representative] = orb
    return [out[k] for k in sorted(out, key=ctx.F.order_key)]


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------


class CheckResult:
    """One verified law: every instance is counted, the first few violated
    instances are listed as witnesses.

    basis records how the verdict was reached: "walked" (every instance
    evaluated), "generators, full walk on failure" (a check over a
    generating set, every instance walked only if it fails),
    "implied by: <laws>" or "trivial cocycles, no walk" (no instance
    evaluated).  Every check of the matched-pair, cocycle, Hopf and star
    verifiers records one; run_check leaves it None when not given.
    to_payload leaves it out, so reports do not depend on it."""

    __slots__ = ("name", "scope", "instances", "violations", "violation_count", "basis")

    def __init__(
        self,
        name: str,
        scope: str,
        instances: int,
        violations: list,
        violation_count: int,
        basis: str | None = None,
    ):
        self.name = name
        self.scope = scope
        self.instances = instances
        self.violations = violations
        self.violation_count = violation_count
        self.basis = basis

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "instances": self.instances,
            "violation_count": self.violation_count,
            "violations": self.violations[:20],
        }


class VerifyReport:
    """The checks of one verifier.  subject is what they were run on (the
    matched-pair context, or the context and cocycles), so a report handed
    on as a premise can be matched to its Hopf algebra; to_payload leaves
    it out."""

    __slots__ = ("title", "checks", "subject")

    def __init__(self, title: str, checks: list[CheckResult], subject=None):
        self.title = title
        self.checks = checks
        self.subject = subject

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_payload(self) -> dict:
        return {
            "title": self.title,
            "status": "pass" if self.ok else "fail",
            "checks": [c.to_payload() for c in self.checks],
        }


def run_check(
    name: str, scope: str, instances: int, witnesses, max_violations: int, basis: str | None = None
) -> CheckResult:
    """Build the result of one law from the witnesses of its failing
    instances: all of them are counted, the first max_violations kept."""
    witnesses = iter(witnesses)
    kept = list(islice(witnesses, max_violations))
    count = len(kept) + sum(1 for _ in witnesses)
    return CheckResult(name, scope, instances, kept, count, basis)


def verify_matched_pair(ctx: MatchedPairCtx, radius: int = 4, max_violations: int = 20) -> VerifyReport:
    """Check the action laws, the two matched-pair laws and the derived
    inverse identities.

    The action's certificate gives its own checks, the ball and scope of
    the laws, and the laws it certifies, each with its basis.  A certified
    law is reported with its instance count and no walk; the others are
    walked for witnesses.
    """
    G, F = ctx.G, ctx.F
    checks, ball, scope, implied = ctx.action.certificate(ctx, radius, max_violations)
    n, nb = G.order, len(ball)
    lab = F.label
    R, L = ctx.act_right, ctx.act_left
    elems = G.elements()

    def right_action_law():
        for g in elems:
            for g2 in elems:
                for f in ball:
                    if not (R(G.identity, f) == f and R(G.mul(g, g2), f) == R(g, R(g2, f))):
                        yield {"g": g, "g2": g2, "f": lab(f)}

    def left_action_law():
        for g in elems:
            for f in ball:
                for f2 in ball:
                    if not (L(g, F.identity) == g and L(g, F.mul(f, f2)) == L(L(g, f), f2)):
                        yield {"g": g, "f": lab(f), "f2": lab(f2)}

    def right_compatibility():
        for g in elems:
            for f in ball:
                for f2 in ball:
                    if R(g, F.mul(f, f2)) != F.mul(R(g, f), R(L(g, f), f2)):
                        yield {"g": g, "f": lab(f), "f2": lab(f2)}

    def left_compatibility():
        for g in elems:
            for g2 in elems:
                for f in ball:
                    if L(G.mul(g, g2), f) != G.mul(L(g, R(g2, f)), L(g2, f)):
                        yield {"g": g, "g2": g2, "f": lab(f)}

    def inverse_identities():
        for g in elems:
            for f in ball:
                if not (
                    R(g, F.identity) == F.identity
                    and L(g, F.identity) == g
                    and F.inv(R(g, f)) == R(L(g, f), F.inv(f))
                    and G.inv(L(g, f)) == L(G.inv(g), R(g, f))
                ):
                    yield {"g": g, "f": lab(f)}

    sweeps = (
        (n * n * nb, right_action_law),
        (n * nb * nb, left_action_law),
        (n * nb * nb, right_compatibility),
        (n * n * nb, left_compatibility),
        (n * nb, inverse_identities),
    )
    for name, (instances, law) in zip(_LAWS, sweeps):
        basis = implied.get(name, "walked")
        witnesses = law() if basis == "walked" else ()
        checks.append(run_check(name, scope, instances, witnesses, max_violations, basis))
    return VerifyReport("matched pair", checks, ctx)
