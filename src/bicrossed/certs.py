"""Exact certifications over Q(zeta_N), as plain data.

exact_rank is the rank of a list of H-elements by exact Gaussian
elimination on their finite support.  solve_in_span reads coefficients in
an orthonormal set and proves them by a sparse exact residual.  The
simples report's two certificates are dicts: direct_sum_check, that the
coefficient coalgebras C_f = span{p_g # x : g in G, x in O_f} of the
orbits in the ball are blocks over disjoint sets of F elements, and
dimension_audit, the count sum dim^2 = |G| * |O_f| per orbit.  No numeric
fallback is permitted in this module.
"""

from __future__ import annotations

from .cyclotomic import rational, row_reduce
from .errors import InternalInconsistencyError
from .groups import f_ball
from .hopf import HElem


def exact_rank(vectors) -> int:
    """Rank of a list of H-elements by exact elimination."""
    vectors = list(vectors)
    keys = sorted(set().union(*(v.terms for v in vectors)))
    pos = {k: i for i, k in enumerate(keys)}
    rows = []
    for v in vectors:
        row = [rational(0)] * len(keys)
        for k, c in v.terms.items():
            row[pos[k]] = c
        rows.append(row)
    return len(row_reduce(rows, len(keys)))


def solve_in_span(basis, target: HElem, pair, description: str = "solve"):
    """The coefficients of target in an orthonormal basis, certified.

    Each coefficient is c_i = pair(target, b_i), which is exact when the
    b_i are orthonormal for pair and target lies in their span; the caller
    certifies orthonormality.  The sparse residual target - sum c_i b_i,
    built in place on a copy of the target's terms, must vanish, else
    InternalInconsistencyError is raised.  Returns the coefficient list.
    """
    coeffs = [pair(target, b) for b in basis]
    residual = dict(target.terms)
    for b, c in zip(basis, coeffs):
        if c.is_zero():
            continue
        unit = c.is_one()
        for k, v in b.terms.items():
            v = v if unit else c * v
            r = residual.pop(k, None)
            if r is None:
                residual[k] = -v
            elif r != v:
                residual[k] = r - v
    if residual:
        raise InternalInconsistencyError(f"{description}: nonzero residual")
    return coeffs


def direct_sum_check(hopf, index, radius: int) -> dict:
    """C_f is spanned by the keys (g, x), g in G and x in O_f, so the blocks
    of the orbits in the ball are independent when no x is claimed by two
    orbits; for finite F they must claim all of F.  Each x is walked once,
    claimed -> representative; an overlap reports the key (g, x) with g
    the last element of G and x the last shared element seen."""
    ctx = hopf.ctx
    G, F = ctx.G, ctx.F
    orbits = index.orbits_in_ball(radius)
    claimed: dict = {}
    blocks = []
    ok = True
    details: dict = {"blocks": blocks}
    for orb in orbits:
        rep = orb.representative
        blocks.append({"orbit": F.label(rep), "dimension": G.order * orb.size})
        for x in orb.elements:
            if x in claimed:
                ok = False
                details["overlap"] = {
                    "key": [G.elements()[-1], F.label(x)],
                    "orbits": [F.label(claimed[x]), F.label(rep)],
                }
            claimed[x] = rep
    total = G.order * len(claimed)
    if F.is_finite:
        details["covers_full_basis"] = len(claimed) == F.group.order
        ok = ok and details["covers_full_basis"]
    else:
        details["covers_ball"] = all(f in claimed for f in f_ball(F, radius))
    return {
        "description": "direct sum of coefficient subcoalgebras",
        "rows": len(orbits),
        "cols": total,
        "rank": total,
        "ok": ok,
        "details": details,
    }


def dimension_audit(hopf, index, radius: int) -> dict:
    """Per orbit: sum of dim_total^2 equals |G| * |O_f| exactly."""
    ctx = hopf.ctx
    rows = []
    ok = True
    for orb in index.orbits_in_ball(radius):
        simples = index.simples_for_orbit(orb)
        lhs = sum(d.dim_total**2 for d in simples)
        rhs = ctx.G.order * orb.size
        good = lhs == rhs
        ok = ok and good
        rows.append(
            {
                "orbit": ctx.F.label(orb.representative),
                "orbit_size": orb.size,
                "sum_dim_sq": lhs,
                "expected": rhs,
                "ok": good,
            }
        )
    return {"ok": ok, "rows": rows}
