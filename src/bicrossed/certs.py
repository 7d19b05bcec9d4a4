"""Exact linear-algebra certifications over Q(zeta_N).

These back the counting and independence claims used elsewhere: rank by
exact Gaussian elimination on finite supports, coefficients in an
orthonormal set certified by a sparse exact residual, direct-sum
bookkeeping of the coefficient subcoalgebras, and the per-orbit
dimension audit.  No numeric fallback is permitted in this module.
"""

from __future__ import annotations

from .cyclotomic import rational, row_reduce
from .errors import InternalInconsistencyError
from .groups import f_ball
from .hopf import HElem


class LinearCert:
    __slots__ = ("description", "rows", "cols", "rank", "ok", "details")

    def __init__(
        self,
        description: str,
        rows: int,
        cols: int,
        rank: int,
        ok: bool,
        details: dict | None = None,
    ):
        self.description = description
        self.rows = rows
        self.cols = cols
        self.rank = rank
        self.ok = ok
        self.details = details

    def to_payload(self) -> dict:
        return {
            "description": self.description,
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "ok": self.ok,
            "details": self.details or {},
        }


def exact_rank(vectors, description: str = "exact rank") -> LinearCert:
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
    rank = len(row_reduce(rows, len(keys)))
    return LinearCert(description, len(vectors), len(keys), rank, ok=True)


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


def direct_sum_check(hopf, index, radius: int) -> LinearCert:
    """The coefficient coalgebras of distinct orbits in the ball have
    pairwise disjoint basis support; for finite F they exhaust the basis.

    Disjoint sets of basis keys are automatically jointly independent, so
    the certificate records supports and, in the finite case, coverage.
    """
    from .comodules import cf_subcoalgebra

    ctx = hopf.ctx
    orbits = index.orbits_in_ball(radius)
    seen: dict = {}
    blocks = []
    ok = True
    details: dict = {"blocks": blocks}
    for orb in orbits:
        basis = cf_subcoalgebra(ctx, orb)
        blocks.append(
            {
                "orbit": ctx.F.label(orb.representative),
                "dimension": basis.dimension,
            }
        )
        for key in basis.keys:
            if key in seen:
                ok = False
                details["overlap"] = {
                    "key": [key[0], ctx.F.label(key[1])],
                    "orbits": [ctx.F.label(seen[key]), ctx.F.label(orb.representative)],
                }
            seen[key] = orb.representative
    total = len(seen)
    if ctx.F.is_finite:
        full = ctx.G.order * ctx.F.group.order
        details["covers_full_basis"] = total == full
        if total != full:
            ok = False
    else:
        ball_keys = {(g, f) for f in f_ball(ctx.F, radius) for g in ctx.G.elements()}
        details["covers_ball"] = ball_keys <= set(seen)
    return LinearCert(
        "direct sum of coefficient subcoalgebras",
        rows=len(orbits),
        cols=total,
        rank=total,
        ok=ok,
        details=details,
    )


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
