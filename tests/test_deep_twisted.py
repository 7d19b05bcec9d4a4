"""End-to-end runs on configurations that exercise every nontrivial path:
live tau factors inside induced characters (nontrivial stabilizer AND
transversal), a nontrivial left action from an exact factorization, and
simultaneously nontrivial sigma and tau.
"""

from __future__ import annotations

import itertools

import pytest

from bicrossed.certs import dimension_audit, exact_rank
from bicrossed.cocycles import verify_cocycles
from bicrossed.comodules import SimpleIndex, coefficient_basis
from bicrossed.config import build_config
from bicrossed.fusion import FusionRing
from bicrossed.hopf import HElem, HTensor, verify_hopf, verify_star
from bicrossed.matched_pair import verify_matched_pair


def z4_twisted_config() -> dict:
    """G = Z4 acting on Z by sign through exponent parity, tau lifted
    through Z -> Z2 with tau(g^a, g^b; odd) = -1 iff a + b >= 4.

    Nonidentity stabilizers ({1, g^2}) and transversals ({1, g}) occur
    together, and the stabilizer 2-cocycle beta(g^2, g^2) = -1 is
    nontrivial, so the tau factors of the induced-character formula are
    live.
    """
    vals = [
        [["1", "-1" if a + b >= 4 else "1"] for b in range(4)] for a in range(4)
    ]
    return {
        "name": "z4_twisted",
        "group": {"type": "table", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[(-1) ** k]] for k in range(4)]},
        "sigma": {"type": "trivial"},
        "tau": {"type": "quotient_lift", "moduli": [2], "values": vals},
        "radius": 3,
    }


def s3_factorization_config() -> dict:
    """The matched pair from the exact factorization S3 = F * G with
    F = <(01)> and G = <(012)>: the right action is forced trivial but
    the left action is genuinely nontrivial."""
    perms = sorted(itertools.permutations(range(3)))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(p):
        out = [0] * 3
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    f_elems = [(0, 1, 2), (1, 0, 2)]
    g_elems = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    right = [[None] * 2 for _ in range(3)]
    left = [[None] * 2 for _ in range(3)]
    for gi, g in enumerate(g_elems):
        for fi, f in enumerate(f_elems):
            x = compose(g, f)
            for fj, f2 in enumerate(f_elems):
                g2 = compose(inv(f2), x)
                if g2 in g_elems:
                    right[gi][fi] = fj
                    left[gi][fi] = g_elems.index(g2)
                    break
            assert right[gi][fi] is not None
    g_table = [[g_elems.index(compose(a, b)) for b in g_elems] for a in g_elems]
    f_table = [[f_elems.index(compose(a, b)) for b in f_elems] for a in f_elems]
    return {
        "name": "s3_factorization",
        "group": {"type": "table", "table": g_table, "name": "Z3"},
        "f_group": {"type": "finite", "table": f_table, "name": "Z2"},
        "action": {"type": "tables", "right": right, "left": left},
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 2,
    }


def s3_factorization_tau_config() -> dict:
    """s3_factorization with tau(g, g2; (01)) = mu(g) mu(g2) / mu(g g2) for
    mu(g) = i^m(g), m = 0, 1, 3 on 1, (012), (021): a valid co-cocycle,
    as g < (01) = g^-1 and mu(g^-1) = mu(g)^-1, with a left action that
    moves g.  beta at (01) is a coboundary but not 1, so its stabilizer
    table is read off the central extension, with values at level 12."""
    config = s3_factorization_config()
    table = config["group"]["table"]
    m = [0, 1, 3]

    def power_of_i(n):
        n %= 4
        return "1" if n == 0 else f"z^{n}@4"

    config["name"] = "s3_factorization_tau"
    config["tau"] = {
        "type": "table",
        "values": [
            [["1", power_of_i(m[a] + m[b] - m[table[a][b]])] for b in range(3)] for a in range(3)
        ],
    }
    return config


def sigma_and_tau_config() -> dict:
    """Both cocycles nontrivial at once, on the trivial-action pair."""
    return {
        "name": "z_z2_sigma_tau",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[1]], [[1]]]},
        "sigma": {
            "type": "quotient_lift",
            "moduli": [2],
            "values": [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "-1"]]],
        },
        "tau": {
            "type": "quotient_lift",
            "moduli": [2],
            "values": [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "-1"]]],
        },
        "radius": 4,
    }


def _multiplicative_matrix_oracle(H, index, d):
    """The coefficient basis must arrange into a multiplicative matrix:
    Delta(b[r][c]) = sum_w b[r][w] (x) b[w][c] and eps(b[r][c]) = delta.

    This is the defining property of a basic multiplicative matrix and
    checks the tau factors of the basis display against the coproduct."""
    basis = coefficient_basis(H, d)
    t = d.dim_total
    mat = [[basis[r * t + c] for c in range(t)] for r in range(t)]
    for r in range(t):
        for c in range(t):
            want = HTensor({})
            for w in range(t):
                want = want + HTensor.of(mat[r][w], mat[w][c])
            assert H.comul(mat[r][c]) == want, (d.uid, r, c)
            eps = H.counit(mat[r][c])
            assert eps.is_one() if r == c else eps.is_zero()


@pytest.fixture(scope="module")
def z4_build():
    return build_config(z4_twisted_config())


def test_z4_twisted_laws(z4_build):
    assert verify_matched_pair(z4_build.ctx, 3).ok
    rep = verify_cocycles(z4_build.ctx, z4_build.sigma, z4_build.tau, 3)
    assert rep.ok, rep.to_payload()
    hopf_rep = verify_hopf(z4_build.hopf, 3)
    assert hopf_rep.ok, hopf_rep.to_payload()
    assert verify_star(z4_build.hopf, 3).ok


def test_z4_twisted_simples(z4_build):
    H = z4_build.hopf
    index = SimpleIndex(H)
    audit = dimension_audit(H, index, 3)
    assert audit["ok"]
    odd = index.simples_for_f((1,))
    assert [d.dim_total for d in odd] == [2, 2]
    # stabilizer cocycle beta(g^2, g^2) = -1 forces fourth-root values
    for d in odd:
        assert not d.chi.values[d.chi.elements.index(2)].is_rational()
    even = index.simples_for_f((2,))
    assert [d.dim_total for d in even] == [2, 2]
    assert all(d.chi.values[d.chi.elements.index(2)].is_rational() for d in even)
    unit = index.simples_for_f((0,))
    assert [d.dim_total for d in unit] == [1, 1, 1, 1]
    chars = [index.character(d) for d in index.enumerate(3)]
    assert exact_rank(chars).rank == len(chars)


def test_z4_twisted_multiplicative_matrices(z4_build):
    H = z4_build.hopf
    index = SimpleIndex(H)
    for f in [(1,), (2,), (3,)]:
        for d in index.simples_for_f(f):
            _multiplicative_matrix_oracle(H, index, d)


def test_z4_twisted_fusion(z4_build):
    ring = FusionRing(z4_build.hopf)
    for d in ring.index.enumerate(2):
        assert ring.dual_of(ring.dual_of(d)).uid == d.uid
        assert ring.fs_indicator(d) in (-1, 0, 1)
    odd = ring.index.simples_for_f((1,))
    row = ring.decompose_product(odd[0], odd[1])
    total = sum(m * ring.index.find(u).dim_total for u, m in row.summands)
    assert total == 4


def test_s3_factorization_pipeline():
    build = build_config(s3_factorization_config())
    assert build.ctx.left_action_trivial is False
    assert verify_matched_pair(build.ctx, 0).ok
    rep = verify_hopf(build.hopf, 0)
    assert rep.ok, rep.to_payload()
    assert verify_star(build.hopf, 0).ok
    index = SimpleIndex(build.hopf)
    simples = index.enumerate(0)
    assert [d.dim_total for d in simples] == [1] * 6
    assert dimension_audit(build.hopf, index, 0)["ok"]
    ring = FusionRing(build.hopf, index)
    for d in simples:
        assert ring.dual_of(ring.dual_of(d)).uid == d.uid
        assert ring.fs_indicator(d) in (-1, 0, 1)
    table = ring.fusion_table(0)
    assert ring.verify_based_ring(table)["ok"]


def test_sigma_and_tau_pipeline():
    build = build_config(sigma_and_tau_config())
    assert verify_cocycles(build.ctx, build.sigma, build.tau, 3).ok
    rep = verify_hopf(build.hopf, 3)
    assert rep.ok, rep.to_payload()
    assert verify_star(build.hopf, 3).ok
    index = SimpleIndex(build.hopf)
    assert dimension_audit(build.hopf, index, 3)["ok"]
    ring = FusionRing(build.hopf, index)
    for d in index.enumerate(2):
        assert ring.fs_indicator(d) in (-1, 0, 1)
        row = ring.decompose_product(d, ring.dual_of(d))
        assert dict(row.summands).get(index.unit_simple().uid) == 1


def test_perturbed_tau_table_fails_with_listed_triple():
    cfg = z4_twisted_config()
    cfg["tau"]["values"][1][1][1] = "-1"  # single flipped slot
    build = build_config(cfg)
    rep = verify_cocycles(build.ctx, build.sigma, build.tau, 2)
    assert not rep.ok
    tau_law = next(c for c in rep.checks if c.name == "tau cocycle law")
    assert tau_law.violation_count > 0
    w = tau_law.violations[0]
    assert {"g", "g2", "g3", "f"} <= set(w)
