from __future__ import annotations

import cmath
import copy
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import (
    build_preset,
    klein_twisted_config,
    s4_sign_tau_config,
    twisted_sigma_config,
    twisted_tau_config,
)
from haar_oracle import HaarOracle
from test_deep_twisted import (
    s3_factorization_config,
    s3_factorization_tau_config,
    sigma_and_tau_config,
    z4_twisted_config,
)

from bicrossed import comodules
from bicrossed.comodules import SimpleIndex
from bicrossed.config import build_config
from bicrossed.cyclotomic import rational, row_reduce
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing, FusionRow
from bicrossed.groups import f_ball
from bicrossed.hopf import BicrossedHopf
from bicrossed.matched_pair import orbit_product
from bicrossed.presets import SHIPPED

B3_Z3 = Path(__file__).resolve().parents[1] / "bench" / "configs" / "b3_z3.json"


@pytest.fixture(scope="module")
def ring_z2(h_z_z2_mod):
    return FusionRing(h_z_z2_mod.hopf)


@pytest.fixture(scope="module")
def h_z_z2_mod():
    return build_preset("h_z_z2")


def test_unit_row(ring_z2):
    index = ring_z2.index
    unit = index.unit_simple()
    for uid in ("0:0", "-1:0", "-3:0"):
        d = index.find(uid)
        assert ring_z2.decompose_product(unit, d).summands == ((uid, 1),)
        assert ring_z2.decompose_product(d, unit).summands == ((uid, 1),)


def test_c_rules_h_z_z2(ring_z2):
    index = ring_z2.index

    def C(i):
        return index.find(f"-{i}:0")

    x = index.find("0:0")
    one = index.find("0:1")
    assert ring_z2.decompose_product(C(1), C(1)).summands == tuple(
        sorted([("-2:0", 1), ("0:0", 1), ("0:1", 1)])
    )
    for i, j in [(1, 2), (2, 5), (3, 4)]:
        got = dict(ring_z2.decompose_product(C(i), C(j)).summands)
        assert got == {f"-{i + j}:0": 1, f"-{abs(i - j)}:0": 1}
    assert ring_z2.decompose_product(x, C(2)).summands == (("-2:0", 1),)
    assert ring_z2.decompose_product(x, x).summands == ((one.uid, 1),)


def test_dimension_identity(ring_z2):
    index = ring_z2.index
    for a, b in [("-1:0", "-1:0"), ("-2:0", "-3:0"), ("0:0", "-4:0")]:
        da, db = index.find(a), index.find(b)
        row = ring_z2.decompose_product(da, db)
        total = sum(m * index.find(u).dim_total for u, m in row.summands)
        assert total == da.dim_total * db.dim_total


def test_dual_involution_and_unit(ring_z2):
    index = ring_z2.index
    for uid in ("0:0", "0:1", "-1:0", "-4:0"):
        d = index.find(uid)
        assert ring_z2.dual_of(ring_z2.dual_of(d)).uid == d.uid
    assert ring_z2.dual_of(index.unit_simple()).uid == index.unit_simple().uid


def test_fs_indicators_h_z_z2(ring_z2):
    for d in ring_z2.index.enumerate(4):
        assert ring_z2.fs_indicator(d) == 1


def test_fs_matches_duality_on_z2n_2():
    build = build_preset("h_z_z2n:2")
    ring = FusionRing(build.hopf)
    for d in ring.index.enumerate(3):
        nu = ring.fs_indicator(d)
        assert nu in (-1, 0, 1)
        assert (nu != 0) == ring.is_self_dual(d)
    # the grouplike kg^1 is dual to kg^3, not self-dual
    non_self_dual = [d for d in ring.index.simples_for_f((0,)) if not ring.is_self_dual(d)]
    assert len(non_self_dual) == 2


def _smash_applicable(ring) -> bool:
    H = ring.hopf
    return (
        H.sigma.is_trivial
        and H.tau.is_trivial
        and H.G.is_abelian()
        and H.ctx.left_action_trivial
    )


def _smash_row(ring, d1, d2):
    """The summands of d1 * d2 in closed form for a smash product
    (trivial cocycles, abelian G, trivial left action, matching
    stabilizers): a second oracle for the Haar-pairing rows.  Returns
    None when a hypothesis fails."""
    if not _smash_applicable(ring):
        return None
    H, index = ring.hopf, ring.index
    unit_f = H.F.identity
    x_unit = d1.orbit.representative == unit_f
    y_unit = d2.orbit.representative == unit_f

    def restricts_to(cand, elements, values):
        cm = cand.chi.value_map()
        return all(cm[g] == values[g] for g in elements)

    def match_on(elements, values, orbit):
        hits = [c for c in index.simples_for_orbit(orbit) if restricts_to(c, elements, values)]
        assert hits, "no stabilizer character matches the product"
        return hits[0]

    c1 = d1.chi.value_map()
    c2 = d2.chi.value_map()
    if x_unit and y_unit:
        elements = tuple(H.G.elements())
        values = {g: c1[g] * c2[g] for g in elements}
        row = [(match_on(elements, values, d1.orbit).uid, 1)]
    elif x_unit or y_unit:
        dn = d2 if x_unit else d1
        stab = dn.orbit.stabilizer
        values = {g: c1[g] * c2[g] for g in stab}
        row = [(match_on(stab, values, dn.orbit).uid, 1)]
    else:
        if set(d1.orbit.stabilizer) != set(d2.orbit.stabilizer):
            return None
        stab = d1.orbit.stabilizer
        values = {g: c1[g] * c2[g] for g in stab}
        orbs = orbit_product(H.ctx, d1.orbit, d2.orbit)
        # Hypothesis: every product value is hit once, except that the
        # unit element is hit |O_x| times (diagonal transversal pairs).
        expected = sum(o.size for o in orbs if o.representative != unit_f)
        if any(o.representative == unit_f for o in orbs):
            expected += d1.orbit.size
        if expected != d1.orbit.size * d2.orbit.size:
            return None
        row = []
        for orb in orbs:
            if orb.representative == unit_f:
                # the |O_x| G-characters restricting to the product character
                hits = [
                    (c.uid, 1)
                    for c in index.simples_for_orbit(orb)
                    if restricts_to(c, stab, values)
                ]
                if len(hits) != d1.orbit.size:
                    return None
                row.extend(hits)
            else:
                if set(orb.stabilizer) != set(stab):
                    return None
                row.append((match_on(stab, values, orb).uid, 1))
    return tuple(sorted(row))


def test_smash_shortcuts_agree(ring_z2):
    index = ring_z2.index
    for a, b in [("0:0", "0:1"), ("0:0", "-2:0"), ("-1:0", "-1:0"), ("-1:0", "-3:0")]:
        da, db = index.find(a), index.find(b)
        row = _smash_row(ring_z2, da, db)
        assert row is not None
        assert row == ring_z2.decompose_product(da, db).summands


def test_smash_refuses_on_nontrivial_tau():
    build = build_config(twisted_tau_config())
    ring = FusionRing(build.hopf)
    d = ring.index.simples_for_f((1,))[0]
    assert _smash_row(ring, d, d) is None


def test_smash_refuses_on_mixed_stabilizers():
    build = build_preset("z_poly_zp:3")
    ring = FusionRing(build.hopf)
    full = ring.index.simples_for_f((1, 1, 1))[1]
    free = ring.index.simples_for_f((1, 0, 0))[0]
    assert _smash_row(ring, full, free) is None
    # the generic path still decomposes it
    row = ring.decompose_product(full, free)
    assert sum(m * ring.index.find(u).dim_total for u, m in row.summands) == 3


def test_twisted_fusion():
    build = build_config(twisted_tau_config())
    ring = FusionRing(build.hopf)
    index = ring.index
    odd = index.simples_for_f((1,))
    row = ring.decompose_product(odd[0], odd[0])
    # product of two projectively twisted characters lands on orbit 2
    assert all(u.startswith("2:") for u, _ in row.summands)
    assert sum(m for _, m in row.summands) == 1
    for d in index.enumerate(2):
        assert ring.fs_indicator(d) in (-1, 0, 1)


def test_ball_too_small_error(ring_z2):
    # candidates outside the ball of the factors still resolve
    d4 = ring_z2.index.find("-4:0")
    row = ring_z2.decompose_product(d4, d4)
    assert dict(row.summands)["-8:0"] == 1


def test_fusion_table_and_based_ring(ring_z2):
    table = ring_z2.fusion_table(3)
    assert len(table.rows) == len(table.simples) ** 2
    report = ring_z2.verify_based_ring(table)
    assert report["ok"], report
    assert table.noncommutative_pairs == []


def test_based_ring_detects_corruption(ring_z2):
    table = ring_z2.fusion_table(2)
    bad_rows = []
    for r in table.rows:
        if r.left == "-1:0" and r.right == "-1:0":
            bad_rows.append(FusionRow(r.left, r.right, (("-2:0", 2),)))
        else:
            bad_rows.append(r)
    table.rows = bad_rows
    report = ring_z2.verify_based_ring(table)
    assert not report["ok"]


def test_integrality_random_pairs():
    rng = random.Random(20240811)
    for name in ("h_z_z2", "h_z_z2n:2"):
        build = build_preset(name)
        ring = FusionRing(build.hopf)
        simples = ring.index.enumerate(3)
        for _ in range(25):
            d1, d2 = rng.choice(simples), rng.choice(simples)
            row = ring.decompose_product(d1, d2)
            assert all(m > 0 for _, m in row.summands)
            total = sum(m * ring.index.find(u).dim_total for u, m in row.summands)
            assert total == d1.dim_total * d2.dim_total


def test_fs_invariant_under_duality():
    build = build_preset("h_z_z2n:3")
    ring = FusionRing(build.hopf)
    for d in ring.index.enumerate(3):
        assert ring.fs_indicator(d) == ring.fs_indicator(ring.dual_of(d))


def _dense_solve_row(ring, d1, d2):
    """The summands of d1 * d2 by a dense exact solve of the character
    product against every candidate character, asserting independence
    and a zero residual: the oracle for the Haar-pairing rows."""
    H, index = ring.hopf, ring.index
    product = H.mul(index.character(d1), index.character(d2))
    candidates = [
        c for orb in orbit_product(H.ctx, d1.orbit, d2.orbit) for c in index.simples_for_orbit(orb)
    ]
    basis = [index.character(c) for c in candidates]
    keys = sorted(set(product.terms).union(*(b.terms for b in basis)))
    zero = rational(0)
    rows = [[b.terms.get(k, zero) for b in basis] + [product.terms.get(k, zero)] for k in keys]
    pivots = row_reduce(rows, len(basis))
    assert pivots == list(range(len(basis))), "candidate characters are dependent"
    assert all(row[-1].is_zero() for row in rows[len(basis):]), "nonzero residual"
    coeffs = [(c, row[-1]) for c, row in zip(candidates, rows) if not row[-1].is_zero()]
    assert all(m.is_integer() for _c, m in coeffs), "a multiplicity is not an integer"
    return tuple(sorted((c.uid, m.num[0]) for c, m in coeffs))


def z2_trivial_on_s3_config() -> dict:
    """G = Z2 acting trivially on the finite F = S3, trivial cocycles:
    H = k^Z2 (x) kS3 is noncommutative, with 12 simples of dimension 1 and
    9 noncommuting pairs of F elements, 36 noncommutative pairs of simples."""
    perms = sorted(itertools.permutations(range(3)))
    s3 = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return {
        "name": "z2_trivial_on_s3",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {"type": "finite", "table": s3, "name": "S3"},
        "action": {"type": "tables", "right": [list(range(6))] * 2, "left": [[0] * 6, [1] * 6]},
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 0,
    }


_ORACLE_CONFIGS = {
    "h_z_z2n:2": (lambda: build_preset("h_z_z2n:2"), 3),
    "drinfeld:S3": (lambda: build_preset("drinfeld:S3"), 0),
    "drinfeld:A4": (lambda: build_preset("drinfeld:A4"), 0),
    "z_poly_zp:2": (lambda: build_preset("z_poly_zp:2"), 2),
    "twisted_tau": (lambda: build_config(twisted_tau_config()), 3),
    "twisted_sigma": (lambda: build_config(twisted_sigma_config()), 3),
    "z4_twisted": (lambda: build_config(z4_twisted_config()), 3),
    "s3_factorization": (lambda: build_config(s3_factorization_config()), 0),
    "sigma_and_tau": (lambda: build_config(sigma_and_tau_config()), 3),
    "z2_trivial_on_s3": (lambda: build_config(z2_trivial_on_s3_config()), 0),
}

# The predicate is structural (trivial left action, abelian F, trivial sigma),
# and false on these: F is nonabelian (the Drinfeld doubles, z2_trivial_on_s3),
# the left action moves g (s3_factorization) or sigma is nontrivial, although
# twisted_sigma's symmetric sigma commutes anyway.
_PREDICATE_FALSE = (
    "drinfeld:A4",
    "drinfeld:S3",
    "s3_factorization",
    "sigma_and_tau",
    "twisted_sigma",
    "z2_trivial_on_s3",
)


@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
def test_is_commutative_by_brute_force(name):
    # where the predicate holds, every pair of basis elements of a radius-1
    # ball commutes; the row swap of decompose_product rests on it
    H = _ORACLE_CONFIGS[name][0]().hopf
    assert H.is_commutative is (name not in _PREDICATE_FALSE)
    if H.is_commutative:
        keys = [(g, f) for f in f_ball(H.F, 1) for g in H.G.elements()]
        assert [
            (k1, k2) for k1 in keys for k2 in keys if H.basis_mul(k1, k2) != H.basis_mul(k2, k1)
        ] == []


def test_noncommutative_fusion_table():
    ring = FusionRing(build_config(z2_trivial_on_s3_config()).hopf)
    table = ring.fusion_table(0)
    assert len(table.simples) == 12
    assert len(table.noncommutative_pairs) == 36
    assert ring.verify_based_ring(table)["ok"]


@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
def test_rows_match_dense_solve(name):
    build, radius = _ORACLE_CONFIGS[name]
    ring = FusionRing(build().hopf)
    simples = ring.index.enumerate(radius)
    mismatches = [
        (d1.uid, d2.uid)
        for d1 in simples
        for d2 in simples
        if ring.decompose_product(d1, d2).summands != _dense_solve_row(ring, d1, d2)
    ]
    assert mismatches == []


def sign_sigma_config() -> dict:
    """Z2 acting on Z by sign with sigma(1; odd, odd) = -1: sigma(g; f, f^-1)
    enters the indicator of the odd orbits, which is -1."""
    cfg = twisted_sigma_config()
    cfg["name"] = "z_z2_sign_sigma"
    cfg["action"]["matrices"] = [[[1]], [[-1]]]
    return cfg


_FS_CONFIGS = {
    **{name: (lambda name=name: build_preset(name), 2) for name in SHIPPED},
    "twisted_tau": (lambda: build_config(twisted_tau_config()), 2),
    "twisted_sigma": (lambda: build_config(twisted_sigma_config()), 2),
    "sign_sigma": (lambda: build_config(sign_sigma_config()), 2),
    "z4_twisted": (lambda: build_config(z4_twisted_config()), 2),
    "s3_factorization": (lambda: build_config(s3_factorization_config()), 0),
    "sigma_and_tau": (lambda: build_config(sigma_and_tau_config()), 2),
    "klein_twisted": (lambda: build_config(klein_twisted_config()), 0),
    "s4_sign_tau": (lambda: build_config(s4_sign_tau_config()), 0),
    "s3_factorization_tau": (lambda: build_config(s3_factorization_tau_config()), 0),
    "b3_z3": (lambda: build_config(json.loads(B3_Z3.read_text(encoding="utf-8"))), 0),
}


@pytest.mark.parametrize("name", sorted(_FS_CONFIGS))
def test_fs_indicator_matches_integral_of_product(name):
    build, radius = _FS_CONFIGS[name]
    ring = FusionRing(build().hopf)
    simples = ring.index.enumerate(radius)
    got = [rational(ring.fs_indicator(d)) for d in simples]
    assert got == [HaarOracle(ring).nu2(d) for d in simples]


def _self_dual_s3_uids():
    ring = FusionRing(build_preset("drinfeld:S3").hopf)
    return [d.uid for d in ring.index.enumerate(0) if ring.is_self_dual(d)]


@pytest.mark.parametrize("uid", _self_dual_s3_uids())
def test_fs_indicator_refuses_ab_off_the_stabilizer(uid, monkeypatch):
    # ab lies in G_f for every b of the walk (fusion module docstring); a
    # record missing the cell of the first ab must raise, not skip the term
    ring = FusionRing(build_preset("drinfeld:S3").hopf)
    d = ring.index.find(uid)
    H, orbit, stabilizer = ring.hopf, d.orbit, ring.index.stabilizer
    G, f = H.G, orbit.representative
    z = ring.index.transport(orbit)[H.F.inv(f)]
    b = G.mul(G.inv(z), orbit.stabilizer[0])
    ab = G.mul(H.ctx.act_left(b, f), b)
    broken = copy.copy(stabilizer(orbit))
    broken.cls = {g: c for g, c in broken.cls.items() if g != ab}
    monkeypatch.setattr(ring.index, "stabilizer", lambda o: broken if o == orbit else stabilizer(o))
    with pytest.raises(InternalInconsistencyError, match="ab is not in the stabilizer"):
        ring.fs_indicator(d)


@pytest.mark.parametrize("name", sorted(_FS_CONFIGS))
def test_unit_simple_has_the_unit_character(name):
    # the stabilizer row of 1 everywhere against the character comparison
    index = SimpleIndex(_FS_CONFIGS[name][0]().hopf)
    unit = index.hopf.unit()
    simples = index.simples_for_f(index.hopf.F.identity)
    assert [d for d in simples if index.character(d) == unit] == [index.unit_simple()]


def _refuse(*_args, **_kwargs):
    raise AssertionError("the fusion ring formed a character or walked a coproduct")


def test_fusion_table_forms_no_character(monkeypatch):
    # rows, duals, indicators and the unit are read off the stabilizer
    # tables: no character is formed and no coproduct or Haar pairing walked
    for name in sorted(_FS_CONFIGS):
        build, radius = _FS_CONFIGS[name]
        ring = FusionRing(build().hopf)
        with monkeypatch.context() as m:
            m.setattr(comodules, "irreducible_character", _refuse)
            m.setattr(SimpleIndex, "character", _refuse)
            for attr in ("comul_basis", "haar_partner", "haar_weight"):
                m.setattr(BicrossedHopf, attr, _refuse)
            table = ring.fusion_table(radius)
            report = ring.verify_based_ring(table)
        assert report["ok"] and len(table.indicators) == len(table.simples), name


# The fusion rules of D(S3) (Dijkgraaf, Pasquier and Roche 1990), written
# out by hand: A, B, C over the identity class (the trivial, sign and
# 2-dimensional characters of S3), D, E over the transpositions (the
# trivial and sign characters of Z2), F, G, H over the 3-cycles (the
# characters 1, w, w^2 of Z3).  Entry [i][j] is the product of the i-th
# and j-th label.
_DPR_LABELS = "ABCDEFGH"
_DPR_S3 = [
    ["A", "B", "C", "D", "E", "F", "G", "H"],
    ["B", "A", "C", "E", "D", "F", "G", "H"],
    ["C", "C", "A+B+C", "D+E", "D+E", "G+H", "F+H", "F+G"],
    ["D", "E", "D+E", "A+C+F+G+H", "B+C+F+G+H", "D+E", "D+E", "D+E"],
    ["E", "D", "D+E", "B+C+F+G+H", "A+C+F+G+H", "D+E", "D+E", "D+E"],
    ["F", "F", "G+H", "D+E", "D+E", "A+B+F", "C+H", "C+G"],
    ["G", "G", "F+H", "D+E", "D+E", "C+H", "A+B+G", "C+F"],
    ["H", "H", "F+G", "D+E", "D+E", "C+G", "C+F", "A+B+H"],
]
# (orbit size, dimension, self-dual) of each label; every simple of D(S3)
# is self-dual
_DPR_KINDS = {
    "A": (1, 1, True),
    "B": (1, 1, True),
    "C": (1, 2, True),
    "D": (3, 3, True),
    "E": (3, 3, True),
    "F": (2, 2, True),
    "G": (2, 2, True),
    "H": (2, 2, True),
}


def test_drinfeld_s3_matches_dpr_rules(drinfeld_s3):
    """The drinfeld:S3 table at radius 0 equals the rules of D(S3) under
    some relabeling that keeps each label's orbit size, dimension and
    self-duality: labels of one kind may be permuted among themselves."""
    ring = FusionRing(drinfeld_s3.hopf)
    table = ring.fusion_table(0)
    uids = [d.uid for d in table.simples]
    kinds = {d.uid: (d.orbit.size, d.dim_total, table.duals[d.uid] == d.uid) for d in table.simples}
    assert sorted(kinds.values()) == sorted(_DPR_KINDS.values())
    expected = {
        (a, b): tuple(sorted(entry.split("+")))
        for a, row in zip(_DPR_LABELS, _DPR_S3)
        for b, entry in zip(_DPR_LABELS, row)
    }
    groups = [
        ([u for u in uids if kinds[u] == kind], [x for x in _DPR_LABELS if _DPR_KINDS[x] == kind])
        for kind in sorted(set(_DPR_KINDS.values()))
    ]
    matches = []
    for choice in itertools.product(*(itertools.permutations(labels) for _uids, labels in groups)):
        label = {
            u: x for (group_uids, _labels), perm in zip(groups, choice) for u, x in zip(group_uids, perm)
        }
        got = {
            (label[r.left], label[r.right]): tuple(sorted(label[u] for u, m in r.summands for _ in range(m)))
            for r in table.rows
        }
        if got == expected:
            matches.append(label)
    assert matches


def _complex(v) -> complex:
    """A cyclotomic value in floating point, from its power basis."""
    return sum(c * cmath.exp(2j * cmath.pi * k / v.level) for k, c in enumerate(v.num)) / v.den


def _dpr_rules(G, labels) -> dict:
    """The fusion rules of D(G) over labels (class representative a, class
    of a, centralizer character of a as {element: complex}), by the
    Verlinde formula N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m over the
    Dijkgraaf-Pasquier-Roche S-matrix
    S_(a,alpha),(b,beta) = (1/|G|) sum conj(alpha(x_g^-1 h x_g)) conj(beta(x_h^-1 g x_h))
    over the commuting g in the class of a and h in that of b, with
    g = x_g a x_g^-1 and h = x_h b x_h^-1, in floating point.  Label 0
    is the unit.  Every N is asserted within 1e-9 of an integer; the
    rules are {(i, j): {k: N_ij^k}} over the nonzero N."""
    mul, inv = G.mul, G.inv

    def conjugator(a, g):  # some x with x a x^-1 = g
        return next(x for x in G.elements() if mul(mul(x, a), inv(x)) == g)

    def pull(a, g, h):  # x_g^-1 h x_g for g in the class of a
        x = conjugator(a, g)
        return mul(mul(inv(x), h), x)

    n = len(labels)
    S = [[0j] * n for _ in range(n)]
    for i, (a, class_a, alpha) in enumerate(labels):
        for j, (b, class_b, beta) in enumerate(labels):
            S[i][j] = sum(
                (alpha[pull(a, g, h)] * beta[pull(b, h, g)]).conjugate()
                for g in class_a
                for h in class_b
                if mul(g, h) == mul(h, g)
            ) / G.order
    rules = {}
    for i in range(n):
        for j in range(n):
            row = {}
            for k in range(n):
                value = sum(S[i][m] * S[j][m] * S[k][m].conjugate() / S[0][m] for m in range(n))
                rounded = round(value.real)
                assert abs(value - rounded) < 1e-9, (i, j, k, value)
                if rounded:
                    row[k] = rounded
            rules[i, j] = row
    return rules


def test_drinfeld_a4_matches_dpr_rules():
    """The drinfeld:A4 table at radius 0 equals the Verlinde rules of
    D(A4): the simple f:i is the label (class of f, the i-th character of
    the centralizer of f), the stabilizer of f under conjugation."""
    build = build_preset("drinfeld:A4")
    G = build.hopf.G
    ring = FusionRing(build.hopf)
    table = ring.fusion_table(0)
    unit = ring.index.unit_simple()
    simples = [unit] + [d for d in table.simples if d.uid != unit.uid]
    labels = [
        (
            d.orbit.representative,
            d.orbit.elements,
            {g: _complex(v) for g, v in d.chi.value_map().items()},
        )
        for d in simples
    ]
    assert len(labels) == 14
    rules = _dpr_rules(G, labels)
    position = {d.uid: i for i, d in enumerate(simples)}
    got = {
        (position[r.left], position[r.right]): {position[u]: m for u, m in r.summands}
        for r in table.rows
    }
    assert got == rules
