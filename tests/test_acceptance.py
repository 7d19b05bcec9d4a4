"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact; there are no tolerances anywhere.  Runtime is
asserted only where the criterion states one.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest

from conftest import build_preset, sigma_two_config

from bicrossed.certs import dimension_audit, direct_sum_check
from bicrossed.cocycles import Beta2Cocycle, is_unitary, verify_cocycles
from bicrossed.cyclotomic import rational, root_of_unity
from bicrossed.fusion import FusionRing
from bicrossed.groups import cyclic_group, direct_product
from bicrossed.hopf import HElem, HTensor, verify_hopf, verify_star
from bicrossed.matched_pair import verify_matched_pair
from bicrossed.reps import twisted_char_table

HOPF_PRESETS = ["h_z_z2", "h_z_z2n:2", "h_z_z2n:3", "z_poly_zp:3", "drinfeld:S3"]
SMASH_PRESETS = ["h_z_z2", "h_z_z2n:2", "h_z_z2n:3", "z_poly_zp:3"]

REQUIRED_HOPF_CHECKS = {
    "associativity",
    "coassociativity",
    "counit laws",
    "bialgebra compatibility",
    "antipode law",
    "S^2 = id",
    "left integral law",
    "<T, unit> = 1",
}


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def builds():
    return {name: build_preset(name) for name in HOPF_PRESETS}


@pytest.fixture(scope="module")
def rings(builds):
    return {name: FusionRing(b.hopf) for name, b in builds.items()}


def test_criterion_01_hopf_axiom_suite(builds):
    t0 = time.time()
    for name in HOPF_PRESETS:
        b = builds[name]
        assert verify_matched_pair(b.ctx, 3).ok, name
        assert verify_cocycles(b.ctx, b.sigma, b.tau, 3).ok, name
        rep = verify_hopf(b.hopf, 3)
        names = {c.name for c in rep.checks}
        assert REQUIRED_HOPF_CHECKS <= names
        assert rep.ok, (name, rep.to_payload())
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"Hopf-axiom suite took {elapsed:.1f}s"
    _ok(1, f"Hopf axioms exact on radius-3 balls for {len(HOPF_PRESETS)} presets "
           f"in {elapsed:.1f}s")


def test_criterion_02_classification_counting(builds, rings):
    for name in HOPF_PRESETS:
        b = builds[name]
        index = rings[name].index
        audit = dimension_audit(b.hopf, index, 3)
        assert audit["ok"], name
        for row in audit["rows"]:
            assert row["sum_dim_sq"] == row["expected"]
    s3 = rings["drinfeld:S3"].index
    simples = s3.enumerate(0)
    assert [d.dim_total for d in simples] == [1, 1, 2, 3, 3, 2, 2, 2]
    audit = dimension_audit(builds["drinfeld:S3"].hopf, s3, 0)
    total = sum(r["sum_dim_sq"] for r in audit["rows"])
    assert total == 36 == builds["drinfeld:S3"].hopf.G.order ** 2
    cert = direct_sum_check(builds["drinfeld:S3"].hopf, s3, 0)
    assert cert["ok"] and cert["details"]["covers_full_basis"]
    _ok(2, "per-orbit counting identity everywhere; drinfeld:S3 dims "
           "(1,1,2,3,3,2,2,2) with sum of squares 36")


def test_criterion_03_h_z_z2_structure(builds, rings):
    H = builds["h_z_z2"].hopf

    def e(i):
        return HElem.basis(0, (-i,))

    def f(i):
        return HElem.basis(1, (i,))

    for i in range(-4, 5):
        for j in range(-4, 5):
            assert H.mul(e(i), e(j)) == e(i + j)
            assert H.mul(f(i), f(j)) == f(i + j)
            assert H.mul(e(i), f(j)).is_zero()
        assert H.comul(e(i)) == HTensor.of(e(i), e(i)) + HTensor.of(f(i), f(-i))
        assert H.antipode(f(i)) == f(i)
    index = rings["h_z_z2"].index
    simples = index.enumerate(5)
    assert [d.uid for d in simples] == ["0:0", "0:1", "-1:0", "-2:0", "-3:0", "-4:0", "-5:0"]
    unit = index.unit_simple()
    assert unit.uid == "0:1"
    x = index.find("0:0")
    assert index.character(x) == e(0) - f(0)
    assert H.mul(index.character(x), index.character(x)) == H.unit()
    for i in range(1, 6):
        d = index.find(f"-{i}:0")
        assert d.dim_total == 2
        assert index.character(d) == e(i) + e(-i)
    _ok(3, "H(Z, Z2): algebra relations, coproduct, antipode, the simple list "
           "{1, x, C_1..C_5} and chi(C_i) = e_i + e_-i")


def _kg(index, n, i):
    want = root_of_unity(i % (2 * n), 2 * n)
    for d in index.simples_for_f((0,)):
        if d.chi.value_map()[1] == want:
            return d
    raise AssertionError


def _E(index, n, j, k):
    want = root_of_unity(k % n, n) if n > 1 else rational(1)
    for d in index.simples_for_f((j,)):
        if d.chi.value_map()[2 % (2 * n)] == want:
            return d
    raise AssertionError


def test_criterion_04_z2n_fusion_ring():
    checked = 0
    for n in (1, 2, 3):
        build = build_preset(f"h_z_z2n:{n}")
        ring = FusionRing(build.hopf)
        index = ring.index
        kg = lambda i: _kg(index, n, i)
        E = lambda j, k: _E(index, n, j, k)
        for i in range(2 * n):
            for i2 in range(2 * n):
                assert ring.decompose_product(kg(i), kg(i2)).summands == ((kg(i + i2).uid, 1),)
                checked += 1
        for i in range(2 * n):
            for j in range(1, 5):
                for k in range(n):
                    want = ((E(j, i + k).uid, 1),)
                    assert ring.decompose_product(kg(i), E(j, k)).summands == want
                    assert ring.decompose_product(E(j, k), kg(i)).summands == want
                    checked += 2
        for j in range(1, 5):
            for j2 in range(1, 5):
                for k in range(n):
                    for l in range(n):
                        row = ring.decompose_product(E(j, k), E(j2, l)).summands
                        if j == j2:
                            want = sorted(
                                [(kg(k + l).uid, 1), (kg(n + k + l).uid, 1), (E(2 * j, k + l).uid, 1)]
                            )
                        else:
                            want = sorted(
                                [(E(j + j2, k + l).uid, 1), (E(abs(j - j2), k + l).uid, 1)]
                            )
                        assert row == tuple(want), (n, j, j2, k, l)
                        checked += 1
        for j in range(1, 5):
            for k in range(n):
                assert ring.dual_of(E(j, k)).uid == E(j, n - k).uid
                checked += 1
    _ok(4, f"Z_2n fusion ring reproduced exactly for n in 1..3 ({checked} products/duals)")


def test_criterion_05_frobenius_schur(builds, rings):
    for name in HOPF_PRESETS:
        ring = rings[name]
        for d in ring.index.enumerate(4):
            nu = ring.fs_indicator(d)
            assert nu in (-1, 0, 1)
            assert (nu != 0) == ring.is_self_dual(d)
    for d in rings["h_z_z2"].index.enumerate(4):
        assert rings["h_z_z2"].fs_indicator(d) == 1
    _ok(5, "nu_2 in {-1,0,1} with nu_2 != 0 iff self-dual on every preset; "
           "all H(Z,Z2) simples have nu_2 = 1")


def test_criterion_06_duality(builds, rings):
    for name in HOPF_PRESETS:
        ring = rings[name]
        for d in ring.index.enumerate(4):
            assert ring.dual_of(ring.dual_of(d)).uid == d.uid
    for name in SMASH_PRESETS:
        b = builds[name]
        ring = rings[name]
        for d in ring.index.enumerate(3):
            chi = d.chi.value_map()
            v_self_dual = all(
                chi[b.hopf.G.inv(g)] == chi[g] for g in d.orbit.stabilizer
            )
            rep = d.orbit.representative
            finv = b.hopf.F.inv(rep)
            g_f_finv_nonempty = any(
                b.ctx.act_right(g, rep) == finv for g in b.hopf.G.elements()
            )
            assert ring.is_self_dual(d) == (v_self_dual and g_f_finv_nonempty), d.uid
    _ok(6, "dual_of is an involution everywhere; smash self-duality matches the "
           "two-condition criterion")


def test_criterion_07_cqg_certification(builds, tmp_path):
    for name in HOPF_PRESETS:
        b = builds[name]
        ok, witness = is_unitary(b.sigma, b.tau, b.ctx, 3)
        assert ok and witness is None
        star = verify_star(b.hopf, 3)
        assert star.ok, (name, star.to_payload())
        gram = next(c for c in star.checks if c.name == "haar_gram(b,b) = 1/|G|")
        assert gram.instances > 0 and not gram.violations
    path = tmp_path / "sigma2.json"
    path.write_text(json.dumps(sigma_two_config()))
    proc = subprocess.run(
        [sys.executable, "-m", "bicrossed.cli", "--config", str(path), "cqg-check"],
        capture_output=True,
    )
    assert proc.returncode == 1
    rep = json.loads(proc.stdout)
    w = rep["payload"]["witness"]
    assert (w["kind"], w["g"], w["f"], w["f2"], w["value"]) == ("sigma", 1, "1", "1", "2")
    _ok(7, "unitarity, star axioms and <b,b>_r = 1/|G| on all presets; "
           "the sigma=2 fixture is rejected with its exact witness tuple")


def test_criterion_08_fusion_integrality(builds, rings):
    rng = random.Random(60302)
    total = 0
    for name in HOPF_PRESETS:
        ring = rings[name]
        index = ring.index
        simples = index.enumerate(4)
        for _ in range(100):
            d1, d2 = rng.choice(simples), rng.choice(simples)
            row = ring.decompose_product(d1, d2)
            assert all(isinstance(m, int) and m > 0 for _, m in row.summands)
            dim_sum = sum(m * index.find(u).dim_total for u, m in row.summands)
            assert dim_sum == d1.dim_total * d2.dim_total
            total += 1
    _ok(8, f"{total} random products decomposed with zero residual, "
           "nonnegative integer multiplicities and exact dimension counts")


def test_criterion_09_twisted_representation_oracle():
    K4 = direct_product(cyclic_group(2), cyclic_group(2))

    def bits(i):
        return (i // 2, i % 2)

    values = {
        (i, j): rational((-1) ** (bits(i)[1] * bits(j)[0]))
        for i in range(4)
        for j in range(4)
    }
    beta = Beta2Cocycle.from_table(K4, (0, 1, 2, 3), values)
    table = twisted_char_table(K4, (0, 1, 2, 3), beta)
    assert len(table.chars) == 1
    chi = table.chars[0]
    assert chi.dim == 2
    assert sum(c.dim**2 for c in table.chars) == 4
    # independent oracle: center of the twisted algebra is 1-dimensional
    # and the regular traces force chi = (2, 0, 0, 0)
    rows = []
    for b in range(4):
        for c in range(4):
            row = [rational(0)] * 4
            for a in range(4):
                if K4.mul(b, a) == c:
                    row[a] = row[a] + values[(b, a)]
                if K4.mul(a, b) == c:
                    row[a] = row[a] - values[(a, b)]
            rows.append(row)
    rank = 0
    for col in range(4):
        piv = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    assert 4 - rank == 1
    for a in range(4):
        reg_trace = sum(
            (values[(a, b)] for b in range(4) if K4.mul(a, b) == b), rational(0)
        )
        assert reg_trace == rational(2) * chi.value(a)
    _ok(9, "Klein twisted algebra: exactly one 2-dimensional character, matching "
           "the brute-force center/trace decomposition")


def test_criterion_10_determinism():
    for preset in ("h_z_z2", "drinfeld:S3"):
        cmd = [
            sys.executable,
            "-m",
            "bicrossed.cli",
            "--preset",
            preset,
            "fusion-table",
            "--radius",
            "4",
            "--format",
            "json",
        ]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0, r1.stdout[:400]
        assert r1.stdout == r2.stdout and r1.stdout
        rep = json.loads(r1.stdout)
        assert rep["status"] == "pass"
    _ok(10, "fusion-table --radius 4 --format json is byte-identical across runs")
