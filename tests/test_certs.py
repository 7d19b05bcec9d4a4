from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from haar_oracle import HaarOracle

from bicrossed.certs import dimension_audit, direct_sum_check, exact_rank, solve_in_span
from bicrossed.comodules import SimpleIndex, coefficient_basis
from bicrossed.cyclotomic import rational, root_of_unity
from bicrossed.errors import InternalInconsistencyError
from bicrossed.fusion import FusionRing
from bicrossed.hopf import HElem


def test_exact_rank_examples(h_z_z2):
    H = h_z_z2.hopf
    index = SimpleIndex(H)
    (d,) = index.simples_for_f((1,))
    basis = coefficient_basis(H, d)
    assert exact_rank(basis).rank == 4
    # duplicates never change the rank
    assert exact_rank(basis + basis).rank == 4
    chars = [index.character(x) for x in index.enumerate(3)]
    assert exact_rank(chars).rank == len(chars)


def test_exact_rank_with_cyclotomic_coeffs():
    i = root_of_unity(1, 4)
    v1 = HElem.basis(0, 0).scale(i) + HElem.basis(1, 0)
    v2 = HElem.basis(0, 0) + HElem.basis(1, 0).scale(-i)  # = -i * v1
    assert exact_rank([v1, v2]).rank == 1
    v3 = HElem.basis(0, 0) + HElem.basis(1, 0).scale(i)
    assert exact_rank([v1, v3]).rank == 2


@given(st.permutations(range(4)))
def test_exact_rank_order_independent(perm):
    vs = [
        HElem.basis(0, 0) + HElem.basis(1, 0),
        HElem.basis(0, 0) - HElem.basis(1, 0),
        HElem.basis(0, 1).scale(rational(3)),
        HElem.basis(0, 0) + HElem.basis(0, 1),
    ]
    shuffled = [vs[i] for i in perm]
    assert exact_rank(shuffled).rank == exact_rank(vs).rank


def test_solve_in_span(h_z_z2):
    ring = FusionRing(h_z_z2.hopf)
    chars = [ring.index.character(d) for d in ring.index.enumerate(2)]
    target = chars[0].scale(rational(2)) + chars[3]
    coeffs = solve_in_span(chars, target, HaarOracle(ring).pair)
    assert [c.literal() for c in coeffs] == ["2", "0", "0", "1"]


def test_solve_in_span_rejects_residual(h_z_z2):
    ring = FusionRing(h_z_z2.hopf)
    chars = [ring.index.character(d) for d in ring.index.enumerate(1)]
    outside = HElem.basis(0, (2,))
    with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
        solve_in_span(chars, outside, HaarOracle(ring).pair)


def test_direct_sum_drinfeld(drinfeld_s3):
    index = SimpleIndex(drinfeld_s3.hopf)
    cert = direct_sum_check(drinfeld_s3.hopf, index, 0)
    assert cert.ok
    dims = sorted(b["dimension"] for b in cert.details["blocks"])
    assert dims == [6, 12, 18]
    assert cert.details["covers_full_basis"]


def test_direct_sum_h_z_z2(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    cert = direct_sum_check(h_z_z2.hopf, index, 2)
    assert cert.ok
    assert cert.details["covers_ball"]
    dims = sorted(b["dimension"] for b in cert.details["blocks"])
    assert dims == [2, 4, 4]


def test_radius0_single_block(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    cert = direct_sum_check(h_z_z2.hopf, index, 0)
    assert cert.ok
    assert [b["dimension"] for b in cert.details["blocks"]] == [2]  # C_1F = k^G


def test_dimension_audit(drinfeld_s3, z_poly_zp3):
    index = SimpleIndex(drinfeld_s3.hopf)
    audit = dimension_audit(drinfeld_s3.hopf, index, 0)
    assert audit["ok"]
    assert sorted(r["sum_dim_sq"] for r in audit["rows"]) == [6, 12, 18]
    index2 = SimpleIndex(z_poly_zp3.hopf)
    audit2 = dimension_audit(z_poly_zp3.hopf, index2, 1)
    assert audit2["ok"]
    for row in audit2["rows"]:
        assert row["sum_dim_sq"] == row["expected"] == 3 * row["orbit_size"]


def test_direct_sum_monotone_in_radius(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    results = [direct_sum_check(h_z_z2.hopf, index, r).ok for r in range(4)]
    assert results == [True] * 4
