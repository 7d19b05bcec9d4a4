from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    broken_compat_config,
    build_preset,
    s4_factorization_ctx,
    sigma_two_config,
    twisted_sigma_config,
    twisted_tau_config,
)

from bicrossed.cli import run
from bicrossed.cocycles import SigmaCocycle, TauCocycle
from bicrossed.config import build_config
from bicrossed.groups import f_ball
from bicrossed.cyclotomic import rational, root_of_unity
from bicrossed.errors import VerificationFailure
from bicrossed.hopf import (
    BicrossedHopf,
    HElem,
    HTensor,
    _accumulate,
    pair_check_radius,
    verify_hopf,
    verify_star,
)
from bicrossed.matched_pair import MatchedPairCtx, TableActions


def e(i):
    return HElem.basis(0, (-i,))


def fi(i):
    return HElem.basis(1, (i,))


def test_unit_and_counit(h_z_z2):
    H = h_z_z2.hopf
    assert H.unit() == e(0) + fi(0)
    assert H.counit(H.unit()).is_one()
    assert H.counit(e(3)).is_one()
    assert H.counit(fi(3)).is_zero()


def test_product_relations(h_z_z2):
    H = h_z_z2.hopf
    for i in range(-3, 4):
        for j in range(-3, 4):
            assert H.mul(e(i), e(j)) == e(i + j)
            assert H.mul(fi(i), fi(j)) == fi(i + j)
            assert H.mul(e(i), fi(j)).is_zero()
            assert H.mul(fi(j), e(i)).is_zero()
    assert H.mul(HElem.basis(0, (0,)), HElem.basis(0, (0,))) == HElem.basis(0, (0,))
    assert H.mul(HElem.basis(0, (0,)), HElem.basis(1, (0,))).is_zero()


def test_coproduct_relations(h_z_z2):
    H = h_z_z2.hopf
    for i in (-2, 0, 1, 3):
        assert H.comul(e(i)) == HTensor.of(e(i), e(i)) + HTensor.of(fi(i), fi(-i))
        assert H.comul(fi(i)) == HTensor.of(e(i), fi(i)) + HTensor.of(fi(i), e(-i))
    assert H.comul(H.unit()) == HTensor.of(H.unit(), H.unit())


def test_coproduct_trivial_tau_generic():
    # Delta(p_1 # f) = p_1#f (x) p_1#f + p_g#(g>f) (x) p_g#f for G = Z2
    build = build_config(twisted_sigma_config())
    H = build.hopf
    f = (3,)
    t = H.comul(HElem.basis(0, f))
    assert t == HTensor.of(HElem.basis(0, f), HElem.basis(0, f)) + HTensor.of(
        HElem.basis(1, f), HElem.basis(1, f)
    )


def test_antipode(h_z_z2):
    H = h_z_z2.hopf
    for i in range(-4, 5):
        assert H.antipode(fi(i)) == fi(i)
        assert H.antipode(e(i)) == e(-i)
        assert H.antipode(H.antipode(e(i))) == e(i)
    # S(p_g # 1_F) = p_{g^-1} # 1_F
    assert H.antipode(HElem.basis(1, (0,))) == HElem.basis(1, (0,))


def test_grouplike_x(h_z_z2):
    H = h_z_z2.hopf
    x = e(0) - fi(0)
    assert H.comul(x) == HTensor.of(x, x)
    assert H.mul(x, x) == H.unit()


def test_integral(h_z_z2):
    H = h_z_z2.hopf
    assert H.integral(HElem.basis(1, (0,))) == rational(Fraction(1, 2))
    assert H.integral(HElem.basis(1, (3,))).is_zero()
    assert H.integral(H.unit()).is_one()


def test_star_and_haar(h_z_z2):
    H = h_z_z2.hopf
    b = fi(2)
    assert H.star(b) == fi(-2)
    assert H.star(H.star(e(1))) == e(1)
    assert H.star(H.unit()) == H.unit()
    assert H.haar_gram(b, b) == rational(Fraction(1, 2))
    assert H.haar_gram(H.unit(), H.unit()).is_one()
    assert H.haar_gram(e(1), fi(1)).is_zero()


def test_star_nontrivial_sigma():
    build = build_config(twisted_sigma_config())
    H = build.hopf
    b = HElem.basis(1, (3,))
    # sigma(g; 3, -3) = -1 for odd arguments, so the star picks up a sign
    assert H.star(b) == HElem.basis(1, (-3,), coeff=rational(-1))
    assert H.star(H.star(b)) == b
    assert H.haar_gram(b, b) == rational(Fraction(1, 2))


def test_star_conjugates_coefficients(h_z_z2):
    H = h_z_z2.hopf
    i4 = root_of_unity(1, 4)
    x = e(1).scale(i4)
    assert H.star(x) == H.star(e(1)).scale(i4.conj())


def test_star_refuses_non_unitary():
    build = build_config(sigma_two_config())
    with pytest.raises(VerificationFailure):
        build.hopf.star(HElem.basis(0, 0))


def test_verify_hopf_presets(h_z_z2, h_z_z2n_2, drinfeld_s3):
    for build in (h_z_z2, h_z_z2n_2, drinfeld_s3):
        rep = verify_hopf(build.hopf, 3)
        assert rep.ok, rep.to_payload()


def test_verify_hopf_twisted_configs():
    for cfg in (twisted_tau_config(), twisted_sigma_config()):
        build = build_config(cfg)
        rep = verify_hopf(build.hopf, 3)
        assert rep.ok, (cfg["name"], rep.to_payload())
        star = verify_star(build.hopf, 3)
        assert star.ok


def test_verify_hopf_broken_compat_witness():
    build = build_config(broken_compat_config())
    rep = verify_hopf(build.hopf, 3)
    assert not rep.ok
    compat = next(c for c in rep.checks if c.name == "bialgebra compatibility")
    assert compat.violations
    w = compat.violations[0]
    assert "a" in w and "b" in w


def test_verify_star_report(h_z_z2):
    rep = verify_star(h_z_z2.hopf, 3)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "star involution" in names
    assert "haar_gram(b,b) = 1/|G|" in names
    gram = next(c for c in rep.checks if c.name == "haar_gram(b,b) = 1/|G|")
    assert gram.instances == 14  # 2 group elements x 7 ball members


def test_pair_check_radius(z_poly_zp3, h_z_z2):
    assert pair_check_radius(z_poly_zp3.hopf, 3) == 1
    assert pair_check_radius(h_z_z2.hopf, 3) == 3


def test_scalar_linearity(h_z_z2):
    H = h_z_z2.hopf
    a = e(1).scale(rational(Fraction(2, 3))) + fi(2)
    b = e(2) - fi(1).scale(rational(5))
    assert H.mul(a, b) == H.mul(e(1), e(2)).scale(rational(Fraction(2, 3))) - H.mul(
        fi(2), fi(1)
    ).scale(rational(5))
    assert H.counit(a + b) == H.counit(a) + H.counit(b)


def test_haar_gram_self_pairing(h_z_z2):
    # verify_star certifies the basis orthogonal with <b, b>_r = 1/|G|, so
    # <x, x>_r = sum_b |a_b|^2/|G|: positive exactly when x != 0
    H = h_z_z2.hopf
    x = e(1).scale(rational(Fraction(2, 3))) + fi(2)
    assert H.haar_gram(x, x) == rational(Fraction(13, 18))  # (4/9 + 1) / 2
    y = e(1).scale(root_of_unity(1, 8)) + fi(0)
    assert H.haar_gram(y, y) == rational(1)  # |z8|^2/2 + 1/2
    assert H.haar_gram(HElem.zero(), HElem.zero()).is_zero()


def test_haar_gram_diagonal_needs_the_left_action_law():
    """With the left action law broken, the Haar partner of the star of a
    basis element is another key, and <b, b>_r = 0 differs from 1/|G|."""
    s4 = s4_factorization_ctx()
    left = [list(row) for row in s4.action.left]
    left[2][0], left[2][1] = left[2][1], left[2][0]
    ctx = MatchedPairCtx(s4.G, s4.F, TableActions(s4.action.right, tuple(map(tuple, left))))
    H = BicrossedHopf(ctx, SigmaCocycle.trivial(), TauCocycle.trivial())
    b0, b2 = HElem.basis(0, 1), HElem.basis(2, 1)
    assert H.haar_gram(b0, b0) == rational(Fraction(1, H.G.order))
    assert H.haar_gram(b2, b2).is_zero()


def test_exact_without_mpmath(monkeypatch, capsys, h_z_z2):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # import mpmath raises
    assert run(["--preset", "h_z_z2", "cqg-check"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["unitary"] is True
    y = e(1).scale(root_of_unity(1, 8)) + fi(0)
    assert h_z_z2.hopf.haar_gram(y, y).literal() == "1"


_PAIRING_BUILDS = {
    "h_z_z2n:2": lambda: build_preset("h_z_z2n:2"),
    "drinfeld:S3": lambda: build_preset("drinfeld:S3"),
    "twisted_tau": lambda: build_config(twisted_tau_config()),
    "twisted_sigma": lambda: build_config(twisted_sigma_config()),
}
_pairing_cache: dict = {}

_coefficients = st.sampled_from(
    [rational(1), rational(-2), rational(Fraction(1, 3)), root_of_unity(1, 4), root_of_unity(2, 3)]
)


@pytest.mark.parametrize("name", sorted(_PAIRING_BUILDS))
@given(data=st.data())
def test_integral_of_product_matches_integral_of_mul(name, data):
    """<T, xy> from one pass over x equals the integral of the formed
    product, on random sparse x and y; y also gets the partners of some
    terms of x, so terms that pair to a nonzero value are drawn often."""
    if name not in _pairing_cache:
        _pairing_cache[name] = _PAIRING_BUILDS[name]().hopf
    H = _pairing_cache[name]
    keys = [(g, f) for f in f_ball(H.F, 1) for g in H.G.elements()]
    terms = st.tuples(st.sampled_from(keys), _coefficients)

    x = HElem(_accumulate(data.draw(st.lists(terms, max_size=6))))
    partners = [
        ((H.ctx.act_left(g, f), H.F.inv(f)), c)
        for (g, f) in x.terms
        for c in data.draw(st.lists(_coefficients, max_size=1))
    ]
    y = HElem(_accumulate(data.draw(st.lists(terms, max_size=6)) + partners))
    assert H.integral_of_product(x, y) == H.integral(H.mul(x, y))
