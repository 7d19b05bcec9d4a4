from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicrossed.cyclotomic import (
    CycNum,
    _mul,
    cyclotomic_polynomial,
    one,
    phi,
    rational,
    root_of_unity,
    zero,
)


# -- independent oracles -------------------------------------------------


def principal_embedding(a: CycNum) -> complex:
    """a at zeta_N -> e^(2 pi i/N), in floating point."""
    z = cmath.exp(2j * cmath.pi / a.level)
    return sum(float(c) * z**e for e, c in enumerate(a.coeffs))


def poly_mod(coeffs, modulus):
    """Plain long division remainder; oracle independent of CycNum."""
    coeffs = list(coeffs)
    while len(coeffs) >= len(modulus):
        lead = coeffs[-1]
        shift = len(coeffs) - len(modulus)
        for i, m in enumerate(modulus):
            coeffs[shift + i] -= lead * m
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
    return coeffs


def reduce_oracle(poly, n):
    """poly (ascending Fractions) mod Phi_n, padded to length phi(n)."""
    rem = poly_mod(list(poly), cyclotomic_polynomial(n))
    return tuple(rem + [Fraction(0)] * (phi(n) - len(rem)))


def convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def substitute(coeffs, n, k):
    """sum c_e x^(e*k mod n), reduced mod Phi_n: zeta -> zeta^k at level n."""
    poly = [Fraction(0)] * n
    for e, c in enumerate(coeffs):
        poly[(e * k) % n] += c
    return reduce_oracle(poly, n)


def lift_oracle(coeffs, n, m):
    poly = [Fraction(0)] * ((len(coeffs) - 1) * (m // n) + 1)
    for e, c in enumerate(coeffs):
        poly[e * (m // n)] += c
    return reduce_oracle(poly, m)


def literal_oracle(level, coeffs):
    if all(c == 0 for c in coeffs[1:]):
        return str(coeffs[0])
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"z^{e}@{level}")
        elif c == -1:
            parts.append(f"-z^{e}@{level}")
        else:
            parts.append(f"{c}*z^{e}@{level}")
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


def assert_canonical(x):
    assert len(x.num) == phi(x.level)
    assert all(type(c) is int for c in x.num)
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_basic():
    assert root_of_unity(0, 4) == one()
    assert root_of_unity(2, 4) == rational(-1)
    # 1 + z3 + z3^2 = 0, cross-checked by direct remainder reduction
    z3 = root_of_unity(1, 3)
    total = one() + z3 + z3 * z3
    assert total == zero()
    oracle = poly_mod([Fraction(1), Fraction(1), Fraction(1)], [Fraction(1)] * 3)
    assert oracle == [Fraction(0)]


def test_root_of_unity_order():
    assert root_of_unity(1, 8).root_of_unity_order() == 8
    assert root_of_unity(2, 8).root_of_unity_order() == 4
    assert root_of_unity(3, 9).root_of_unity_order() == 3
    assert rational(-1).root_of_unity_order() == 2
    assert rational(2).root_of_unity_order() is None


def test_field_ops_examples():
    assert rational(Fraction(1, 2)) * rational(2) == one()
    z5 = root_of_unity(1, 5)
    assert z5.inv() == root_of_unity(4, 5)
    z3 = root_of_unity(1, 3)
    # (1 + z3)(1 + z3^2) = 1: oracle by convolution mod Phi_3
    conv = [Fraction(1), Fraction(1), Fraction(1), Fraction(1)]  # (1+x)(1+x^2)
    assert poly_mod(conv, [Fraction(1)] * 3) == [Fraction(1)]
    assert (one() + z3) * (one() + z3 * z3) == one()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zero().inv()
    with pytest.raises(ZeroDivisionError):
        one() / zero(4)


def test_conj_examples():
    z4 = root_of_unity(1, 4)
    assert z4.conj() == -z4
    assert rational(Fraction(3, 7)).conj() == rational(Fraction(3, 7))
    z6 = root_of_unity(1, 6)
    assert (one() + z6).conj() == one() + root_of_unity(5, 6)


def test_is_modulus_one():
    assert root_of_unity(1, 8).is_modulus_one()
    assert not rational(2).is_modulus_one()
    assert not (one() + root_of_unity(1, 4)).is_modulus_one()  # (1+i)(1-i) = 2


def test_canonical_form_and_levels():
    a = rational(1, level=1)
    b = rational(1, level=6)
    assert a == b
    assert a.lift(6).coeffs == b.coeffs
    z2_at_2 = root_of_unity(1, 2)
    assert z2_at_2 == rational(-1)
    # z6^3 = -1 across levels
    assert root_of_unity(3, 6) == rational(-1)


def test_literal_roundtrip():
    from bicrossed.config import parse_scalar

    vals = [
        one(),
        rational(Fraction(-3, 7)),
        root_of_unity(1, 8),
        one() + root_of_unity(3, 8),
        rational(2) - root_of_unity(1, 4),
        rational(Fraction(1, 2)) * root_of_unity(1, 3) - rational(Fraction(5, 3)),
    ]
    for v in vals:
        assert parse_scalar(v.literal()) == v


# -- properties -----------------------------------------------------------

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@st.composite
def cycnums(draw, levels=(1, 2, 3, 4, 6)):
    level = draw(st.sampled_from(levels))
    coeffs = draw(
        st.lists(small_rationals, min_size=phi(level), max_size=phi(level))
    )
    return CycNum(level, coeffs)


ORACLE_LEVELS = (1, 5, 8, 12, 24, 60)


@given(cycnums(levels=ORACLE_LEVELS), st.data())
def test_ops_match_fraction_oracle(a, data):
    # b at a's level (the same-level fast path) or at any level (lifting)
    b = data.draw(st.one_of(cycnums(levels=(a.level,)), cycnums(levels=ORACLE_LEVELS)))
    m = lcm(a.level, b.level)
    ac, bc = lift_oracle(a.coeffs, a.level, m), lift_oracle(b.coeffs, b.level, m)
    prod, total = a * b, a + b
    assert prod.level == total.level == m
    assert prod.coeffs == reduce_oracle(convolve(ac, bc), m)
    assert total.coeffs == tuple(x + y for x, y in zip(ac, bc))
    assert (a == b) == (ac == bc) and (b == a) == (ac == bc)
    assert a.lift(m).coeffs == ac
    assert a.conj().coeffs == substitute(a.coeffs, a.level, -1)
    # int and Fraction operands on either side (__rmul__, __radd__)
    q = data.draw(st.one_of(st.integers(-4, 4), small_rationals))
    for x in (a * q, q * a):
        assert x.level == a.level and x.coeffs == tuple(q * c for c in a.coeffs)
    for x in (a + q, q + a):
        assert x.level == a.level and x.coeffs == (a.coeffs[0] + q,) + a.coeffs[1:]
    assert (a == q) == (a.coeffs == lift_oracle((Fraction(q),), 1, a.level))
    for level in (a.level, b.level):
        assert a * one(level) == a and one(level) * a == a
    assert (a == None) is False  # noqa: E711
    with pytest.raises(TypeError):
        a * "1"
    for x in (a, b, prod, total, a - b, -a, a.conj(), a.lift(m), a * q, q + a):
        assert_canonical(x)
        assert x.literal() == literal_oracle(x.level, x.coeffs)


@given(cycnums(levels=ORACLE_LEVELS), cycnums(levels=ORACLE_LEVELS))
def test_equal_values_have_equal_num_den(a, b):
    # Built by different routes, equal values share one (num, den).
    pairs = [
        (a * b, b * a),
        ((a + b) - b, a.lift(lcm(a.level, b.level))),
        (CycNum(a.level, a.coeffs), a),
        (a.conj().conj(), a),
    ]
    if b:
        pairs.append(((a * b) / b, a.lift(lcm(a.level, b.level))))
    for x, y in pairs:
        assert x.level == y.level
        assert (x.num, x.den) == (y.num, y.den)
        assert x == y


UNIT_LEVELS = (1, 3, 4, 6, 12)


@given(cycnums(levels=UNIT_LEVELS), st.sampled_from(UNIT_LEVELS))
def test_mul_by_one_matches_general_product(x, level):
    # x * 1 and 1 * x return the other operand: that must be the general
    # product of the operands lifted to the common level, field by field.
    u = one(level)
    m = lcm(x.level, level)
    expected = _mul(x.lift(m), u.lift(m))
    for prod in (x * u, u * x):
        assert (prod.level, prod.num, prod.den) == (expected.level, expected.num, expected.den)
        assert prod.literal() == expected.literal()


RATIONAL_LEVELS = (2, 3, 4, 6, 12)
RATIONALS = (0, 1, -1, Fraction(3, 2), Fraction(-3, 2), Fraction(5, 7))


def _values_at(level):
    """Values at level with denominators 1, 2 and 7 (one shared with a rational
    operand, one not), rationals among them."""
    z = root_of_unity(1, level)
    return [
        z,
        rational(Fraction(1, 2)) * z + rational(Fraction(3, 2), level),
        rational(Fraction(-2, 7)) * z * z - rational(5, level),
        rational(Fraction(3, 2), level),
        rational(0, level),
    ]


@pytest.mark.parametrize("level", RATIONAL_LEVELS)
def test_rational_operand_matches_lifting_path(level):
    # A level-1 operand shifts, scales or compares with the other without
    # lifting; the result must be the same-level op on both operands lifted,
    # field by field.
    for a in _values_at(level):
        assert a.level == level
        for q in RATIONALS:
            r = rational(q)
            assert r.level == 1
            for x, y in ((a, r), (r, a)):
                for got, want in (
                    (x + y, x.lift(level) + y.lift(level)),
                    (x * y, x.lift(level) * y.lift(level)),
                ):
                    assert (got.level, got.num, got.den) == (want.level, want.num, want.den)
                assert (x == y) is (x.lift(level) == y.lift(level))


def test_canonical_zero_and_sign():
    z = CycNum(8, [Fraction(2, 6), 0, Fraction(-4, 6), 0])
    assert (z.num, z.den) == ((1, 0, -2, 0), 3)
    assert ((z - z).num, (z - z).den) == ((0, 0, 0, 0), 1)
    assert (rational(Fraction(-3, 4)).num, rational(Fraction(-3, 4)).den) == ((-3,), 4)
    assert (-z).den == 3 and (-z).num == (-1, 0, 2, 0)
    inv = rational(Fraction(-3, 4), 5).inv()
    assert (inv.num, inv.den) == ((-4, 0, 0, 0), 3)


@given(cycnums(), cycnums(), cycnums())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cycnums())
def test_additive_and_multiplicative_inverse(a):
    assert (a - a).is_zero()
    if not a.is_zero():
        assert (a * a.inv()).is_one()


@given(cycnums(levels=(1, 2, 3)), cycnums(levels=(1, 2, 3)))
def test_lift_is_field_embedding(a, b):
    assert a.lift(12) * b.lift(12) == (a * b).lift(12)
    assert a.lift(12) + b.lift(12) == (a + b).lift(12)


@given(cycnums())
def test_conj_is_involutive_automorphism(a):
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm.conj() == norm  # fixed by conjugation: totally real
    if not a.is_zero():
        x = principal_embedding(norm)
        assert abs(x.imag) < 1e-10 and x.real > -1e-10


@given(cycnums(), cycnums())
def test_conj_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
