"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value at level N is stored in the power basis {zeta_N^k : 0 <= k < phi(N)}
reduced modulo the N-th cyclotomic polynomial Phi_N, as an integer numerator
vector `num` over one positive integer denominator `den` (the layout of
FLINT's fmpq_poly).  Every result is normalized to lowest terms:
den > 0, gcd(den, *num) == 1, and zero is (0, ..., 0)/1.  The form is
canonical, so two values at the same level are equal iff their (den, num)
pairs are equal.  Phi_N is monic with integer coefficients, so products,
level lifts and Galois maps fold back into the basis with integer tables,
and an inverse is a product of Galois conjugates over the rational norm:
no op goes through Fraction.

Mixed-level arithmetic lifts both operands to level lcm(N_a, N_b); levels
are never lowered automatically.  A level-1 (rational) operand of add,
mul or eq needs no lift: it shifts the zeta^0 coefficient, scales the
vector, or equals exactly the values whose vector is zero past zeta^0.
Equality reads a level-2 operand the same way, as Q(zeta_2) = Q.
`coeffs` gives the Fraction coefficient vector for readers that want it;
`fractions` is imported only where a Fraction is built or accepted, so it
stays off the start-up path.
`row_reduce` is the one Gauss-Jordan elimination over these fields;
ranks and exact solves elsewhere call it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CycNum",
    "phi",
    "cyclotomic_polynomial",
    "root_of_unity",
    "rational",
    "zero",
    "one",
    "row_reduce",
]


@lru_cache(maxsize=None)
def phi(n: int) -> int:
    """Euler totient."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials; den must be monic.
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(1, len(num) - deg_d)
    while len(num) - 1 >= deg_d and any(num):
        shift = len(num) - 1 - deg_d
        coef = num[-1]
        quot[shift] = coef
        for i, c in enumerate(den):
            num[shift + i] -= coef * c
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_n, computed by dividing x^n - 1 by
    the product of all lower-index cyclotomic polynomials dividing it."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            quot, rem = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise ArithmeticError("cyclotomic division left a remainder")
            num = quot
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^j mod Phi_n for 0 <= j < max(2*phi(n) - 1, n), each as an integer
    vector of length phi(n).  Covers every exponent produced by one
    multiplication of reduced values and by level lifting."""
    d = phi(n)
    ph = cyclotomic_polynomial(n)
    top = max(2 * d - 1, n)
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(top):
        rows.append(tuple(cur))
        lead = cur[d - 1]
        cur = [0] + cur[: d - 1]
        if lead:
            for i in range(d):
                cur[i] -= lead * ph[i]
    return tuple(rows)


def _sparse(row) -> tuple[tuple[int, int], ...]:
    return tuple((i, c) for i, c in enumerate(row) if c)


@lru_cache(maxsize=None)
def _fold_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse x^j mod Phi_n for phi(n) <= j < 2*phi(n) - 1: folds the high
    half of a product convolution back into the power basis."""
    d = phi(n)
    return tuple(_sparse(row) for row in _power_table(n)[d : 2 * d - 1])


@lru_cache(maxsize=None)
def _exponent_map(n: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse images of the basis vectors zeta_n^e, e < phi(n), under
    zeta_n -> zeta_n^j (j taken mod n)."""
    table = _power_table(n)
    return tuple(_sparse(table[(e * j) % n]) for e in range(phi(n)))


def _map_num(num, images, d: int) -> list[int]:
    out = [0] * d
    for c, image in zip(num, images):
        if c:
            for i, r in image:
                out[i] += c * r
    return out


class CycNum:
    """An exact element of Q(zeta_N): num / den in the power basis."""

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs):
        from fractions import Fraction

        if level < 1:
            raise ValueError("level must be >= 1")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi(level):
            raise ValueError("coefficient vector must have length phi(level)")
        den = lcm(*(c.denominator for c in coeffs))
        num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        g = gcd(den, *num)
        _set_level(self, level)
        _set_num(self, tuple(x // g for x in num))
        _set_den(self, den // g)

    def __setattr__(self, *_):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions."""
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- construction helpers --------------------------------------------

    @staticmethod
    def rational(q, level: int = 1) -> "CycNum":
        if not isinstance(q, int):
            from fractions import Fraction

            q = Fraction(q)
        num = [0] * phi(level)
        num[0] = q.numerator
        return _new(level, num, q.denominator)

    @staticmethod
    def zeta(level: int, k: int = 1) -> "CycNum":
        k %= level
        return _new(level, _power_table(level)[k], 1)

    # -- structure --------------------------------------------------------

    def lift(self, level: int) -> "CycNum":
        """Embed into Q(zeta_level); requires self.level | level."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise ValueError(f"cannot lift level {self.level} into level {level}")
        images = _exponent_map(level, level // self.level)
        return _new(level, _map_num(self.num, images, phi(level)), self.den)

    def _common(self, other) -> tuple["CycNum", "CycNum"]:
        """self and other at one level; other is NotImplemented if no number."""
        other = CycNum._coerce(other)
        if other is NotImplemented or self.level == other.level:
            return self, other
        lv = lcm(self.level, other.level)
        return self.lift(lv), other.lift(lv)

    @staticmethod
    def _coerce(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, int):
            return CycNum.rational(x)
        from fractions import Fraction

        if isinstance(x, Fraction):
            return CycNum.rational(x)
        return NotImplemented

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == _power_table(self.level)[0]

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def __bool__(self) -> bool:
        return any(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self, other
        if b.__class__ is not CycNum or b.level != a.level:
            if b.__class__ is CycNum and (a.level == 1 or b.level == 1):
                # a rational shifts the zeta^0 coefficient; nothing is lifted
                return _add_rational(b, a) if a.level == 1 else _add_rational(a, b)
            a, b = a._common(b)
            if b is NotImplemented:
                return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _new(a.level, [x + y for x, y in zip(a.num, b.num)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _new(a.level, [x * ma + y * mb for x, y in zip(a.num, b.num)], da * ma)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.level, [-x for x in self.num], self.den)

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        a, b = self, other
        if b.__class__ is not CycNum or b.level != a.level:
            if b.__class__ is CycNum and (a.level == 1 or b.level == 1):
                # a rational scales every coefficient; nothing is lifted
                return _scale_rational(b, a) if a.level == 1 else _scale_rational(a, b)
            a, b = a._common(b)
            if b is NotImplemented:
                return NotImplemented
        # Both are canonical at the common level, so x * 1 is x itself.
        one = _power_table(a.level)[0]
        if b.den == 1 and b.num == one:
            return a
        if a.den == 1 and a.num == one:
            return b
        return _mul(a, b)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, which is the rational product of all of them."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        n, num = self.level, self.num
        if self.is_rational():
            out = [0] * len(num)
            out[0] = self.den
            return _new(n, out, num[0])
        cofactor = None
        for j in range(2, n):
            if gcd(j, n) == 1:
                c = self.galois(j)
                cofactor = c if cofactor is None else _mul(cofactor, c)
        norm = _mul(self, cofactor)
        if not norm.is_rational():
            raise ArithmeticError("Galois norm is not rational")
        return _new(n, [x * norm.den for x in cofactor.num], cofactor.den * norm.num[0])

    def __truediv__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int) -> "CycNum":
        if n < 0:
            return self.inv() ** (-n)
        result = CycNum.rational(1, self.level)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        a, b = self, other
        if b.__class__ is not CycNum or b.level != a.level:
            if b.__class__ is CycNum and (a.level <= 2 or b.level <= 2):
                # levels 1 and 2 hold rationals (phi(2) = 1): a rational q
                # equals x iff x has num[1:] zero and num[0]/den = q
                q, x = (a, b) if a.level <= 2 else (b, a)
                return x.den == q.den and x.num[0] == q.num[0] and not any(x.num[1:])
            a, b = a._common(b)
            if b is NotImplemented:
                return NotImplemented
        return a.den == b.den and a.num == b.num

    __hash__ = None  # values compare across levels; do not use as dict keys

    # -- Galois / star structure -------------------------------------------

    def galois(self, j: int) -> "CycNum":
        """Apply zeta ->  zeta^j; requires gcd(j, N) = 1."""
        n = self.level
        if gcd(j, n) != 1:
            raise ValueError("galois exponent must be coprime to the level")
        num = self.num
        return _new(n, _map_num(num, _exponent_map(n, j % n), len(num)), self.den)

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(N-1)."""
        if self.level == 1:
            return self
        return self.galois(self.level - 1)

    def is_modulus_one(self) -> bool:
        return (self * self.conj()).is_one()

    def root_of_unity_order(self) -> int | None:
        """Multiplicative order if self is a root of unity, else None.

        Roots of unity inside Q(zeta_N) all have order dividing N (N even)
        or 2N (N odd), so only that bound is probed.
        """
        n = self.level
        bound = n if n % 2 == 0 else 2 * n
        if self.is_zero():
            return None
        acc = self
        for k in range(1, bound + 1):
            if acc.is_one():
                return k
            acc = acc * self
        return None

    # -- output -------------------------------------------------------------

    def literal(self) -> str:
        """Canonical literal: rational, or a sum of c*z^k@N terms.  Each
        coefficient reads as its Fraction would: p, or p/q in lowest terms."""
        num, den = self.num, self.den
        if self.is_rational():
            return _ratio(num[0], den)
        parts = []
        for e, x in enumerate(num):
            if x == 0:
                continue
            if e == 0:
                parts.append(_ratio(x, den))
            elif x == den:
                parts.append(f"z^{e}@{self.level}")
            elif x == -den:
                parts.append(f"-z^{e}@{self.level}")
            else:
                parts.append(f"{_ratio(x, den)}*z^{e}@{self.level}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:
        return f"CycNum({self.literal()})"


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


_alloc = object.__new__
_set_level = CycNum.level.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__


def _new(level: int, num, den: int) -> CycNum:
    """The CycNum num/den at `level`, brought to lowest terms with den > 0.

    `num` is an integer sequence of length phi(level); den is nonzero."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [x // g for x in num]
            den //= g
    self = _alloc(CycNum)
    _set_level(self, level)
    _set_num(self, tuple(num))
    _set_den(self, den)
    return self


def _mul(a: CycNum, b: CycNum) -> CycNum:
    """a * b for a and b at one level: integer convolution, then the high
    half folded back with the power table of Phi_N."""
    an, bn = a.num, b.num
    den = a.den * b.den
    d = len(an)
    if d == 1:
        return _new(a.level, (an[0] * bn[0],), den)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(an):
        if x:
            for j, y in enumerate(bn, i):
                if y:
                    conv[j] += x * y
    out = conv[:d]
    for c, row in zip(conv[d:], _fold_rows(a.level)):
        if c:
            for i, r in row:
                out[i] += c * r
    return _new(a.level, out, den)


def _add_rational(a: CycNum, q: CycNum) -> CycNum:
    """a + q for a rational q at level 1: the sum at a's level, equal to
    a + q.lift(a.level) without the lift."""
    da, dq = a.den, q.den
    if da == dq:
        num = list(a.num)
        num[0] += q.num[0]
        return _new(a.level, num, da)
    g = gcd(da, dq)
    ma, mq = dq // g, da // g
    num = [x * ma for x in a.num]
    num[0] += q.num[0] * mq
    return _new(a.level, num, da * ma)


def _scale_rational(a: CycNum, q: CycNum) -> CycNum:
    """a * q for a rational q at level 1: the product at a's level, equal
    to a * q.lift(a.level) without the lift."""
    p, d = q.num[0], q.den
    if p == d:  # q is 1
        return a
    return _new(a.level, [x * p for x in a.num], a.den * d)


# -- module-level conveniences ------------------------------------------------


def root_of_unity(k: int, n: int) -> CycNum:
    """zeta_n^k in canonical form."""
    return CycNum.zeta(n, k)


def rational(q, level: int = 1) -> CycNum:
    return CycNum.rational(q, level)


def zero(level: int = 1) -> CycNum:
    return CycNum.rational(0, level)


def one(level: int = 1) -> CycNum:
    return CycNum.rational(1, level)


# -- linear algebra -----------------------------------------------------------


def row_reduce(rows, ncols: int) -> list[int]:
    """Gauss-Jordan elimination over Q(zeta_N) on the first ncols columns
    of rows (lists of CycNum), in place.  Returns the pivot columns in
    order; row i then has a leading 1 in column pivots[i] and zeros in
    every other pivot column, and the rows past the pivots vanish on the
    first ncols columns."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        for pivot in range(rank, len(rows)):
            if not rows[pivot][col].is_zero():
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        prow = rows[rank] = [x * inv for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and not row[col].is_zero():
                factor = row[col]
                rows[r] = [a - factor * b for a, b in zip(row, prow)]
        pivots.append(col)
    return pivots
