"""Exact arithmetic in the rational function field Q(q).

Every coefficient in this package is a Scalar: a reduced fraction of
integer-coefficient polynomials in one named parameter, with an extra
power-of-parameter factor so Laurent expressions like q - q^-1 stay exact.
No floating point is used anywhere; evaluation returns fractions.Fraction.

Canonical form of a Scalar with parameter q:

    q^shift * num(q) / den(q)

where num and den are integer polynomials with nonzero constant term,
gcd(num, den) = 1 in Q[q], the joint integer content of (num, den) is 1,
and den has positive leading coefficient.  Zero is (shift=0, num=0, den=1).
Structural equality of canonical forms is field equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


class PoleError(ArithmeticError):
    """Raised when a Scalar is evaluated at a zero of its denominator."""


class MixedParameterError(ValueError):
    """Raised when two Scalars with different non-constant parameters meet."""


# ---------------------------------------------------------------------------
# Integer polynomials as coefficient tuples, index = exponent, () = 0.
# Kept as plain functions on tuples: these are the innermost loops.


def _ptrim(c: list) -> tuple:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return _ptrim(c)


def _pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    c[i + j] += x * y
    return _ptrim(c)


def _pshift(a: tuple, k: int) -> tuple:
    """Multiply by q^k (k >= 0)."""
    if not a or k == 0:
        return a
    return (0,) * k + a


def _pcontent(a: tuple) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def _pdivexact_int(a: tuple, k: int) -> tuple:
    if k == 1:
        return a
    return tuple(x // k for x in a)


def _pprem(a: tuple, b: tuple) -> tuple:
    """A nonzero integer multiple of the remainder of a by b (b nonzero)."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return a
    lb = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        lead = r[i]
        if lead:
            c, rem = divmod(lead, lb)
            if rem:
                # rescale only when lb does not divide: the result stays a
                # nonzero integer multiple of the remainder over Q
                for j in range(i + 1):
                    r[j] *= lb
                c = lead
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
        # r[i] is now exactly zero
    return _ptrim(r[:db] if db > 0 else [])


def _pgcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd in Z[q] with positive leading coefficient."""
    if not a:
        b = b if not b or b[-1] > 0 else _pneg(b)
        c = _pcontent(b)
        return _pdivexact_int(b, c) if c > 1 else b
    if not b:
        return _pgcd(b, a)
    a = _pdivexact_int(a, _pcontent(a))
    b = _pdivexact_int(b, _pcontent(b))
    while b:
        r = _pprem(a, b)
        if r:
            r = _pdivexact_int(r, _pcontent(r))
        a, b = b, r
    if a[-1] < 0:
        a = _pneg(a)
    return a


def _pdivexact(a: tuple, b: tuple) -> tuple:
    """Exact polynomial quotient a / b; asserts divisibility."""
    if not a:
        return ()
    if b == (1,):
        return a
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        lead = r[i]
        if lead:
            c, rem = divmod(lead, lb)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    if _ptrim(r[:db] if db > 0 else []):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(q)


def _peval(a: tuple, v: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * v + c
    return acc


def _ptext(a: tuple, param: str) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            p = param if e == 1 else f"{param}^{e}"
            body = p if mag == 1 else f"{mag}*{p}"
        parts.append(sign + body)
    return "".join(parts)


# Numerators of the unit monomials +-param^k (with denominator (1,)).
_UNITS = ((1,), (-1,))

# ---------------------------------------------------------------------------


class Scalar:
    """Element of Q(param), immutable and hashable.

    Arithmetic keeps the canonical form of the class docstring, so == and
    hash are structural.  Mixed parameters are rejected unless one operand
    is a rational constant, in which case it adopts the other parameter.
    """

    __slots__ = ("param", "shift", "num", "den", "_hash")

    def __init__(self, param: str, shift: int, num: tuple, den: tuple):
        # Trusted constructor: arguments must already be canonical.
        self.param = param
        self.shift = shift
        self.num = num
        self.den = den
        self._hash = None

    # -- construction -------------------------------------------------------

    @classmethod
    def _make(cls, param: str, shift: int, num: tuple, den: tuple) -> "Scalar":
        if not num:
            return cls(param, 0, (), (1,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        # pull parameter powers out of num and den into the shift
        k = 0
        while num[k] == 0:
            k += 1
        if k:
            num = num[k:]
            shift += k
        k = 0
        while den[k] == 0:
            k += 1
        if k:
            den = den[k:]
            shift -= k
        if den != (1,):
            # gcd(num, den) = 1 in Q[q] when either is a constant
            if len(num) > 1 and len(den) > 1:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num = _pdivexact(num, g)
                    den = _pdivexact(den, g)
            c = math.gcd(_pcontent(num), _pcontent(den))
            if c > 1:
                num = _pdivexact_int(num, c)
                den = _pdivexact_int(den, c)
            if den[-1] < 0:
                num = _pneg(num)
                den = _pneg(den)
        return cls(param, shift, num, den)

    @classmethod
    def from_int(cls, n: int, param: str = "q") -> "Scalar":
        return cls(param, 0, (n,) if n else (), (1,))

    @classmethod
    def from_fraction(cls, f, param: str = "q") -> "Scalar":
        f = Fraction(f)
        if f == 0:
            return cls(param, 0, (), (1,))
        return cls(param, 0, (f.numerator,), (f.denominator,))

    @classmethod
    def var(cls, param: str = "q") -> "Scalar":
        return cls(param, 1, (1,), (1,))

    @classmethod
    def power(cls, k: int, param: str = "q") -> "Scalar":
        """param^k for any integer k."""
        return cls(param, k, (1,), (1,))

    @classmethod
    def laurent(cls, coeffs: dict, param: str = "q") -> "Scalar":
        """Scalar from {exponent: int coefficient}, e.g. {1: 1, -1: -1}."""
        if not coeffs:
            return cls(param, 0, (), (1,))
        lo = min(coeffs)
        hi = max(coeffs)
        c = [0] * (hi - lo + 1)
        for e, v in coeffs.items():
            c[e - lo] = v
        return cls._make(param, lo, _ptrim(c), (1,))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def _parameter_free(self) -> bool:
        # A rational constant: its parameter is a label, not a value.
        return self.shift == 0 and len(self.num) <= 1 and len(self.den) == 1

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ----------------------------------------------------------

    def _join(self, other) -> str:
        if self.param == other.param or other._parameter_free():
            return self.param
        if self._parameter_free():
            return other.param
        raise MixedParameterError(f"{self.param!r} vs {other.param!r}")

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        param = self._join(other)
        if not self.num:
            return other if other.param == param else Scalar(param, other.shift, other.num, other.den)
        if not other.num:
            return self if self.param == param else Scalar(param, self.shift, self.num, self.den)
        if self.shift == other.shift and len(self.num) == len(self.den) == \
                len(other.num) == len(other.den) == 1:
            # two rational multiples of one power: one integer gcd
            n = self.num[0] * other.den[0] + other.num[0] * self.den[0]
            if not n:
                return Scalar(param, 0, (), (1,))
            d = self.den[0] * other.den[0]
            g = math.gcd(n, d)
            return Scalar(param, self.shift, (n // g,), (d // g,))
        s = min(self.shift, other.shift)
        a = _pshift(self.num, self.shift - s)
        b = _pshift(other.num, other.shift - s)
        if self.den == other.den:
            return Scalar._make(param, s, _padd(a, b), self.den)
        return Scalar._make(
            param, s, _padd(_pmul(a, other.den), _pmul(b, self.den)),
            _pmul(self.den, other.den))

    def __neg__(self):
        return Scalar(self.param, self.shift, _pneg(self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        param = self._join(other)
        if not self.num or not other.num:
            return Scalar(param, 0, (), (1,))
        # A factor +-param^k only shifts and maybe negates the other, whose
        # canonical form it leaves canonical: no product, no gcd.
        if other.den == (1,) and other.num in _UNITS:
            return Scalar(param, self.shift + other.shift,
                          self.num if other.num[0] == 1 else _pneg(self.num),
                          self.den)
        if self.den == (1,) and self.num in _UNITS:
            return Scalar(param, self.shift + other.shift,
                          other.num if self.num[0] == 1 else _pneg(other.num),
                          other.den)
        # Two rational monomials c·param^k (every sampled constant is
        # one): the product is canonical after one integer gcd.
        if len(self.num) == len(self.den) == len(other.num) == \
                len(other.den) == 1:
            n = self.num[0] * other.num[0]
            d = self.den[0] * other.den[0]
            g = math.gcd(n, d)
            return Scalar(param, self.shift + other.shift,
                          (n // g,), (d // g,))
        if self.den == (1,) and other.den == (1,):
            return Scalar(param, self.shift + other.shift,
                          _pmul(self.num, other.num), (1,))
        return Scalar._make(param, self.shift + other.shift,
                            _pmul(self.num, other.num),
                            _pmul(self.den, other.den))

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return Scalar(self.param, -self.shift, num, den)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if k == 0:
            return Scalar(self.param, 0, (1,), (1,))
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.shift != other.shift or self.num != other.num or self.den != other.den:
            return False
        return self.param == other.param or self._parameter_free()

    def __hash__(self):
        h = self._hash
        if h is None:
            key = "" if self._parameter_free() else self.param
            h = hash((key, self.shift, self.num, self.den))
            self._hash = h
        return h

    # -- evaluation / substitution --------------------------------------------

    def evaluate(self, value) -> Fraction:
        value = Fraction(value)
        d = _peval(self.den, value)
        if d == 0:
            raise PoleError(f"pole of denominator at {value}")
        n = _peval(self.num, value)
        if self.shift < 0 and value == 0:
            raise PoleError("pole at 0 from negative parameter power")
        return n * value ** self.shift / d

    def with_value(self, value) -> "Scalar":
        """Constant Scalar (same parameter) obtained by evaluating here."""
        return Scalar.from_fraction(self.evaluate(value), self.param)

    # -- display ---------------------------------------------------------------

    def text(self) -> str:
        """Canonical serialization: reduced ratio of plain polynomials."""
        if not self.num:
            return "0"
        if self.shift >= 0:
            numpoly = _pshift(self.num, self.shift)
            denpoly = self.den
        else:
            numpoly = self.num
            denpoly = _pshift(self.den, -self.shift)
        ns = _ptext(numpoly, self.param)
        if denpoly == (1,):
            return ns
        return f"({ns})/({_ptext(denpoly, self.param)})"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Scalar[{self.text()}]"


# ---------------------------------------------------------------------------
# The Laurent ring Z[param, 1/param].  Fraction-free elimination
# (linalg.Triangular) works in this ring, with each polynomial packed into
# one Python integer, sum of c_i·2^(w·i) with signed digits c_i and one
# digit width w per Triangular (64 bits to start).  It tracks a bound on
# the bits of its coefficients and doubles w, repacking its rows, before a
# digit could overflow.  Scalars meet it only at its boundary: the helper
# below takes an input vector into the ring, and the remainders and rows
# it hands back are unpacked into canonical Scalars.


def laurent_multiplier(values: Iterable) -> Scalar | None:
    """A polynomial Scalar that takes every value into Q[param, 1/param].

    It is the lcm of the primitive parts of the non-constant denominators;
    None when every denominator is already constant.
    """
    lcm = None
    for v in values:
        if len(v.den) > 1:
            d = _pdivexact_int(v.den, _pcontent(v.den))
            if lcm is None:
                lcm, param = d, v.param
            elif lcm != d:
                lcm = _pmul(lcm, _pdivexact(d, _pgcd(lcm, d)))
    if lcm is None:
        return None
    return Scalar(param, 0, lcm, (1,))


# ---------------------------------------------------------------------------
# Field helpers


def qint(k: int, param: str = "q") -> Scalar:
    """Symmetric parameter integer: (q^k - q^-k)/(q - q^-1).

    Expands to q^(k-1) + q^(k-3) + ... + q^(1-k); odd under k -> -k.
    """
    if k == 0:
        return Scalar(param, 0, (), (1,))
    if k < 0:
        return -qint(-k, param)
    return Scalar(param, 1 - k, tuple(1 if i % 2 == 0 else 0 for i in range(2 * k - 1)), (1,))


def nu(param: str = "q") -> Scalar:
    """The Hecke deformation constant q - q^-1."""
    return Scalar.laurent({1: 1, -1: -1}, param)


ZERO = Scalar("q", 0, (), (1,))
ONE = Scalar("q", 0, (1,), (1,))
