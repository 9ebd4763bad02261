"""The shortcuts in Scalar arithmetic and its gcd kernel are exact."""

from __future__ import annotations

import math
import random

import pytest

from redouble import scalars
from redouble.scalars import (ONE, MixedParameterError, Scalar, _pcontent,
                              _pdivexact, _pdivexact_int, _pgcd, _pmul, _pneg,
                              _ptrim, laurent_multiplier, nu, qint)


def _general(x: Scalar, y: Scalar) -> Scalar:
    param = x._join(y)
    if not x.num or not y.num:
        return Scalar(param, 0, (), (1,))
    return Scalar._make(param, x.shift + y.shift, _pmul(x.num, y.num),
                        _pmul(x.den, y.den))


def _samples() -> list:
    q = Scalar.var()
    return [
        Scalar.from_int(0), Scalar.from_int(1), Scalar.from_int(-3),
        Scalar.from_fraction("5/7"), Scalar.from_fraction("-2/9"),
        q, Scalar.power(-4), -Scalar.power(3), nu(), qint(3),
        Scalar.laurent({2: 3, -1: -5, 0: 1}),
        (q + Scalar.from_int(1)) / (q - Scalar.from_int(2)),
        Scalar.from_int(1) / (Scalar.from_int(3) - q * q),
        nu() / qint(2) * Scalar.power(-2),
        Scalar.laurent({1: 2, 0: -1}, "h") / Scalar.laurent({2: 1, 0: 3},
                                                             "h"),
        Scalar.var("h"),
    ]


def _units() -> list:
    out = []
    for param in ("q", "h"):
        for k in (-3, -1, 0, 1, 2):
            out += [Scalar.power(k, param), -Scalar.power(k, param)]
    return out


def test_unit_monomial_products_match_the_general_path():
    for x in _samples():
        for f in _units():
            for left, right in ((x, f), (f, x)):
                try:
                    want = _general(left, right)
                except MixedParameterError:
                    with pytest.raises(MixedParameterError):
                        left * right
                    continue
                got = left * right
                assert (got.param, got.shift, got.num, got.den) == \
                    (want.param, want.shift, want.num, want.den), (left, right)
                assert got == want and hash(got) == hash(want), (left, right)


def _pprem_rescaling(a: tuple, b: tuple) -> tuple:
    """Reference pseudo-remainder: the whole row is rescaled every step."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return a
    lb = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        lead = r[i]
        if lead:
            for j in range(len(r)):
                r[j] *= lb
            for j in range(db + 1):
                r[i - db + j] -= lead * b[j]
    return _ptrim(r[:db] if db > 0 else [])


def _random_poly(rng, lo=0) -> tuple:
    """Integer polynomial with nonzero ends, often non-monic or negative."""
    deg = rng.randint(lo, 4)
    c = [rng.randint(-6, 6) for _ in range(deg + 1)]
    c[0] = c[0] or 1
    c[-1] = c[-1] or rng.choice((-4, -1, 2, 3))
    return tuple(c)


def test_gcd_matches_the_rescaling_pseudo_remainder(monkeypatch):
    rng = random.Random(11)
    cases = [((2, 3, 0, 2), (-3, 0, -4)), ((-1, 0, 6), (3, -2))]
    for _ in range(200):
        f = _random_poly(rng)
        cases.append((_pmul(f, _random_poly(rng)),
                      _pmul(f, _random_poly(rng))))
        cases.append((_random_poly(rng), _random_poly(rng)))
    got = [_pgcd(a, b) for a, b in cases]
    monkeypatch.setattr(scalars, "_pprem", _pprem_rescaling)
    want = [_pgcd(a, b) for a, b in cases]
    assert got == want
    assert any(len(g) > 1 for g in got)


def _make_general(param, shift, num, den) -> tuple:
    """Reference canonical form: a polynomial gcd whatever num and den are."""
    while num[0] == 0:
        num, shift = num[1:], shift + 1
    while den[0] == 0:
        den, shift = den[1:], shift - 1
    g = _pgcd(num, den)
    num, den = _pdivexact(num, g), _pdivexact(den, g)
    c = math.gcd(_pcontent(num), _pcontent(den))
    num, den = _pdivexact_int(num, c), _pdivexact_int(den, c)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return (param, shift, num, den)


def test_make_with_a_constant_side_matches_the_general_path():
    rng = random.Random(5)
    cases = [((4, -6, 2), (-6,)), ((0, 3), (9,)), ((-2,), (0, 4, 6)),
             ((5,), (0, 0, -5)), ((1, 1), (2,))]
    for _ in range(200):
        const = (rng.choice((-12, -3, -1, 1, 2, 6, 8)),)
        poly = tuple(x * rng.choice((1, 2, 6)) for x in _random_poly(rng))
        poly = (0,) * rng.randint(0, 2) + poly
        cases += [(poly, const), (const, poly)]
    for num, den in cases:
        got = Scalar._make("q", 1, num, den)
        assert (got.param, got.shift, got.num, got.den) == \
            _make_general("q", 1, num, den), (num, den)


def _canonical(x: Scalar) -> bool:
    return (x.param, x.shift, x.num, x.den) == \
        _make_general(x.param, x.shift, x.num, x.den)


def test_laurent_multiplier_clears_the_denominators():
    rng = random.Random(3)
    assert laurent_multiplier([ONE, Scalar.var("h") / Scalar.from_int(2, "h")]) is None
    for _ in range(100):
        values = [Scalar("h", 0, _random_poly(rng), (1,)) /
                  Scalar("h", 0, _random_poly(rng), (1,))
                  for _ in range(rng.randint(1, 3))] + [ONE]
        m = laurent_multiplier(values)
        if m is None:
            assert all(len(v.den) == 1 for v in values)
            continue
        assert m.den == (1,) and m.shift == 0 and _canonical(m)
        assert all(len((m * v).den) == 1 for v in values)


def test_rational_constants_are_parameter_free():
    h = Scalar.var("h")
    half = Scalar.from_fraction("1/2")
    half_h = Scalar.from_fraction("1/2", "h")
    assert half * h == h * half == h / Scalar.from_int(2, "h")
    assert (half * h).param == (h * half).param == "h"
    inverse = (ONE * Scalar.from_int(2, "h")).inverse()
    assert inverse * h == half * h
    assert (inverse + h).param == "h" and inverse + h == h + half_h
    for value in ("1/2", "-3/4", "5", "0"):
        typed_q = Scalar.from_fraction(value)
        typed_h = Scalar.from_fraction(value, "h")
        assert typed_q == typed_h and hash(typed_q) == hash(typed_h)
    assert {half: 1}[half_h] == 1
    # Only constants lose their parameter: q^k, 1/(2q) and q/2 keep it.
    q = Scalar.var()
    for typed in (q, Scalar.power(-1), (Scalar.from_int(2) * q).inverse(),
                  half * q):
        assert typed != Scalar(typed.param.upper(), typed.shift, typed.num,
                               typed.den)
        with pytest.raises(MixedParameterError):
            typed * h
        with pytest.raises(MixedParameterError):
            h + typed
