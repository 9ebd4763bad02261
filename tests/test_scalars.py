"""The unit-monomial shortcut in Scalar multiplication is exact."""

from __future__ import annotations

import pytest

from redouble.scalars import MixedParameterError, Scalar, _pmul, nu, qint


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
