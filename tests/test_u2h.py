"""Shifted derivative calculus on the compact rank-2 enveloping algebra."""

from __future__ import annotations

import random

import pytest

from redouble.braidings import flip, standard_hecke
from redouble.doubles import DoubleError
from redouble.ncengine import Gen, MatrixOverAlgebra
from redouble.scalars import Scalar
from redouble.u2h import (
    COUNIT_SHIFT,
    DERIVATIVE_SYMBOLS,
    DT,
    DX,
    DY,
    DZ,
    H,
    HALF_H,
    PBWElement,
    RADIUS_CONST,
    UnsupportedElementError,
    apply_derivative,
    classical_limit_report,
    dhat_matrix,
    expected_radius_matrix,
    h_shifted_double,
    radius_cleared_is_zero,
    shifted_coproduct,
    shifted_derivative_relations,
    verify_derivative_commutativity,
    verify_dhat_homomorphism,
    verify_radius,
    verify_shift_structure,
)

X = PBWElement.generator("x")
Y = PBWElement.generator("y")
Z = PBWElement.generator("z")
T = PBWElement.generator("t")


def h_int(n):
    return Scalar.from_int(n, "h")


# -- normal forms -----------------------------------------------------------

def test_straightening_brackets():
    assert Y * X == X * Y - Z.scale(H)
    assert Z * X == X * Z + Y.scale(H)
    assert Z * Y == Y * Z - X.scale(H)
    assert T * X == X * T and T * Y == Y * T and T * Z == Z * T


def test_radius_square_rewrites_to_the_casimir():
    r = PBWElement.radius()
    assert r * r == X * X + Y * Y + Z * Z + PBWElement.constant(RADIUS_CONST)
    assert PBWElement.radius(3) == r * r * r
    assert PBWElement.radius(-1) * r == PBWElement.one()


def test_product_is_associative_on_random_words():
    rng = random.Random(20240815)

    def element():
        out = PBWElement.zero()
        for _ in range(2):
            key = tuple(rng.randint(0, 2) for _ in range(4)) \
                + (rng.randint(0, 1),)
            out = out + PBWElement.monomial(key, h_int(rng.randint(1, 5)))
        return out

    for _ in range(25):
        a, b, c = element(), element(), element()
        assert (a * b) * c == a * (b * c)


def test_associativity_with_inverse_radius_holds_after_clearing():
    rinv = PBWElement.radius(-1)
    r = PBWElement.radius()
    left = (rinv * r) * r
    right = rinv * (r * r)
    assert left != right
    assert radius_cleared_is_zero(left - right)


def test_cleared_zero_detects_the_casimir_relation():
    rinv2 = PBWElement.radius(-2)
    lhs = (X * X + Y * Y + Z * Z) * rinv2
    rhs = PBWElement.one() - rinv2.scale(RADIUS_CONST)
    assert lhs != rhs
    assert radius_cleared_is_zero(lhs - rhs)
    assert radius_cleared_is_zero(X - X)
    assert not radius_cleared_is_zero(X)
    assert not radius_cleared_is_zero(X * rinv2)


def test_degree_and_coefficient_maps():
    a = X * Y * PBWElement.radius() + T.scale(H)
    assert a.degree() == 3
    assert PBWElement.radius(-1).degree() == 0
    # at h = 0 only the coefficients of the h-free terms survive
    survivors = {k for k, c in a.terms.items() if c.evaluate(0)}
    assert survivors == set((X * Y * PBWElement.radius()).terms)


# -- the pushing table ------------------------------------------------------

def test_first_order_derivative_values():
    assert apply_derivative(DX, X) == PBWElement.one()
    assert apply_derivative(DX, Y) == PBWElement.zero()
    assert apply_derivative(DY, Y) == PBWElement.one()
    assert apply_derivative(DZ, Z) == PBWElement.one()
    assert apply_derivative(DT, T) == T.scale(COUNIT_SHIFT) + PBWElement.one()
    assert apply_derivative(DT, PBWElement.one()) \
        == PBWElement.constant(COUNIT_SHIFT)
    assert apply_derivative(DX, PBWElement.one()) == PBWElement.zero()


def test_second_order_derivative_values():
    assert apply_derivative(DX, X * X) == X.scale(h_int(2))
    assert apply_derivative(DX, Y * Z) == PBWElement.constant(HALF_H)
    assert apply_derivative(DX, Z * Y) == PBWElement.constant(-HALF_H)


def test_derivative_domain_errors():
    with pytest.raises(ValueError):
        apply_derivative("dq", X)
    with pytest.raises(UnsupportedElementError):
        apply_derivative(DX, PBWElement.radius(-1))
    with pytest.raises(UnsupportedElementError):
        apply_derivative(DX, X * PBWElement.radius())


def test_pairwise_commutativity_report():
    report = verify_derivative_commutativity()
    assert report.passed
    assert [c["id"] for c in report.checks] == ["commutativity"]
    assert report.config["degree"] == 3


# -- the derivative matrix --------------------------------------------------

def test_matrix_is_unital_and_respects_brackets():
    report = verify_dhat_homomorphism(rng=random.Random(20240814))
    assert report.passed, report.failures()
    ids = [c["id"] for c in report.checks]
    assert len(ids) == 40
    assert ids[0] == "unit"
    assert ids.count("pair-xt") == 1 and ids.count("random-19") == 1
    assert {"bracket-xy", "bracket-yz", "bracket-zx"} <= set(ids)


def test_matrix_report_needs_an_rng_for_sampling():
    with pytest.raises(ValueError):
        verify_dhat_homomorphism()
    report = verify_dhat_homomorphism(samples=0)
    assert report.passed
    assert len(report.checks) == 20


def test_matrix_report_accepts_explicit_pairs():
    # the multiplicativity the report checks, on two chosen pairs
    for a, b in ((X, Y * Z), (T, X * X)):
        assert dhat_matrix(a * b) == dhat_matrix(a) * dhat_matrix(b)


def test_matrix_on_the_unit_is_the_identity():
    unit = {(i,): {(i,): PBWElement.one()} for i in range(1, 5)}
    assert dhat_matrix(PBWElement.one()) == MatrixOverAlgebra(4, 1, 1, unit)


def test_bracket_images_multiply_like_the_algebra():
    gx, gy, gz = (dhat_matrix(PBWElement.generator(n)) for n in "xyz")
    assert gx * gy - gy * gx == gz.scale(H)
    assert gy * gz - gz * gy == gx.scale(H)


# -- the radius -------------------------------------------------------------

def test_radius_report_and_closed_forms():
    report = verify_radius()
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == \
        ["radius-matrix", "radius-actions", "radius-square"]
    r = PBWElement.radius()
    rinv = PBWElement.radius(-1)
    assert apply_derivative(DT, r) == r.scale(COUNIT_SHIFT) \
        - rinv.scale(HALF_H)
    assert apply_derivative(DX, r) == X * rinv
    got = dhat_matrix(r)
    assert got == expected_radius_matrix()
    assert got.entry((1,), (1,)) == r + rinv.scale(RADIUS_CONST)
    assert got.entry((1,), (2,)) == X * rinv.scale(HALF_H)
    assert got.entry((2,), (1,)) == -(X * rinv.scale(HALF_H))


def test_radius_square_identity_needs_clearing():
    r = PBWElement.radius()
    square = dhat_matrix(r) * dhat_matrix(r) - dhat_matrix(r * r)
    diag = square.entry((1,), (1,))
    assert not diag.is_zero()
    assert radius_cleared_is_zero(diag)


def test_classical_limit_report():
    report = classical_limit_report()
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == \
        ["first-order-actions", "second-order-corrections", "radius-limit"]


# -- the shift-deformed doubles ---------------------------------------------

def test_shift_structure_report():
    report = verify_shift_structure()
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == [
        "substitution-consistency", "generator-action",
        "classical-generator-action", "shifted-rule-shape",
        "coproduct-counit", "coproduct-route"]


def test_shifted_double_construction_and_guards():
    double = h_shifted_double(standard_hecke(2), Scalar.from_fraction("7/3"))
    assert double.kind == "derivative_shifted"
    with pytest.raises(DoubleError):
        h_shifted_double(standard_hecke(2), Scalar.from_int(0))


def test_unit_shifted_rule_demands_involutive_braiding():
    with pytest.raises(DoubleError):
        shifted_derivative_relations(standard_hecke(2), Scalar.var("q"))
    rule = shifted_derivative_relations(flip(2, "h"), Scalar.var("h"))
    assert len(rule.table) == 16


def test_coproduct_shape():
    table = shifted_coproduct(2)
    assert len(table) == 4
    assert table[Gen("d", 1, 2)] == (
        (Gen("d", 1, 2), Gen("d", 1, 1)),
        (Gen("d", 2, 2), Gen("d", 1, 2)))


def test_derivative_symbols_cover_all_four_directions():
    assert DERIVATIVE_SYMBOLS == (DT, DX, DY, DZ)
    assert len(set(DERIVATIVE_SYMBOLS)) == 4
