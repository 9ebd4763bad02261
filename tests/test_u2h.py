"""Shifted derivative calculus on the compact rank-2 enveloping algebra."""

from __future__ import annotations

import hashlib
import random
from math import comb

import pytest

from redouble import doubles, u2h
from redouble.braidings import flip, standard_hecke
from redouble.doubles import DoubleError, make_double
from redouble.ncengine import Gen, MatrixOverAlgebra, NCElement
from redouble.scalars import Scalar
from redouble.suites import SuiteConfig, run_suite
from redouble.u2h import (
    COUNIT_SHIFT,
    DERIVATIVE_SYMBOLS,
    DT,
    DX,
    DY,
    DZ,
    H,
    HALF_H,
    RADIUS_CONST,
    UnsupportedElementError,
    apply_derivative,
    classical_limit_report,
    cleared_derivative,
    cleared_dhat_matrix,
    compact_presentation,
    derivative_double,
    dhat_matrix,
    expected_radius_matrix,
    generator,
    h_shifted_double,
    radius_presentation,
    shifted_coproduct,
    verify_derivative_commutativity,
    verify_dhat_homomorphism,
    verify_radius,
    verify_shift_structure,
)

X, Y, Z, T, R = (generator(name) for name in "xyztr")
ONE_H = NCElement.constant(Scalar.from_int(1, "h"))

# sha256 of run_suite(SuiteConfig("u2h", seed=0)).to_json(): 53 checks
U2H_SHA256 = \
    "edc08cdb8c7eea802d9e522ddfaede4937435c5d013ea56ed94657ff5869ab3c"


def h_int(n):
    return Scalar.from_int(n, "h")


def const(c):
    return NCElement.constant(c)


@pytest.fixture
def compact():
    return derivative_double(compact_presentation())


@pytest.fixture
def radius():
    return derivative_double(radius_presentation())


# -- normal forms -----------------------------------------------------------

@pytest.mark.parametrize("d", range(5))
def test_compact_algebra_has_the_polynomial_dimensions(d):
    assert compact_presentation().filtered_dimension(d) == comb(d + 4, 4)


@pytest.mark.parametrize("d", range(5))
def test_radius_extension_adds_one_radius_multiple(d):
    assert radius_presentation().filtered_dimension(d) == \
        comb(d + 4, 4) + comb(d + 3, 4)


def test_straightening_brackets():
    nf = compact_presentation().normal_form
    assert nf(Y * X) == nf(X * Y - Z.scale(H))
    assert nf(Z * X) == nf(X * Z + Y.scale(H))
    assert nf(Z * Y) == nf(Y * Z - X.scale(H))
    for g in (X, Y, Z):
        assert nf(T * g) == g * T
    # the brackets [x, y] = h z, cyclically
    for a, b, c in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
        assert nf(a * b - b * a - c.scale(H)).is_zero()


def test_radius_square_rewrites_to_the_casimir():
    nf = radius_presentation().normal_form
    casimir = X * X + Y * Y + Z * Z + const(RADIUS_CONST)
    assert nf(R * R) == casimir
    assert nf(R * R * R) == nf(casimir * R)
    # the Casimir is central in the compact algebra
    for g in (X, Y, Z, T):
        assert nf(casimir * g - g * casimir).is_zero()
    for g in (X, Y, Z, T):
        assert nf(g * R) == g * R and nf(R * g) == g * R


def test_product_is_associative_on_random_words():
    # normal forms respect the two-sided ideal, r included
    rng = random.Random(20240815)
    nf = radius_presentation().normal_form

    def element():
        out = NCElement.zero()
        for _ in range(2):
            word = ONE_H
            for _ in range(rng.randint(0, 2)):
                word = word * rng.choice((X, Y, Z, T, R))
            out = out + word.scale(h_int(rng.randint(1, 5)))
        return out

    for _ in range(25):
        a, b, c = element(), element(), element()
        assert nf(nf(a * b) * c) == nf(a * nf(b * c))


def test_cleared_zero_detects_the_casimir_relation():
    # (x^2 + y^2 + z^2) r^-2 = 1 + (h^2/4) r^-2, cleared of r^-2
    nf = radius_presentation().normal_form
    lhs = X * X + Y * Y + Z * Z
    rhs = R * R - const(RADIUS_CONST)
    assert lhs != rhs
    assert nf(lhs - rhs).is_zero()
    assert not nf(X).is_zero()
    assert not nf(X * R * R).is_zero()


def test_degree_and_coefficient_maps():
    a = radius_presentation().normal_form(Y * X * R + T.scale(H))
    assert a.degree() == 3
    # y x r = x y r - h z r: at h = 0 only the h-free terms survive
    survivors = {w for w, c in a.terms.items() if c.evaluate(0)}
    assert survivors == set((X * Y * R).terms)


# -- the pushing table ------------------------------------------------------

def test_first_order_derivative_values(compact):
    one = ONE_H
    assert apply_derivative(compact, DX, X) == one
    assert apply_derivative(compact, DX, Y).is_zero()
    assert apply_derivative(compact, DY, Y) == one
    assert apply_derivative(compact, DZ, Z) == one
    assert apply_derivative(compact, DT, T) == T.scale(COUNIT_SHIFT) + one
    assert apply_derivative(compact, DT, one) == const(COUNIT_SHIFT)
    assert apply_derivative(compact, DX, one).is_zero()


def test_second_order_derivative_values(compact):
    assert apply_derivative(compact, DX, X * X) == X.scale(h_int(2))
    assert apply_derivative(compact, DX, Y * Z) == const(HALF_H)
    # z y = y z - h x
    assert apply_derivative(compact, DX, Y * Z - X.scale(H)) \
        == const(-HALF_H)


def test_derivative_domain_errors(radius):
    with pytest.raises(ValueError):
        apply_derivative(radius, "dq", X)
    for bad in (R, X * R, R * R):
        with pytest.raises(UnsupportedElementError):
            apply_derivative(radius, DX, bad)
    # r times a derivative is defined on the bare r only
    for bad in (X * R, R * R):
        with pytest.raises(UnsupportedElementError):
            cleared_derivative(radius, DX, bad)


def test_cleared_derivative_adds_the_polynomial_part(radius):
    # r·∂x(x + r) = r + x
    assert cleared_derivative(radius, DX, X + R) == X + R
    assert cleared_derivative(radius, DY, X).is_zero()


def test_pairwise_commutativity_report(compact):
    report = verify_derivative_commutativity(compact)
    assert report.passed
    assert [c["id"] for c in report.checks] == ["commutativity"]
    # the suite echoes the degree; the verifier builds no config of its own
    assert report.config == {}
    assert run_suite(SuiteConfig("u2h")).config["degree"] == 3


@pytest.mark.parametrize("key", sorted(u2h._PUSH, key=repr), ids=repr)
def test_a_flipped_pushing_sign_fails_commutativity(monkeypatch, key):
    # on the normal words alone every single flip passes; the free words
    # that are not normal forms catch it
    target, sign = u2h._PUSH[key]
    monkeypatch.setitem(u2h._PUSH, key, (target, -sign))
    [check] = verify_derivative_commutativity(
        derivative_double(compact_presentation())).checks
    assert not check["passed"] and check["witness"]


# -- the derivative matrix --------------------------------------------------

def test_matrix_is_unital_and_respects_brackets(compact):
    report = verify_dhat_homomorphism(compact, rng=random.Random(20240814))
    assert report.passed, report.failures()
    ids = [c["id"] for c in report.checks]
    assert len(ids) == 40
    assert ids[0] == "unit"
    assert ids.count("pair-xt") == 1 and ids.count("random-19") == 1
    assert {"bracket-xy", "bracket-yz", "bracket-zx"} <= set(ids)


def test_matrix_report_needs_an_rng_for_sampling(compact):
    with pytest.raises(ValueError):
        verify_dhat_homomorphism(compact)
    report = verify_dhat_homomorphism(compact, samples=0)
    assert report.passed
    assert len(report.checks) == 20


def test_matrix_report_accepts_explicit_pairs(compact):
    # the multiplicativity the report checks, on two chosen pairs
    nf = compact.b_pres.normal_form
    for a, b in ((X, Y * Z), (T, X * X)):
        residual = dhat_matrix(compact, nf(a * b)) \
            - dhat_matrix(compact, a) * dhat_matrix(compact, b)
        assert residual.first_nonzero(nf) == (True, None)


def test_matrix_on_the_unit_is_the_identity(compact):
    unit = {(i,): {(i,): ONE_H} for i in range(1, 5)}
    assert dhat_matrix(compact, ONE_H) == MatrixOverAlgebra(4, 1, 1, unit)


def test_bracket_images_multiply_like_the_algebra(compact):
    nf = compact.b_pres.normal_form
    gx, gy, gz = (dhat_matrix(compact, g) for g in (X, Y, Z))
    assert (gx * gy - gy * gx - gz.scale(H)).first_nonzero(nf)[0]
    assert (gy * gz - gz * gy - gx.scale(H)).first_nonzero(nf)[0]


@pytest.mark.parametrize("key", sorted(u2h._PUSH, key=repr), ids=repr)
def test_a_flipped_pushing_sign_fails_a_pair_check(monkeypatch, key):
    target, sign = u2h._PUSH[key]
    monkeypatch.setitem(u2h._PUSH, key, (target, -sign))
    report = verify_dhat_homomorphism(
        derivative_double(compact_presentation()), samples=0)
    assert any(c["id"].startswith("pair-") for c in report.failures())


# -- the radius -------------------------------------------------------------

def test_radius_report_and_closed_forms(radius):
    report = verify_radius(radius)
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == \
        ["radius-matrix", "radius-actions", "radius-square"]
    nf = radius.b_pres.normal_form
    # r·∂t(r) = (2/h) r^2 - h/2 and r·∂x(r) = x
    assert cleared_derivative(radius, DT, R) == \
        nf((R * R).scale(COUNIT_SHIFT) - const(HALF_H))
    assert cleared_derivative(radius, DX, R) == X
    got = cleared_dhat_matrix(radius, R)
    assert (got - expected_radius_matrix()).first_nonzero(nf) == (True, None)
    assert got.entry((1,), (1,)) == nf(R * R + const(RADIUS_CONST))
    assert got.entry((1,), (2,)) == X.scale(HALF_H)
    assert got.entry((2,), (1,)) == X.scale(-HALF_H)


def test_radius_square_identity_needs_clearing(radius):
    nf = radius.b_pres.normal_form
    cleared = cleared_dhat_matrix(radius, R)
    square = dhat_matrix(radius, nf(R * R))
    # (r·dhat(r))^2 = r^2·dhat(r^2), but not dhat(r^2) itself
    assert (cleared * cleared - square.map_entries(lambda v: R * R * v)
            ).first_nonzero(nf)[0]
    assert not (cleared * cleared - square).first_nonzero(nf)[0]


@pytest.mark.parametrize("sym", DERIVATIVE_SYMBOLS)
def test_a_spoiled_radius_value_fails_a_radius_check(monkeypatch, radius,
                                                     sym):
    spoiled = u2h._RADIUS_ACTION[sym] + const(H)
    monkeypatch.setitem(u2h._RADIUS_ACTION, sym, spoiled)
    failed = {c["id"] for c in verify_radius(radius).failures()}
    assert failed & {"radius-matrix", "radius-square"}


def test_classical_limit_report(radius):
    report = classical_limit_report(radius)
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == \
        ["first-order-actions", "second-order-corrections", "radius-limit"]


def test_single_suite_bytes_are_pinned():
    report = run_suite(SuiteConfig("u2h", seed=0))
    assert len(report.checks) == 53
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == U2H_SHA256


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
        make_double(standard_hecke(2), "derivative_shifted_unit",
                    h=Scalar.var("q"))
    double = make_double(flip(2, "h"), "derivative_shifted_unit",
                         h=Scalar.var("h"))
    assert len(double.rule.table) == 16


def test_a_spoiled_shift_term_fails_substitution_consistency(monkeypatch):
    # the residual reads the derivative relation the doubles are built
    # from, so a wrong shift term there cannot pass unseen
    real = doubles.derivative_relation

    def spoiled(braiding, d, m, shift=None):
        return real(braiding, d, m, None if shift is None else shift + shift)

    for module in (doubles, u2h):
        monkeypatch.setattr(module, "derivative_relation", spoiled)
    report = verify_shift_structure()
    [check] = [c for c in report.checks
               if c["id"] == "substitution-consistency"]
    assert not check["passed"] and check["witness"]


def test_the_suite_builds_each_u2h_double_once(count_calls):
    compact = count_calls(u2h.compact_presentation)
    radius = count_calls(u2h.radius_presentation)
    doubles_made = count_calls(u2h.make_double)
    assert run_suite(SuiteConfig("u2h")).passed
    assert len(compact) == 1 and len(radius) == 1
    kinds = [args[1] for args in doubles_made]
    assert kinds.count("derivative_shifted_unit") == 1


def test_coproduct_shape():
    table = shifted_coproduct(2)
    assert len(table) == 4
    assert table[Gen("d", 1, 2)] == (
        (Gen("d", 1, 2), Gen("d", 1, 1)),
        (Gen("d", 2, 2), Gen("d", 1, 2)))


def test_derivative_symbols_cover_all_four_directions():
    assert DERIVATIVE_SYMBOLS == (DT, DX, DY, DZ)
    assert len(set(DERIVATIVE_SYMBOLS)) == 4
