"""Central elements, the characteristic identity, and spectral characters."""

from __future__ import annotations

import operator
import random

import pytest

from redouble import ncengine
from redouble.braidings import flip, rtrace_form, standard_hecke
from redouble.anchors import anchor
from redouble.doubles import DoubleError, make_double, monomial_matrix
from redouble.heckerep import partitions, skew_symmetrizer
from redouble.invariants import (
    SpectralCharacter,
    characteristic_residual,
    elementary_symmetric,
    power_sum,
    spectral_char_trl,
    trace_action_operator,
    verify_cayley_hamilton,
    verify_character_consistency,
    verify_spectrum,
    verify_spectrum_operator,
)
from redouble.ncengine import (Gen, MatrixOverAlgebra, NCElement,
                               re_presentation)
from redouble.scalars import ONE, Scalar
from redouble.suites import parameter_points


def q_power(k):
    return Scalar.power(k, "q")


def laurent(coeffs):
    return Scalar.laurent(coeffs, "q")


def test_power_sum_degree_one_values():
    b1 = standard_hecke(1)
    assert power_sum(b1, "m", 1) == \
        NCElement.word((Gen("m", 1, 1),), q_power(-1))
    b2 = standard_hecke(2)
    expected = NCElement.word((Gen("m", 1, 1),), q_power(-1)) + \
        NCElement.word((Gen("m", 2, 2),), q_power(-3))
    assert power_sum(b2, "m", 1) == expected


def test_elementary_one_is_the_weighted_trace():
    for n in (1, 2, 3):
        b = standard_hecke(n)
        assert elementary_symmetric(b, "m", 1) == power_sum(b, "m", 1)


def test_elementary_above_dimension_vanishes():
    b = standard_hecke(2)
    assert elementary_symmetric(b, "m", 3).is_zero()


def test_power_sums_are_central():
    b = standard_hecke(2)
    pres = re_presentation(b, "m")
    for k in (1, 2):
        p = power_sum(b, "m", k)
        for g in pres.generators:
            ge = NCElement.generator(g)
            assert pres.reduces_to_zero(p * ge - ge * p)


def test_elementary_two_is_central():
    b = standard_hecke(2)
    pres = re_presentation(b, "m")
    e2 = elementary_symmetric(b, "m", 2)
    for g in pres.generators:
        ge = NCElement.generator(g)
        assert pres.reduces_to_zero(e2 * ge - ge * e2)


def test_characteristic_identity_is_exact_at_dimension_one():
    # q^-1 m times m cancels m*m before any ideal reduction.
    b = standard_hecke(1)
    assert characteristic_residual(b, "m").is_zero()


def test_cayley_hamilton_exact():
    report = verify_cayley_hamilton(standard_hecke(2))
    assert report.passed
    assert len(report.checks) == 1


def test_cayley_hamilton_sampled():
    points = parameter_points(standard_hecke(3), "SAMPLED",
                              random.Random(20240811), 3)
    reports = [verify_cayley_hamilton(b) for _, b in points]
    assert len(reports) == 3
    for report in reports:
        assert report.passed
        assert [c["id"] for c in report.checks] == ["entries-vanish"]


def test_trace_character_closed_forms():
    b = standard_hecke(2)
    assert spectral_char_trl((1,), b) == laurent({-1: 1, -5: 1})
    assert spectral_char_trl((2,), b) == laurent({-1: 1, -7: 1})
    assert spectral_char_trl((1, 1), b) == laurent({-3: 1, -5: 1})


def test_trace_character_rejects_too_many_parts():
    with pytest.raises(ValueError):
        spectral_char_trl((1, 1, 1), standard_hecke(2))
    with pytest.raises(ValueError):
        SpectralCharacter((1, 1, 1), standard_hecke(2))


def test_trace_character_classical_limit_is_the_dimension():
    for n in (2, 3):
        b = standard_hecke(n)
        for shape in ((), (1,), (2, 1)):
            assert spectral_char_trl(shape, b).evaluate(1) == n


def test_eigenvalue_character_values():
    b = standard_hecke(2)
    char = SpectralCharacter((1,), b)
    assert char.mu == [q_power(-4), ONE]
    assert char.mu_hat == [laurent({-1: 1, -3: 1}), ONE - ONE]
    empty = SpectralCharacter((), b)
    assert empty.mu == [q_power(-2), ONE]
    assert spectral_char_trl((), b) == b.trace_form().dimension_value()


def test_eigenvalue_shift_link():
    b = standard_hecke(3)
    q = b.q
    v = q - q.inverse()
    char = SpectralCharacter((2, 1), b)
    for m, mh in zip(char.mu, char.mu_hat):
        assert m == ONE - v * mh


def test_elementary_values_match_factorized_expansion():
    # Coefficients of prod_i (x - mu_i) against the combination formula.
    for n in (2, 3):
        b = standard_hecke(n)
        q = b.q
        for size in (1, 2, 3):
            for shape in partitions(size, n):
                char = SpectralCharacter(shape, b)
                poly = [ONE]
                for m in char.mu:
                    lower = [c * (-m) for c in poly]
                    poly = [ONE - ONE] + poly
                    for i, c in enumerate(lower):
                        poly[i] = poly[i] + c
                for k in range(1, n + 1):
                    assert poly[n - k] == (-ONE) ** k * q ** k * char.elementary(k)


def test_character_consistency_reports_pass():
    for n in (2, 3):
        report = verify_character_consistency(standard_hecke(n), max_boxes=4)
        assert report.passed
        assert len(report.checks) == 3 * sum(
            len(partitions(k, n)) for k in range(1, 5))


def test_interpolation_weights_need_a_variable_parameter():
    char = SpectralCharacter((1,), flip(2))
    with pytest.raises(ValueError):
        char.weights()


def _hecke_at(n, value):
    return standard_hecke(n).substituted(value)


def test_trace_form_holds_at_a_numeric_parameter_and_at_the_flip():
    numeric = rtrace_form(_hecke_at(2, "7/3")).dimension_value()
    symbolic = standard_hecke(2).trace_form().dimension_value()
    assert numeric == symbolic.with_value("7/3")
    assert rtrace_form(flip(2)).dimension_value() == Scalar.from_int(2)


def test_interpolation_weights_at_a_numeric_parameter():
    symbolic = SpectralCharacter((2, 1), standard_hecke(3)).weights()
    numeric = SpectralCharacter((2, 1), _hecke_at(3, "7/3")).weights()
    assert numeric == [w.with_value("7/3") for w in symbolic]


def test_spectrum_operator_route_full_grid():
    for n in (1, 2, 3):
        b = standard_hecke(n)
        for size in (1, 2, 3):
            for shape in partitions(size, n):
                chi = spectral_char_trl(shape, b)
                report = verify_spectrum_operator(shape, b, chi)
                assert report.passed, (n, shape)


def test_action_route_matches_operator_route():
    # rank 3, degree 3 is the grid's own solve (the spectrum-n3-3 rows)
    from redouble.doubles import action_operator
    for n, degrees in ((2, (1, 2)), (3, (3,))):
        b = standard_hecke(n)
        d = make_double(b, "left")
        trl = power_sum(b, "l", 1)
        for k in degrees:
            assert action_operator(d, trl, k) == trace_action_operator(b, k)


def test_spectrum_action_route_trace():
    b = standard_hecke(2)
    d = make_double(b, "left")
    trl = power_sum(b, d.a_tag, 1)
    for size in (1, 2, 3):
        for shape in partitions(size, 2):
            chi = spectral_char_trl(shape, b)
            report = verify_spectrum(d, trl, chi, shape,
                                     anchor("spectrum-action-route"))
            assert report.passed, shape
            # a wrong eigenvalue fails every tableau, with a witness
            wrong = verify_spectrum(d, trl, chi + ONE, shape,
                                    anchor("spectrum-action-route"))
            assert wrong.checks and not any(
                c["passed"] for c in wrong.checks)
            assert all(c["witness"] for c in wrong.checks)


def test_spectrum_action_route_elementary_two():
    b = standard_hecke(2)
    d = make_double(b, "left")
    e2 = elementary_symmetric(b, d.a_tag, 2)
    for size in (2, 3):
        for shape in partitions(size, 2):
            chi = SpectralCharacter(shape, b).elementary(2)
            report = verify_spectrum(d, e2, chi, shape,
                                     anchor("conjecture-e2"))
            assert report.passed, shape


def test_spectrum_action_route_power_sums():
    b = standard_hecke(2)
    d = make_double(b, "left")
    p2 = power_sum(b, d.a_tag, 2)
    for shape in [(1,)] + partitions(2, 2):
        chi = SpectralCharacter(shape, b).power(2)
        report = verify_spectrum(d, p2, chi, shape,
                                 anchor("conjecture-pk"))
        assert report.passed, shape
        assert {c["anchor"] for c in report.checks} == \
            {anchor("conjecture-pk")}


def test_spectrum_rejects_unknown_element():
    # an element outside the acting side of the double acts on nothing
    b = standard_hecke(2)
    d = make_double(b, "left")
    with pytest.raises(DoubleError):
        verify_spectrum(d, power_sum(b, d.b_tag, 1),
                        spectral_char_trl((1,), b), (1,),
                        anchor("spectrum-action-route"))


# ---------------------------------------------------------------------------
# Traced chains against the full product traced slot by slot


def full_trace(moa: MatrixOverAlgebra, weights: list) -> NCElement:
    """Reference: the weighted partial traces of every slot, last first."""
    for slot in range(moa.row_arity, 0, -1):
        moa = moa.rtrace(slot, weights)
    return moa.entry((), ())


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3)
                                 for k in range(1, n + 2)] + [(4, 3)])
def test_elementary_symmetric_equals_the_full_product_trace(n, k):
    b = standard_hecke(n)
    full = monomial_matrix(b, "l", k).lmul_op(skew_symmetrizer(b, k))
    expected = full_trace(full, b.trace_form().weights)
    assert elementary_symmetric(b, "l", k) == expected
    assert expected.is_zero() == (k > n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_sums_equal_the_full_product_trace(n):
    b = standard_hecke(n)
    x = MatrixOverAlgebra.generator_matrix("l", n, 1, 1)
    power = x
    for k in (1, 2, 3):
        assert power_sum(b, "l", k) == \
            full_trace(power, b.trace_form().weights), k
        power = power * x


def test_elementary_symmetric_multiplies_only_the_rows_of_the_symmetrizer(
        monkeypatch):
    # A^(3) at N = 3 has 6 nonzero rows of 27; a product of two algebra
    # matrices (entry product operator.mul) never has more rows than that.
    # Conjugating a copy by R scales entries and keeps all 27 rows.
    rows = []
    mat_mul = ncengine.mat_mul

    def spy(left, right, mul):
        out = mat_mul(left, right, mul)
        if mul is operator.mul:
            rows.append(len(out))
        return out

    monkeypatch.setattr(ncengine, "mat_mul", spy)
    elementary_symmetric(standard_hecke(3), "l", 3)
    assert rows and max(rows) == 6
