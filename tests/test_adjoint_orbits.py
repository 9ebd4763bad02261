"""Field-trace commutation and pinned-orbit quotients."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from redouble import adjoint_orbits
from redouble.adjoint_orbits import (
    orbit_quotient,
    verify_adjoint_invariance,
    verify_orbit_descent,
)
from redouble.braidings import standard_hecke
from redouble.doubles import make_double
from redouble.invariants import power_sum
from redouble.ncengine import (CentralQuotient, Gen, MatrixOverAlgebra,
                               NCElement, PresentationError, re_presentation)
from redouble.scalars import ONE, Scalar
from redouble.suites import parameter_points


def test_scalar_case_invariance():
    report = verify_adjoint_invariance(standard_hecke(1), 1)
    assert report.passed
    assert [c["id"] for c in report.checks] == \
        ["commutation", "annihilation", "matrix-identity"]


def test_invariance_exact_small_powers():
    b = standard_hecke(2)
    for k in (1, 2):
        report = verify_adjoint_invariance(b, k)
        assert report.passed, report.failures()
        assert len(report.checks) == 3


def test_invariance_sampled():
    for n, k in ((2, 3), (3, 1)):
        points = parameter_points(standard_hecke(n), "SAMPLED",
                                  random.Random(20240813), 3)
        for _, b in points:
            report = verify_adjoint_invariance(b, k)
            assert report.passed, report.failures()
            assert len(report.checks) == 3


def test_invariance_argument_errors():
    b = standard_hecke(2)
    with pytest.raises(ValueError):
        verify_adjoint_invariance(b, 0)


def test_partial_trace_of_matrix_identity_gives_the_commutator():
    # Weighted partial trace in the second slot turns the two-slot
    # identity into the trace-power commutator: conjugating by the
    # inverse braiding on both sides, the left side collapses exactly
    # (as free words) to [field matrix, traced power] and the right
    # side to zero.
    b = standard_hecke(2)
    weights = b.trace_form().weights
    r = b.at(1, 2)
    r_inv = b.inv_at(1, 2)
    l1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    m1 = MatrixOverAlgebra.generator_matrix("m", 2, 2, 1)
    for k in (1, 2):
        mk = m1
        for _ in range(k - 1):
            mk = mk * m1
        sandwiched = l1.lmul_op(r).rmul_op(r)
        lhs = (sandwiched * mk - mk * sandwiched) \
            .lmul_op(r_inv).rmul_op(r_inv).rtrace(2, weights)
        rhs = (mk.lmul_op(r) - mk.rmul_op(r)) \
            .lmul_op(r_inv).rmul_op(r_inv).rtrace(2, weights)
        assert not rhs.entries
        trace = power_sum(b, "m", k)
        for i in (1, 2):
            for j in (1, 2):
                field = NCElement.generator(Gen("l", i, j))
                assert lhs.entry((i,), (j,)) == \
                    field * trace - trace * field


def test_trace_powers_are_central_before_pinning():
    b = standard_hecke(2)
    pres = re_presentation(b, "m")
    for k in (1, 2):
        trace = power_sum(b, "m", k)
        for g in pres.generators:
            x = NCElement.generator(g)
            assert pres.reduces_to_zero(x * trace - trace * x)


def test_orbit_point_at_dimension_one():
    b = standard_hecke(1)
    level = Scalar.from_int(5)
    quotient = orbit_quotient(make_double(b, "adjoint_shifted"), [level])
    assert isinstance(quotient, CentralQuotient)
    m = NCElement.generator(Gen("m", 1, 1))
    assert quotient.normal_form(m) == NCElement.constant(b.q * level)
    assert quotient.filtered_dimension(3) == 1
    # the free base has no relations: the pinned span holds (p_1 - 5)·m^j
    # for j <= 2, one row per degree
    assert re_presentation(b, "m").ideal_rank(3) == 0
    assert quotient.relations == []
    assert quotient.ideal_rank(3) == 3


def test_orbit_level_count_must_match():
    with pytest.raises(ValueError):
        orbit_quotient(make_double(standard_hecke(2), "adjoint_shifted"),
                       [ONE])


def test_classical_orbit_dimension_count():
    # At q = 1 the base ring is the symmetric algebra on 2x2 matrix
    # entries: 15 normal-form words of degree <= 2.  Pinning the trace
    # eliminates one coordinate and pinning the second power sum cuts
    # one quadric, leaving 1 + 3 + 5 = 9.
    b = standard_hecke(2).substituted(1)
    plain = re_presentation(b, "m")
    assert plain.filtered_dimension(2) == 15
    classical = orbit_quotient(make_double(b, "adjoint_shifted"),
                               [Scalar.from_int(2), Scalar.from_int(5)])
    assert isinstance(classical, CentralQuotient)
    assert classical.filtered_dimension(1) == 4
    assert classical.filtered_dimension(2) == 9
    # the central span: (p_1 - 2)·w for w in 1 and the four entries, and
    # p_2 - 5, all independent
    assert classical.ideal_rank(2) == plain.ideal_rank(2) + 6


def test_quantum_orbit_pins_traces():
    b = standard_hecke(2)
    alphas = [b.q, Scalar.from_int(3)]
    quotient = orbit_quotient(make_double(b, "adjoint_shifted"), alphas)
    for k, alpha in enumerate(alphas, start=1):
        reduced = quotient.normal_form(power_sum(b, "m", k))
        assert reduced == NCElement.constant(alpha)


def test_action_descends_to_the_orbit():
    b = standard_hecke(2)
    report = verify_orbit_descent(b, [ONE, Scalar.from_int(2)], degree=1)
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == \
        ["pinned-reduction", "action-descends"]
    assert report.to_dict()["config"]["genericity_pairs"] == \
        "all ordered pairs including i=j"


def _free_word_descent(b, alphas, degree):
    """Reference for the action-descends check: the witness of the field
    route over every free word w of length <= degree, acting on both
    pinned·w and w·pinned, or None when every image reduces to zero."""
    double = make_double(b, "adjoint_shifted")
    quotient = orbit_quotient(double, alphas)
    fields = [NCElement.generator(g) for g in double.a_pres.generators]
    words = [NCElement.word(w) for d in range(degree + 1)
             for w in itertools.product(quotient.generators, repeat=d)]
    for k, pinned in enumerate(quotient.pinned, start=1):
        products = [p for w in words for p in (pinned * w, w * pinned)]
        for g, images in zip(double.a_pres.generators,
                             double.act_each(fields, products)):
            if not all(map(quotient.reduces_to_zero, images)):
                return f"field {g} escapes the ideal at power {k}"
    return None


def _descent_check(report):
    [check] = [c for c in report.checks if c["id"] == "action-descends"]
    return check


def test_the_free_word_route_agrees_with_the_descent_check():
    b = standard_hecke(2)
    alphas = [ONE, Scalar.from_int(2)]
    check = _descent_check(verify_orbit_descent(b, alphas, degree=2))
    assert check["passed"]
    assert _free_word_descent(b, alphas, 2) is None


def test_a_spoiled_field_is_named_by_the_descent_check(spoil_action):
    # the witness names the first field, in generator order, that maps a
    # product out of the ideal; spoil the action of the second and third,
    # and the free-word route names the same field
    b = standard_hecke(2)
    alphas = [ONE, Scalar.from_int(2)]
    double = make_double(b, "adjoint_shifted")
    first, second = double.a_pres.generators[1:3]
    spoiled = [NCElement.generator(first), NCElement.generator(second)]
    spoil_action(lambda x: x in spoiled)
    check = _descent_check(verify_orbit_descent(b, alphas, degree=1))
    assert not check["passed"]
    witness = f"field {first} escapes the ideal at power 1"
    assert check["witness"] == witness
    assert _free_word_descent(b, alphas, 2) == witness


def test_a_spoiled_rule_entry_stops_the_descent_check(spoil_rule):
    # a double whose exchange rule fails its certificate justifies no
    # spanning set: the check raises, naming the double, and never passes
    spoil_rule(adjoint_orbits)
    with pytest.raises(PresentationError, match=re.escape(
            "double(adjoint_shifted, dim=2) is not certified")):
        verify_orbit_descent(standard_hecke(2), [ONE, Scalar.from_int(2)],
                             degree=2)


def test_action_descends_at_dimension_one():
    report = verify_orbit_descent(standard_hecke(1), [Scalar.from_int(4)],
                                  degree=2)
    assert report.passed, report.failures()
