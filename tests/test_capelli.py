"""Structure tensors, quantum determinants, and the shifted-product identity."""

from __future__ import annotations

import functools
import itertools
import operator
import random
import re

import pytest

from redouble import doubles
from redouble.braidings import TensorOperator, flip, standard_hecke
from redouble.capelli import (
    StructureError,
    StructurePair,
    capelli_difference,
    capelli_sides,
    det_r,
    extract_uv,
    shifted_factors,
    verify_capelli,
    verify_capelli_action,
    verify_det_capelli,
)
from redouble.doubles import make_double, matrix_copy
from redouble.heckerep import skew_symmetrizer
from redouble.ncengine import (Gen, MatrixOverAlgebra, NCElement,
                               PresentationError, re_presentation)
from redouble.scalars import ONE, Scalar
from redouble.suites import SuiteConfig, parameter_points, run_suite


def test_structure_pair_of_the_top_skew_symmetrizer():
    b = standard_hecke(2)
    a2 = skew_symmetrizer(b, 2)
    pair = extract_uv(a2)
    assert pair.pairing() == ONE
    first = min(r for r, v in pair.u.items() if not v.is_zero())
    assert pair.u[first] == ONE
    for r, cs in a2.rows.items():
        for c, val in cs.items():
            assert val == pair.u[r] * pair.v[c]


def test_structure_pair_classical_antisymmetrizer():
    pair = extract_uv(skew_symmetrizer(flip(2), 2))
    assert pair.u == {(1, 2): ONE, (2, 1): -ONE}
    half = Scalar.from_fraction("1/2")
    assert pair.v == {(1, 2): half, (2, 1): -half}


def test_extract_uv_rejects_higher_rank_and_zero():
    with pytest.raises(StructureError):
        extract_uv(TensorOperator.identity(2, 2))
    with pytest.raises(StructureError):
        extract_uv(TensorOperator(2, 2, {}))
    b = standard_hecke(2)
    with pytest.raises(StructureError):
        # rank one but trace q^-2 + ... != 1: a single matrix unit pair
        extract_uv(TensorOperator.from_entries(
            2, 2, {((1, 1), (2, 2)): ONE}))


def test_determinant_at_dimension_one_is_the_generator():
    b = standard_hecke(1)
    pair = extract_uv(skew_symmetrizer(b, 1))
    assert det_r(b, "m", pair) == NCElement.generator(Gen("m", 1, 1))


def test_determinant_gauge_invariance():
    b = standard_hecke(2)
    pair = extract_uv(skew_symmetrizer(b, 2))
    c = b.q ** 3
    scaled = StructurePair(
        pair.dim, pair.arity,
        {k: c * v for k, v in pair.u.items()},
        {k: v / c for k, v in pair.v.items()})
    assert det_r(b, "m", scaled) == det_r(b, "m", pair)
    assert det_r(b, "d", scaled, reverse=True) == \
        det_r(b, "d", pair, reverse=True)


def test_determinant_classical_limit_is_the_usual_determinant():
    b = standard_hecke(2).substituted(1)
    pair = extract_uv(skew_symmetrizer(b, 2))
    det = det_r(b, "m", pair)
    pres = re_presentation(b, "m")
    m = [[Gen("m", i, j) for j in (1, 2)] for i in (1, 2)]
    classical = NCElement.word((m[0][0], m[1][1])) - \
        NCElement.word((m[1][0], m[0][1]))
    assert pres.reduces_to_zero(det - classical)


def test_determinant_is_central():
    b = standard_hecke(2)
    pres = re_presentation(b, "m")
    det = det_r(b, "m", extract_uv(skew_symmetrizer(b, 2)))
    for g in pres.generators:
        ge = NCElement.generator(g)
        assert pres.reduces_to_zero(det * ge - ge * det)


def test_determinants_do_not_commute_in_the_double():
    # The reordering rule carries a unit shift, so the two determinants
    # fail to commute by lower-degree terms — classically the Weyl algebra
    # has [x, d] != 0, and that correction is what the traced identity
    # accounts for.  The commutator's constant term is -q^-1 times the
    # weighted trace of the identity.
    b = standard_hecke(2)
    d = make_double(b, "derivative")
    pair = extract_uv(skew_symmetrizer(b, 2))
    det_m = det_r(b, d.b_tag, pair)
    det_d = det_r(b, d.a_tag, pair, reverse=True)
    residual = d.binormal_form(det_m * det_d - det_d * det_m)
    assert not residual.is_zero()
    expected_const = -(b.q ** -1) * b.trace_form().dimension_value()
    assert residual.terms[()] == expected_const


def test_capelli_sides_at_k_one_coincide_before_reduction():
    b = standard_hecke(2)
    d = make_double(b, "derivative")
    lhs, rhs = capelli_sides(d, 1)
    assert lhs == rhs


def _routes_input(b, k):
    """The derivative double over b and the difference of its sides."""
    double = make_double(b, "derivative")
    return double, capelli_difference(double, k)


def test_capelli_word_route_exact():
    for n, k in ((1, 1), (2, 1), (2, 2)):
        report = verify_capelli(*_routes_input(standard_hecke(n), k))
        assert report.passed, (n, k)
    # above the rank A^(k) vanishes: both sides are the zero matrix, and
    # the word route passes without checking anything
    b = standard_hecke(1)
    lhs, rhs = capelli_sides(make_double(b, "derivative"), 2)
    assert lhs.is_zero() and rhs.is_zero()
    assert capelli_difference(make_double(b, "derivative"), 2).is_zero()


def test_capelli_word_route_classical():
    report = verify_capelli(*_routes_input(flip(2), 2))
    assert report.passed


def test_capelli_word_route_sampled():
    points = parameter_points(standard_hecke(3), "SAMPLED",
                              random.Random(20240812), 3)
    reports = [verify_capelli(*_routes_input(b, 2)) for _, b in points]
    assert len(reports) == 3
    assert all(report.passed for report in reports)


def test_capelli_action_route():
    b = standard_hecke(2)
    for k in (1, 2):
        report = verify_capelli_action(*_routes_input(b, k), degree=2)
        assert report.passed, k


def _free_target_action(b, k, degree):
    """Reference for the action route: the witness of acting with every
    entry of lhs - rhs on every free word of length <= degree in the
    coordinate generators, or None when every image reduces to zero."""
    double = make_double(b, "derivative")
    targets = [w for d in range(degree + 1)
               for w in itertools.product(double.b_pres.generators, repeat=d)]
    entries = capelli_difference(double, k).entries
    keys = sorted(entries)
    images = double.act_each([entries[key] for key in keys],
                             [NCElement.word(w) for w in targets])
    for (r, c), row in zip(keys, images):
        for w, image in zip(targets, row):
            if not double.b_pres.reduces_to_zero(image):
                return f"entry {r}->{c} on {w!r}"
    return None


def test_the_free_target_route_agrees_with_the_action_route():
    b = standard_hecke(2)
    assert verify_capelli_action(*_routes_input(b, 2), degree=2).passed
    assert _free_target_action(b, 2, 2) is None


def test_a_spoiled_action_fails_both_action_routes(spoil_action):
    # every image gains m11, so both routes fail on the empty word with
    # the first entry
    b = standard_hecke(2)
    spoil_action(lambda x: True)
    [check] = verify_capelli_action(*_routes_input(b, 2), degree=2).checks
    assert not check["passed"]
    assert check["witness"].endswith(" on ()")
    assert _free_target_action(b, 2, 2) == check["witness"]


def test_a_spoiled_rule_entry_stops_the_action_route(spoil_rule):
    # a double whose exchange rule fails its certificate justifies no
    # spanning set: the route raises, naming the double, and never passes
    spoil_rule(doubles)
    double = doubles.make_double(standard_hecke(2), "derivative")
    difference = capelli_difference(double, 2)
    with pytest.raises(PresentationError, match=re.escape(
            "double(derivative, dim=2) is not certified")):
        verify_capelli_action(double, difference, degree=2)


def test_capelli_action_loads_each_entry_and_target_once(monkeypatch):
    # The action route acts with every entry of lhs - rhs on every normal
    # word of degree <= 2 (ten of the sixteen quadratic words): the packed
    # kernel loads its rule table once, each entry once and each target
    # word once, not each entry once per target.
    double, difference = _routes_input(standard_hecke(2), 2)
    entries = len(difference.entries)
    targets = 1 + 4 + 10
    loads = []
    real = doubles._pack_vector

    def counted(vec, w, param):
        loads.append(None)
        return real(vec, w, param)

    monkeypatch.setattr(doubles, "_pack_vector", counted)
    report = verify_capelli_action(double, difference, degree=2)
    monkeypatch.undo()
    assert report.passed
    assert entries > 1 and loads
    assert len(loads) == 1 + entries + targets


def test_capelli_rank_three_both_routes():
    # The frontier configuration: the action route applies 81 entries per
    # side to every word of degree <= 2 in nine generators.
    report = run_suite(SuiteConfig("capelli", n=3))
    assert report.config == {"n": 3, "k": 2, "mode": "EXACT", "degree": 2}
    assert [c["id"] for c in report.checks] == ["word-route", "action-route"]
    assert report.passed, report.failures()


def test_det_capelli_dimension_one_oracle():
    b = standard_hecke(1)
    report = verify_det_capelli(b)
    assert report.passed
    d = make_double(b, "derivative")
    pair = extract_uv(skew_symmetrizer(b, 1))
    lhs = (det_r(b, "m", pair) * det_r(b, "d", pair, reverse=True)).scale(
        b.q ** -1)
    expected = NCElement.word((Gen("m", 1, 1), Gen("d", 1, 1)), b.q ** -1)
    assert lhs == expected


def test_det_capelli_exact():
    assert verify_det_capelli(standard_hecke(2)).passed


def test_det_capelli_classical():
    assert verify_det_capelli(flip(2)).passed


# ---------------------------------------------------------------------------
# Traced chains against the full product


def full_trace(moa: MatrixOverAlgebra, weights: list) -> NCElement:
    """Reference: the weighted partial traces of every slot, last first."""
    for slot in range(moa.row_arity, 0, -1):
        moa = moa.rtrace(slot, weights)
    return moa.entry((), ())


@pytest.mark.parametrize("n", [2, 3])
def test_det_capelli_left_side_equals_the_full_product_trace(n):
    b = standard_hecke(n)
    d = make_double(b, "derivative")
    skew = skew_symmetrizer(b, n)
    factors = shifted_factors(d, n)
    weights = b.trace_form().weights
    full = functools.reduce(operator.mul, factors).lmul_op(skew)
    chained = MatrixOverAlgebra.from_operator(skew).traced_chain(
        factors, weights)
    assert chained == full_trace(full, weights)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("reverse", [False, True])
def test_det_r_is_the_sandwich_of_the_full_product(n, reverse):
    b = standard_hecke(n)
    pair = extract_uv(skew_symmetrizer(b, n))
    slots = range(n, 0, -1) if reverse else range(1, n + 1)
    full = functools.reduce(
        operator.mul, [matrix_copy(b, "m", i, "OVER", n) for i in slots])
    expected = NCElement.zero()
    for r, vr in pair.v.items():
        for c, uc in pair.u.items():
            expected = expected + full.entry(r, c).scale(vr * uc)
    assert det_r(b, "m", pair, reverse=reverse) == expected
