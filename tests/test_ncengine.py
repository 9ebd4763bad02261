"""Ideal reduction, normal forms, and matrices over the free algebra."""

from __future__ import annotations

import math
import random

import pytest

from redouble.braidings import TensorOperator, standard_hecke
from redouble.ncengine import (
    Gen,
    MatrixOverAlgebra,
    NCElement,
    QuadraticPresentation,
    free_presentation,
    matrix_generators,
    re_presentation,
    skew_vector_presentation,
    symmetric_vector_presentation,
    vector_generators,
)
from redouble.braidings import rtrace_form
from redouble.scalars import ONE, Scalar, nu


def comb(n, k):
    return math.comb(n, k) if n >= 0 else 0


def test_ncelement_arithmetic():
    a = Gen("x", 1, 1)
    b = Gen("x", 1, 2)
    xa = NCElement.generator(a)
    xb = NCElement.generator(b)
    q = Scalar.var("q")
    p = (xa + xb.scale(q)) * (xa - xb)
    assert p.terms[(a, a)] == ONE
    assert p.terms[(a, b)] == -ONE
    assert p.terms[(b, a)] == q
    assert p.terms[(b, b)] == -q
    assert (p - p).is_zero()
    assert p.degree() == 2
    one = NCElement.constant(ONE)
    assert one * p == p and p * one == p
    assert p.degree({"x"}) == 2 and p.degree({"y"}) == 0


def test_rank_one_dimensional_case_is_free():
    b = standard_hecke(1)
    pres = re_presentation(b, "l")
    assert pres.relations == []
    for d in range(6):
        assert pres.graded_dimension(d) == 1


def test_re_presentation_dimensions_match_commutative_count():
    # Flat deformation: degree-d component has dim C(d + n^2 - 1, n^2 - 1).
    b = standard_hecke(2)
    pres = re_presentation(b, "l")
    assert pres.graded
    assert pres.ideal_rank(2) == 6
    for d in range(5):
        assert pres.graded_dimension(d) == comb(d + 3, 3)


def test_re_presentation_dimensions_rank_three():
    b = standard_hecke(3)
    pres = re_presentation(b, "l")
    for d in range(3):
        assert pres.graded_dimension(d) == comb(d + 8, 8)


def test_inverse_braiding_presentation_dimensions():
    b = standard_hecke(2)
    pres = re_presentation(b, "d", use_inverse=True)
    for d in range(4):
        assert pres.graded_dimension(d) == comb(d + 3, 3)


def test_shifted_presentation_is_filtered_and_flat():
    b = standard_hecke(2)
    pres = re_presentation(b, "f", shift=ONE)
    assert not pres.graded
    with pytest.raises(ValueError):
        pres.graded_dimension(2)
    for d in range(4):
        assert pres.filtered_dimension(d) == sum(comb(e + 3, 3) for e in range(d + 1))


def test_shift_substitution_maps_between_variants():
    # If L satisfies the homogeneous relations, (I - L)/nu satisfies the
    # shifted ones, and the matrix combination reduces to zero entrywise.
    b = standard_hecke(2)
    pres = re_presentation(b, "l")
    ident = MatrixOverAlgebra.identity(2, 2)
    l1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    x1 = (ident - l1).scale(nu(b.param).inverse())
    r = b.op
    lhs = x1.lmul_op(r).rmul_op(r) * x1
    rhs = (x1.rmul_op(r) * x1).rmul_op(r)
    tail = x1.lmul_op(r) - x1.rmul_op(r)
    rel = lhs - rhs - tail
    for v in rel.entries.values():
        assert pres.reduces_to_zero(v)


def test_weighted_trace_of_generator_matrix_is_central():
    b = standard_hecke(2)
    pres = re_presentation(b, "l")
    form = rtrace_form(b)
    trl = NCElement.generator(Gen("l", 1, 1)).scale(form.weights[0]) + \
        NCElement.generator(Gen("l", 2, 2)).scale(form.weights[1])
    l = MatrixOverAlgebra.generator_matrix("l", 2, 1, 1)
    assert l.trace_all(form.weights) == trl
    # Tracing the identity slot instead scales by the category dimension.
    l1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    assert l1.rtrace(2, form.weights) == l.scale(form.dimension_value())
    for g in matrix_generators("l", 2):
        xg = NCElement.generator(g)
        assert pres.reduces_to_zero(trl * xg - xg * trl)


def test_normal_form_is_idempotent_and_linear():
    b = standard_hecke(2)
    pres = re_presentation(b, "l")
    rng = random.Random(3)
    gens = pres.generators
    for _ in range(10):
        w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        x = NCElement.word(w1) + NCElement.word(w2, Scalar.from_int(2))
        nf = pres.normal_form(x)
        assert pres.normal_form(nf) == nf
        again = pres.normal_form(NCElement.word(w1)) + \
            pres.normal_form(NCElement.word(w2, Scalar.from_int(2)))
        assert nf == again


def test_symmetric_and_skew_vector_quotients():
    b = standard_hecke(2)
    sym = symmetric_vector_presentation(b, "x")
    skew = skew_vector_presentation(b, "x")
    for d in range(5):
        assert sym.graded_dimension(d) == d + 1
    assert [skew.graded_dimension(d) for d in range(4)] == [1, 2, 1, 0]
    # Rank three: binomial dimensions on both sides.
    b3 = standard_hecke(3)
    sym3 = symmetric_vector_presentation(b3, "x")
    skew3 = skew_vector_presentation(b3, "x")
    assert [sym3.graded_dimension(d) for d in range(4)] == [1, 3, 6, 10]
    assert [skew3.graded_dimension(d) for d in range(5)] == [1, 3, 3, 1, 0]


def test_free_presentation_of_vectors():
    pres = free_presentation(vector_generators("x", 2))
    assert pres.graded_dimension(3) == 8


def test_matrix_over_algebra_product_and_trace():
    b = standard_hecke(2)
    form = rtrace_form(b)
    # Constant matrices multiply like operators.
    r = MatrixOverAlgebra.from_operator(b.op)
    rinv = MatrixOverAlgebra.from_operator(b.inv)
    assert r * rinv == MatrixOverAlgebra.identity(2, 2)
    # Partial trace agrees with the operator-level one on constants.
    traced_op = b.op.rtrace(2, form.weights)
    traced_moa = r.rtrace(2, form.weights)
    assert traced_moa == MatrixOverAlgebra.from_operator(traced_op)
    # lmul/rmul against plain matrix product with converted operators.
    l1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    assert l1.lmul_op(b.op) == r * l1
    assert l1.rmul_op(b.op) == l1 * r
    # Identity slots: L_1 entries are diagonal in the second slot.
    assert l1.entry((1, 2), (2, 2)) == NCElement.generator(Gen("l", 1, 2))
    assert l1.entry((1, 2), (2, 1)).is_zero()


def test_generator_vector_shape():
    x1 = MatrixOverAlgebra.generator_vector("x", 2, 2, 2)
    assert (x1.row_arity, x1.col_arity) == (2, 1)
    assert x1.entry((1, 2), (1,)) == NCElement.generator(Gen("x", 2, 0))
    assert x1.entry((1, 2), (2,)).is_zero()


def test_presentation_rejects_constant_relation():
    with pytest.raises(ValueError):
        QuadraticPresentation(matrix_generators("l", 2),
                              [NCElement.constant(ONE)])
