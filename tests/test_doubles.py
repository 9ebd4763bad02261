"""Permutation rules, normal ordering, counit actions, matrix copies."""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction

import pytest
from conftest import first_term_again, spoiled_copy

from redouble import adjoint_orbits, doubles
from redouble.braidings import TensorOperator, flip, standard_hecke
from redouble.capelli import capelli_difference, verify_capelli_action
from redouble.doubles import (
    DoubleDefinition,
    DoubleError,
    PermutationRule,
    _defining_relation,
    _extract_rule,
    _index_space,
    _PackedAction,
    _solve_action_operator,
    action_operator,
    make_double,
    matrix_copy,
    monomial_matrix,
)
from redouble.heckerep import jucys_murphy_inverse
from redouble.invariants import elementary_symmetric, power_sum
from redouble.linalg import (_WIDTH, _unpack_vector, accumulate,
                             coordinates, vec_add_scaled)
from redouble.ncengine import (Gen, MatrixOverAlgebra, NCElement,
                               PresentationError, free_presentation,
                               matrix_generators)
from redouble.scalars import ONE, ZERO, MixedParameterError, Scalar, nu
from redouble.suites import _DOUBLE_KINDS, parameter_points

ALL_KINDS = ("left", "left_shifted", "adjoint", "adjoint_shifted",
             "derivative", "vector")


def q_scalar():
    return Scalar.var("q")


def test_rank_one_rule_is_a_simple_scaling():
    b = standard_hecke(1)
    d = make_double(b, "left")
    ga = Gen("l", 1, 1)
    gb = Gen("m", 1, 1)
    img = d.rule.table[(ga, gb)]
    q = q_scalar()
    assert img == NCElement.word((gb, ga), q ** -2)


def test_invariant_field_action_on_generators():
    # Matrix form of the generator action: (X1 . R) acting gives R^-1 . M1.
    b = standard_hecke(2)
    d = make_double(b, "left")
    l1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    m1 = MatrixOverAlgebra.generator_matrix("m", 2, 2, 1)
    acted = d.act_matrix(l1.rmul_op(b.op), m1)
    assert acted == m1.lmul_op(b.inv)


def test_shifted_invariant_field_action_on_generators():
    b = standard_hecke(2)
    d = make_double(b, "left_shifted")
    f1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    m1 = MatrixOverAlgebra.generator_matrix("m", 2, 2, 1)
    acted = d.act_matrix(f1.rmul_op(b.op), m1)
    assert acted == m1


def test_shifted_adjoint_action_on_generators():
    b = standard_hecke(2)
    d = make_double(b, "adjoint_shifted")
    f1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    m1 = MatrixOverAlgebra.generator_matrix("m", 2, 2, 1)
    acted = d.act_matrix(f1.rmul_op(b.op), m1)
    assert acted == m1 - m1.lmul_op(b.inv).rmul_op(b.op)


def test_vector_action_on_generators():
    b = standard_hecke(2)
    d = make_double(b, "vector")
    l1 = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1)
    x1 = MatrixOverAlgebra.generator_vector("x", 2, 2, 1)
    acted = d.act_matrix(l1.rmul_op(b.op), x1)
    assert acted == x1.lmul_op(b.inv)


def test_derivative_action_on_conjugated_copy():
    # One derivative applied to the slot-2 copy peels off R^-1.
    b = standard_hecke(2)
    d = make_double(b, "derivative")
    d1 = MatrixOverAlgebra.generator_matrix("d", 2, 2, 1)
    m2 = matrix_copy(b, "m", 2, "OVER")
    acted = d.act_matrix(d1, m2)
    assert acted == MatrixOverAlgebra.from_operator(b.inv)


def test_action_on_unit_is_the_counit():
    b = standard_hecke(2)
    one = NCElement.constant(ONE)
    for kind in ALL_KINDS:
        d = make_double(b, kind)
        for g in matrix_generators(d.a_tag, 2):
            a = NCElement.generator(g)
            expect = NCElement.constant(d.eps_a[g])
            assert d.act(a, one) == expect, kind


def test_normal_order_keeps_mixed_degree_for_homogeneous_rules():
    b = standard_hecke(2)
    d = make_double(b, "left")
    word = NCElement.word((Gen("l", 1, 2), Gen("m", 2, 1), Gen("m", 1, 1)))
    ordered = d.normal_order(word)
    for w in ordered.terms:
        assert sum(1 for g in w if g.tag == "l") == 1
        assert sum(1 for g in w if g.tag == "m") == 2
        bw, aw = d.split_word(w)
        assert len(bw) == 2 and len(aw) == 1
    pure = NCElement.word((Gen("m", 1, 2), Gen("m", 2, 2)))
    assert d.normal_order(pure) == pure


def test_representation_property_randomized():
    b = standard_hecke(2)
    rng = random.Random(19)
    for kind in ALL_KINDS:
        d = make_double(b, kind)
        a_gens = matrix_generators(d.a_tag, 2)
        b_gens = sorted(d.b_pres.generators)
        for _ in range(4):
            a1 = NCElement.generator(rng.choice(a_gens))
            a2 = NCElement.generator(rng.choice(a_gens))
            bw = tuple(rng.choice(b_gens) for _ in range(rng.randint(1, 2)))
            bb = NCElement.word(bw)
            # The letter route computes act(a1·a2) as act(a1, act(a2, ·)),
            # so the product side goes through the ordering route.
            lhs = d.act_by_ordering(a1 * a2, bb)
            rhs = d.act(a1, d.act(a2, bb))
            diff = d.b_pres.normal_form(lhs - rhs)
            assert diff.is_zero(), kind


def test_rule_preserves_both_ideals():
    b = standard_hecke(2)
    for kind in ALL_KINDS:
        d = make_double(b, kind)
        for rel in d.a_pres.relations:
            for g in sorted(d.b_pres.generators):
                mixed = rel * NCElement.generator(g)
                assert d.binormal_form(mixed).is_zero(), kind
        for rel in d.b_pres.relations:
            for g in matrix_generators(d.a_tag, 2):
                mixed = NCElement.generator(g) * rel
                assert d.binormal_form(mixed).is_zero(), kind


def test_rule_preserves_vector_quotients():
    b = standard_hecke(2)
    for quotient in ("symmetric", "skew"):
        d = make_double(b, "vector", b_quotient=quotient)
        for rel in d.b_pres.relations:
            for g in matrix_generators("l", 2):
                mixed = NCElement.generator(g) * rel
                assert d.binormal_form(mixed).is_zero(), quotient


def test_unit_shift_translates_between_left_kinds():
    # Substituting X = I - nu * F into the homogeneous rule lands in the
    # shifted double's ideal, entry by entry.
    b = standard_hecke(2)
    d = make_double(b, "left_shifted")
    ident = MatrixOverAlgebra.identity(2, 2)
    f1 = MatrixOverAlgebra.generator_matrix(d.a_tag, 2, 2, 1)
    m1 = MatrixOverAlgebra.generator_matrix(d.b_tag, 2, 2, 1)
    x1 = ident - f1.scale(nu())
    expr = x1.lmul_op(b.op).rmul_op(b.op) * m1 - \
        (m1 * x1.lmul_op(b.op)).rmul_op(b.inv)
    for v in expr.entries.values():
        assert d.binormal_form(v).is_zero()


def test_product_of_coordinates_and_derivatives_satisfies_shifted_rule():
    # F := M.D entrywise obeys the shifted invariant-field rule inside the
    # derivative double.
    b = standard_hecke(2)
    d = make_double(b, "derivative")
    m1 = MatrixOverAlgebra.generator_matrix("m", 2, 2, 1)
    d1 = MatrixOverAlgebra.generator_matrix("d", 2, 2, 1)
    f1 = m1 * d1
    expr = f1.lmul_op(b.op).rmul_op(b.op) * m1 - \
        (m1 * f1.lmul_op(b.op)).rmul_op(b.inv) - m1.lmul_op(b.op)
    for v in expr.entries.values():
        assert d.binormal_form(v).is_zero()


def test_under_copy_acts_as_inverse_jucys_murphy():
    b = standard_hecke(2)
    d = make_double(b, "left")
    # Degree 1: slot-2 under copy on two slots.
    l2u = matrix_copy(b, "l", 2, "UNDER")
    m1 = MatrixOverAlgebra.generator_matrix("m", 2, 2, 1)
    j2inv = jucys_murphy_inverse(b, 2)[1]
    assert d.act_matrix(l2u, m1) == m1.lmul_op(j2inv)
    # Degree 2: slot-3 under copy against the two-factor monomial.
    l3u = matrix_copy(b, "l", 3, "UNDER")
    mon = monomial_matrix(b, "m", 2, arity=3)
    j3inv = jucys_murphy_inverse(b, 3)[2]
    assert d.act_matrix(l3u, mon) == mon.lmul_op(j3inv)


def test_under_copy_acts_on_tensor_columns_too():
    b = standard_hecke(2)
    d = make_double(b, "vector")
    l2u = matrix_copy(b, "l", 2, "UNDER")
    x1 = MatrixOverAlgebra.generator_vector("x", 2, 2, 1)
    j2inv = jucys_murphy_inverse(b, 2)[1]
    assert d.act_matrix(l2u, x1) == x1.lmul_op(j2inv)
    l3u = matrix_copy(b, "l", 3, "UNDER")
    col = MatrixOverAlgebra.generator_vector("x", 2, 3, 1) * \
        MatrixOverAlgebra.generator_vector("x", 2, 2, 1)
    j3inv = jucys_murphy_inverse(b, 3)[2]
    assert d.act_matrix(l3u, col) == col.lmul_op(j3inv)


def test_action_operator_of_weighted_trace():
    from redouble.braidings import rtrace_form
    b = standard_hecke(2)
    d = make_double(b, "left")
    form = rtrace_form(b)
    l = MatrixOverAlgebra.generator_matrix("l", 2, 1, 1)
    trl = MatrixOverAlgebra.identity(2, 1).traced_chain([l], form.weights)
    for k in (1, 2):
        op = action_operator(d, trl, k)
        expected = jucys_murphy_inverse(b, k + 1)[k].rtrace(
            k + 1, form.weights)
        assert op == expected
    assert action_operator(d, NCElement.constant(ONE), 1) == \
        TensorOperator.identity(2, 1)


def test_classical_limit_of_shifted_rule_is_commutator_form():
    # Over the unbraided flip the reordering rule becomes: move f past m at
    # the cost of one substitution term delta(row_b, col_f) m(row_f, col_b).
    p = flip(2)
    d = make_double(p, "left_shifted")
    for (gf, gm), img in d.rule.table.items():
        expect = {(gm, gf): ONE}
        if gm.row == gf.col:
            key = (Gen("m", gf.row, gm.col),)
            expect[key] = expect.get(key, ZERO) + ONE
        expect = {k: v for k, v in expect.items() if not v.is_zero()}
        assert img.terms == expect


def test_classical_derivative_action_is_kronecker():
    p = flip(2)
    d = make_double(p, "derivative")
    for gd in matrix_generators("d", 2):
        for gm in matrix_generators("m", 2):
            got = d.act(NCElement.generator(gd), NCElement.generator(gm))
            want = ONE if (gd.row == gm.col and gd.col == gm.row) else ZERO
            assert got == NCElement.constant(want)


def test_sampled_equality_path():
    g = NCElement.generator(Gen("m", 1, 1))
    points = parameter_points(standard_hecke(2), "SAMPLED",
                              random.Random(23), 3)
    for _, b in points:
        d = make_double(b, "left")
        rel = d.a_pres.relations[0]
        assert d.binormal_form(rel * g).is_zero()
        assert not d.binormal_form(g).is_zero()


def _random_element(rng, letters, coeffs, max_len, terms):
    out = NCElement.zero()
    for _ in range(terms):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        out = out + NCElement.word(w, rng.choice(coeffs))
    return out


_ROUTE_CASES = [(2, kind) for kind in _DOUBLE_KINDS] + \
    [(3, "left"), (3, "derivative"), (3, "adjoint_shifted")]


def _assert_routes_agree(d, n, seed):
    a_gens = matrix_generators(d.a_tag, n)
    b_gens = sorted(d.b_pres.generators)
    q = q_scalar()
    coeffs = [ONE, -ONE, q, Scalar.from_fraction("1/2"),
              q * q + Scalar.from_int(3), (q + ONE).inverse()]
    rng = random.Random(seed)
    one = NCElement.constant(ONE)
    for g in a_gens:
        x = NCElement.generator(g)
        assert d.act_mixed(x, one) == d.act_by_ordering(x, one)
    for _ in range(6):
        # x mixes both sides, so B-letters sit inside and between A-letters
        x = _random_element(rng, a_gens + b_gens, coeffs, 3, 3)
        # targets may hold the empty word next to longer ones
        b = _random_element(rng, b_gens, coeffs, 2, 2)
        got = d.act_mixed(x, b)
        assert got.terms == d.act_by_ordering(x, b).terms, (d.kind, x, b)
        assert all(g.tag == d.b_tag for w in got.terms for g in w)
    if d.kind == "adjoint_shifted":
        # the orbit-descent batch: every field on p_k·w in one act_each
        fields = [NCElement.generator(g) for g in a_gens]
        targets = [power_sum(d.braiding, d.b_tag, k) * NCElement.word(w)
                   for k in range(1, n + 1)
                   for w in [()] + [(g,) for g in b_gens[:2]]]
        for x, images in zip(fields, d.act_each(fields, targets)):
            for b, got in zip(targets, images):
                assert got.terms == d.act_by_ordering(x, b).terms, (x, b)


@pytest.mark.parametrize("n, kind", _ROUTE_CASES)
def test_letter_route_equals_ordering_route(n, kind):
    kwargs = {"h": Scalar.from_fraction("7/3")} \
        if kind == "derivative_shifted" else {}
    d = make_double(standard_hecke(n), kind, **kwargs)
    _assert_routes_agree(d, n, f"{n}-{kind}")


def test_rational_rule_constants_are_cleared_once():
    # rational constants in the rule table: the kernel packs it with one
    # integer denominator D, and the action of a letter on a word of
    # length L is over a power of D up to D^(L+1)
    sampled = make_double(standard_hecke(2), "left").substituted(
        Fraction(3, 7))
    shifted = make_double(standard_hecke(2), "derivative_shifted",
                          h=Scalar.from_fraction("7/3"))
    for d in (sampled, shifted):
        _assert_routes_agree(d, 2, f"denominators-{d.kind}")
        assert len(d._kernel.den) == 1 and d._kernel.den[0] > 1
    # a polynomial D: the counit h^-1 of the unit-shifted derivatives at
    # h = q + 1 puts 1 + q under the whole table
    unit = make_double(flip(2), "derivative_shifted_unit",
                       h=q_scalar() + ONE)
    _assert_routes_agree(unit, 2, "denominators-polynomial")
    assert unit._kernel.den == (1, 1)


def test_wide_coefficients_widen_the_action():
    # a 2^80 coefficient cannot sit in a 64-bit digit: the kernel doubles
    # its width, repacks the table and restarts the call
    d = make_double(standard_hecke(2), "adjoint_shifted")
    q = q_scalar()
    big = Scalar.from_int(2 ** 80) * q + Scalar.from_int(3)
    m = [NCElement.generator(g) for g in sorted(d.b_pres.generators)]
    b = (m[0] * m[3]).scale(big) + m[1].scale(q) + m[2] * m[2]
    x = NCElement.generator(Gen("l", 1, 2)) * m[1] * \
        NCElement.generator(Gen("l", 2, 2))
    got = d.act_mixed(x, b)
    assert got.terms == d.act_by_ordering(x, b).terms
    assert not got.is_zero()
    assert d._kernel.width > _WIDTH


def _orbit_descent_double(monkeypatch):
    """The double that verify_orbit_descent acts in at N = 2, after the
    check has passed."""
    made = []
    real = adjoint_orbits.make_double

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(adjoint_orbits, "make_double", spy)
    assert adjoint_orbits.verify_orbit_descent(
        standard_hecke(2), [ONE, Scalar.from_int(2)]).passed
    monkeypatch.undo()
    [double] = made
    return double


def test_the_action_memo_holds_each_word_once(monkeypatch):
    # every word in a memo key or a memo value is the kernel's interned
    # object, so equal words in different entries are one object
    kernel = _orbit_descent_double(monkeypatch)._kernel
    memo_words = [w for (g, bw), (_, _, _, vec, _, _) in kernel.memo.items()
                  for w in (bw, *vec)]
    seen = {}
    assert all(seen.setdefault(w, w) is w for w in memo_words)
    assert all(kernel.words[w] is w for w in memo_words)


def test_a_letter_action_asked_once_per_batch_is_not_stored(monkeypatch):
    # the fields act on p_k·w, k <= 2 and |w| <= 1, at N = 2: each field
    # asks once for each target word of the top degree 3, so no memo key
    # holds one, while the recursion keeps the words of degree 2
    kernel = _orbit_descent_double(monkeypatch)._kernel
    assert max(len(bw) for g, bw in kernel.memo) == 2


def test_no_letter_action_is_computed_twice_in_a_capelli_batch(monkeypatch):
    # entries asked once in the batch are not stored, but none of them
    # is asked again later in the same call
    computed = collections.Counter()
    real = _PackedAction._letter

    def spy(self, g, bw, *skip):
        if (g, bw) not in self.memo:
            computed[g, bw] += 1
        return real(self, g, bw, *skip)

    monkeypatch.setattr(_PackedAction, "_letter", spy)
    double = make_double(standard_hecke(2), "derivative")
    assert verify_capelli_action(double, capelli_difference(double, 2)).passed
    assert computed and max(computed.values()) == 1


def test_the_action_multiplies_scalars_only_at_its_boundary(monkeypatch):
    # The nine adjoint fields at N = 3 act on p_3·m_11.  Scalars meet the
    # packed kernel only where x and b are loaded and the result unpacked;
    # the bound allows one product per loaded coefficient.  A kernel that
    # multiplied Scalars per output entry makes about 8000 here.
    n = 3
    d = make_double(standard_hecke(n), "adjoint_shifted")
    target = power_sum(d.braiding, d.b_tag, 3) * \
        NCElement.generator(Gen(d.b_tag, 1, 1))
    fields = [NCElement.generator(g) for g in matrix_generators(d.a_tag, n)]
    calls = []
    real = Scalar.__mul__

    def counted(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    images = [d.act(x, target) for x in fields]
    monkeypatch.undo()
    assert len(calls) <= len(fields) * (1 + len(target.terms))
    assert any(not image.is_zero() for image in images)


def test_action_rejects_a_foreign_letter():
    d = make_double(standard_hecke(2), "left")
    target = NCElement.generator(Gen("m", 1, 2))
    for w in ((Gen("z", 1, 1),),
              (Gen("l", 1, 1), Gen("z", 1, 1)),
              (Gen("z", 1, 1), Gen("l", 2, 1))):
        with pytest.raises(DoubleError):
            d.act_mixed(NCElement.word(w), target)
    with pytest.raises(DoubleError):
        d.act_mixed(NCElement.generator(Gen("l", 1, 1)),
                    NCElement.generator(Gen("l", 1, 2)))


def test_action_takes_the_parameter_of_its_braiding():
    # every load reads values in the braiding's parameter: a non-constant
    # h coefficient in a q double raises on each action route
    d = make_double(standard_hecke(2), "left")
    h = Scalar.var("h")
    x = NCElement.generator(Gen("l", 1, 1))
    b = NCElement.generator(Gen("m", 1, 2))
    for a, target in ((x.scale(h), b), (x, b.scale(h))):
        with pytest.raises(MixedParameterError):
            d.act(a, target)
        with pytest.raises(MixedParameterError):
            next(d.act_each([a], [target]))
    with pytest.raises(MixedParameterError):
        action_operator(d, x.scale(h), 1)
    # a rational constant carries any label
    half = Scalar.from_fraction("1/2", "h")
    assert d.act(x.scale(half), b) == d.act(x, b).scale(half)


def test_action_overflow_guard():
    d = make_double(standard_hecke(2), "left")
    d.max_word = 3
    a = NCElement.word((Gen("l", 1, 1),) * 2)
    with pytest.raises(DoubleError):
        d.act(a, NCElement.word((Gen("m", 1, 1),) * 2))
    with pytest.raises(DoubleError):
        d.act_mixed(a, NCElement.word((Gen("m", 1, 1),) * 2))
    d.act(a, NCElement.generator(Gen("m", 1, 1)))


def test_degree_overflow_guard():
    b = standard_hecke(2)
    d = make_double(b, "left")
    d.max_word = 3
    word = NCElement.word((Gen("l", 1, 1),) * 2 + (Gen("m", 1, 1),) * 2)
    with pytest.raises(DoubleError):
        d.normal_order(word)


_RELATION_CASES = [(standard_hecke(2), kind, Scalar.from_fraction("7/3")
                    if kind == "derivative_shifted" else None)
                   for kind in _DOUBLE_KINDS] + \
    [(flip(2, "h"), "derivative_shifted_unit", Scalar.var("h"))]


@pytest.mark.parametrize("braiding, kind, h", _RELATION_CASES,
                         ids=[c[1] for c in _RELATION_CASES])
def test_rule_table_satisfies_the_defining_relation(braiding, kind, h):
    # ordering the bilinear left side by the extracted table must give the
    # right side, which is already ordered; no solver is involved here
    d = make_double(braiding, kind, h=h)
    lhs, rhs = _defining_relation(braiding, kind, h, "free")[:2]
    positions = [(r, c) for r in _index_space(2, lhs.row_arity)
                 for c in _index_space(2, lhs.col_arity)]
    assert len(positions) == len(d.rule.table)
    for r, c in positions:
        assert not lhs.entry(r, c).is_zero()
        assert d.normal_order(lhs.entry(r, c)) == \
            d.normal_order(rhs.entry(r, c)), (r, c)


def test_singular_relation_is_rejected():
    # the unbraided product L_1 M_1 has no entry off the diagonal of the
    # second slot, so it cannot determine the sixteen pair images
    lhs = MatrixOverAlgebra.generator_matrix("l", 2, 2, 1) * \
        MatrixOverAlgebra.generator_matrix("m", 2, 2, 1)
    with pytest.raises(DoubleError, match="does not determine") as err:
        _extract_rule(lhs, lhs, matrix_generators("l", 2),
                      matrix_generators("m", 2))
    assert "dependent" in str(err.value.__cause__)


def test_unknown_kind_rejected():
    with pytest.raises(DoubleError):
        make_double(standard_hecke(2), "sideways")


def _per_word_binormal_form(d, x):
    """Reference: reduce the B-block and the A-block of every ordered word
    alone, then add the products of their remainders."""
    def word_nf(pres, w):
        pres.ensure(len(w))
        return pres._tri.reduce({w: ONE})

    out: dict = {}
    for w, c in d.normal_order(x).terms.items():
        bw, aw = d.split_word(w)
        nfa = word_nf(d.a_pres, aw)
        for wb, cb in word_nf(d.b_pres, bw).items():
            vec_add_scaled(out, {wb + wa: ca for wa, ca in nfa.items()},
                           c * cb)
    return out


def _kind_double(n, kind):
    """make_double(standard_hecke(n), kind), derivative_shifted at 7/3."""
    kwargs = {"h": Scalar.from_fraction("7/3")} \
        if kind == "derivative_shifted" else {}
    return make_double(standard_hecke(n), kind, **kwargs)


@pytest.mark.parametrize("n, kind", [
    *(pytest.param(2, kind, id=kind) for kind in _DOUBLE_KINDS),
    pytest.param(3, "left_shifted", id="left_shifted-n3")])
def test_binormal_form_equals_the_per_word_route(n, kind):
    d = _kind_double(n, kind)
    a_gens = matrix_generators(d.a_tag, n)
    b_gens = sorted(d.b_pres.generators)
    q = q_scalar()
    coeffs = [ONE, -ONE, q, Scalar.from_fraction("1/2"),
              q * q + Scalar.from_int(3), (q + ONE).inverse()]
    rng = random.Random(f"binormal-{kind}")
    elements = [_random_element(rng, a_gens + b_gens, coeffs, 3, 4)
                for _ in range(6)]
    # products with relations, which vanish in the double
    elements += [rel * NCElement.generator(rng.choice(b_gens))
                 for rel in d.a_pres.relations[:2]]
    elements += [NCElement.generator(rng.choice(a_gens)).scale(q) * rel
                 for rel in d.b_pres.relations[:2]]
    for x in elements:
        got = d.binormal_form(x)
        want = _per_word_binormal_form(d, x)
        assert got.terms == want, (kind, x)
        assert {w: c.text() for w, c in got.terms.items()} == \
            {w: c.text() for w, c in want.items()}
        for w in got.terms:
            d.split_word(w)  # raises unless B-letters precede A-letters
    assert any(d.binormal_form(x).is_zero() for x in elements)
    assert not all(d.binormal_form(x).is_zero() for x in elements)


@pytest.mark.parametrize("n, kind", [(n, kind) for n in (2, 3)
                                     for kind in _DOUBLE_KINDS])
def test_every_double_presentation_certifies(n, kind):
    d = _kind_double(n, kind)
    d.presentation.ensure(3)  # raises PresentationError unless flat
    assert len(d.presentation.relations) == len(d.a_pres.relations) + \
        len(d.b_pres.relations) + len(d.rule.table)


@pytest.mark.parametrize("kind", _DOUBLE_KINDS)
def test_a_spoiled_rule_entry_fails_certification(kind):
    d = spoiled_copy(_kind_double(2, kind), first_term_again)
    with pytest.raises(PresentationError, match="is not certified"):
        d.presentation.ensure(3)


def test_the_shared_rule_table_is_read_only():
    d = _kind_double(2, "left")
    pair, image = next(iter(d.rule.table.items()))
    with pytest.raises(TypeError):
        d.rule.table[pair] = image + image
    assert make_double(standard_hecke(2), "left").rule.table[pair] == image


def test_a_letters_must_rank_above_b_letters():
    # tag m ranks below tag l, so m·l would not lead its exchange row
    a_pres = free_presentation(matrix_generators("m", 2))
    b_pres = free_presentation(matrix_generators("l", 2))
    with pytest.raises(DoubleError, match="rank above"):
        DoubleDefinition("swapped", 2, a_pres, b_pres,
                         PermutationRule("m", "l", {}),
                         {g: ZERO for g in a_pres.generators})


def _spoiled_definition(d, eps_a):
    return DoubleDefinition(d.kind, d.dim, d.a_pres, d.b_pres, d.rule, eps_a)


def _rule_with_image(d, image):
    pair = next(iter(d.rule.table))
    return PermutationRule(d.a_tag, d.b_tag, {pair: image})


_L11, _M11 = Gen("l", 1, 1), Gen("m", 1, 1)

_REJECTIONS = {
    # eps = 1 on every letter leaves a nonzero constant on re(l)'s relations
    "counit does not annihilate the A-relations": lambda d:
        _spoiled_definition(d, {g: ONE for g in d.a_pres.generators}),
    "counit applies to A-elements only": lambda d:
        d.counit(NCElement.generator(_M11)),
    "rule key tags do not match the double": lambda d:
        PermutationRule(d.b_tag, d.a_tag, dict(d.rule.table)),
    "rule image outside the pair span": lambda d:
        _rule_with_image(d, NCElement.word((_M11, _M11, _L11))),
    "rule image term is not reordered": lambda d:
        _rule_with_image(d, NCElement.word((_L11, _M11))),
}


@pytest.mark.parametrize("message", list(_REJECTIONS))
def test_each_definition_and_rule_rejection(message):
    d = make_double(standard_hecke(2), "left").definition
    with pytest.raises(DoubleError) as err:
        _REJECTIONS[message](d)
    assert str(err.value) == message



def _per_entry_operator(double, a, k):
    """Reference for the action operator: one normal form per monomial
    entry and one per acted entry, each reduced on its own."""
    mon = monomial_matrix(double.braiding, double.b_tag, k)
    idx = _index_space(double.braiding.dim, k)
    nf_rows = []
    for kk in idx:
        row: dict = {}
        for j in idx:
            e = double.b_pres.normal_form(mon.entry(kk, j))
            for w, c in e.terms.items():
                row[(j, w)] = c
        nf_rows.append(row)
    try:
        coords = coordinates(nf_rows)
    except ArithmeticError as exc:
        raise DoubleError("monomial entries are linearly dependent") from exc
    rows: dict = {}
    for i in idx:
        target: dict = {}
        for j in idx:
            acted = double.act(a, mon.entry(i, j))
            e = double.b_pres.normal_form(acted)
            for w, c in e.terms.items():
                accumulate(target, (j, w), c)
        try:
            row = {idx[pos]: c for pos, c in coords(target).items()}
        except ArithmeticError as exc:
            raise DoubleError(
                "action is not slotwise on these monomials") from exc
        if row:
            rows[i] = row
    return TensorOperator(double.braiding.dim, k, rows)


def _left(n):
    return make_double(standard_hecke(n), "left")


_SOLVE_CASES = (
    [(f"left-n{n}-p1-k{k}", lambda n=n: _left(n),
      lambda d: power_sum(d.braiding, "l", 1), k)
     for n in (2, 3) for k in (1, 2, 3)]
    + [(f"left-n2-e2-k{k}", lambda: _left(2),
        lambda d: elementary_symmetric(d.braiding, "l", 2), k)
       for k in (1, 2, 3)]
    + [(f"left-n2-p2-k{k}", lambda: _left(2),
        lambda d: power_sum(d.braiding, "l", 2), k) for k in (1, 2, 3)]
    # images of the unit-shifted fields leave degree k
    + [(f"left_shifted-n2-p1-k{k}",
        lambda: make_double(standard_hecke(2), "left_shifted"),
        lambda d: power_sum(d.braiding, "l", 1), k) for k in (1, 2, 3)]
    # rational constants: integer denominators in the rule table and rows
    + [(f"substituted-n2-p1-k{k}",
        lambda: _left(2).substituted(Fraction(3, 7)),
        lambda d: power_sum(d.braiding, "l", 1), k) for k in (1, 2, 3)])


@pytest.mark.parametrize("make, element, k", [c[1:] for c in _SOLVE_CASES],
                         ids=[c[0] for c in _SOLVE_CASES])
def test_word_table_solve_equals_the_per_entry_solve(make, element, k):
    d = make()
    a = element(d)
    got = _solve_action_operator(d, a, k)
    assert got == _per_entry_operator(make(), a, k)
    assert got.rows


def test_the_word_table_carries_one_common_factor():
    # T[w] = m · nf(w) with one m for every word.  At 3/7 the normal forms
    # of degree <= 3 are over 1, 9, ..., 6561, so m is their lcm 6561.
    d = _left(2).substituted(Fraction(3, 7))
    words = [w for k in range(4)
             for w in itertools.product(d.b_pres.generators, repeat=k)]
    table = doubles._word_table(_PackedAction(d, _WIDTH), d.b_pres, words)
    ratios = set()
    dens = set()
    for w in words:
        nf = d.b_pres.normal_form(NCElement.word(w)).terms
        assert (w in table) == bool(nf)
        if nf:
            assert table[w].den == (1,)
            assert table[w].packed.keys() == nf.keys()
            for key, entry in _unpack_vector(table[w]).items():
                ratios.add(entry * nf[key].inverse())
                dens.add(nf[key].den)
    assert len(dens) > 2
    assert ratios == {Scalar.from_int(6561)}


@pytest.mark.parametrize("kind, letter", [("adjoint", Gen("l", 1, 2)),
                                          ("derivative", Gen("d", 1, 2))])
def test_an_off_diagonal_field_is_not_slotwise_on_either_route(kind, letter):
    a = NCElement.generator(letter)
    for solve in (_solve_action_operator, _per_entry_operator):
        with pytest.raises(DoubleError, match="action is not slotwise"):
            solve(make_double(standard_hecke(2), kind), a, 1)


def test_wide_coefficients_widen_the_operator_solve(monkeypatch):
    # a 2^80 coefficient in the acting element cannot sit in a 64-bit
    # digit: the solve restarts on a kernel of twice the width and builds
    # its word table again there
    d = _left(2)
    q = q_scalar()
    big = Scalar.from_int(2 ** 80) * q + Scalar.from_int(3)
    a = power_sum(d.braiding, "l", 1).scale(big)
    widths = []
    real = doubles._word_table

    def spy(kernel, b_pres, words):
        widths.append(kernel.width)
        return real(kernel, b_pres, words)

    monkeypatch.setattr(doubles, "_word_table", spy)
    got = _solve_action_operator(d, a, 2)
    monkeypatch.undo()
    assert widths == [_WIDTH, 2 * _WIDTH]
    assert got == _per_entry_operator(_left(2), a, 2)


def test_a_narrow_kernel_widens_the_word_table(monkeypatch):
    # from 4-bit digits up, the rule table (at 4 bits), the row sums (at
    # 8) and the acted word sums (at 16) overflow in turn: every restart
    # builds a kernel of twice the width, and its word table there
    d = _left(2)
    monkeypatch.setattr(doubles, "_WIDTH", 4)
    built, tables = [], []
    real_kernel, real_table = doubles._PackedAction, doubles._word_table

    def kernel(double, width):
        built.append(width)
        return real_kernel(double, width)

    def table(kernel, b_pres, words):
        tables.append(kernel.width)
        return real_table(kernel, b_pres, words)

    monkeypatch.setattr(doubles, "_PackedAction", kernel)
    monkeypatch.setattr(doubles, "_word_table", table)
    a = power_sum(d.braiding, "l", 1)
    got = _solve_action_operator(d, a, 3)
    monkeypatch.undo()
    assert built == [4, 8, 16, 32] and tables == [8, 16, 32]
    assert d._kernel.width == 32
    assert got == _per_entry_operator(_left(2), a, 3)
