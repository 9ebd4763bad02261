"""Ideal reduction, normal forms, and matrices over the free algebra."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import random

import pytest

from redouble import ncengine
from redouble.adjoint_orbits import orbit_quotient
from redouble.braidings import TensorOperator, flip, standard_hecke
from redouble.doubles import make_double
from redouble.linalg import Triangular, vec_add_scaled
from redouble.ncengine import (
    CentralQuotient,
    Gen,
    MatrixOverAlgebra,
    NCElement,
    PresentationError,
    QuadraticPresentation,
    free_presentation,
    matrix_generators,
    re_presentation,
    skew_vector_presentation,
    symmetric_vector_presentation,
    vector_generators,
    word_sortkey,
)
from redouble.braidings import rtrace_form
from redouble.scalars import ONE, Scalar, nu


def comb(n, k):
    return math.comb(n, k) if n >= 0 else 0


def graded_dimension(pres, d):
    """dim of the degree-d part of a quotient with homogeneous relations."""
    return pres.filtered_dimension(d) - pres.filtered_dimension(d - 1)


def test_a_generator_symbol_is_one_object():
    g = Gen("m", 1, 2)
    assert g is Gen("m", 1, 2) and g is not Gen("m", 2, 1)
    assert hash(g) == object.__hash__(g)
    # pool workers unpickle results, and copies of words stay interned
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(g, protocol)) is g
    word = (g, Gen("m", 2, 1))
    assert copy.copy(g) is g and copy.deepcopy(g) is g
    assert all(a is b for a, b in zip(copy.deepcopy(word), word))
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(word)), word))
    assert Gen._make(["m", 1, 2]) is g
    assert g._replace(row=2, col=1) is word[1] and g._replace() is g
    # symbols order as the tuples (tag, row, col) and print as before
    gens = [Gen("m", 2, 1), Gen("d", 3, 3), Gen("m", 1, 2), Gen("x", 2, 0)]
    assert sorted(gens) == sorted(gens, key=tuple)
    assert [tuple(x) for x in sorted(gens)] == \
        [("d", 3, 3), ("m", 1, 2), ("m", 2, 1), ("x", 2, 0)]
    assert repr(gens) == "[m21, d33, m12, x2]"
    assert (g.tag, g.row, g.col) == ("m", 1, 2)


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


def test_rank_one_dimensional_case_is_free():
    b = standard_hecke(1)
    pres = re_presentation(b, "l")
    assert pres.relations == []
    for d in range(6):
        assert graded_dimension(pres, d) == 1


def test_re_presentation_dimensions_match_commutative_count():
    # Flat deformation: degree-d component has dim C(d + n^2 - 1, n^2 - 1).
    b = standard_hecke(2)
    pres = re_presentation(b, "l")
    assert pres.ideal_rank(2) == 6
    for d in range(5):
        assert graded_dimension(pres, d) == comb(d + 3, 3)


def test_re_presentation_dimensions_rank_three():
    b = standard_hecke(3)
    pres = re_presentation(b, "l")
    for d in range(4):
        assert graded_dimension(pres, d) == comb(d + 8, 8)


def test_inverse_braiding_presentation_dimensions():
    b = standard_hecke(2)
    pres = re_presentation(b, "d", use_inverse=True)
    for d in range(5):
        assert graded_dimension(pres, d) == comb(d + 3, 3)


def test_shifted_presentation_is_filtered_and_flat():
    b = standard_hecke(2)
    pres = re_presentation(b, "f", shift=ONE)
    # the shift gives a relation lower-degree terms
    assert any(len({len(w) for w in r.terms}) > 1 for r in pres.relations)
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
    assert MatrixOverAlgebra.identity(2, 1).traced_chain(
        [l], form.weights) == trl
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


def _two_stage_remainder(quotient, d):
    """The remainder of one word by a quotient's route before it was one
    presentation: a fresh base presentation, then a separate Triangular
    of nf_base(w·c) over the base's normal words w."""
    base = QuadraticPresentation(quotient.generators, quotient.relations)
    span = Triangular(word_sortkey)
    for e in range(d + 1):
        for c in quotient.pinned:
            if c.degree() <= e:
                for w in base.normal_words(e - c.degree()):
                    span.insert(base.normal_form(NCElement.word(w) * c).terms)
    return lambda w: span.reduce(base.normal_form(NCElement.word(w)).terms)


def _word_remainder(pres, d):
    """The remainder of one word of degree <= d, reduced alone."""
    if isinstance(pres, CentralQuotient):
        return _two_stage_remainder(pres, d)
    pres.ensure(d)
    return lambda w: pres._tri.reduce({w: ONE})


def _per_word_normal_form(pres, x):
    """Reference: reduce every word of x alone, then add the remainders."""
    remainder = _word_remainder(pres, x.degree())
    out: dict = {}
    for w, c in x.terms.items():
        vec_add_scaled(out, remainder(w), c)
    return out


def _texts(terms):
    return {w: c.text() for w, c in terms.items()}


def _random_element(rng, gens, coeffs, lengths, terms):
    out = NCElement.zero()
    for _ in range(terms):
        w = tuple(rng.choice(gens) for _ in range(rng.choice(lengths)))
        out = out + NCElement.word(w, rng.choice(coeffs))
    return out


# name: (fresh presentation, its parameter)
DIFFERENTIAL_PRESENTATIONS = {
    "re": (lambda: re_presentation(standard_hecke(2), "l"), "q"),
    "inv": (lambda: re_presentation(standard_hecke(2), "l",
                                    use_inverse=True), "q"),
    "re-shifted-q": (lambda: re_presentation(
        standard_hecke(2), "f", shift=nu("q").inverse()), "q"),
    "re-shifted-h": (lambda: re_presentation(
        flip(2, "h"), "f", shift=Scalar.var("h")), "h"),
    "sym": (lambda: symmetric_vector_presentation(standard_hecke(2), "x"),
            "q"),
    "skew": (lambda: skew_vector_presentation(standard_hecke(2), "x"), "q"),
    "orbit": (lambda: _orbit(2, (2, 3)), "q"),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_PRESENTATIONS)
def test_normal_form_equals_the_per_word_route(name):
    build, param = DIFFERENTIAL_PRESENTATIONS[name]
    p = Scalar.var(param)
    coeffs = [ONE, -ONE, p, Scalar.from_fraction("1/2"),
              p * p + Scalar.from_int(3), (p + ONE).inverse()]
    rng = random.Random(f"nf-{name}")
    pres = build()
    gens = pres.generators
    # Fed before any basis is built: a short first word, longer ones after.
    first = _random_element(rng, gens, coeffs, [0, 1], 1) + \
        _random_element(rng, gens, coeffs, [3], 4)
    assert first.degree() == 3
    elements = [first] + \
        [_random_element(rng, gens, coeffs, [0, 1, 2, 3], 4)
         for _ in range(6)]
    # and elements of the ideal, which reduce to zero
    for rel in pres.relations[:3]:
        left = _random_element(rng, gens, coeffs, [0, 1], 2)
        elements.append(left * rel.scale(rng.choice(coeffs)) - rel)
    for x in elements:
        got = pres.normal_form(x)
        want = _per_word_normal_form(pres, x)
        assert got.terms == want, (name, x)
        assert _texts(got.terms) == _texts(want)
        assert pres.reduces_to_zero(x) == (not want)
        assert pres.reduces_to_zero(x - got)
    assert any(pres.reduces_to_zero(x) for x in elements)
    assert not all(pres.reduces_to_zero(x) for x in elements)
    assert first.terms != pres.normal_form(first).terms


def _both_sided_basis(pres, d):
    """Reference ideal basis: both g·row and row·g for every row of a layer."""
    tri = Triangular(word_sortkey)
    layer = []
    generators = pres.relations + getattr(pres, "pinned", [])
    for e in range(1, d + 1):
        cand = [dict(r.terms) for r in generators if r.degree() == e]
        for row in layer:
            for g in pres.generators:
                cand.append({(g,) + w: c for w, c in row.items()})
                cand.append({w + (g,): c for w, c in row.items()})
        layer = [tri.row(p) for p in map(tri.insert, cand) if p is not None]
    return tri


def _pivots_by_degree(words, d):
    out: dict = {}
    for w in words:
        if len(w) <= d:
            out.setdefault(len(w), set()).add(w)
    return out


def _has_lead(pres, w):
    """Whether the word w contains a lead of a relation row of pres."""
    return any(w[i:i + 2] in pres._leads for i in range(len(w) - 1))


def _pivot_words(pres, d):
    """The pivot words of degree <= d: every word that contains a relation
    lead, whether or not a reduction has stored its row yet, and in a
    quotient the stored pinned pivots, which are normal words."""
    pinned = [w for w in pres._tri.pivots if not _has_lead(pres, w)]
    assert bool(pinned) == isinstance(pres, CentralQuotient)
    return [w for e in range(d + 1)
            for w in itertools.product(pres.generators, repeat=e)
            if _has_lead(pres, w)] + pinned


def _orbit(n, levels):
    """The orbit quotient of the rank-n adjoint double at the levels."""
    double = make_double(standard_hecke(n), "adjoint_shifted")
    return orbit_quotient(double, [Scalar.from_int(i) for i in levels])


def _rank_three_orbit():
    return _orbit(3, (2, 3, 4))


# name: (fresh presentation, its parameter, basis degree)
ONE_SIDED_CASES = {name: (build, param, 4) for name, (build, param)
                   in DIFFERENTIAL_PRESENTATIONS.items()}
ONE_SIDED_CASES["orbit-rank3"] = (_rank_three_orbit, "q", 3)


@pytest.mark.parametrize("name", ONE_SIDED_CASES)
def test_one_sided_layers_span_the_both_sided_ideal(name):
    # The re-keyed rows of a certified presentation, and the one-sided
    # span w·c of a central quotient, against both multiples of every row.
    build, param, d = ONE_SIDED_CASES[name]
    pres = build()
    pres.ensure(2)  # two calls: the second certifies the kept basis
    pres.ensure(d)
    ref = _both_sided_basis(pres, d)
    assert _pivots_by_degree(_pivot_words(pres, d), d) == \
        _pivots_by_degree(ref.pivots, d)
    p = Scalar.var(param)
    coeffs = [ONE, -ONE, p, Scalar.from_fraction("1/2"), (p + ONE).inverse()]
    rng = random.Random(f"one-sided-{name}")
    gens = pres.generators
    for _ in range(8):
        x = _random_element(rng, gens, coeffs, range(d + 1), 4)
        assert pres.normal_form(x).terms == ref.reduce(dict(x.terms)), x
    # every row of degree <= d stored on the way, re-keyed or pinned, lies
    # in the ideal (a quotient's centrality check reads some of degree d+1)
    tri = pres._tri
    for pivot in tri.pivots:
        if len(pivot) <= d:
            assert ref.reduce(tri.row(pivot)) == {}, pivot


def test_rank_three_central_span_row_count(monkeypatch):
    # A deterministic count: the pinned span through degree 4 inserts one
    # candidate per normal word w of degree <= 4 - k for each pinned c_k
    # (220 + 55 + 10); 274 of them are independent.
    calls = []
    insert = Triangular.insert

    def counted(tri, vec):
        calls.append(1)
        return insert(tri, vec)

    pres = _rank_three_orbit()
    monkeypatch.setattr(Triangular, "insert", counted)
    pres.ensure(4)
    assert len(calls) == 285
    plain = re_presentation(standard_hecke(3), "m")
    assert pres.ideal_rank(4) - plain.ideal_rank(4) == 274
    # the same rank as the two-sided ideal of relations and pinned elements
    assert pres.ideal_rank(4) == 6940


def test_only_the_rows_a_reduction_reads_are_stored():
    pres = re_presentation(standard_hecke(3), "m")
    gens = pres.generators
    x = NCElement.word((gens[0], gens[8], gens[4], gens[2]))
    assert pres.normal_form(x).terms != x.terms
    # the rank counts every word with a lead, stored or not, and PBW
    # leaves C(e + 8, 8) normal words in each degree e
    rank = pres.ideal_rank(4)
    assert rank == sum(9 ** e - math.comb(e + 8, 8) for e in range(5))
    assert len(pres._tri.pivots) < rank


def test_quotient_certifies_before_its_first_pinned_insert(monkeypatch):
    events = []
    certify, insert = QuadraticPresentation._certify, Triangular.insert

    def spied_certify(pres):
        certify(pres)
        events.append("certified")

    def spied_insert(tri, vec):
        events.append("insert")
        return insert(tri, vec)

    # the double solves its rule table through inserts of its own
    double = make_double(standard_hecke(3), "adjoint_shifted")
    monkeypatch.setattr(QuadraticPresentation, "_certify", spied_certify)
    monkeypatch.setattr(Triangular, "insert", spied_insert)
    pres = orbit_quotient(double, [Scalar.from_int(i) for i in (2, 3, 4)])
    relations = len(pres.relations)
    assert events == ["insert"] * relations + ["certified"]
    pres.ensure(4)
    assert events[relations + 1:] == ["insert"] * 285
    # the pinned span was not used up by the centrality check
    assert pres.ideal_rank(4) > re_presentation(
        standard_hecke(3), "m").ideal_rank(4)


def test_a_quotient_normal_form_is_one_reduction(monkeypatch):
    pres = _orbit(2, (2, 3))
    pres.ensure(3)
    calls = []
    reduce = Triangular.reduce

    def counted(tri, vec):
        calls.append(tri)
        return reduce(tri, vec)

    monkeypatch.setattr(Triangular, "reduce", counted)
    rng = random.Random(7)
    elements = [_random_element(rng, pres.generators, [ONE], range(4), 3)
                for _ in range(5)]
    for x in elements:
        pres.normal_form(x)
    assert calls == [pres._tri] * len(elements)
    assert isinstance(pres, QuadraticPresentation)
    assert not hasattr(pres, "base")


@pytest.mark.parametrize("name", DIFFERENTIAL_PRESENTATIONS)
def test_every_presentation_certifies(name):
    build, _ = DIFFERENTIAL_PRESENTATIONS[name]
    pres = build()
    pres.ensure(3)  # certifies, or raises PresentationError
    pivots = _pivot_words(pres, 3)
    leads = pres._leads
    assert leads and leads <= set(pivots) and leads <= set(pres._tri.pivots)
    # reading every word of degree 3 stores no row: a word that contains a
    # lead is reduced by the relation row read under its prefix and suffix,
    # as by an explicit re-keyed copy of it; a quotient's other pivots are
    # its pinned span
    tri = pres._tri
    stored = dict(tri.pivots)
    words = list(itertools.product(pres.generators, repeat=3))
    copied = _with_rekeyed_copies(pres, words)
    for w in words:
        x = NCElement.word(w)
        assert pres.normal_form(x).terms == copied.reduce(dict(x.terms)), w
    assert tri.pivots == stored
    assert set(stored) <= set(pivots)
    assert {w for w in copied.pivots if len(w) == 3 and _has_lead(pres, w)} \
        == {w for w in words if w[:2] in leads or w[1:] in leads}


def _with_rekeyed_copies(pres, words):
    """A Triangular with the stored rows of pres and, for each of the
    words u·ab·v with leftmost lead ab, the re-keyed copy u·row_ab·v."""
    tri = pres._tri
    out = Triangular(word_sortkey)
    for p in tri.pivots:
        out.insert(tri.row(p))
    for w in words:
        found = pres._lead_row(w)
        if found is not None:
            ab, u, v = found
            assert out.insert(
                {u + k + v: c for k, c in tri.row(ab).items()}) == w
    return out


def test_an_orbit_quotient_stores_only_relation_and_pinned_rows():
    # after the rank-3 orbit quotient reduces every word of degree 3, each
    # stored pivot is a relation lead or a pinned pivot, a normal word
    pres = _rank_three_orbit()
    for w in itertools.product(pres.generators, repeat=3):
        pres.normal_form(NCElement.word(w))
    pinned = [p for p in pres._tri.pivots if p not in pres._leads]
    assert pinned and set(pres._leads) <= set(pres._tri.pivots)
    assert not any(_has_lead(pres, p) for p in pinned)
    assert set(pinned) <= {w for e in range(5)
                           for w in pres.normal_words(e)}


# fresh rank-3 presentations; re is in the test above
RANK_THREE_PRESENTATIONS = {
    "inv": lambda: re_presentation(standard_hecke(3), "l", use_inverse=True),
    "re-shifted": lambda: re_presentation(
        standard_hecke(3), "f", shift=nu("q").inverse()),
}


@pytest.mark.parametrize("name", RANK_THREE_PRESENTATIONS)
def test_rank_three_presentations_certify_with_pbw_dimensions(name):
    pres = RANK_THREE_PRESENTATIONS[name]()
    for d in range(4):
        assert pres.filtered_dimension(d) == \
            sum(comb(e + 8, 8) for e in range(d + 1))


def test_row_column_letter_order_fails_certification(monkeypatch):
    # Under the plain (row, col) letter order the degree-2 rows of the
    # rank-2 reflection-equation algebra are not a Groebner basis.
    monkeypatch.setattr(ncengine, "word_sortkey", lambda w: (len(w), w))
    pres = re_presentation(standard_hecke(2), "l")
    pres.ensure(2)  # degree-2 rows alone are never checked
    with pytest.raises(PresentationError, match=r"re\(l, dim=2\) is not"
                       r" certified: the overlap"):
        pres.ensure(3)


def test_non_quadratic_relation_fails_certification():
    gens = vector_generators("x", 2)
    x1, x2 = (NCElement.generator(g) for g in gens)
    pres = QuadraticPresentation(gens, [x1 * x2 - x2, x1 * x1 * x2],
                                 name="cubic")
    with pytest.raises(PresentationError, match="cubic"):
        pres.normal_form(x1)


def test_symmetric_and_skew_vector_quotients():
    b = standard_hecke(2)
    sym = symmetric_vector_presentation(b, "x")
    skew = skew_vector_presentation(b, "x")
    for d in range(5):
        assert graded_dimension(sym, d) == d + 1
    assert [graded_dimension(skew, d) for d in range(4)] == [1, 2, 1, 0]
    # Rank three: binomial dimensions on both sides.
    b3 = standard_hecke(3)
    sym3 = symmetric_vector_presentation(b3, "x")
    skew3 = skew_vector_presentation(b3, "x")
    assert [graded_dimension(sym3, d) for d in range(4)] == [1, 3, 6, 10]
    assert [graded_dimension(skew3, d) for d in range(5)] == [1, 3, 3, 1, 0]


def test_free_presentation_of_vectors():
    pres = free_presentation(vector_generators("x", 2))
    assert graded_dimension(pres, 3) == 8


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
    for slot in (0, 3):
        with pytest.raises(ValueError):
            r.rtrace(slot, form.weights)
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
