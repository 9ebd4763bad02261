"""Fraction-free elimination gives the remainders of field elimination,
also when coefficients outgrow one packed digit, `coordinates` solves
in the span of independent rows, `traced` sums the weighted diagonal
of a product, and the packed operator product is the Scalar one."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest

from redouble import braidings, linalg
from redouble.braidings import TensorOperator, standard_hecke
from redouble.linalg import (_WIDTH, Load, Triangular, _bits, _load_matrix,
                             _pack, _pack_vector, _TooWide, _unpack,
                             coordinates, mat_mul, packed_mat_mul, traced,
                             vec_add_scaled)
from redouble.ncengine import Gen, NCElement
from redouble.scalars import ONE, MixedParameterError, Scalar, _pgcd, _pmul


class FieldTriangular:
    """Reference: elimination over Q(q) with monic rows."""

    def __init__(self, sortkey):
        self.sortkey = sortkey
        self.rows: dict = {}

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        while True:
            hits = [k for k in vec if k in self.rows]
            if not hits:
                return vec
            hit = max(hits, key=self.sortkey)
            vec_add_scaled(vec, self.rows[hit], -vec.pop(hit))

    def insert(self, vec: dict):
        vec = self.reduce(vec)
        if not vec:
            return None
        lead = max(vec, key=self.sortkey)
        inv = vec.pop(lead).inverse()
        self.rows[lead] = {k: inv * v for k, v in vec.items()}
        return lead


def _poly(rng, param, lo, hi):
    return Scalar.laurent({e: rng.choice((-3, -2, -1, 1, 2, 3))
                           for e in range(lo, hi + 1)
                           if e in (lo, hi) or rng.random() < 0.5}, param)


def _scalar(rng, param, mixed=False):
    """±q^k, integers, 1/6-style rationals, Laurent and rational functions.

    With mixed, ±1 may come as the default-parameter constants the engine
    feeds in (ONE), whatever param is.
    """
    kind = rng.randrange(6)
    if kind == 0:
        unit = Scalar.power(rng.randint(-3, 3), param)
        return unit if rng.random() < 0.5 else -unit
    if kind == 1:
        if mixed and rng.random() < 0.5:
            return ONE if rng.random() < 0.5 else -ONE
        return Scalar.from_int(rng.choice((-2, 1, 3)), param)
    if kind == 2:
        return Scalar.from_fraction(rng.choice(("1/6", "-2/3", "5/4")), param)
    if kind == 3:  # e.g. 2q^2+3: a non-monic, non-unit lead
        return Scalar.laurent({2: 2, 0: 3}, param) * \
            Scalar.power(rng.randint(-1, 1), param)
    if kind == 4:
        return _poly(rng, param, rng.randint(-2, 0), rng.randint(1, 2))
    return _poly(rng, param, 0, rng.randint(0, 2)) / \
        _poly(rng, param, 0, rng.randint(1, 2))


def _system(rng, param, keys, count, mixed=False):
    """Sparse vectors, every third a combination of earlier ones."""
    out = []
    for i in range(count):
        if i % 3 == 2:
            vec: dict = {}
            for v in rng.sample(out, 2):
                vec_add_scaled(vec, v, _scalar(rng, param, mixed))
        else:
            vec = {k: _scalar(rng, param, mixed)
                   for k in rng.sample(keys, rng.randint(1, 4))}
        out.append(vec)
    return out


def _check_same_remainders(got: dict, want: dict):
    assert list(got) == list(want)
    for k, v in want.items():
        assert got[k] == v and got[k].text() == v.text(), k


@pytest.mark.parametrize("param", ["q", "h"])
@pytest.mark.parametrize("seed", range(6))
def test_fraction_free_remainders_match_field_elimination(param, seed):
    rng = random.Random(f"{param}:{seed}")
    keys = list(range(12))

    def sortkey(k):
        return (k * 5) % 12  # not the key order itself

    tri, ref = Triangular(sortkey), FieldTriangular(sortkey)
    dependent = 0
    # a first row with the non-monic lead 2q^2+3 at the largest key, 7
    first = {7: Scalar.laurent({2: 2, 0: 3}, param),
             0: Scalar.from_fraction("1/6", param)}
    for vec in [first] + _system(rng, param, keys, 12, mixed=True):
        before = dict(vec)
        pivot = tri.insert(vec)
        assert vec == before  # insert does not consume its argument
        assert pivot == ref.insert(vec)
        dependent += pivot is None
        assert len(tri) == len(ref.rows)
        assert set(tri.pivots) == set(ref.rows)
        for probe in _system(rng, param, keys, 3, mixed=True):
            _check_same_remainders(tri.reduce(dict(probe)), ref.reduce(probe))
    assert dependent and len(tri) < len(keys)
    # every stored row is a primitive vector over Z[q, 1/q], and both kinds
    # of step were taken
    rows = {p: tri.row(p) for p in tri.pivots}
    for row in rows.values():
        assert all(v.den == (1,) for v in row.values())
        assert min(v.shift for v in row.values()) == 0
        g = ()
        for v in row.values():
            g = _pgcd(g, v.num)
        assert g == (1,)
        assert math.gcd(*(c for v in row.values() for c in v.num)) == 1
    leads = [row[p] for p, row in rows.items()]
    assert any(len(lead.num) == 1 for lead in leads)
    assert any(len(lead.num) > 1 for lead in leads)


def test_default_parameter_constants_in_laurent_rows():
    # ONE carries the default parameter q; in a Q(h) row it must stay the
    # constant 1 of Q(h) when the row is divided by a power of h
    h = Scalar.var("h")
    tri, ref = Triangular(), FieldTriangular(lambda k: k)
    for vec in ({0: ONE, 1: Scalar.power(-1, "h")},
                {0: -ONE, 2: h * h + Scalar.from_int(3, "h"), 3: ONE}):
        assert tri.insert(vec) == ref.insert(vec)
    for probe in ({1: ONE}, {1: h}, {1: -ONE, 0: ONE}, {2: ONE},
                  {3: h, 2: ONE}, {3: Scalar.power(-2, "h"), 1: ONE}):
        got = tri.reduce(dict(probe))
        _check_same_remainders(got, ref.reduce(probe))
        assert all(v.param == "h" for v in got.values())
    assert tri.reduce({1: ONE}) == {0: -h}


@pytest.mark.parametrize("w", [_WIDTH, 2 * _WIDTH])
def test_packed_polynomials_round_trip(w):
    top = 1 << (w - 2)
    for poly in [(), (5,), (-5,), (0, 0, 7), (3, 0, 0, -1), (-1, -1, -1),
                 (top,), (-top,), (top, 0, -top), (-top, -top, top),
                 (2 * top - 1, 0, -2 * top)]:
        assert _unpack(_pack(poly, w), w) == poly


@pytest.mark.parametrize("param", ["q", "h"])
def test_wide_coefficients_match_field_elimination(param):
    # coefficients of 71 to 133 bits, and products of them, outgrow a
    # 64-bit digit: the rows are repacked wider and the results stay exact
    q = Scalar.var(param)
    big = Scalar.from_int(3 * 2 ** 90, param) * q ** 3 + \
        Scalar.from_int(1, param)
    frac = Scalar.from_fraction(Fraction(10 ** 40, 7), param)
    lead = Scalar.laurent({2: 2 ** 70 + 1, 0: 3}, param)
    system = [
        {6: lead, 3: big, 0: frac},
        {5: big, 3: lead, 1: ONE},
        {4: frac * q, 2: big, 6: lead},
        {3: ONE, 2: lead * q, 1: frac},
    ]
    tri, ref = Triangular(), FieldTriangular(lambda k: k)
    for vec in system:
        assert tri.insert(vec) == ref.insert(vec)
    assert set(tri.pivots) == set(ref.rows)
    assert tri._width > _WIDTH
    for probe in ({6: ONE}, {6: big, 5: lead, 0: frac}, {3: lead * big},
                  {5: frac, 4: q, 1: big}, {0: lead}):
        _check_same_remainders(tri.reduce(dict(probe)), ref.reduce(probe))


@pytest.mark.parametrize("width", [4, 6, 8])
def test_narrow_digits_give_the_field_remainders(monkeypatch, width):
    # digits of 4 to 8 bits overflow within a few steps, so the per-entry
    # bounds, their recompute from the digits and the widening all run on
    # small systems of unit and non-unit leads
    monkeypatch.setattr(linalg, "_WIDTH", width)
    widened = 0
    for seed in range(4):
        param = "qh"[seed % 2]
        rng = random.Random(f"narrow:{width}:{seed}")
        keys = list(range(10))
        tri, ref = Triangular(), FieldTriangular(lambda k: k)
        # a first row with the non-monic lead 2q^2+3 at the largest key, 9
        first = {9: Scalar.laurent({2: 2, 0: 3}, param),
                 0: Scalar.from_fraction("1/6", param)}
        for vec in [first] + _system(rng, param, keys, 10, mixed=True):
            assert tri.insert(vec) == ref.insert(vec)
            for probe in _system(rng, param, keys, 3, mixed=True):
                _check_same_remainders(tri.reduce(dict(probe)),
                                       ref.reduce(probe))
        widened += tri._width > width
    assert widened


def test_a_loose_bound_is_recomputed_before_widening():
    # reducing {79: 1} takes 79 unit steps along a chain; each step's new
    # entry carries its own bound, and every digit stays ±1
    tri = Triangular()
    for i in range(79, 0, -1):
        assert tri.insert({i: ONE, i - 1: -ONE}) == i
    assert tri.reduce({79: ONE}) == {0: ONE}
    assert tri._width == _WIDTH


@pytest.mark.parametrize("c, widens", [(1, False), (2 ** 60, True)],
                         ids=["1", "2^60"])
def test_an_entry_touched_by_many_unit_steps(c, widens):
    # 79 unit steps each add c to entry 0: its tracked bound gains a bit at
    # each until it nears the width; the digits then show 7 bits for c = 1,
    # and 67 bits, too many for one digit, for c = 2^60
    tri = Triangular()
    for i in range(1, 80):
        assert tri.insert({i: ONE, 0: Scalar.from_int(-c)}) == i
    assert tri.reduce({i: ONE for i in range(1, 80)}) == \
        {0: Scalar.from_int(79 * c)}
    assert (tri._width > _WIDTH) == widens


def test_a_coefficient_doubling_along_a_unit_chain_widens():
    # each of the 79 unit steps passes twice its coefficient to a new entry,
    # whose bound is the coefficient's plus the row's: 2^79 needs a wider
    # digit
    tri = Triangular()
    for i in range(79, 0, -1):
        assert tri.insert({i: ONE, i - 1: Scalar.from_int(-2)}) == i
    assert tri.reduce({79: ONE}) == {0: Scalar.from_int(2 ** 79)}
    assert tri._width > _WIDTH


@pytest.mark.parametrize("rows, probe", [
    # the lead 15 scales entry 1 (2^30), which no step touched, before a
    # unit step clears it into entry 0 through 2^30 more bits
    ([{2: 15, 0: 1}, {1: 1, 0: -2 ** 30}], {2: 1, 1: 2 ** 30}),
    # a unit step makes entry 1 (2^60), which the lead 15 then scales
    ([{3: 1, 1: -2 ** 60}, {2: 15, 0: 1}], {3: 1, 2: 1}),
], ids=["scaled-then-cleared", "made-then-scaled"])
def test_a_non_unit_lead_scales_every_tracked_bound(rows, probe):
    # either way the remainder has a 64-bit coefficient over 15
    tri, ref = Triangular(), FieldTriangular(lambda k: k)
    for row in rows:
        vec = {k: Scalar.from_int(c) for k, c in row.items()}
        assert tri.insert(vec) == ref.insert(vec)
    assert tri._width == _WIDTH
    probe = {k: Scalar.from_int(c) for k, c in probe.items()}
    _check_same_remainders(tri.reduce(dict(probe)), ref.reduce(probe))
    assert tri._width > _WIDTH


def test_unit_steps_read_no_digits(count_calls):
    # the 79 unit steps of the chain leave every coefficient packed: the
    # one unpack is the remainder's
    tri = Triangular()
    for i in range(79, 0, -1):
        tri.insert({i: ONE, i - 1: -ONE})
    calls = count_calls(_unpack)
    assert tri.reduce({79: ONE}) == {0: ONE}
    assert calls == [(1, _WIDTH)]


def test_one_triangular_takes_one_parameter():
    tri = Triangular()
    tri.insert({0: Scalar.var("q"), 1: ONE})
    with pytest.raises(MixedParameterError):
        tri.reduce({0: Scalar.var("h")})
    with pytest.raises(MixedParameterError):
        tri.insert({0: Scalar.var("h"), 2: ONE})
    # constants carry any label
    assert tri.reduce({1: Scalar.from_int(2, "h")}) == \
        {0: Scalar.from_int(-2) * Scalar.var("q")}


def _loaded(vec: dict, w: int = _WIDTH) -> Load:
    """vec as a Load at digit width w."""
    return _pack_vector(vec, w, None)


@pytest.mark.parametrize("param", ["q", "h"])
@pytest.mark.parametrize("seed", range(4))
def test_a_load_reduces_and_inserts_as_its_scalars(param, seed):
    # the packed entry and the Scalar one share one elimination: the same
    # pivots, and remainders equal to the last digit and the label
    rng = random.Random(f"load-{param}:{seed}")
    keys = list(range(10))
    by_load, by_scalars = Triangular(), Triangular()
    # a non-unit lead 2q^2+3 at key 9 and a unit lead q^-1 at key 8
    fixed = [{9: Scalar.laurent({2: 2, 0: 3}, param),
              0: Scalar.from_fraction("1/6", param)},
             {8: Scalar.power(-1, param), 2: Scalar.from_int(2, param)}]
    for vec in fixed + _system(rng, param, keys, 10, mixed=True):
        load = _loaded(vec)
        before = dict(load.packed)
        assert by_load.insert(load) == by_scalars.insert(vec)
        assert load.packed == before  # insert does not consume the load
        for probe in _system(rng, param, keys, 3, mixed=True):
            _check_same_remainders(by_load.reduce(_loaded(probe)),
                                   by_scalars.reduce(probe))
    assert by_load.pivots == by_scalars.pivots
    leads = [lead for _, _, _, lead, _ in by_load.pivots.values()]
    assert (1,) in leads and any(lead != (1,) for lead in leads)


@pytest.mark.parametrize("w, widens", [(16, False), (2 * _WIDTH, False),
                                       (2 * _WIDTH, True)],
                         ids=["narrower", "wider", "too-wide"])
def test_a_load_at_another_width_is_repacked(w, widens):
    # a load narrower or wider than the Triangular is repacked at its
    # width; one whose bound does not fit widens the Triangular
    q = Scalar.var("q")
    rows = [{3: q * q + Scalar.from_int(2), 1: ONE},
            {2: ONE, 0: -q}, {1: Scalar.from_int(5) * q, 0: ONE}]
    big = Scalar.from_int(2 ** 80 if widens else 7)
    probe = {3: big * q, 2: Scalar.from_int(-3), 1: q * q}
    by_load, by_scalars = Triangular(), Triangular()
    for row in rows:
        assert by_load.insert(_loaded(row, w)) == by_scalars.insert(row)
    assert by_load._width == _WIDTH
    _check_same_remainders(by_load.reduce(_loaded(probe, w)),
                           by_scalars.reduce(probe))
    assert (by_load._width > _WIDTH) == widens
    rem = by_load.remainder(_loaded(probe, w))
    assert rem.w == by_load._width and rem.param == "q"
    got = linalg._unpack_vector(rem)
    _check_same_remainders(got, by_scalars.reduce(probe))


def test_loaded_rows_over_their_own_denominators_give_the_coordinates():
    # each loaded row carries its own denominator into its marker, so the
    # coordinates are those of the Scalar rows
    rng = random.Random("coordinates-loads")
    keys = list(range(10))
    rows = _independent(rng, "q", keys, 7)
    assert len({_loaded(row).den for row in rows}) > 1
    by_scalars = coordinates(rows)
    by_loads = coordinates(_loaded(row) for row in rows)
    for i, row in enumerate(rows):
        assert by_loads(_loaded(row)) == {i: ONE}
    for _ in range(6):
        vec: dict = {}
        for i in rng.sample(range(len(rows)), rng.randint(1, 4)):
            vec_add_scaled(vec, rows[i], _scalar(rng, "q"))
        assert by_loads(_loaded(vec)) == by_scalars(vec)
    assert by_loads(_loaded({})) == {}


def test_loaded_rows_reject_dependent_rows_and_outside_vectors():
    rng = random.Random("coordinates-reject-loads")
    keys = list(range(8))
    rows = _independent(rng, "q", keys, 5)
    combo: dict = {}
    vec_add_scaled(combo, rows[1], _scalar(rng, "q"))
    vec_add_scaled(combo, rows[3], _scalar(rng, "q"))
    with pytest.raises(ArithmeticError, match="dependent"):
        coordinates(_loaded(row) for row in rows + [combo])
    with pytest.raises(ArithmeticError, match="dependent"):
        coordinates([_loaded(rows[0]), _loaded(rows[0])])
    coords = coordinates(_loaded(row) for row in rows)
    tri = Triangular()
    for row in rows:
        tri.insert(row)
    outside = [k for k in keys if tri.reduce({k: ONE})]
    assert outside
    for k in outside:
        vec = dict(rows[2])
        vec_add_scaled(vec, {k: ONE}, Scalar.from_int(3))
        with pytest.raises(ArithmeticError, match="outside the span"):
            coords(_loaded(vec))


def _part(m: tuple, shift: int, den: tuple, vec: dict,
          w: int = _WIDTH) -> tuple:
    """The _combine part q^shift · m / den · vec and its terms as Scalars.

    m and den are integer polynomials, vec a dict of Scalars in q.
    """
    load = _loaded(vec, w)
    c = Scalar._make("q", shift, m, den)
    return ((_pack(m, w), _bits(m), shift + load.frame,
             _pmul(den, load.den), load.packed, load.bound),
            {k: c * v for k, v in vec.items()})


def _combined(parts: list, w: int = _WIDTH) -> Load:
    """_combine of the parts of `_part`, checked against Scalar sums."""
    want: dict = {}
    for _, terms in parts:
        for k, v in terms.items():
            linalg.accumulate(want, k, v)
    got = linalg._combine([part for part, _ in parts], w, "q")
    assert linalg._unpack_vector(got) == want
    assert got.bound <= w - 2
    assert all(_bits(_unpack(p, w)) <= got.bound
               for p in got.packed.values())
    return got


@pytest.mark.parametrize("dens, common", [
    (((2,), (8,)), (8,)),
    (((1, 1), (1, 2, 1)), (1, 2, 1)),
    (((1, 1), (1, 0, 1)), (1, 1, 1, 1)),
], ids=["integers", "square", "coprime"])
def test_combine_lifts_parts_to_the_lcm_of_their_denominators(dens, common):
    # Laurent vectors at frames -2 to 3: the parts' denominators are the
    # given ones, and the sum is over their lcm
    rng = random.Random(f"combine:{dens}")
    keys = list(range(5))
    parts = [_part((rng.randint(-3, 3), rng.choice((1, -2, 3))), shift, den,
                   {k: _poly(rng, "q", rng.randint(-2, 1), 2)
                    for k in rng.sample(keys, 3)})
             for den, shift in zip(dens * 2, (-2, 0, 3, 1))]
    assert _combined(parts).den == common


@pytest.mark.parametrize("seed", range(4))
def test_combine_sums_rational_parts(seed):
    # vectors with rational-function entries give every part its own
    # polynomial denominator
    rng = random.Random(f"combine-rational:{seed}")
    keys = list(range(5))
    parts = [_part((rng.choice((1, -2, 3)),), rng.randint(-2, 2),
                   rng.choice(((1,), (3,), (1, 1))),
                   {k: _scalar(rng, "q") for k in rng.sample(keys, 3)})
             for _ in range(rng.randint(1, 4))]
    _combined(parts)


def test_combine_counts_the_parts_that_meet_only_when_it_must():
    # nine parts of bound 12 at 16-bit digits: 12 + _spread(9) passes
    # w - 2 = 14, but at most two of them meet at one key, so the sum fits
    # with one bit of spread; nine at one key do not fit
    w = 16
    big = Scalar.from_int(2 ** 12 - 1)
    disjoint = [_part((1,), 0, (1,), {k % 8: big}, w) for k in range(9)]
    assert _combined(disjoint, w).bound == 13
    overlapping = [_part((1,), 0, (1,), {0: big}, w) for _ in range(9)]
    with pytest.raises(_TooWide):
        linalg._combine([part for part, _ in overlapping], w, "q")


def test_combine_of_no_parts_is_the_empty_load():
    empty = _combined([])
    assert empty == Load(_WIDTH, "q", 0, {}, (1,), 0)


def test_rows_span_what_was_inserted():
    rng = random.Random(7)
    tri = Triangular()
    system = _system(rng, "q", list(range(6)), 9)
    for vec in system:
        tri.insert(vec)
    for vec in system:
        assert tri.reduce(dict(vec)) == {}
    for pivot in tri.pivots:
        row = tri.row(pivot)
        assert max(row) == pivot
        assert tri.reduce(row) == {}


def test_a_derived_row_is_its_source_with_the_keys_mapped():
    # tuple keys under graded-lex: k -> prefix + k + suffix is monotone
    def graded(k):
        return (len(k), k)

    def derive(key):
        # a key with (2, 1) after its first letter is prefix·(2, 1)·suffix
        if len(key) > 3 and key[1:3] == (2, 1):
            return (2, 1), key[:1], key[3:]
        return None

    q = Scalar.var("q")
    vec = {(2, 1): q * q + ONE, (1, 2): -q, (1,): ONE,
           (): Scalar.from_fraction("1/2")}
    mapped = {(3,) + k + (1, 1): v for k, v in vec.items()}
    tri = Triangular(graded, derive)
    assert tri.insert(vec) == (2, 1)
    tri._widen()  # a read maps the source row at its current width
    assert list(tri.pivots) == [(2, 1)]
    # a read steps on the source row with its keys mapped, which spans the
    # mapped input, and stores nothing
    assert tri.reduce(dict(mapped)) == {}
    assert list(tri.pivots) == [(2, 1)]
    # remainders equal those against an explicit re-keyed copy of the row
    copied = Triangular(graded)
    copied.insert(vec)
    copied.insert({(3,) + k + (1, 1): v for k, v in tri.row((2, 1)).items()})
    assert list(copied.pivots) == [(2, 1), (3, 2, 1, 1, 1)]
    other = {(3, 2, 1, 1, 1): q, (3, 3, 1, 1, 1): ONE, (2, 1): -ONE,
             (1,): q + ONE}
    for _ in range(2):  # at either width
        assert tri.reduce(dict(other)) == copied.reduce(dict(other))
        assert tri.reduce(dict(other))
        tri._widen()
    assert tri.reduce(dict(mapped)) == {}
    # a word with no lead is left alone, and no row is stored for it
    assert tri.reduce({(3, 3, 1, 1, 1): ONE}) == {(3, 3, 1, 1, 1): ONE}
    assert len(tri) == 1


def test_derive_is_asked_once_per_key_per_elimination():
    asked = []

    def derive(key):
        asked.append(key)
        if len(key) > 1 and key[0] > 1:
            return (key[0],), (), key[1:]
        return None

    tri = Triangular(lambda k: (len(k), k), derive)
    assert tri.insert({(3,): ONE, (1,): -ONE}) == (3,)
    assert tri.insert({(2,): ONE, (1,): -ONE}) == (2,)
    asked.clear()
    # the step on (3, 3) cancels (1, 3), and the step on (2, 3) brings it
    # back; the stored rows are read under the suffix (3,)
    vec = {(3, 3): ONE, (1, 3): -ONE, (2, 3): ONE}
    assert tri.reduce(vec) == {(1, 3): ONE}
    assert asked == [(3, 3), (1, 3), (2, 3)]
    assert list(tri.pivots) == [(3,), (2,)]


def test_a_triangular_without_derive_makes_no_derive_call():
    tri = Triangular()
    assert tri.derive is None
    assert tri.insert({2: ONE, 1: -ONE}) == 2
    assert tri.reduce({3: ONE, 2: ONE}) == {3: ONE, 1: ONE}
    assert list(tri.pivots) == [2]
    # coordinates runs on such a Triangular too
    coords = coordinates([{0: ONE, 1: ONE}, {1: ONE}])
    assert coords({0: ONE, 1: -ONE}) == {0: ONE, 1: Scalar.from_int(-2)}


def _independent(rng, param, keys, count):
    """count independent rows drawn from _system, with a non-monic lead."""
    tri = Triangular()
    rows = []
    first = {max(keys): Scalar.laurent({2: 2, 0: 3}, param),
             0: Scalar.from_fraction("1/6", param)}
    for vec in [first] + _system(rng, param, keys, 4 * count, mixed=True):
        if len(rows) < count and tri.insert(vec) is not None:
            rows.append(vec)
    assert len(rows) == count
    return rows


@pytest.mark.parametrize("param", ["q", "h"])
@pytest.mark.parametrize("seed", range(4))
def test_coordinates_rebuild_vectors_in_the_span(param, seed):
    rng = random.Random(f"coordinates-{param}:{seed}")
    keys = list(range(10))
    rows = _independent(rng, param, keys, 7)
    coords = coordinates(rows)
    for _ in range(6):
        want = {i: _scalar(rng, param, mixed=True)
                for i in rng.sample(range(len(rows)), rng.randint(1, 4))}
        vec: dict = {}
        for i, c in want.items():
            vec_add_scaled(vec, rows[i], c)
        before = dict(vec)
        got = coords(vec)
        assert vec == before  # coords does not consume its argument
        assert got == want  # independent rows: the coordinates are unique
        rebuilt: dict = {}
        for i, c in got.items():
            vec_add_scaled(rebuilt, rows[i], c)
        assert rebuilt == vec
    assert coords({}) == {}
    for i, row in enumerate(rows):
        assert coords(row) == {i: ONE}


@pytest.mark.parametrize("param", ["q", "h"])
def test_coordinates_reject_dependent_rows_and_outside_vectors(param):
    rng = random.Random(f"coordinates-reject-{param}")
    keys = list(range(8))
    rows = _independent(rng, param, keys, 5)
    combo: dict = {}
    vec_add_scaled(combo, rows[1], _scalar(rng, param))
    vec_add_scaled(combo, rows[3], _scalar(rng, param))
    with pytest.raises(ArithmeticError):
        coordinates(rows + [combo])
    with pytest.raises(ArithmeticError):
        coordinates([rows[0], rows[0]])
    coords = coordinates(rows)
    tri = Triangular()
    for row in rows:
        tri.insert(row)
    outside = [k for k in keys if tri.reduce({k: ONE})]
    assert outside  # five rows cannot span eight keys
    for k in outside:
        with pytest.raises(ArithmeticError):
            coords({k: ONE})
        vec = dict(rows[2])
        vec_add_scaled(vec, {k: ONE}, Scalar.from_int(3, param))
        with pytest.raises(ArithmeticError):
            coords(vec)


def _letters(*indices):
    return [NCElement.generator(Gen("x", i, 0)) for i in indices]


def test_traced_is_the_weighted_trace_of_the_full_product():
    x, y, z = _letters(1, 2, 3)
    weights = [Scalar.power(1), Scalar.power(-3)]
    left = {(1, 2): {(2, 1): x, (1, 1): y + z},
            (2, 2): {(1, 2): z, (2, 1): x},
            (2, 1): {(2, 1): y}}
    right = {(2, 1): {(1, 2): y, (2, 2): z, (2, 1): x + y},
             (1, 1): {(2, 2): x, (1, 2): z},
             (1, 2): {(1, 1): x}}
    full = mat_mul(left, right, operator.mul)
    expected = NCElement.zero()
    for r, cs in full.items():
        if r in cs:
            w = ONE
            for i in r:
                w = w * weights[i - 1]
            expected = expected + cs[r].scale(w)
    assert not expected.is_zero()
    assert traced(left, right, weights, operator.mul,
                  NCElement.zero()) == expected


def test_traced_over_empty_keys_has_weight_one():
    # a row vector closed against a column: the keys () read no weight
    x, y = _letters(1, 2)
    left = {(): {(1,): x, (2,): y}}
    right = {(1,): {(): y}, (2,): {(): x}}
    assert traced(left, right, [], operator.mul, NCElement.zero()) == \
        x * y + y * x


def test_traced_without_a_diagonal_entry_is_zero():
    x, y = _letters(1, 2)
    zero = NCElement.zero()
    weights = [Scalar.power(1), Scalar.power(-1)]
    # left . right has the one entry (1,) -> (2,): nothing on the diagonal
    assert traced({(1,): {(2,): x}}, {(2,): {(2,): y}}, weights,
                  operator.mul, zero) is zero
    assert traced({}, {(1,): {(1,): y}}, weights, operator.mul, zero) is zero


# ---------------------------------------------------------------------------
# The packed operator product against mat_mul over Scalars


def _check_same_product(got: dict, left: dict, right: dict):
    want = mat_mul(left, right, operator.mul)
    assert got == want
    for r, cs in want.items():
        for c, v in cs.items():
            assert got[r][c].text() == v.text(), (r, c)


def _random_rows(rng, param, keys, density=0.4):
    """Sparse rows with ±q^k, rationals, Laurent and rational entries."""
    rows: dict = {}
    for r in keys:
        row = {c: _scalar(rng, param) for c in keys
               if rng.random() < density}
        if row:
            rows[r] = row
    return rows


@pytest.mark.parametrize("param", ["q", "h"])
@pytest.mark.parametrize("seed", range(6))
def test_packed_product_is_the_scalar_product(param, seed):
    # entries with negative shifts and non-constant denominators, and
    # sums that cancel
    rng = random.Random(f"product:{param}:{seed}")
    keys = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    left = _random_rows(rng, param, keys)
    right = _random_rows(rng, param, keys)
    left_load = _load_matrix(left.items(), _WIDTH)
    right_load = _load_matrix(right.items(), _WIDTH)
    assert left_load[1] == right_load[1] == param
    rows = packed_mat_mul(left_load, right_load)
    _check_same_product(rows, left, right)
    assert any(len(v.den) > 1 for cs in left.values() for v in cs.values())
    assert any(v.shift < 0 for cs in right.values() for v in cs.values())
    # the same loads give the same product again, read from no Scalar
    assert packed_mat_mul(left_load, right_load) == rows
    # a square multiplies one load by itself
    _check_same_product(packed_mat_mul(left_load, left_load), left, left)


def test_constant_operators_multiply_as_constants():
    op = standard_hecke(2).op.substituted(Fraction(7, 3))
    other = (op + TensorOperator.identity(2, 2)).substituted(1)
    prod = op * other
    _check_same_product(prod.rows, op.rows, other.rows)
    assert op._load[1] is None
    assert prod.rows[(1, 1)][(1, 1)] == Scalar.from_fraction(Fraction(70, 9))
    # the entries q = 7/3 and q - 1/q = 40/21 clear by 21 in each factor;
    # the product loads from its canonical rows, which clear by 21·21
    assert op._load[4] == other._load[4] == (21,)
    _check_same_product((prod * op).rows, prod.rows, op.rows)
    assert prod._load[4] == (441,)


def test_empty_operators_compose_to_empty():
    op = standard_hecke(2).op
    empty = TensorOperator(2, 2, {})
    assert (empty * op).is_zero() and (op * empty).is_zero()
    assert (empty * empty).is_zero()
    nothing = _load_matrix((), _WIDTH)
    assert packed_mat_mul(nothing, nothing) == {}


def _wide_rows(huge: bool) -> tuple:
    """Two operators that each fit one 64-bit digit while their product
    does not, or (huge) whose right operand holds the coefficient 2^70."""
    q = Scalar.var("q")
    big = Scalar.from_int(2 ** 40 + 1) * q - Scalar.from_int(3 * 2 ** 39)
    left = {(1,): {(1,): big, (2,): q.inverse()},
            (2,): {(2,): Scalar.from_fraction("1/6") * big}}
    right = {(1,): {(1,): big}, (2,): {(1,): ONE, (2,): big * q}}
    if huge:
        right[(1,)][(2,)] = Scalar.from_int(2 ** 70)
    return TensorOperator(2, 1, left), TensorOperator(2, 1, right)


@pytest.mark.parametrize("huge", [False, True], ids=["product", "operand"])
def test_wide_coefficients_widen_the_product(huge):
    left, right = _wide_rows(huge)
    with pytest.raises(_TooWide):
        packed_mat_mul(_load_matrix(left.rows.items(), _WIDTH),
                       _load_matrix(right.rows.items(), _WIDTH))
    prod = left * right
    _check_same_product(prod.rows, left.rows, right.rows)
    assert left._load[0] == right._load[0] > _WIDTH


@pytest.mark.parametrize("width", [4, 6, 8])
def test_narrow_digits_give_the_scalar_product(monkeypatch, width):
    # with digits of 4 to 8 bits the bounds of loads, of products and of
    # their sums decide the width: four products 7·7 fit one 8-bit digit,
    # their sum 196 does not
    monkeypatch.setattr(braidings, "_WIDTH", width)
    seven = Scalar.from_int(7)
    sevens = TensorOperator(4, 1, {(i,): {(j,): seven for j in range(4)}
                                   for i in range(4)})
    _check_same_product((sevens * sevens).rows, sevens.rows, sevens.rows)
    assert sevens._load[0] > 8
    for seed in range(4):
        rng = random.Random(f"narrow product:{width}:{seed}")
        keys = list(range(6))
        left = TensorOperator(6, 1, _random_rows(rng, "qh"[seed % 2], keys))
        right = TensorOperator(6, 1, _random_rows(rng, "qh"[seed % 2], keys))
        prod = left * right
        _check_same_product(prod.rows, left.rows, right.rows)
        _check_same_product((prod * left).rows, prod.rows, left.rows)


def _reads(loads: list) -> list:
    """(rows, width) of each spied _load_matrix call on an operator."""
    return [(args[0].mapping, args[1]) for args in loads]


def test_a_product_hands_over_no_load(count_calls):
    b = standard_hecke(3)
    r1, r2 = b.at(1, 3), b.at(2, 3)
    first = r1 * r2
    assert first._load is None
    assert r1._load is not None and r2._load is not None
    loads = count_calls(_load_matrix)
    chain = first * r1
    # first is read from its rows; r1 kept its load
    assert _reads(loads) == [(first.rows, _WIDTH)]
    assert chain._load is None
    _check_same_product(first.rows, r1.rows, r2.rows)
    _check_same_product(chain.rows, first.rows, r1.rows)
    assert chain == r2 * r1 * r2
    # R has Laurent entries: no denominator is cleared
    assert first._load[4] == (1,)


def test_a_chain_reuses_the_loads_a_product_hands_over(count_calls):
    # a product hands over its rows; once it is an operand its load is
    # cached, and every later product of the chain reuses it
    b = standard_hecke(3)
    r1, r2 = b.at(1, 3), b.at(2, 3)
    first = r1 * r2
    loads = count_calls(_load_matrix)
    left = first * r1
    right = first * r2
    again = r1 * first
    assert _reads(loads) == [(first.rows, _WIDTH)]
    _check_same_product(left.rows, first.rows, r1.rows)
    _check_same_product(right.rows, first.rows, r2.rows)
    _check_same_product(again.rows, r1.rows, first.rows)
    assert left == r2 * r1 * r2 and again == r1 * r1 * r2


def test_a_product_with_a_polynomial_denominator_hands_over_no_load(
        count_calls):
    b = standard_hecke(3)
    q = b.q
    mid = (b.op - TensorOperator.identity(3, 2).scale(q)).scale(
        (q * q + ONE).inverse())
    square = mid * mid
    assert len(mid._load[4]) > 1 and square._load is None
    loads = count_calls(_load_matrix)
    chain = square * b.op * mid
    # square and square . R load from their canonical rows; R and mid
    # keep their loads
    assert len(loads) == 2
    _check_same_product(square.rows, mid.rows, mid.rows)
    _check_same_product(chain.rows, mat_mul(square.rows, b.op.rows,
                                            operator.mul), mid.rows)


def test_a_reused_operand_is_loaded_once_per_width(count_calls):
    op = standard_hecke(2).op.embed(3, 1)
    loads = count_calls(_load_matrix)
    square = op * op
    # a square reads its one operand once
    assert _reads(loads) == [(op.rows, _WIDTH)]
    square * op
    op * square
    assert _reads(loads) == [(op.rows, _WIDTH), (square.rows, _WIDTH)]
    # 2^70 does not fit a 64-bit digit: op is reloaded once at 128 bits,
    # and later products load at the widest width cached
    huge = TensorOperator.identity(2, 3).scale(Scalar.from_int(2 ** 70))
    op * huge
    op * op
    square * op
    assert _reads(loads[2:]) == [
        (huge.rows, _WIDTH), (op.rows, 2 * _WIDTH),
        (huge.rows, 2 * _WIDTH), (square.rows, 2 * _WIDTH)]


def test_an_operand_cached_at_64_bits_is_reloaded_when_a_product_overflows(
        count_calls):
    left, right = _wide_rows(huge=False)
    cached = left._loaded(_WIDTH)
    loads = count_calls(_load_matrix)
    prod = left * right
    _check_same_product(prod.rows, left.rows, right.rows)
    # right loads at 64 bits, the product overflows, and both operands
    # are read again from their rows at 128
    assert _reads(loads) == [
        (right.rows, _WIDTH), (left.rows, 2 * _WIDTH),
        (right.rows, 2 * _WIDTH)]
    assert cached[0] == _WIDTH and left._load[0] == 2 * _WIDTH
    assert _unpack(left._load[3][(1,)][(1,)], 2 * _WIDTH) == \
        _unpack(cached[3][(1,)][(1,)], _WIDTH)


def test_operators_in_two_parameters_do_not_compose():
    q_op = standard_hecke(2, "q").op
    h_op = standard_hecke(2, "h").op
    with pytest.raises(MixedParameterError):
        q_op * h_op
    # a constant operator carries any label
    const = h_op.substituted(2)
    _check_same_product((q_op * const).rows, q_op.rows, const.rows)
