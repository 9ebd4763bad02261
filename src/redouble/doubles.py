"""Two-algebra doubles glued by permutation rules, with counit actions.

A double holds two one-sided presentations A and B plus a rule table sigma
mapping each adjacent pair (a-letter, b-letter) to its reordered form, a
linear combination of words b'·a', b', a' and constants.  The table is not
typed in by hand: it is extracted from the defining matrix relation of each
kind by solving the linear system the relation imposes on generator pairs.
A double reduces in one certified presentation (presentation): the A-
and B-relations plus an exchange row a·b - sigma(a, b) per pair, whose
normal words are B-words times A-words, as A-letters rank above
B-letters.  The counit of A turns ordering into an action of A on B.

The action never orders a whole product.  A word acts letter by letter,
from its last letter to its first: a b-letter multiplies on the left, and
an a-letter g acts on a b-word b1·rest through the rule image of (g, b1),
recursing on rest, with the counit on the empty word.  It runs on the
packed Laurent format of linalg, which alone knows the digits, bounds,
frames and denominators: each double loads its rule table and counit
once, over one cleared denominator D, and memoizes the action of an
a-letter on a b-word as a linalg.Load over a power of D (_PackedAction);
this module keeps the recursion, and linalg._combine sums its terms.
The memo lives with the double, but keeps only what a later action may
read: a batch (one act_each call, or one action-operator solve) counts
its first requests beforehand, and one it makes only once is computed
and not stored.  Every word in the memo is interned per kernel, so
equal words in different entries are one object.
act_each acts with each of several elements on a list of targets: it
loads every element and every target once, in the braiding's parameter,
multiplies them on packed integers, and makes Scalars only for the
entries of the results; act_mixed is that call with one element and one
target.  Normal ordering (every b-letter moved left of every a-letter,
leftmost pair first) stays as an independent reference for the action
(act_by_ordering), sharing only the rule table with it.

Every double is a QuantumDouble(braiding, definition).  The
DoubleDefinition holds the kind, the A- and B-presentations, the rule
table and the counit; its constructor checks them once, and it builds
and owns the double's presentation.  make_double is the route to the
named doubles: it keeps each definition in its braiding's memo, so each
is extracted, checked, filled and certified once per braiding, and
returns a new QuantumDouble around it, whose ordering memo and packed
action kernel die with the row that made it.

A slotwise action operator (action_operator) reduces each B-word of
degree <= k once, on packed integers, into one table over a common
denominator, acts on each word of the monomial entries once, and maps
every entry through those tables into the packed rows and targets of
one solve; no entry is normal-formed on its own.

Kinds, each named by the role the A-side plays on the B-side:
  left              invariant fields, homogeneous form
  left_shifted      invariant fields, inhomogeneous (unit-shifted) form
  adjoint           adjoint fields, homogeneous form
  adjoint_shifted   adjoint fields, inhomogeneous form
  derivative        partial derivatives on the quadratic algebra
  derivative_shifted        derivatives on the unit-shifted quadratic algebra
  derivative_shifted_unit   same, in shifted-derivative letters (involutive
                            braidings only; the counit becomes h^-1 * delta)
  vector            invariant fields on the tensor algebra of V
The letters (A, B) are l, m for the invariant and adjoint kinds, d, m for
derivative, d, n for the shifted derivatives, and l, x for vector.
"""

from __future__ import annotations

import collections
import functools
import itertools
import types
from operator import attrgetter
from typing import Iterable

from .braidings import Braiding, TensorOperator, memoized
from .linalg import (_WIDTH, Load, _combine, _den_product, _one_denominator,
                     _pack_vector, _reframed, _TooWide, _unpack_vector,
                     accumulate, coordinates, mat_mul, vec_add_scaled)
from .ncengine import (
    Gen,
    MatrixOverAlgebra,
    NCElement,
    QuadraticPresentation,
    _letter_key,
    free_presentation,
    re_presentation,
    skew_vector_presentation,
    symmetric_vector_presentation,
    vector_generators,
)
from .scalars import ONE, ZERO, Scalar


class DoubleError(Exception):
    pass


class PermutationRule:
    """Finite reordering table on generator pairs, read-only once built.

    Every image must lie in span{b·a, b, a, 1}: reordering one pair yields
    at most one letter of each side again.  The table is a read-only copy,
    since the doubles of one definition share it.
    """

    __slots__ = ("a_tag", "b_tag", "table")

    def __init__(self, a_tag: str, b_tag: str, table: dict):
        self.a_tag = a_tag
        self.b_tag = b_tag
        self.table = types.MappingProxyType(dict(table))
        for (ga, gb), img in table.items():
            if ga.tag != a_tag or gb.tag != b_tag:
                raise DoubleError("rule key tags do not match the double")
            for w in img.terms:
                if len(w) > 2:
                    raise DoubleError("rule image outside the pair span")
                if len(w) == 2 and not (w[0].tag == b_tag and w[1].tag == a_tag):
                    raise DoubleError("rule image term is not reordered")


class DoubleDefinition:
    """A double without its braiding: presentations, rule and counit.

    eps_a is the counit on the A-letters (read-only); h and b_quotient
    are the arguments of make_double, dim is the braiding's.  Checked
    once, here: the counit kills every A-relation, and every A-letter
    ranks above every B-letter, so that a·b leads its exchange row.
    """

    def __init__(self, kind: str, dim: int, a_pres: QuadraticPresentation,
                 b_pres: QuadraticPresentation, rule: PermutationRule,
                 eps_a: dict, h: Scalar | None = None,
                 b_quotient: str = "free"):
        self.kind = kind
        self.dim = dim
        self.a_pres = a_pres
        self.b_pres = b_pres
        self.rule = rule
        self.a_tag = rule.a_tag
        self.b_tag = rule.b_tag
        self.eps_a = types.MappingProxyType(dict(eps_a))
        self.h = h
        self.b_quotient = b_quotient
        for rel in a_pres.relations:
            if not self.counit(rel).is_zero():
                raise DoubleError("counit does not annihilate the A-relations")
        if any(_letter_key(ga) <= _letter_key(gb)
               for ga in a_pres.generators for gb in b_pres.generators):
            raise DoubleError("an A-letter does not rank above every B-letter")

    def counit(self, a: NCElement) -> Scalar:
        """Multiplicative extension of eps_a to A-elements."""
        total = ZERO
        for w, c in a.terms.items():
            val = c
            for g in w:
                if g.tag != self.a_tag:
                    raise DoubleError("counit applies to A-elements only")
                val = val * self.eps_a[g]
                if val.is_zero():
                    break
            total = total + val
        return total

    @functools.cached_property
    def presentation(self) -> QuadraticPresentation:
        """The A- and B-relations and the exchange rows a·b - sigma(a, b),
        on the B- and A-letters; its certificate (ensure(3)) is the
        double's ideal compatibility.  Built on first read."""
        return QuadraticPresentation(
            self.b_pres.generators + self.a_pres.generators,
            self.a_pres.relations + self.b_pres.relations
            + [NCElement.word(pair) - img
               for pair, img in self.rule.table.items()],
            name=f"double({self.kind}, dim={self.dim})")


class QuantumDouble:
    """A definition over a braiding, with the memos that one row fills."""

    max_word = 24  # longest word ordered or acted on

    def __init__(self, braiding: Braiding, definition: DoubleDefinition):
        self.braiding = braiding
        self.definition = definition
        self._order_cache: dict = {}
        # the packed rule table and action memo, built on the first action
        self._kernel = None

    # the shared definition, read through the double
    kind = property(attrgetter("definition.kind"))
    a_pres = property(attrgetter("definition.a_pres"))
    b_pres = property(attrgetter("definition.b_pres"))
    rule = property(attrgetter("definition.rule"))
    a_tag = property(attrgetter("definition.a_tag"))
    b_tag = property(attrgetter("definition.b_tag"))
    eps_a = property(attrgetter("definition.eps_a"))
    counit = property(attrgetter("definition.counit"))
    presentation = property(attrgetter("definition.presentation"))

    # -- normal ordering -----------------------------------------------------

    def _order_word(self, w: tuple) -> dict:
        cached = self._order_cache.get(w)
        if cached is not None:
            return cached
        if len(w) > self.max_word:
            raise DoubleError("degree-overflow during normal ordering")
        hit = None
        for i in range(len(w) - 1):
            if w[i].tag == self.a_tag and w[i + 1].tag == self.b_tag:
                hit = i
                break
        if hit is None:
            out = {w: ONE}
        else:
            img = self.rule.table[(w[hit], w[hit + 1])]
            out: dict = {}
            head, tail = w[:hit], w[hit + 2:]
            for iw, c in img.terms.items():
                vec_add_scaled(out, self._order_word(head + iw + tail), c)
        self._order_cache[w] = out
        return out

    def normal_order(self, x: NCElement) -> NCElement:
        """Move every B-letter left of every A-letter, leftmost pair first."""
        out: dict = {}
        for w, c in x.terms.items():
            vec_add_scaled(out, self._order_word(w), c)
        return NCElement(out)

    def split_word(self, w: tuple) -> tuple:
        """Split an ordered word into its B-block and A-block."""
        cut = len(w)
        for i, g in enumerate(w):
            if g.tag == self.a_tag:
                cut = i
                break
            if g.tag != self.b_tag:
                raise DoubleError(f"foreign letter {g!r} in the double")
        for g in w[cut:]:
            if g.tag != self.a_tag:
                raise DoubleError("word is not normal-ordered")
        return w[:cut], w[cut:]

    def binormal_form(self, x: NCElement) -> NCElement:
        """The normal form of x in the double's presentation."""
        return self.presentation.normal_form(x)

    def substituted(self, value) -> "QuantumDouble":
        """The same kind of double built over the braiding at value.

        Needs a double of a make_double kind; its shift h is evaluated too.
        """
        d = self.definition
        return make_double(self.braiding.substituted(value), d.kind,
                           None if d.h is None else d.h.with_value(value),
                           d.b_quotient)

    # -- action ------------------------------------------------------------

    def act(self, a: NCElement, b: NCElement) -> NCElement:
        """Action of A on B: the counit-capped ordered form of a·b."""
        self._check_acting(a)
        return self.act_mixed(a, b)

    def act_mixed(self, x: NCElement, b: NCElement) -> NCElement:
        """Regular action of any double element on a B-element."""
        return next(self.act_each([x], [b]))[0]

    def act_each(self, xs: Iterable[NCElement], targets: list):
        """For each x of xs in turn, the list of x acting on every target.

        Each word of x·b acts on the empty B-word from its last letter to
        its first: a B-letter multiplies on the left, an A-letter acts
        through the double's packed (letter, B-word) memo.  Equal to
        act_by_ordering, since the rules a·b -> ... cannot overlap (so
        the ordered form is unique) and the counit is multiplicative.
        The packed kernel loads every target once and each x once.  The
        call is one batch: an entry that it asks for first only once
        (_asked_once) is not stored in the memo.
        """
        for b in targets:
            self._check_target(b)
        longest = max((len(w) for b in targets for w in b.terms),
                      default=None)
        xs = list(xs)
        once = _asked_once(self.a_tag, (w for x in xs for w in x.terms),
                           (w for b in targets for w in b.terms))
        loaded = None  # (kernel, the targets loaded in it)

        def run(kernel):
            nonlocal loaded
            if loaded is None or loaded[0] is not kernel:
                loaded = kernel, [
                    _pack_vector(b.terms, kernel.width, kernel.param)
                    for b in targets]
            xl = _pack_vector(x.terms, kernel.width, kernel.param)
            return [_unpack_vector(kernel.act(xl, b, once))
                    for b in loaded[1]]

        for x in xs:
            if longest is not None and x.terms and \
                    max(map(len, x.terms)) + longest > self.max_word:
                raise DoubleError("degree-overflow during the action")
            yield [NCElement(terms) for terms in self._with_kernel(run)]

    def _with_kernel(self, run):
        """run(kernel) on the packed action kernel of this double.

        A kernel whose digits could overflow, in its rule table or in
        run, raises _TooWide; the double then builds one of twice the
        width (with an empty memo) and runs again.
        """
        width = _WIDTH
        while True:
            kernel = self._kernel
            try:
                if kernel is None:
                    kernel = self._kernel = _PackedAction(self, width)
                return run(kernel)
            except _TooWide:
                width = 2 * (width if kernel is None else kernel.width)
                self._kernel = None

    def act_by_ordering(self, x: NCElement, b: NCElement) -> NCElement:
        """Reference route for act_mixed, independent of its memo.

        Multiplies, normal-orders, and caps the trailing A-block with the
        counit; B-letters of x survive as left multiplication.
        """
        self._check_target(b)
        ordered = self.normal_order(x * b)
        out: dict = {}
        for w, c in ordered.terms.items():
            bw, aw = self.split_word(w)
            accumulate(out, bw, self.counit(NCElement.word(aw, c)))
        return NCElement(out)

    def _check_acting(self, a: NCElement) -> None:
        for w in a.terms:
            if any(g.tag != self.a_tag for g in w):
                raise DoubleError("left action argument must be an A-element")

    def _check_target(self, b: NCElement) -> None:
        for w in b.terms:
            if any(g.tag != self.b_tag for g in w):
                raise DoubleError("action target must be a B-element")

    def act_matrix(self, amoa: MatrixOverAlgebra,
                   bmoa: MatrixOverAlgebra) -> MatrixOverAlgebra:
        """Entrywise action product: out[I,K] = sum_J act(a[I,J], b[J,K])."""
        if amoa.col_arity != bmoa.row_arity:
            raise ValueError("matrix shape mismatch")
        return MatrixOverAlgebra(amoa.dim, amoa.row_arity, bmoa.col_arity,
                                 mat_mul(amoa.rows, bmoa.rows, self.act))


class _PackedAction:
    """The counit action of one double, on packed Laurent vectors.

    The rule table and the counit are loaded once, at digit width
    `width`, by `linalg._pack_vector`: every coefficient becomes
    q^frame · c / D with c a packed integer polynomial and D one integer
    polynomial for the whole table (D = 1 for every EXACT double over q).
    The memo holds, for an A-letter g and a B-word bw, g acting on bw as
    a `linalg.Load`: a term of the rule recursion that acts on the rest
    is over D times the rest's denominator, one that stops early (b' or
    a constant) over D, and `linalg._combine` sums them over their lcm,
    a power of D up to D^(|bw|+1).
    It stores every entry the recursion reads, and every first request
    of act (see _asked_once) except those its batch makes only once:
    such an entry is computed, returned and dropped.  `words` interns
    every word the kernel builds or stores, so equal words in different
    entries are one object, and lookups compare them by identity.
    Bounds follow linalg's convention: a product adds the bounds of its
    factors, and `_combine` checks them.  Every value is in the
    braiding's parameter.
    """

    __slots__ = ("width", "param", "a_tag", "b_tag", "rule", "memo", "words",
                 "den")

    def __init__(self, double: QuantumDouble, width: int):
        coeffs = {(g,): e for g, e in double.eps_a.items()}
        for pair, img in double.rule.table.items():
            for iw, c in img.terms.items():
                coeffs[pair + (iw,)] = c
        self.param = double.braiding.param
        table = _pack_vector(coeffs, width, self.param)
        self.den = table.den
        self.width = width
        self.a_tag = double.a_tag
        self.b_tag = double.b_tag
        self.rule = {pair: [] for pair in double.rule.table}
        self.memo = {}
        self.words = {(): ()}
        for key, p in table.packed.items():
            coeff = _reframed(table._replace(packed={(): p}))
            if len(key) == 1:  # the counit on the empty B-word
                self.memo[(key[0], ())] = coeff
            else:
                _, _, fr, vec, _, bound = coeff
                ga, gb, iw = key
                if iw and iw[-1].tag == self.a_tag:
                    # b'·a' or a': a' acts on the rest, b' stays on the left
                    term = (iw[:-1], iw[-1], vec[()], fr, bound)
                else:
                    # b' or a constant: nothing is left to act
                    term = (iw, None, vec[()], fr, bound)
                self.rule[(ga, gb)].append(term)
        for g in double.eps_a:
            self.memo.setdefault((g, ()), Load(width, self.param, 0, {},
                                               self.den, 0))

    def _letter(self, g: Gen, bw: tuple, skip=()) -> Load:
        """g acting on the B-word bw, stored in the memo unless (g, bw) is
        in skip."""
        key = (g, bw)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        intern = self.words.setdefault
        rest = intern(r := bw[1:], r)
        den = self.den
        parts = []
        for prefix, a, pc, frame, bound in self.rule[(g, bw[0])]:
            if a is None:
                parts.append((pc, bound, frame, den,
                              {intern(u := prefix + rest, u): 1}, 0))
            else:
                _, _, fr, vec, vden, vbound = self._letter(a, rest)
                if vec:
                    if prefix:
                        vec = {intern(u := prefix + k, u): p
                               for k, p in vec.items()}
                    parts.append((pc, bound, frame + fr,
                                  _den_product(den, vden), vec, vbound))
        hit = _combine(parts, self.width, self.param)
        if key not in skip:
            self.memo[(g, intern(bw, bw))] = hit
        return hit

    def act(self, x: Load, b: Load, once: frozenset) -> Load:
        """x·b acting on the empty B-word, for x and b loaded here.

        Each word of x acts, from its last letter to its first, on the
        packed vector of b.  The first A-letter g to act asks for g on
        tail + bw, tail the B-letters after g and bw a word of b; such
        a request in once (see _asked_once) is computed and not stored.
        """
        a_tag, b_tag, w, param = self.a_tag, self.b_tag, self.width, self.param
        intern = self.words.setdefault
        _, _, xframe, xs, xden, xbound = x
        _, _, bframe, bs, bden, bbound = b
        frame, xbden = xframe + bframe, _den_product(xden, bden)
        parts = []
        for word, c in xs.items():
            # (frame, den, vec, bound) of the suffix acting on b
            fr, den, vec, vbound = 0, (1,), bs, bbound
            skip = once  # the first A-letter's requests that are not kept
            for g in reversed(word):
                if g.tag == b_tag:
                    vec = {intern(u := (g,) + k, u): p
                           for k, p in vec.items()}
                    continue
                if g.tag != a_tag:
                    raise DoubleError(f"foreign letter {g!r} in the double")
                if len(vec) == 1 and 1 in vec.values():
                    (bw,) = vec
                    _, _, f, vec, d, vb = self._letter(g, bw, skip)
                    fr, den, vbound = fr + f, _den_product(den, d), vbound + vb
                elif vec:
                    terms = []
                    for bw, p in vec.items():
                        _, _, f, v, d, vb = self._letter(g, bw, skip)
                        if v:
                            terms.append((p, vbound, f, d, v, vb))
                    _, _, f, vec, d, vbound = _combine(terms, w, param)
                    fr, den = fr + f, _den_product(den, d)
                skip = ()
            if vec:
                parts.append((c, xbound, frame + fr, _den_product(xbden, den),
                              vec, vbound))
        return _combine(parts, w, param)


def _asked_once(a_tag: str, acting, targets) -> frozenset:
    """The first requests that a batch of actions makes exactly once.

    A word of an acting element that ends in g·tail, g its last A-letter
    and tail B-letters, first asks for g acting on tail + bw for each
    word bw of each target (_PackedAction.act).  acting holds the words
    of every acting element of the batch, targets the words of every
    target, each once per element that holds it.
    """
    heads = collections.Counter()
    for word in acting:
        for i in range(len(word) - 1, -1, -1):
            if word[i].tag == a_tag:
                heads[word[i], word[i + 1:]] += 1
                break
    ends = collections.Counter(targets)
    asked = collections.Counter()
    for (g, tail), n in heads.items():
        for bw, m in ends.items():
            asked[g, tail + bw] += n * m
    return frozenset(key for key, n in asked.items() if n == 1)


# ---------------------------------------------------------------------------
# Rule extraction and the double factory


def _index_space(dim: int, arity: int):
    return list(itertools.product(range(1, dim + 1), repeat=arity))


def _extract_rule(lhs: MatrixOverAlgebra, rhs: MatrixOverAlgebra,
                  a_gens: list, b_gens: list) -> PermutationRule:
    """Solve the matrix relation LHS = RHS for the pair images.

    The left side must be strictly bilinear in (a-letter, b-letter) words.
    Its entries, as vectors over the generator pairs, must be independent
    and as many as the pairs; the coordinates of each unit pair vector in
    them then express that pair as the matching combination of right-side
    entries.
    """
    a_tag, b_tag = a_gens[0].tag, b_gens[0].tag
    pairs = [(ga, gb) for ga in a_gens for gb in b_gens]
    pidx = {p: i for i, p in enumerate(pairs)}
    positions = [(r, c)
                 for r in _index_space(lhs.dim, lhs.row_arity)
                 for c in _index_space(lhs.dim, lhs.col_arity)]
    if len(positions) != len(pairs):
        raise DoubleError("relation shape does not match the pair count")
    rows = []
    for r, c in positions:
        row = {}
        for w, coeff in lhs.entry(r, c).terms.items():
            if len(w) != 2 or w[0].tag != a_tag or w[1].tag != b_tag:
                raise DoubleError("left side of the relation is not bilinear")
            row[pidx[(w[0], w[1])]] = coeff
        rows.append(row)
    try:
        coords = coordinates(rows)
        solved = {p: coords({i: ONE}) for p, i in pidx.items()}
    except ArithmeticError as exc:
        raise DoubleError("relation does not determine the rule") from exc
    table = {}
    for p, cs in solved.items():
        img = NCElement.zero()
        for r_i, coeff in cs.items():
            e = rhs.entry(*positions[r_i])
            if not e.is_zero():
                img = img + e.scale(coeff)
        table[p] = img
    return PermutationRule(a_tag, b_tag, table)


def make_double(braiding: Braiding, kind: str, h: Scalar | None = None,
                b_quotient: str = "free") -> QuantumDouble:
    """Build one of the named doubles over the given braiding.

    The kind fixes the letters of both sides and the defining relation;
    the rule table is extracted from that relation.  h is the shift of
    the derivative_shifted kinds, b_quotient the B-side of the vector
    kind ("free", "symmetric" or "skew").

    The definition lives in the braiding's memo, keyed by (kind, h,
    b_quotient), so each is extracted, checked, filled and certified once
    per braiding.  Each call returns a new QuantumDouble around it, whose
    ordering memo and packed action kernel die with the caller: memoizing
    whole doubles kept those alive for the whole run and raised the peak
    RSS of `--suite all` from 24.6 to 26.7 MB (+9%, Python 3.11 on
    x86-64), with identical report bytes.
    """
    definition = memoized(braiding, ("double", kind, h, b_quotient),
                          lambda: _definition(braiding, kind, h, b_quotient))
    return QuantumDouble(braiding, definition)


def _definition(braiding: Braiding, kind: str, h: Scalar | None,
                b_quotient: str) -> DoubleDefinition:
    """The definition of a make_double call."""
    lhs, rhs, a_pres, b_pres, unit = _defining_relation(braiding, kind, h,
                                                        b_quotient)
    rule = _extract_rule(lhs, rhs, a_pres.generators, b_pres.generators)
    eps_a = {g: (unit if g.row == g.col else ZERO)
             for g in a_pres.generators}
    return DoubleDefinition(kind, braiding.dim, a_pres, b_pres, rule, eps_a,
                            h, b_quotient)


def _defining_relation(braiding: Braiding, kind: str, h: Scalar | None,
                      b_quotient: str) -> tuple:
    """(lhs, rhs, a_pres, b_pres, unit) of a kind.

    lhs = rhs is the matrix relation whose bilinear left side the rule
    table reorders; the counit is unit on diagonal A-letters, else zero.
    """
    dim = braiding.dim
    r = braiding.op
    rinv = braiding.inv

    def mat(tag):
        return MatrixOverAlgebra.generator_matrix(tag, dim, 2, 1)

    if kind in ("left", "left_shifted", "adjoint", "adjoint_shifted"):
        x1, m1 = mat("l"), mat("m")
        lhs = x1.lmul_op(r).rmul_op(r) * m1
        shifted = kind.endswith("_shifted")
        if kind == "left":
            rhs = (m1 * x1.lmul_op(r)).rmul_op(rinv)
        elif kind == "left_shifted":
            rhs = (m1 * x1.lmul_op(r)).rmul_op(rinv) + m1.lmul_op(r)
        elif kind == "adjoint":
            rhs = (m1 * x1.lmul_op(r)).rmul_op(r)
        else:
            rhs = (m1 * x1.lmul_op(r)).rmul_op(r) + m1.lmul_op(r) - m1.rmul_op(r)
        a_pres = re_presentation(braiding, "l",
                                 shift=(ONE if shifted else None))
        b_pres = re_presentation(braiding, "m")
        unit = ZERO if shifted else ONE
    elif kind == "derivative":
        lhs, rhs = derivative_relation(braiding, mat("d"), mat("m"))
        a_pres = re_presentation(braiding, "d", use_inverse=True)
        b_pres = re_presentation(braiding, "m")
        unit = ZERO
    elif kind in ("derivative_shifted", "derivative_shifted_unit"):
        if h is None or h.is_zero():
            raise DoubleError(f"kind {kind!r} needs a nonzero shift scalar")
        d1, n1 = mat("d"), mat("n")
        if kind == "derivative_shifted":
            lhs, rhs = derivative_relation(braiding, d1, n1, h)
            unit = ZERO
        else:
            if braiding.op != braiding.inv:
                raise DoubleError("unit-shifted derivatives need an involutive braiding")
            lhs = (d1.rmul_op(r) * n1).rmul_op(r)
            rhs = (n1.lmul_op(r).rmul_op(r)) * d1 + d1.rmul_op(r).scale(h)
            unit = h.inverse()
        a_pres = re_presentation(braiding, "d", use_inverse=True)
        b_pres = re_presentation(braiding, "n", shift=h)
    elif kind == "vector":
        l1 = mat("l")
        x1 = MatrixOverAlgebra.generator_vector("x", dim, 2, 1)
        lhs = (l1.lmul_op(r).rmul_op(r)) * x1
        rhs = x1 * MatrixOverAlgebra.generator_matrix("l", dim, 1, 1)
        a_pres = re_presentation(braiding, "l")
        if b_quotient == "free":
            b_pres = free_presentation(vector_generators("x", dim),
                                       name=f"free(x, dim={dim})")
        elif b_quotient == "symmetric":
            b_pres = symmetric_vector_presentation(braiding, "x")
        elif b_quotient == "skew":
            b_pres = skew_vector_presentation(braiding, "x")
        else:
            raise DoubleError(f"unknown vector quotient {b_quotient!r}")
        unit = ONE
    else:
        raise DoubleError(f"unknown double kind {kind!r}")
    return lhs, rhs, a_pres, b_pres, unit


def derivative_relation(braiding: Braiding, d: MatrixOverAlgebra,
                        m: MatrixOverAlgebra, shift: Scalar | None = None
                        ) -> tuple:
    """(lhs, rhs) of the derivative relation D R M R = R M R^-1 D + R.

    With a shift h the right side gains h D R (the derivative_shifted
    kind).  d and m stand in slot 1 of V (x) V: the generator matrices of
    a double, or any matrices over the algebra substituted for them.
    """
    r = braiding.op
    lhs = (d.rmul_op(r) * m).rmul_op(r)
    rhs = (m.lmul_op(r).rmul_op(braiding.inv)) * d + \
        MatrixOverAlgebra.from_operator(r)
    if shift is not None:
        rhs = rhs + d.rmul_op(r).scale(shift)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Matrix copies and slotwise action operators


def conjugated_copy(braiding: Braiding, moa: MatrixOverAlgebra, k: int,
                    variant: str = "OVER") -> MatrixOverAlgebra:
    """Slot-1 matrix conjugated up to slot k by the braiding chain.

    OVER conjugates by the braiding, UNDER by its inverse:
    X_over(k) = R_(k-1) X_over(k-1) R_(k-1)^-1 and the mirrored recursion.
    """
    arity = moa.row_arity
    if not 1 <= k <= arity:
        raise ValueError("target slot outside the arity range")
    out = moa
    for i in range(2, k + 1):
        fwd = braiding.at(i - 1, arity)
        bwd = braiding.inv_at(i - 1, arity)
        if variant == "OVER":
            out = out.lmul_op(fwd).rmul_op(bwd)
        elif variant == "UNDER":
            out = out.lmul_op(bwd).rmul_op(fwd)
        else:
            raise ValueError(f"unknown copy variant {variant!r}")
    return out


def matrix_copy(braiding: Braiding, tag: str, k: int, variant: str = "OVER",
                arity: int | None = None) -> MatrixOverAlgebra:
    """Conjugated copy of the generating matrix sitting at slot k."""
    if arity is None:
        arity = k
    base = MatrixOverAlgebra.generator_matrix(tag, braiding.dim, arity, 1)
    return conjugated_copy(braiding, base, k, variant)


def monomial_matrix(braiding: Braiding, tag: str, k: int,
                    arity: int | None = None) -> MatrixOverAlgebra:
    """Product X_1 X_over(2) ... X_over(k) of the first k matrix copies."""
    if arity is None:
        arity = k
    out = MatrixOverAlgebra.identity(braiding.dim, arity)
    for i in range(1, k + 1):
        out = out * matrix_copy(braiding, tag, i, "OVER", arity)
    return out


def action_operator(double: QuantumDouble, a: NCElement,
                    k: int) -> TensorOperator:
    """Slotwise operator form of acting by a on degree-k matrix monomials.

    Solves act(a, monomial entries) = O * (monomial entries) for the scalar
    operator O on k tensor slots; raises DoubleError when the system is
    inconsistent (the element does not act slotwise) or the monomial
    entries are linearly dependent.  Shared through the braiding's memo
    by the doubles of one definition, keyed on the definition, the
    element's terms and k: the key holds no double, so the memo keeps no
    double's ordering or action memos alive.
    """
    return memoized(double.braiding,
                    ("action_operator", double.definition,
                     frozenset(a.terms.items()), k),
                    lambda: _solve_action_operator(double, a, k))


def _solve_action_operator(double: QuantumDouble, a: NCElement,
                           k: int) -> TensorOperator:
    """Solve act(a, M) = O · M for the monomial matrix M of degree k.

    With nf the normal form of the B-presentation, row l of the system
    holds nf(M[l][j]) at the keys (j, w) and target i holds
    nf(act(a, M[i][j])); O[i] is the coordinates of target i in the rows.
    Both are linear in the words of the entries, and nf of a word is
    unique (the presentation is certified by the diamond lemma), so each
    B-word of degree <= k is reduced once, on packed integers, into the
    table T[w] = m · nf(w) (the action never raises the B-degree), and
    each word of the entries is acted on once, into U[w] = m ·
    nf(act(a, w)).  m is one nonzero polynomial, the common denominator
    of the table's normal forms.  Row l is then m · nf(M[l][j]) = sum of
    c_w T[w] and target i is m · nf(act(a, M[i][j])) = sum of c_w U[w],
    over the terms c_w·w of the entries, each one `linalg.Load` that goes
    into linalg.coordinates as it is; Scalars are made only for the
    entries of O.  Scaling every row and every target by the same
    nonzero m changes neither the coordinates nor which check fails: the
    scaled rows are dependent exactly when the rows are, and a scaled
    target lies in the span of the scaled rows exactly when the target
    lies in the span of the rows.

    Raises DoubleError when the monomial entries are linearly dependent,
    or when the action is not slotwise (a target outside that span).
    """
    double._check_acting(a)
    if a.terms and max(map(len, a.terms)) + k > double.max_word:
        raise DoubleError("degree-overflow during the action")
    idx = _index_space(double.braiding.dim, k)
    gens = double.b_pres.generators
    words = [w for d in range(k + 1)
             for w in itertools.product(gens, repeat=d)]

    def solve(kernel):
        mon = monomial_matrix(double.braiding, double.b_tag, k)
        loaded = [[_pack_vector(mon.entry(i, j).terms, kernel.width,
                                kernel.param) for j in idx]
                  for i in idx]
        del mon
        table = _word_table(kernel, double.b_pres, words)
        try:
            coords = coordinates(_packed_row(kernel, idx, row, table)
                                 for row in loaded)
        except ArithmeticError as exc:
            raise DoubleError(
                "monomial entries are linearly dependent") from exc
        x = _pack_vector(a.terms, kernel.width, kernel.param)
        # m · nf(act(a, w)) per word, kept until the last row that reads it
        uses = collections.Counter(key for row in loaded for e in row
                                   for key in e.packed)
        # the solve is one batch: what it asks for first once is not kept
        once = _asked_once(kernel.a_tag, x.packed, list(uses))
        acted = {}
        out: dict = {}
        for i in idx:
            row = loaded.pop(0)  # dropped once its target is solved
            for e in row:
                for w in e.packed:
                    if w not in acted:
                        acted[w] = _acted_word(kernel, x, w, table, once)
            target = _packed_row(kernel, idx, row, acted)
            for e in row:
                for w in e.packed:
                    uses[w] -= 1
                    if not uses[w]:
                        del acted[w]
            try:
                row = {idx[pos]: c for pos, c in coords(target).items()}
            except ArithmeticError as exc:
                raise DoubleError(
                    "action is not slotwise on these monomials") from exc
            if row:
                out[i] = row
        return out

    return TensorOperator(double.braiding.dim, k, double._with_kernel(solve))


def _word_table(kernel: _PackedAction, b_pres: QuadraticPresentation,
                words: list) -> dict:
    """m · nf(w) for every word w, as a Load over 1 at the kernel's width.

    Words whose normal form is zero are left out.  Each nf(w) is the
    B-presentation's packed remainder of w, and linalg._one_denominator
    brings them to one common denominator m and drops it.
    """
    loads = {w: b_pres.packed_normal_form(
        Load(kernel.width, None, 0, {w: 1}, (1,), 0)) for w in words}
    return _one_denominator(loads, kernel.width)


def _acted_word(kernel: _PackedAction, x: Load, word: tuple, table: dict,
                once: frozenset) -> Load | None:
    """m · nf(act(x, word)) as a Load, or None if it is zero: the action
    of x on word, mapped through the word table.  once is passed to
    kernel.act."""
    image = kernel.act(x, Load(kernel.width, kernel.param, 0, {word: 1},
                               (1,), 0), once)
    acted = _combine(_table_parts(image, table), kernel.width, kernel.param)
    return acted if acted.packed else None


def _packed_row(kernel: _PackedAction, idx: list, row: list,
                table: dict) -> Load:
    """A row of entry Loads mapped through a word table, as one Load.

    Entry j of row, the sum of c_w·w, becomes the sum of c_w·table[w] at
    the keys (j, word).  linalg._combine sums each entry, and then puts
    the entries side by side over one denominator.
    """
    w, param = kernel.width, kernel.param
    blocks = []
    for j, entry in zip(idx, row):
        _, _, frame, vec, den, bound = _combine(_table_parts(entry, table),
                                                w, param)
        if vec:
            blocks.append((1, 0, frame, den,
                           {(j, k): p for k, p in vec.items()}, bound))
    return _combine(blocks, w, param)


def _table_parts(load: Load, table: dict) -> list:
    """The _combine parts of the sum of c_w·table[w] over the terms c_w·w
    of load; a word that is missing from the table or maps to None
    contributes nothing."""
    _, _, frame, packed, den, bound = load
    parts = []
    for v, p in packed.items():
        t = table.get(v)
        if t is not None:
            _, _, tframe, tvec, tden, tbound = t
            parts.append((p, bound, frame + tframe, _den_product(den, tden),
                          tvec, tbound))
    return parts
