"""Free-algebra elements and equality modulo quadratic ideals.

Words are tuples of generator symbols; elements are {word: Scalar} maps
including the empty word for constants.  Words are ordered graded
lexicographically, with letters compared by tag (z lowest), then by
descending row, then by column (word_sortkey); the largest word of an
element leads.  Every algebra, a double too, reduces in a presentation.

A presentation holds relations whose leading (top-degree) parts are
quadratic, plus lower-degree tails (the inhomogeneous reflection-equation
variants).  Its reduced relation rows are certified once by Bergman's
diamond lemma (Adv. Math. 29, 1978): for every overlap abc of two
leading words ab and bc, the difference of the two one-step rewrites of
abc must reduce to zero modulo the words of degree <= 3 that contain a
leading word.  Quadratic leads overlap only in degree 3, so this proves
that the words with no leading subword are a basis of the quotient in
every degree (PBW).  The ideal's part of degree <= d is then spanned,
with no elimination at all, by one re-keyed copy u·row·v of a relation
row for each word u·ab·v that contains a lead ab, and the normal form
of an element is its unique remainder against those rows, found by one
elimination of the whole element.  No copy is stored: a step on u·ab·v
reads the relation row of ab with its words read under u and v
(linalg.Triangular's derive), so a presentation keeps only its
relation rows.  A presentation that fails the check raises
PresentationError, on every later call as well; there is no other route.

A CentralQuotient is a presentation of the same kind, with elements
pinned to zero that are central in it (checked once it is certified).
Its one Triangular holds the relation rows, which it reads re-keyed,
and the span of w·c over the normal words w and pinned c, so a normal
form is still one elimination.

Matrices over the algebra (MatrixOverAlgebra) keep the sparse rows of
TensorOperator and compute through the same linalg functions: the entry
product is the algebra product, and a scalar operator acting on either
side scales entries.

The reflection-equation presentation on generators x_i^j of the matrix X is
built componentwise from R X1 R X1 - X1 R X1 R = tail, where the tail is 0,
or the shift c*(R X1 - X1 R), or the variant with R replaced by R^-1.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, NamedTuple

from .braidings import Braiding, TensorOperator, memoized
from .linalg import (Load, Triangular, accumulate, first_nonzero, mat_add,
                     mat_map, mat_mul, partial_trace, traced, vec_add_scaled)
from .scalars import ONE, Scalar


class _Symbol(NamedTuple):
    tag: str
    row: int
    col: int


class Gen(_Symbol):
    """One generator symbol: entry (row, col) of a generating matrix.

    Vector-type generators (tensor algebra of V) use col = 0.  Symbols
    are interned: Gen(tag, row, col) returns one object per symbol, and
    so do `_make`, `_replace`, pickling and copying.  Equal symbols are
    then the same object, so a symbol hashes by identity and a word (a
    tuple of symbols) hashes and compares without reading any field.
    Symbols order as the tuples (tag, row, col).
    """

    __slots__ = ()
    _interned: dict = {}
    __hash__ = object.__hash__

    def __new__(cls, tag: str, row: int, col: int):
        key = (tag, row, col)
        g = Gen._interned.get(key)
        if g is None:
            g = Gen._interned[key] = tuple.__new__(Gen, key)
        return g

    @classmethod
    def _make(cls, iterable):
        return Gen(*iterable)

    def __reduce__(self):
        return Gen, tuple(self)

    def __repr__(self):
        if self.col == 0:
            return f"{self.tag}{self.row}"
        return f"{self.tag}{self.row}{self.col}"


@functools.cache
def _letter_key(g: Gen) -> tuple:
    """A letter's place in the word order: -ord(tag), then -row, then col."""
    return (-ord(g.tag), -g.row, g.col)


def word_sortkey(word: tuple):
    """Graded lexicographic order; the largest word is the leading one.

    Letters compare by one-letter tag (z lowest), then by descending row,
    then by column.  Under this order the degree-2 relation rows of every
    presentation built here certify (QuadraticPresentation.ensure); under
    (row, col) the plain reflection-equation algebra does not.  A-tags
    (d, l) rank above B-tags (m, n, u, x): a double's a·b lead its rows.
    """
    return (len(word), tuple(map(_letter_key, word)))


def matrix_generators(tag: str, dim: int) -> list:
    return [Gen(tag, i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)]


def vector_generators(tag: str, dim: int) -> list:
    return [Gen(tag, i, 0) for i in range(1, dim + 1)]


class NCElement:
    """Element of the free unital algebra on generator symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls) -> "NCElement":
        return cls({})

    @classmethod
    def constant(cls, c: Scalar) -> "NCElement":
        return cls({(): c}) if not c.is_zero() else cls({})

    @classmethod
    def generator(cls, g: Gen) -> "NCElement":
        return cls({(g,): ONE})

    @classmethod
    def word(cls, w: tuple, c: Scalar = ONE) -> "NCElement":
        return cls({w: c}) if not c.is_zero() else cls({})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        vec_add_scaled(out, other.terms, ONE)
        return NCElement(out)

    def __sub__(self, other):
        out = dict(self.terms)
        vec_add_scaled(out, other.terms, -ONE)
        return NCElement(out)

    def __neg__(self):
        return NCElement({w: -c for w, c in self.terms.items()})

    def scale(self, c: Scalar) -> "NCElement":
        if c.is_zero():
            return NCElement({})
        return NCElement({w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return NCElement(out)

    def __eq__(self, other):
        return isinstance(other, NCElement) and self.terms == other.terms

    def degree(self) -> int:
        """Max letter count; zero element -> -1."""
        return max(map(len, self.terms), default=-1)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=word_sortkey):
            c = self.terms[w]
            mono = "*".join(repr(g) for g in w) if w else "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------


class PresentationError(ValueError):
    """A presentation fails its certificate, or a quotient its centrality."""


class QuadraticPresentation:
    """Generators plus relations with quadratic leading parts.

    Relations may carry lower-degree tails, so reduction runs over the
    whole word space of degree <= d.  Only the relation rows are stored,
    and no normal form is memoized.
    """

    def __init__(self, generators: list, relations: Iterable[NCElement],
                 name: str = ""):
        self.generators = list(generators)
        self.name = name
        self.relations = []
        for r in relations:
            if r.is_zero():
                continue
            self.relations.append(r)
            if r.degree() < 1:
                raise ValueError("constant relation makes the algebra trivial")
        self._tri = Triangular(word_sortkey, self._lead_row)
        self._built = 0
        # the message of a failed certificate, raised again on every call
        self._uncertified = None
        # the leading words ab of the relation rows
        self._leads: set = set()
        # the normal words (no leading subword) of each length
        self._normal: list = [[()]]

    def ensure(self, d: int) -> None:
        """Make the ideal basis exact through every word of degree <= d.

        The first call with d >= 1 inserts the relations, whose rows must
        all lead with a word of length 2; below degree 3 they are exact.
        The first call with d >= 3 certifies the presentation (_certify):
        by the diamond lemma the rows u·row_ab·v, one for each word u·ab·v
        with leftmost lead ab, span the ideal in every degree, and reducing
        an ideal element leaves only normal words, which are independent
        in the quotient.  The Triangular reads such a row from row_ab
        when a reduction meets its pivot (_lead_row) and never stores it,
        so nothing grows here or later.
        A failed certificate raises the same PresentationError on every
        later call with d >= 3, so no reduction, in any row that shares
        the presentation, trusts rows the certificate did not justify.
        """
        if self._built < 1 <= d:
            self._insert_relations()
            self._built = 1
        if self._built < 3 <= d:
            if self._uncertified is not None:
                raise PresentationError(self._uncertified)
            try:
                self._certify()
            except PresentationError as exc:
                self._uncertified = str(exc)
                raise
            self._built = 3

    def _insert_relations(self) -> None:
        tri = self._tri
        for r in self.relations:
            tri.insert(dict(r.terms))
        for ab in tri.pivots:
            if len(ab) != 2:
                raise PresentationError(
                    f"{self.name}: a relation row leads with {ab!r},"
                    " not with a quadratic word")
        self._leads = set(tri.pivots)

    def _lead_row(self, word: tuple):
        """(ab, u, v) with word = u·ab·v, ab its leftmost lead; else None."""
        leads = self._leads
        for i in range(len(word) - 1):
            ab = word[i:i + 2]
            if ab in leads:
                return ab, word[:i], word[i + 2:]
        return None

    def _certify(self) -> None:
        """Bergman's resolvability check on the overlaps of the leads.

        For leads ab and bc, lead(bc)·(row_ab·c) - lead(ab)·(a·row_bc) has
        no term abc, so every word left is smaller than abc; it must reduce
        to zero modulo the rows of degree <= 3.  Raises PresentationError
        naming the presentation and the first overlap that does not.
        """
        tri = self._tri
        rows = {ab: tri.row(ab) for ab in tri.pivots if ab in self._leads}
        for ab, row_ab in rows.items():
            for bc, row_bc in rows.items():
                if bc[0] != ab[1]:
                    continue
                s: dict = {}
                vec_add_scaled(s, {w + bc[1:]: c for w, c in row_ab.items()},
                               row_bc[bc])
                vec_add_scaled(s, {ab[:1] + w: c for w, c in row_bc.items()},
                               -row_ab[ab])
                residual = tri.reduce(s)
                if residual:
                    raise PresentationError(
                        f"{self.name} is not certified: the overlap "
                        f"{ab + bc[1:]!r} leaves {NCElement(residual)!r}")

    def normal_words(self, k: int) -> list:
        """The words of length k with no relation lead, in a fixed order."""
        if k >= 2 and not self._built:
            self.ensure(1)
        leads = self._leads
        while len(self._normal) <= k:
            self._normal.append(
                [w + (g,) for w in self._normal[-1] for g in self.generators
                 if not w or (w[-1], g) not in leads])
        return self._normal[k]

    def normal_form(self, x: NCElement) -> NCElement:
        """Unique remainder of x: one elimination of the whole element."""
        self.ensure(x.degree())
        return NCElement(self._tri.reduce(dict(x.terms)))

    def packed_normal_form(self, load: Load) -> Load:
        """normal_form on packed coefficients: the remainder of a load,
        as a load at the width of this presentation's digits."""
        self.ensure(max(map(len, load.packed), default=0))
        return self._tri.remainder(load)

    def reduces_to_zero(self, x: NCElement) -> bool:
        return self.normal_form(x).is_zero()

    def ideal_rank(self, d: int) -> int:
        """Number of leading words of degree <= d in the ideal basis."""
        total = sum(len(self.generators) ** e for e in range(d + 1))
        return total - self.filtered_dimension(d)

    def filtered_dimension(self, d: int) -> int:
        """dim of the degree <= d filtration component of the quotient."""
        self.ensure(d)
        return sum(map(self._free_words, range(d + 1)))

    def _free_words(self, e: int) -> int:
        """The normal words of length e that lead no pinned row."""
        pivots = self._tri.pivots
        return sum(1 for w in self.normal_words(e) if w not in pivots)


class CentralQuotient(QuadraticPresentation):
    """A certified presentation with elements pinned that are central in it.

    The quotient certifies the basis of the base's generators and
    relations first (a failure names the base), then checks that each
    pinned element c commutes with every generator modulo those rows, and
    raises PresentationError otherwise.  Then u·c·v = u·v·c modulo the
    relations, so the two-sided ideal of relations and pinned elements is
    the relation ideal plus the left ideal of the pinned elements, and its
    part of degree <= d is spanned by the re-keyed relation rows and w·c
    for the normal words w with |w| + deg c <= d.  ensure(d) inserts those
    w·c into the same Triangular once it is certified, so each insert is
    reduced modulo every relation row of its degree (read re-keyed) and
    its pivot is a normal word.  A re-keyed pivot contains a lead, so the
    two kinds never collide: the stored pivots are the relation leads
    and the pinned normal words, and every word that contains a lead
    stays a pivot.  Normal forms, ideal_rank and filtered_dimension are
    then those of the two-sided ideal, through one elimination.
    """

    def __init__(self, base: QuadraticPresentation,
                 pinned: Iterable[NCElement], name: str = ""):
        super().__init__(base.generators, base.relations, name=base.name)
        self.pinned: list = []  # none while the relations alone are checked
        self.ensure(3)  # certify before trusting the normal forms
        pinned = list(pinned)
        for i, c in enumerate(pinned, start=1):
            for g in self.generators:
                x = NCElement.generator(g)
                if not self.reduces_to_zero(x * c - c * x):
                    raise PresentationError(
                        f"{name}: pinned element {i} ({c!r}) does not "
                        f"commute with {g!r} in {base.name}")
        self.name = name
        self.pinned = pinned
        self._spanned = -1  # degree 0 holds the multiples w = () as well

    def ensure(self, d: int) -> None:
        """The certified relation rows, then w·c of degree <= d."""
        super().ensure(d)
        while self.pinned and self._spanned < d:
            e = self._spanned + 1
            for c in self.pinned:
                k = c.degree()
                if k <= e:
                    for w in self.normal_words(e - k):
                        self._tri.insert((NCElement.word(w) * c).terms)
            self._spanned = e


# ---------------------------------------------------------------------------
# Matrices with free-algebra entries


class MatrixOverAlgebra:
    """Rectangular matrix over an algebra, indexed by 1-based multi-indices.

    Rows have row_arity tensor slots and columns col_arity slots (they can
    differ: the vector of tensor-algebra generators has column arity 0).
    Entries are NCElements, stored as sparse rows {row: {col: entry}}
    and computed through the linalg matrix functions.
    """

    __slots__ = ("dim", "row_arity", "col_arity", "rows")

    def __init__(self, dim: int, row_arity: int, col_arity: int,
                 rows: dict | None = None):
        self.dim = dim
        self.row_arity = row_arity
        self.col_arity = col_arity
        self.rows = rows if rows is not None else {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def generator_matrix(cls, tag: str, dim: int, arity: int, slot: int) -> "MatrixOverAlgebra":
        """X placed in one tensor slot, identity elsewhere: X_slot."""
        rows = {}
        s = slot - 1
        for r in itertools.product(range(1, dim + 1), repeat=arity):
            rows[r] = {r[:s] + (jj,) + r[s + 1:]:
                       NCElement.generator(Gen(tag, r[s], jj))
                       for jj in range(1, dim + 1)}
        return cls(dim, arity, arity, rows)

    @classmethod
    def generator_vector(cls, tag: str, dim: int, arity: int, slot: int) -> "MatrixOverAlgebra":
        """Column of vector generators in one slot: rows arity, cols arity-1."""
        rows = {}
        s = slot - 1
        for r in itertools.product(range(1, dim + 1), repeat=arity):
            rows[r] = {r[:s] + r[s + 1:]: NCElement.generator(Gen(tag, r[s], 0))}
        return cls(dim, arity, arity - 1, rows)

    @classmethod
    def from_operator(cls, op: TensorOperator) -> "MatrixOverAlgebra":
        return cls(op.dim, op.arity, op.arity,
                   mat_map(op.rows, NCElement.constant))

    @classmethod
    def identity(cls, dim: int, arity: int) -> "MatrixOverAlgebra":
        return cls.from_operator(TensorOperator.identity(dim, arity))

    @property
    def entries(self) -> dict:
        """The entries keyed by (row, col)."""
        return {(r, c): v for r, cs in self.rows.items() for c, v in cs.items()}

    def entry(self, r, c) -> NCElement:
        return self.rows.get(r, {}).get(c, NCElement.zero())

    def _like(self, rows: dict) -> "MatrixOverAlgebra":
        return MatrixOverAlgebra(self.dim, self.row_arity, self.col_arity, rows)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if (self.row_arity, self.col_arity) != (other.row_arity, other.col_arity):
            raise ValueError("matrix shape mismatch")
        return self._like(mat_add(self.rows, other.rows))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c: Scalar) -> "MatrixOverAlgebra":
        return self._like(mat_map(self.rows, lambda v: v.scale(c)))

    def __mul__(self, other):
        """Matrix product; entry products keep letter order left-to-right."""
        if not isinstance(other, MatrixOverAlgebra):
            return NotImplemented
        if self.col_arity != other.row_arity:
            raise ValueError("matrix shape mismatch")
        return MatrixOverAlgebra(self.dim, self.row_arity, other.col_arity,
                                 mat_mul(self.rows, other.rows, operator.mul))

    def lmul_op(self, op: TensorOperator) -> "MatrixOverAlgebra":
        """Scalar operator acting from the left: op . self."""
        return MatrixOverAlgebra(self.dim, op.arity, self.col_arity,
                                 mat_mul(op.rows, self.rows, _scaled_by_left))

    def rmul_op(self, op: TensorOperator) -> "MatrixOverAlgebra":
        """Scalar operator acting from the right: self . op."""
        return MatrixOverAlgebra(self.dim, self.row_arity, op.arity,
                                 mat_mul(self.rows, op.rows, _scaled_by_right))

    def rtrace(self, slot: int, weights: list) -> "MatrixOverAlgebra":
        """Weighted partial trace over one (square) tensor slot."""
        if self.row_arity != self.col_arity:
            raise ValueError("partial trace needs a square-shaped matrix")
        if not 1 <= slot <= self.row_arity:
            raise ValueError("slot out of range")
        return MatrixOverAlgebra(self.dim, self.row_arity - 1, self.col_arity - 1,
                                 partial_trace(self.rows, slot, weights,
                                               _scaled_by_left))

    def traced_chain(self, factors: list, weights: list) -> NCElement:
        """Weighted trace of self · F_1 ⋯ F_k (k >= 1), by linalg.traced.

        Only the rows of self are multiplied through F_(k-1).
        """
        left = self
        for f in factors[:-1]:
            left = left * f
        return traced(left.rows, factors[-1].rows, weights, operator.mul,
                      NCElement.zero())

    def map_entries(self, fn: Callable[[NCElement], NCElement]) -> "MatrixOverAlgebra":
        return self._like(mat_map(self.rows, fn))

    def first_nonzero(self, reduce: Callable[[NCElement], NCElement]
                      ) -> tuple:
        """linalg.first_nonzero of the entries under reduce."""
        return first_nonzero(self.rows, reduce)

    def __eq__(self, other):
        return isinstance(other, MatrixOverAlgebra) and \
            (self.dim, self.row_arity, self.col_arity) == (other.dim, other.row_arity, other.col_arity) and \
            self.rows == other.rows

    def is_zero(self) -> bool:
        return not self.rows

    def __repr__(self):
        return f"MatrixOverAlgebra(dim={self.dim}, shape=({self.row_arity},{self.col_arity}), nnz={sum(map(len, self.rows.values()))})"


def _scaled_by_left(s: Scalar, v):
    return v.scale(s)


def _scaled_by_right(v, s: Scalar):
    return v.scale(s)


# ---------------------------------------------------------------------------
# Reflection-equation presentations


def re_relation_matrix(x1: MatrixOverAlgebra, r,
                       shift: Scalar | None) -> MatrixOverAlgebra:
    """Componentwise matrix R X1 R X1 - X1 R X1 R - shift*(R X1 - X1 R).

    x1 is any matrix over an algebra sitting in the first of two slots,
    and r the operator R on both.
    """
    lhs = x1.lmul_op(r).rmul_op(r) * x1
    rhs = (x1.rmul_op(r) * x1).rmul_op(r)
    rel = lhs - rhs
    if shift is not None and not shift.is_zero():
        tail = x1.lmul_op(r) - x1.rmul_op(r)
        rel = rel - tail.scale(shift)
    return rel


def re_presentation(b: Braiding, tag: str, use_inverse: bool = False,
                    shift: Scalar | None = None) -> QuadraticPresentation:
    """Reflection-equation algebra presentation on matrix generators.

    shift = None gives the homogeneous algebra; a nonzero shift c gives the
    inhomogeneous variant R X1 R X1 - X1 R X1 R = c (R X1 - X1 R); the
    use_inverse flag swaps R for R^-1 (the derivative-side algebra).
    Memoized on the braiding (braidings.memoized) by (tag, use_inverse,
    shift), so each presentation is built, filled and certified once per
    braiding; its readers share it and must not change it.
    """
    if shift is not None and shift.is_zero():
        shift = None
    return memoized(b, ("re_presentation", tag, use_inverse, shift),
                    lambda: _re_presentation(b, tag, use_inverse, shift))


def _re_presentation(b: Braiding, tag: str, use_inverse: bool,
                     shift: Scalar | None) -> QuadraticPresentation:
    rel = re_relation_matrix(
        MatrixOverAlgebra.generator_matrix(tag, b.dim, 2, 1),
        b.inv if use_inverse else b.op, shift)
    variant = "inv" if use_inverse else "re"
    if shift is not None:
        variant += "-shifted"
    return QuadraticPresentation(
        matrix_generators(tag, b.dim),
        [v for v in rel.entries.values()],
        name=f"{variant}({tag}, dim={b.dim})")


def free_presentation(generators: list, name: str = "free") -> QuadraticPresentation:
    return QuadraticPresentation(generators, [], name=name)


def symmetric_vector_presentation(b: Braiding, tag: str) -> QuadraticPresentation:
    """Braided symmetric algebra of V: quotient by the image of (q I - R)."""
    return _vector_quotient(b, tag, b.q, -ONE, "sym")


def skew_vector_presentation(b: Braiding, tag: str) -> QuadraticPresentation:
    """Braided skew algebra of V: quotient by the image of (q^-1 I + R)."""
    return _vector_quotient(b, tag, b.q.inverse(), ONE, "skew")


def _vector_quotient(b: Braiding, tag: str, diag: Scalar, rsign: Scalar,
                     name: str) -> QuadraticPresentation:
    gens = vector_generators(tag, b.dim)
    rels = []
    for kk in range(1, b.dim + 1):
        for ll in range(1, b.dim + 1):
            col = (kk, ll)
            terms = {(Gen(tag, kk, 0), Gen(tag, ll, 0)): diag}
            for (a, bb), cs in b.op.rows.items():
                v = cs.get(col)
                if v is not None:
                    accumulate(terms, (Gen(tag, a, 0), Gen(tag, bb, 0)),
                               rsign * v)
            rels.append(NCElement(terms))
    return QuadraticPresentation(gens, rels, name=f"{name}({tag}, dim={b.dim})")
