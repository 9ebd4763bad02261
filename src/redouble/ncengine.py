"""Free-algebra elements and equality modulo quadratic-type ideals.

Words are tuples of generator symbols; elements are {word: Scalar} maps
including the empty word for constants.  A presentation holds relations
whose leading (top-degree) parts are homogeneous of some degree (2 for the
reflection-equation algebras, arbitrary for the trace-shifted orbit
quotients) plus lower-degree tails.  Equality modulo the two-sided ideal is
decided degreewise by linear algebra: the span of w1 * relation * w2 is
materialized layer by layer into a triangular basis with graded-lex leading
words, and the normal form of an element is its unique remainder against
that basis, found by one elimination of the whole element.  This is
not a Groebner completion; it is exact and complete for the flat (PBW-type)
presentations used here, and reductions to zero are sound proofs of ideal
membership in any case.

The reflection-equation presentation on generators x_i^j of the matrix X is
built componentwise from R X1 R X1 - X1 R X1 R = tail, where the tail is 0,
or the shift c*(R X1 - X1 R), or the variant with R replaced by R^-1.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple

from .braidings import Braiding, TensorOperator
from .linalg import Triangular, vec_add_scaled
from .scalars import ONE, Scalar


class Gen(NamedTuple):
    """One generator symbol: entry (row, col) of a generating matrix.

    Vector-type generators (tensor algebra of V) use col = 0.
    """
    tag: str
    row: int
    col: int

    def __repr__(self):
        if self.col == 0:
            return f"{self.tag}{self.row}"
        return f"{self.tag}{self.row}{self.col}"


def word_sortkey(word: tuple):
    """Graded lexicographic order; the largest word is the leading one."""
    return (len(word), word)


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
                w = w1 + w2
                p = c1 * c2
                cur = out.get(w)
                if cur is None:
                    if not p.is_zero():
                        out[w] = p
                else:
                    s = cur + p
                    if s.is_zero():
                        del out[w]
                    else:
                        out[w] = s
        return NCElement(out)

    def __eq__(self, other):
        return isinstance(other, NCElement) and self.terms == other.terms

    def substituted(self, value) -> "NCElement":
        """Every coefficient evaluated at parameter = value."""
        out = {}
        for w, c in self.terms.items():
            v = c.with_value(value)
            if not v.is_zero():
                out[w] = v
        return NCElement(out)

    def degree(self, tags: set | None = None) -> int:
        """Max letter count (restricted to tags if given); zero element -> -1."""
        best = -1
        for w in self.terms:
            n = len(w) if tags is None else sum(1 for g in w if g.tag in tags)
            if n > best:
                best = n
        return best

    def homogeneous_parts(self) -> dict:
        parts: dict = {}
        for w, c in self.terms.items():
            parts.setdefault(len(w), {})[w] = c
        return {d: NCElement(t) for d, t in parts.items()}

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


class QuadraticPresentation:
    """Generators plus relations with homogeneous leading parts.

    Graded when every relation is homogeneous; otherwise filtered, with
    reduction over the whole word space of degree <= d.  The basis grows
    to the degree of each element reduced; no normal form is memoized.
    """

    def __init__(self, generators: list, relations: Iterable[NCElement],
                 name: str = ""):
        self.generators = list(generators)
        self.name = name
        self.relations = []
        self.graded = True
        for r in relations:
            if r.is_zero():
                continue
            self.relations.append(r)
            if len(r.homogeneous_parts()) > 1:
                self.graded = False
            if r.degree() < 1:
                raise ValueError("constant relation makes the algebra trivial")
        self._tri = Triangular(word_sortkey)
        self._layers: dict = {0: []}
        self._built = 0
        self._sub_cache: dict = {}

    def ensure(self, d: int) -> None:
        while self._built < d:
            e = self._built + 1
            cand = []
            for r in self.relations:
                if r.degree() == e:
                    cand.append(dict(r.terms))
            gens = self.generators
            for row in self._layers.get(e - 1, ()):
                for g in gens:
                    cand.append({(g,) + w: c for w, c in row.items()})
                    cand.append({w + (g,): c for w, c in row.items()})
            new_rows = []
            for vec in cand:
                pivot = self._tri.insert(vec)
                if pivot is not None:
                    new_rows.append(self._tri.row(pivot))
            self._layers[e] = new_rows
            self._built = e

    def normal_form(self, x: NCElement) -> NCElement:
        """Unique remainder of x: one elimination of the whole element."""
        self.ensure(x.degree())
        return NCElement(self._tri.reduce(dict(x.terms)))

    def reduces_to_zero(self, x: NCElement) -> bool:
        return self.normal_form(x).is_zero()

    def ideal_rank(self, d: int) -> int:
        """Number of leading words of degree <= d in the ideal basis."""
        self.ensure(d)
        return sum(1 for w in self._tri.pivots if len(w) <= d)

    def graded_dimension(self, d: int) -> int:
        """dim of the degree-d component (graded) of the quotient algebra."""
        if not self.graded:
            raise ValueError("graded dimensions need a graded presentation")
        self.ensure(d)
        total = len(self.generators) ** d
        used = sum(1 for w in self._tri.pivots if len(w) == d)
        return total - used

    def filtered_dimension(self, d: int) -> int:
        """dim of the degree <= d filtration component of the quotient."""
        self.ensure(d)
        total = sum(len(self.generators) ** e for e in range(d + 1))
        return total - self.ideal_rank(d)

    def substituted(self, value) -> "QuadraticPresentation":
        cached = self._sub_cache.get(value)
        if cached is None:
            rels = [r.substituted(value) for r in self.relations]
            cached = QuadraticPresentation(self.generators, rels,
                                           name=f"{self.name}@{value}")
            self._sub_cache[value] = cached
        return cached


# ---------------------------------------------------------------------------
# Matrices with free-algebra entries


class MatrixOverAlgebra:
    """Rectangular matrix over NCElements, indexed by 1-based multi-indices.

    Rows have row_arity tensor slots and columns col_arity slots (they can
    differ: the vector of tensor-algebra generators has column arity 0).
    """

    __slots__ = ("dim", "row_arity", "col_arity", "entries")

    def __init__(self, dim: int, row_arity: int, col_arity: int,
                 entries: dict | None = None):
        self.dim = dim
        self.row_arity = row_arity
        self.col_arity = col_arity
        self.entries = entries if entries is not None else {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def generator_matrix(cls, tag: str, dim: int, arity: int, slot: int) -> "MatrixOverAlgebra":
        """X placed in one tensor slot, identity elsewhere: X_slot."""
        entries = {}
        s = slot - 1
        for r in itertools.product(range(1, dim + 1), repeat=arity):
            for jj in range(1, dim + 1):
                c = r[:s] + (jj,) + r[s + 1:]
                entries[(r, c)] = NCElement.generator(Gen(tag, r[s], jj))
        return cls(dim, arity, arity, entries)

    @classmethod
    def generator_vector(cls, tag: str, dim: int, arity: int, slot: int) -> "MatrixOverAlgebra":
        """Column of vector generators in one slot: rows arity, cols arity-1."""
        entries = {}
        s = slot - 1
        for r in itertools.product(range(1, dim + 1), repeat=arity):
            c = r[:s] + r[s + 1:]
            entries[(r, c)] = NCElement.generator(Gen(tag, r[s], 0))
        return cls(dim, arity, arity - 1, entries)

    @classmethod
    def from_operator(cls, op: TensorOperator) -> "MatrixOverAlgebra":
        entries = {}
        for r, cs in op.rows.items():
            for c, v in cs.items():
                entries[(r, c)] = NCElement.constant(v)
        return cls(op.dim, op.arity, op.arity, entries)

    @classmethod
    def identity(cls, dim: int, arity: int) -> "MatrixOverAlgebra":
        return cls.from_operator(TensorOperator.identity(dim, arity))

    def entry(self, r, c) -> NCElement:
        return self.entries.get((r, c), NCElement.zero())

    def _store(self, entries: dict) -> "MatrixOverAlgebra":
        return MatrixOverAlgebra(self.dim, self.row_arity, self.col_arity,
                                 {k: v for k, v in entries.items() if not v.is_zero()})

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if (self.row_arity, self.col_arity) != (other.row_arity, other.col_arity):
            raise ValueError("matrix shape mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return self._store(out)

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c: Scalar) -> "MatrixOverAlgebra":
        return self._store({k: v.scale(c) for k, v in self.entries.items()})

    def __mul__(self, other):
        """Matrix product; entry products keep letter order left-to-right."""
        if not isinstance(other, MatrixOverAlgebra):
            return NotImplemented
        if self.col_arity != other.row_arity:
            raise ValueError("matrix shape mismatch")
        by_row: dict = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(r, []).append((k, v))
        by_mid: dict = {}
        for (k, c), v in other.entries.items():
            by_mid.setdefault(k, []).append((c, v))
        out: dict = {}
        for r, lst in by_row.items():
            for k, v in lst:
                mid = by_mid.get(k)
                if not mid:
                    continue
                for c, w in mid:
                    key = (r, c)
                    p = v * w
                    cur = out.get(key)
                    out[key] = p if cur is None else cur + p
        return MatrixOverAlgebra(self.dim, self.row_arity, other.col_arity,
                                 {k: v for k, v in out.items() if not v.is_zero()})

    def lmul_op(self, op: TensorOperator) -> "MatrixOverAlgebra":
        """Scalar operator acting from the left: op . self."""
        by_mid: dict = {}
        for (k, c), v in self.entries.items():
            by_mid.setdefault(k, []).append((c, v))
        out: dict = {}
        for r, cs in op.rows.items():
            for k, s in cs.items():
                mid = by_mid.get(k)
                if not mid:
                    continue
                for c, v in mid:
                    key = (r, c)
                    p = v.scale(s)
                    cur = out.get(key)
                    out[key] = p if cur is None else cur + p
        return MatrixOverAlgebra(self.dim, op.arity, self.col_arity,
                                 {k: v for k, v in out.items() if not v.is_zero()})

    def rmul_op(self, op: TensorOperator) -> "MatrixOverAlgebra":
        """Scalar operator acting from the right: self . op."""
        out: dict = {}
        for (r, k), v in self.entries.items():
            mid = op.rows.get(k)
            if not mid:
                continue
            for c, s in mid.items():
                key = (r, c)
                p = v.scale(s)
                cur = out.get(key)
                out[key] = p if cur is None else cur + p
        return MatrixOverAlgebra(self.dim, self.row_arity, op.arity,
                                 {k: v for k, v in out.items() if not v.is_zero()})

    def rtrace(self, slot: int, weights: list) -> "MatrixOverAlgebra":
        """Weighted partial trace over one (square) tensor slot."""
        if self.row_arity != self.col_arity:
            raise ValueError("partial trace needs a square-shaped matrix")
        s = slot - 1
        out: dict = {}
        for (r, c), v in self.entries.items():
            if r[s] != c[s]:
                continue
            key = (r[:s] + r[s + 1:], c[:s] + c[s + 1:])
            p = v.scale(weights[r[s] - 1])
            cur = out.get(key)
            out[key] = p if cur is None else cur + p
        return MatrixOverAlgebra(self.dim, self.row_arity - 1, self.col_arity - 1,
                                 {k: v for k, v in out.items() if not v.is_zero()})

    def trace_all(self, weights: list) -> NCElement:
        cur = self
        for slot in range(self.row_arity, 0, -1):
            cur = cur.rtrace(slot, weights)
        return cur.entry((), ())

    def map_entries(self, fn: Callable[[NCElement], NCElement]) -> "MatrixOverAlgebra":
        return self._store({k: fn(v) for k, v in self.entries.items()})

    def substituted(self, value) -> "MatrixOverAlgebra":
        """Every entry evaluated at parameter = value."""
        return self.map_entries(lambda v: v.substituted(value))

    def first_nonzero(self, reduce: Callable[[NCElement], NCElement]
                      ) -> tuple:
        """(True, None) when reduce takes every entry to zero.

        Otherwise (False, witness), the witness naming the first entry in
        sorted index order that does not vanish, with its residual.
        """
        for key in sorted(self.entries):
            residual = reduce(self.entries[key])
            if not residual.is_zero():
                r, c = key
                return False, f"entry {r}->{c}: {residual!r}"
        return True, None

    def __eq__(self, other):
        return isinstance(other, MatrixOverAlgebra) and \
            (self.dim, self.row_arity, self.col_arity) == (other.dim, other.row_arity, other.col_arity) and \
            self.entries == other.entries

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"MatrixOverAlgebra(dim={self.dim}, shape=({self.row_arity},{self.col_arity}), nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# Reflection-equation presentations


def re_relation_matrix(b: Braiding, tag: str, use_inverse: bool = False,
                       shift: Scalar | None = None) -> MatrixOverAlgebra:
    """Componentwise matrix R X1 R X1 - X1 R X1 R - shift*(R X1 - X1 R)."""
    r = b.inv if use_inverse else b.op
    x1 = MatrixOverAlgebra.generator_matrix(tag, b.dim, 2, 1)
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
    """
    rel = re_relation_matrix(b, tag, use_inverse, shift)
    variant = "inv" if use_inverse else "re"
    if shift is not None and not shift.is_zero():
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
            terms: dict = {}
            col = (kk, ll)
            w = (Gen(tag, kk, 0), Gen(tag, ll, 0))
            terms[w] = diag
            for (a, bb), cs in b.op.rows.items():
                v = cs.get(col)
                if v is not None:
                    wa = (Gen(tag, a, 0), Gen(tag, bb, 0))
                    cur = terms.get(wa)
                    s = rsign * v
                    terms[wa] = s if cur is None else cur + s
            rels.append(NCElement({w: c for w, c in terms.items() if not c.is_zero()}))
    return QuadraticPresentation(gens, rels, name=f"{name}({tag}, dim={b.dim})")
