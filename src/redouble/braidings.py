"""Hecke symmetries on V^k and the compatible weighted trace.

A braiding here is an invertible operator R on V (x) V satisfying the braid
relation R1 R2 R1 = R2 R1 R2 on V^3 together with the quadratic condition
R^2 = I + (q - q^-1) R.  The flip is the q = 1 case.  Operators on tensor
powers are stored sparsely as {row multi-index: {col multi-index: Scalar}}
with 1-based index tuples, and added and traced by the linalg
sparse-matrix functions.  They compose on packed Laurent integers
(linalg.packed_mat_mul): each operator caches its own packed load, read
from its Scalars once per digit width, so an operator used in many
products is read once; a product is built from Scalar rows alone.  Columns
hold images of basis vectors, so (R X R^-1) composes left to right as
matrix multiplication.

The weighted trace uses the diagonal form C = diag(q^(1-2i)); the braided
copies X over/under a slot are R-conjugates and the defining property is
that the weighted partial trace of either copy in the last slot collapses
to the plain weighted trace times the identity.
"""

from __future__ import annotations

import copy
import itertools
import operator

from .linalg import (_WIDTH, Load, Triangular, _load_matrix, _TooWide,
                     mat_add, mat_map, packed_mat_mul, partial_trace)
from .scalars import ONE, ZERO, Scalar


class TensorOperator:
    """Sparse exact operator on the arity-fold tensor power of Q(q)^dim.

    `rows` is filled before construction and never mutated after it.
    `_load` caches `rows` as one `linalg.Load` at one digit width, its
    packed entries grouped by row, for composition
    (linalg.packed_mat_mul): `_loaded(w)` reads it from `rows` on the
    first product and again when a product needs another width.  A
    product starts with no load.
    """

    __slots__ = ("dim", "arity", "rows", "_load")

    def __init__(self, dim: int, arity: int, rows: dict | None = None):
        self.dim = dim
        self.arity = arity
        self.rows = rows if rows is not None else {}
        self._load = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, dim: int, arity: int) -> "TensorOperator":
        rows = {}
        for idx in itertools.product(range(1, dim + 1), repeat=arity):
            rows[idx] = {idx: ONE}
        return cls(dim, arity, rows)

    @classmethod
    def from_entries(cls, dim: int, arity: int, entries: dict) -> "TensorOperator":
        """entries: {(row_tuple, col_tuple): Scalar}, zeros skipped."""
        rows: dict = {}
        for (r, c), v in entries.items():
            if not v.is_zero():
                rows.setdefault(r, {})[c] = v
        return cls(dim, arity, rows)

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim or self.arity != other.arity:
            raise ValueError("operator shape mismatch")

    def __add__(self, other):
        self._check(other)
        return TensorOperator(self.dim, self.arity,
                              mat_add(self.rows, other.rows))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, coeff: Scalar) -> "TensorOperator":
        return TensorOperator(self.dim, self.arity,
                              mat_map(self.rows, lambda v: coeff * v))

    def _loaded(self, w: int) -> Load:
        """The Load of rows at digit width w, read from rows on a miss."""
        if self._load is None or self._load.w != w:
            self._load = _load_matrix(self.rows.items(), w)
        return self._load

    def __mul__(self, other):
        """Composition self . other (apply other first).

        Both operands load at the widest width either has cached, at
        least _WIDTH; a product that could overflow its digits doubles
        the width and reloads both from their rows.
        """
        self._check(other)
        w = max((x._load.w for x in (self, other) if x._load is not None),
                default=_WIDTH)
        while True:
            try:
                rows = packed_mat_mul(self._loaded(w), other._loaded(w))
                break
            except _TooWide:
                w *= 2
        return TensorOperator(self.dim, self.arity, rows)

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return (self.dim, self.arity) == (other.dim, other.arity) and self.rows == other.rows

    def is_zero(self) -> bool:
        return not self.rows

    # -- tensor-structure operations -------------------------------------------

    def embed(self, arity: int, start: int) -> "TensorOperator":
        """Lift to a larger tensor power, acting on slots start..start+self.arity-1."""
        a = self.arity
        if start < 1 or start + a - 1 > arity:
            raise ValueError("embedding slots out of range")
        rows: dict = {}
        outer = arity - a
        for ext in itertools.product(range(1, self.dim + 1), repeat=outer):
            pre, post = ext[: start - 1], ext[start - 1:]
            for r, cs in self.rows.items():
                rr = pre + r + post
                rows[rr] = {pre + c + post: v for c, v in cs.items()}
        return TensorOperator(self.dim, arity, rows)

    def rtrace(self, slot: int, weights: list) -> "TensorOperator":
        """Weighted partial trace over one slot; weights[i-1] pairs with index i."""
        if not 1 <= slot <= self.arity:
            raise ValueError("slot out of range")
        return TensorOperator(self.dim, self.arity - 1,
                              partial_trace(self.rows, slot, weights,
                                            operator.mul))

    # -- linear-algebra views ----------------------------------------------------

    def rank(self) -> int:
        tri = Triangular()
        for v in self.rows.values():
            tri.insert(v)
        return len(tri)

    def substituted(self, value) -> "TensorOperator":
        """Every entry evaluated at parameter = value."""
        return TensorOperator(self.dim, self.arity,
                              mat_map(self.rows, lambda v: v.with_value(value)))

    def __repr__(self):
        return f"TensorOperator(dim={self.dim}, arity={self.arity}, nnz={sum(len(c) for c in self.rows.values())})"


class BraidingError(ValueError):
    """Raised when a claimed braiding fails its defining identities."""


class Braiding:
    """Hecke symmetry: braid relation plus R^2 = I + (q - q^-1) R.

    q is a Scalar in the braiding's coefficient field; for an involutive
    symmetry (the flip) q = 1 and the quadratic condition is R^2 = I.
    The inverse R - (q - q^-1) I comes for free from the quadratic relation.
    """

    def __init__(self, dim: int, q: Scalar, op: TensorOperator, name: str):
        self.dim = dim
        self.q = q
        self.param = q.param
        self.op = op
        self.name = name
        nu = q - q.inverse()
        self.nu = nu
        self.inv = op - TensorOperator.identity(dim, 2).scale(nu)
        self._verify()
        self.memo: dict = {}  # filled by memoized()

    def _verify(self):
        for name, residual in braiding_residuals(self).items():
            if not residual.is_zero():
                raise BraidingError(
                    f"{self.name}: {name.replace('-', ' ')} failed")

    def at(self, i: int, arity: int) -> TensorOperator:
        """R acting in slots (i, i+1) of the arity-fold tensor power."""
        return self.op.embed(arity, i)

    def inv_at(self, i: int, arity: int) -> TensorOperator:
        return self.inv.embed(arity, i)

    def identity(self, arity: int) -> TensorOperator:
        return TensorOperator.identity(self.dim, arity)

    def trace_form(self) -> "RTraceForm":
        return memoized(self, ("trace_form",), lambda: rtrace_form(self))

    def __copy__(self) -> "Braiding":
        """A shallow copy with its own, empty memo: a copy may be edited."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.memo = {}
        return out

    def substituted(self, value) -> "Braiding":
        """This braiding at parameter = value, without re-verifying it.

        q, nu, R and R^-1 are each evaluated, so a braiding whose inverse
        is wrong stays wrong at every point; it starts with an empty memo.
        """
        out = copy.copy(self)
        out.q = self.q.with_value(value)
        out.nu = self.nu.with_value(value)
        out.op = self.op.substituted(value)
        out.inv = self.inv.substituted(value)
        out.name = f"{self.name}@{value}"
        return out

    def __repr__(self):
        return f"Braiding({self.name}, dim={self.dim})"


def braiding_residuals(b: Braiding) -> dict:
    """The defining identities of b as residuals, by check id.

    braid-relation is R_1 R_2 R_1 - R_2 R_1 R_2 on V^3, hecke-condition
    R^2 - I - (q - q^-1) R and braiding-inverse R R^-1 - I on V^2; each
    is zero for a braiding.
    """
    r1, r2 = b.at(1, 3), b.at(2, 3)
    ident = b.identity(2)
    return {
        "braid-relation": r1 * r2 * r1 - r2 * r1 * r2,
        "hecke-condition": b.op * b.op - ident - b.op.scale(b.nu),
        "braiding-inverse": b.op * b.inv - ident,
    }


def memoized(braiding: Braiding, key: tuple, build):
    """braiding.memo[key], made by build() on the first call.

    The one home of every object derived from a braiding: each is built
    once and lives as long as the braiding.  key[0] names the kind of
    object.  Callers share the result and must not mutate it.
    """
    memo = braiding.memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


# One braiding per (dim, param) within a run, with its memo; emptied by
# suites.clear_caches().  A plain dict, not functools.cache: profilers may
# rebind standard_hecke to a wrapper without cache_clear.
_hecke_cache: dict = {}


def standard_hecke(dim: int, param: str = "q") -> Braiding:
    """The standard deformation of the flip on Q(q)^dim.

    Basis vectors x_i, images of x_i (x) x_j:
      i = j -> q * x_i (x) x_i
      i < j -> x_j (x) x_i
      i > j -> x_j (x) x_i + (q - q^-1) x_i (x) x_j

    Memoized: equal arguments return the same Braiding object.
    """
    cached = _hecke_cache.get((dim, param))
    if cached is None:
        cached = _hecke_cache[(dim, param)] = _build_standard_hecke(dim, param)
    return cached


def _build_standard_hecke(dim: int, param: str) -> Braiding:
    q = Scalar.var(param)
    nu_ = q - q.inverse()
    entries = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            if i == j:
                entries[((i, i), (i, i))] = q
            elif i < j:
                entries[((j, i), (i, j))] = ONE
            else:
                entries[((j, i), (i, j))] = ONE
                entries[((i, j), (i, j))] = nu_
    op = TensorOperator.from_entries(dim, 2, entries)
    return Braiding(dim, q, op, f"standard_hecke({dim})")


def flip(dim: int, param: str = "q") -> Braiding:
    """The plain permutation of tensor factors; involutive (q = 1)."""
    entries = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            entries[((j, i), (i, j))] = ONE
    op = TensorOperator.from_entries(dim, 2, entries)
    return Braiding(dim, Scalar.from_int(1, param), op, f"flip({dim})")


class RTraceForm:
    """Weighted trace data for a braiding: C = diag(q^(1-2i))."""

    def __init__(self, weights: list):
        self.weights = weights

    def dimension_value(self) -> Scalar:
        """Weighted trace of the identity on V: N_q / q^N."""
        return sum(self.weights, ZERO)


def rtrace_form(braiding: Braiding) -> RTraceForm:
    """Build and verify the weighted trace form for a braiding.

    Verifies, over the full matrix-unit basis of End(V), that the weighted
    partial trace in slot 2 of both conjugated copies R X1 R^-1 and
    R^-1 X1 R equals the weighted trace of X times the identity, and that
    the identity traces to N_q / q^N.
    """
    dim = braiding.dim
    q = braiding.q
    weights = [q ** (1 - 2 * i) for i in range(1, dim + 1)]
    form = RTraceForm(weights)

    expected_dim = sum((q ** (dim - 1 - 2 * j) for j in range(dim)),
                       ZERO) * q ** (-dim)
    if form.dimension_value() != expected_dim:
        raise BraidingError("weighted trace of identity is not N_q/q^N")

    ident1 = TensorOperator.identity(dim, 1)
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            x = TensorOperator.from_entries(dim, 1, {((a,), (b,)): ONE})
            x1 = x.embed(2, 1)
            over = braiding.op * x1 * braiding.inv
            under = braiding.inv * x1 * braiding.op
            # the weighted trace of the matrix unit x is w_a when a = b
            target = ident1.scale(weights[a - 1] if a == b else ZERO)
            if over.rtrace(2, weights) != target or \
                    under.rtrace(2, weights) != target:
                raise BraidingError("weighted trace form fails the copy-collapse property")
    return form
