"""Symmetric-group combinatorics and Hecke-algebra projectors on V^k.

Partitions are weakly decreasing tuples of positive ints; box contents are
col - row with 1-based coordinates, so the corner box has content 0 and a
single column has contents 0, -1, -2, ...

The braiding generators R_i acting in slots (i, i+1) represent the Hecke
algebra on V^k.  The Jucys-Murphy elements J_1 = I, J_i = R_{i-1} J_{i-1}
R_{i-1} commute, and their joint eigenvalues q^(2c) single out one standard
tableau per eigenspace, which gives the spectral construction of the
primitive idempotents used here: interpolate each J_i over the contents
that were admissible at step i.  Diagrams with more rows than dim V have
empty eigenspaces and produce the zero operator.

The Jucys-Murphy list, the skew-symmetrizers and the Young idempotents
live in the braiding's memo (braidings.memoized) and nowhere else: each
is built once per braiding and degree, and every projector of degree k
reads the one list of degree k.
"""

from __future__ import annotations

from fractions import Fraction

from .braidings import Braiding, TensorOperator, memoized
from .scalars import ONE, Scalar


# ---------------------------------------------------------------------------
# Partitions and standard tableaux


def is_partition(shape: tuple) -> bool:
    return all(isinstance(p, int) and p > 0 for p in shape) and \
        all(shape[i] >= shape[i + 1] for i in range(len(shape) - 1))


def partitions(k: int, max_len: int | None = None):
    """All partitions of k in descending lexicographic order."""
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        if max_len is not None and len(acc) >= max_len:
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(k, k, [])
    return out


def shape_label(shape: tuple) -> str:
    """The partition as report text: its parts joined by commas."""
    return ",".join(str(p) for p in shape)


def addable_corners(shape: tuple):
    """Positions (row, col), 1-based, where a box can be added."""
    corners = []
    for r in range(1, len(shape) + 1):
        if r == 1 or shape[r - 2] > shape[r - 1]:
            corners.append((r, shape[r - 1] + 1))
    corners.append((len(shape) + 1, 1))
    return corners


def content(row: int, col: int) -> int:
    return col - row


class StandardTableau:
    """Standard filling of a Young diagram; immutable."""

    __slots__ = ("shape", "position", "_hash")

    def __init__(self, shape: tuple, position: tuple):
        # position[i-1] = (row, col) of entry i, 1-based
        self.shape = shape
        self.position = position
        self._hash = None

    @property
    def size(self) -> int:
        return len(self.position)

    def content_of(self, i: int) -> int:
        r, c = self.position[i - 1]
        return content(r, c)

    def contents(self) -> tuple:
        return tuple(self.content_of(i) for i in range(1, self.size + 1))

    def prefix_shape(self, i: int) -> tuple:
        """Shape spanned by entries 1..i."""
        rows: dict = {}
        for j in range(i):
            r, _ = self.position[j]
            rows[r] = rows.get(r, 0) + 1
        return tuple(rows[r] for r in sorted(rows))

    def __eq__(self, other):
        return isinstance(other, StandardTableau) and self.position == other.position

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.position)
        return self._hash

    def __repr__(self):
        return f"StandardTableau(shape={self.shape}, contents={self.contents()})"


def standard_tableaux(shape: tuple) -> list:
    """All standard tableaux of the shape, in a fixed recursive order.

    Entries are placed 1, 2, ... k in order; at each step the candidate
    corners are taken by increasing row, which groups the result by the
    position of the last letter.
    """
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape!r}")
    k = sum(shape)
    out = []

    def rec(cur_shape, placed):
        if len(placed) == k:
            out.append(StandardTableau(shape, tuple(placed)))
            return
        for (r, c) in addable_corners(cur_shape):
            # stay inside the target diagram
            if r <= len(shape) and c <= shape[r - 1]:
                if r <= len(cur_shape):
                    nxt = tuple(x + 1 if idx == r - 1 else x for idx, x in enumerate(cur_shape))
                else:
                    nxt = cur_shape + (1,)
                placed.append((r, c))
                rec(nxt, placed)
                placed.pop()

    rec((), [])
    return out


def weyl_dimension(shape: tuple, dim: int) -> int:
    """Classical dimension of the GL(dim) module with highest weight shape."""
    lam = list(shape) + [0] * (dim - len(shape))
    if len(lam) > dim:
        return 0
    num = 1
    den = 1
    for i in range(dim):
        for j in range(i + 1, dim):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    d = Fraction(num, den)
    assert d.denominator == 1
    return int(d)


def content_sum_power(shape: tuple, q: Scalar) -> Scalar:
    """Sum over boxes of q^(-2 * content)."""
    total = ONE - ONE
    for r, rowlen in enumerate(shape, start=1):
        for c in range(1, rowlen + 1):
            total = total + q ** (-2 * content(r, c))
    return total


# ---------------------------------------------------------------------------
# Hecke-algebra operators


def hecke_integer(b: Braiding, k: int) -> Scalar:
    """k_q = q^(k-1) + q^(k-3) + ... + q^(1-k) in the braiding's field."""
    total = ONE - ONE
    for j in range(k):
        total = total + b.q ** (k - 1 - 2 * j)
    return total


def jucys_murphy(b: Braiding, k: int) -> list:
    """[J_1, ..., J_k] on V^k, memoized on the braiding."""
    return memoized(b, ("jucys_murphy", k),
                    lambda: _jucys_murphy_chain(b.at, b.dim, k))


def jucys_murphy_inverse(b: Braiding, k: int) -> list:
    """Inverses of the Jucys-Murphy elements, built from R^-1 directly."""
    return _jucys_murphy_chain(b.inv_at, b.dim, k)


def _jucys_murphy_chain(at, dim: int, k: int) -> list:
    """[J_1, ..., J_k] on V^k: J_1 = I, J_i = g J_(i-1) g, g = at(i-1, k)."""
    out = [TensorOperator.identity(dim, k)]
    for i in range(2, k + 1):
        r = at(i - 1, k)
        out.append(r * out[-1] * r)
    return out


def skew_symmetrizer(b: Braiding, k: int) -> TensorOperator:
    """Braided antisymmetrizer A^(k) on V^k.

    A^(1) = I and
    A^(k) = (1/k_q) A^(k-1) (q^(k-1) I - (k-1)_q R_{k-1}) A^(k-1)
    with the previous symmetrizer lifted to the first k-1 slots.
    Memoized on the braiding.
    """
    if k < 1:
        raise ValueError("k >= 1")
    return memoized(b, ("skew_symmetrizer", k),
                    lambda: _build_skew_symmetrizer(b, k))


def _build_skew_symmetrizer(b: Braiding, k: int) -> TensorOperator:
    cur = TensorOperator.identity(b.dim, 1)
    for m in range(2, k + 1):
        prev = cur.embed(m, 1)
        mid = TensorOperator.identity(b.dim, m).scale(b.q ** (m - 1)) - \
            b.at(m - 1, m).scale(hecke_integer(b, m - 1))
        cur = (prev * mid * prev).scale(hecke_integer(b, m).inverse())
    return cur


class IdempotentError(ArithmeticError):
    """Raised when a constructed projector fails to be idempotent."""


def young_idempotent(b: Braiding, tableau: StandardTableau) -> TensorOperator:
    """Primitive idempotent of the tableau via Jucys-Murphy interpolation.

    P = prod over i of prod over admissible contents c' != c(i) of
    (J_i - q^(2c') I) / (q^(2c(i)) - q^(2c')), where the admissible contents
    at step i are those of the corners addable to the shape spanned by
    entries 1..i-1.  Idempotency is verified; shapes with more rows than
    dim V come out as the zero operator.  Memoized on the braiding.
    """
    return memoized(b, ("young_idempotent", tableau),
                    lambda: _build_young_idempotent(b, tableau))


def _build_young_idempotent(b: Braiding, tableau: StandardTableau
                            ) -> TensorOperator:
    k = tableau.size
    q = b.q
    js = jucys_murphy(b, k)
    ident = TensorOperator.identity(b.dim, k)
    proj = ident
    for i in range(2, k + 1):
        ci = tableau.content_of(i)
        admissible = [content(r, c) for (r, c) in addable_corners(tableau.prefix_shape(i - 1))]
        for cp in admissible:
            if cp == ci:
                continue
            denom = q ** (2 * ci) - q ** (2 * cp)
            factor = (js[i - 1] - ident.scale(q ** (2 * cp))).scale(denom.inverse())
            proj = proj * factor
    if (proj * proj) != proj:
        raise IdempotentError(f"projector not idempotent for {tableau!r}")
    return proj
