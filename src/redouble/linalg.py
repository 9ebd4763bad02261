"""Sparse exact linear algebra over Scalar coefficients.

Vectors are dicts {key: Scalar} with no stored zeros; keys can be anything
hashable (index tuples, words).  Reduction picks the largest key under a
caller-supplied sort key as the leading entry, so the same machinery serves
operator rank computations and graded-lexicographic ideal reduction.

Sparse matrices are rows {row index: {col index: entry}}.  Their one
product, entrywise sum, entry map, weighted partial trace and
first-nonzero witness live here, shared by braidings.TensorOperator
(Scalar entries) and ncengine.MatrixOverAlgebra (algebra entries).

`Triangular` is the only elimination, and `coordinates` the only solve:
it writes a vector in the span of independent rows as their combination,
for the exchange rule of a double and for its slotwise action operators.

`Triangular` eliminates fraction-free over the Laurent ring Q[q, 1/q],
whose elements are the Scalars with a constant denominator.  Stored rows
and working vectors stay in that ring: a step against a pivot whose lead
is not a unit scales the working vector by the lead over its gcd with
the cleared coefficient (one small polynomial gcd per step, none per
entry), and remembers the scale.  Only `reduce` divides, once per
surviving entry, by the product of the scales.  Remainders modulo a
leading-reduced basis are unique, so that division yields exactly the
canonical Q(q) remainder that elimination over the field gives.  The
ring operations themselves (`scalars.laurent_*`) live beside the
canonical form they keep.
"""

from __future__ import annotations

from .scalars import ONE, Scalar, laurent_cancel, laurent_multiplier, \
    laurent_primitive


def accumulate(target: dict, key, value) -> None:
    """target[key] += value, storing no zero entry."""
    cur = target.get(key)
    if cur is None:
        if not value.is_zero():
            target[key] = value
    else:
        s = cur + value
        if s.is_zero():
            del target[key]
        else:
            target[key] = s


def vec_add_scaled(target: dict, src: dict, coeff: Scalar) -> None:
    """target += coeff * src, dropping entries that cancel to zero."""
    if coeff.is_zero():
        return
    # accumulate inlined: this is the inner loop of every elimination step
    for k, v in src.items():
        cur = target.get(k)
        if cur is None:
            target[k] = coeff * v
        else:
            s = cur + coeff * v
            if s.is_zero():
                del target[k]
            else:
                target[k] = s


# ---------------------------------------------------------------------------
# Sparse matrices: rows {row index: {col index: entry}}, with no stored zero
# entry and no empty row.  Entries are Scalars or algebra elements; each
# function uses only `+`, `is_zero` and the callables it is given.


def mat_mul(left: dict, right: dict, mul) -> dict:
    """Rows of left . right: out[r][c] = sum over k of mul(left[r][k], right[k][c]).

    mul keeps its arguments in factor order, so noncommuting entries and
    mixed ones (a scalar operator beside an algebra matrix, an action of
    one element on another) share this product.
    """
    out: dict = {}
    for r, cs in left.items():
        acc: dict = {}
        for k, v in cs.items():
            mid = right.get(k)
            if mid:
                for c, w in mid.items():
                    accumulate(acc, c, mul(v, w))
        if acc:
            out[r] = acc
    return out


def mat_add(left: dict, right: dict) -> dict:
    """Rows of the entrywise sum left + right."""
    out = {r: dict(cs) for r, cs in left.items()}
    for r, cs in right.items():
        row = out.setdefault(r, {})
        for c, v in cs.items():
            accumulate(row, c, v)
        if not row:
            del out[r]
    return out


def mat_map(rows: dict, fn) -> dict:
    """Rows of fn applied to every entry, dropping entries fn sends to zero."""
    out: dict = {}
    for r, cs in rows.items():
        row = {}
        for c, v in cs.items():
            w = fn(v)
            if not w.is_zero():
                row[c] = w
        if row:
            out[r] = row
    return out


def partial_trace(rows: dict, slot: int, weights: list, mul) -> dict:
    """Weighted trace over one tensor slot of multi-index rows and columns.

    out[r'][c'] = sum over i of mul(weights[i-1], rows[r][c]), where r and
    c carry index i at the 1-based slot and equal r' and c' elsewhere.
    """
    s = slot - 1
    out: dict = {}
    for r, cs in rows.items():
        b = r[s]
        w = weights[b - 1]
        row = out.setdefault(r[:s] + r[s + 1:], {})
        for c, v in cs.items():
            if c[s] == b:
                accumulate(row, c[:s] + c[s + 1:], mul(w, v))
    return {r: cs for r, cs in out.items() if cs}


def first_nonzero(rows: dict, reduce) -> tuple:
    """(True, None) when reduce takes every entry to zero.

    Otherwise (False, witness), the witness naming the first entry in
    sorted index order that does not vanish, with its residual.
    """
    for r in sorted(rows):
        cs = rows[r]
        for c in sorted(cs):
            residual = reduce(cs[c])
            if not residual.is_zero():
                return False, f"entry {r}->{c}: {residual}"
    return True, None


class Triangular:
    """Growable triangular basis over Q[q, 1/q].

    pivots[key] = (lead, rest): a row whose largest key is `key`, with
    coefficient `lead` there and the entries `rest` at smaller keys.  Each
    row is primitive (its numerators share no polynomial factor and no
    power of the parameter) and is known only up to a nonzero factor.
    Rows are kept leading-reduced (each row's keys other than its pivot are
    strictly smaller), which makes remainders unique without full
    inter-reduction.
    """

    def __init__(self, sortkey=None):
        self.sortkey = sortkey if sortkey is not None else (lambda k: k)
        self.pivots: dict = {}

    def __len__(self):
        return len(self.pivots)

    def _eliminate(self, vec: dict):
        """(r, den) with r / den the remainder of vec (vec consumed).

        r has constant denominators; den is a Laurent polynomial, or None
        for one.
        """
        den = laurent_multiplier(vec.values())
        if den is not None:
            for k, v in vec.items():
                vec[k] = den * v
        pivots = self.pivots
        sortkey = self.sortkey
        while True:
            hit = None
            hk = None
            for k in vec:
                if k in pivots:
                    sk = sortkey(k)
                    if hk is None or sk > hk:
                        hk = sk
                        hit = k
            if hit is None:
                return vec, den
            c = vec.pop(hit)
            lead, rest = pivots[hit]
            if len(lead.num) > 1:
                lead, c = laurent_cancel(lead, c)
            if len(lead.num) == 1:  # a unit of Q[q, 1/q]
                vec_add_scaled(vec, rest, -(c * lead.inverse()))
            else:  # vec := lead vec - c rest, and remember the scale
                for k, v in vec.items():
                    vec[k] = lead * v
                vec_add_scaled(vec, rest, -c)
                den = lead if den is None else den * lead
            if hit in vec:  # the step cancels the pivot key by construction
                raise AssertionError("reduction failed to clear pivot key")

    def reduce(self, vec: dict) -> dict:
        """Unique remainder of vec modulo the current row span (vec consumed)."""
        vec, den = self._eliminate(vec)
        if den is not None and vec:
            inv = den.inverse()
            for k, v in vec.items():
                vec[k] = v * inv
        return vec

    def insert(self, vec: dict):
        """Reduce vec and adjoin it if independent; returns its pivot or None."""
        vec, _ = self._eliminate(dict(vec))
        if not vec:
            return None
        vec = laurent_primitive(vec)
        lead = max(vec, key=self.sortkey)
        self.pivots[lead] = (vec.pop(lead), vec)
        return lead

    def row(self, pivot) -> dict:
        """The stored row with pivot `pivot`, as one vector."""
        lead, rest = self.pivots[pivot]
        out = dict(rest)
        out[pivot] = lead
        return out


class _Position:
    """Marker key of one row in `coordinates`: below every row key.

    Markers hash by identity and order among themselves by position.
    """

    __slots__ = ("i",)

    def __init__(self, i: int):
        self.i = i

    def __lt__(self, other):
        return type(other) is not _Position or self.i < other.i

    def __gt__(self, other):
        return type(other) is _Position and self.i > other.i


def coordinates(rows: list):
    """Coordinates with respect to linearly independent rows.

    Each row, augmented by a marker of its position, goes into one
    `Triangular`; markers sort below the row keys, which must be
    mutually comparable.  Raises ArithmeticError when the rows are
    dependent.  Returns coords(vec) -> {i: c_i} with vec = sum of
    c_i * rows[i]; coords raises ArithmeticError when vec lies outside
    the span of the rows.
    """
    tri = Triangular()
    for i, row in enumerate(rows):
        if type(tri.insert({**row, _Position(i): ONE})) is _Position:
            raise ArithmeticError("rows are linearly dependent")

    def coords(vec: dict) -> dict:
        # the remainder of vec is vec - sum of c_i * (rows[i] + marker i)
        out = {}
        for key, c in tri.reduce(dict(vec)).items():
            if type(key) is not _Position:
                raise ArithmeticError("vector outside the span of the rows")
            out[key.i] = -c
        return out

    return coords
