"""Sparse exact linear algebra over Scalar coefficients.

Vectors are dicts {key: Scalar} with no stored zeros; keys can be anything
hashable (index tuples, words).  Reduction picks the largest key under a
caller-supplied sort key as the leading entry, so the same machinery serves
operator rank computations and graded-lexicographic ideal reduction.

Sparse matrices are rows {row index: {col index: entry}}.  Their
product, entrywise sum, entry map, weighted partial trace, traced
product (the one full trace: it forms only the diagonal of left . right)
and first-nonzero witness live here, shared by braidings.TensorOperator
(Scalar entries) and ncengine.MatrixOverAlgebra (algebra entries).  The
generic product `mat_mul` serves algebra entries and mixed products; two
Scalar operators compose on packed integers (`packed_mat_mul`).

`Triangular` is the only elimination, and `coordinates` the only solve:
it writes a vector in the span of independent rows as their combination,
for the exchange rule of a double and for its slotwise action operators.
A Triangular may also reduce against rows it never stores: its
`derive(key)` names a stored source row and a prefix and suffix, and an
elimination that meets the key steps on the source row with every key k
read as prefix + k + suffix.  So a quadratic presentation stores only its
relation rows and reduces against all their re-keyed copies u·row·v.

`Triangular` eliminates fraction-free over the Laurent ring Z[q, 1/q].
Its stored rows and working vector are packed integers (Kronecker
substitution): a vector is q^frame times integer polynomials, and a
polynomial sum of c_i·q^i is the one integer sum of c_i·2^(w·i), with
signed digits and one digit width w per Triangular, 64 bits to start.
A product of polynomials is then one integer product, and a step costs
a few big-integer multiplies, shifts and adds per entry.  A step against
a pivot whose lead is q^k reads no digit: the cleared coefficient stays
one packed integer.  A step against any other lead unpacks the
coefficient, scales the working vector by the lead over its gcd with it
(one small polynomial gcd per step, none per entry), and remembers the
scale.

This module is the one owner of the packed format.  Three users run on
it: `Triangular`, the counit action of a double (`doubles._PackedAction`)
and the operator product `packed_mat_mul`, which forms every entry of
the product of two loads as one integer multiply-accumulate and returns
Scalar rows.  Every packed vector passed between functions is a `Load`,
which carries its digit width, parameter, frame, own denominator and
bound; only the parts of a sum and Triangular's stored rows are plain
tuples.  Scalars are packed by one loader, `_pack_vector`, and matrices
through its row form `_load_matrix` (an operator caches its load,
braidings.TensorOperator); it checks the parameter, clears
non-constant denominators by `scalars.laurent_multiplier` and integer
ones by their lcm, packs, and bounds the result.  Packed vectors are
summed by one function, `_combine`, which lifts its parts to the lcm of
their denominators and lines up their frames.  `Triangular` has one
elimination and two entries to it: a dict of Scalars, which it packs,
and a Load, which it repacks if its width differs.  So the packed
remainders of a presentation become the word table of a double's
action-operator solve (`_one_denominator` brings them to one
denominator), and that solve's rows and targets go into `coordinates`
as Loads.  Scalars leave through one conversion, `_unpack_vector`,
which divides by a Load's denominator: `reduce` unpacks the remainder
over the scale its elimination remembered, and `row` a stored row.
Remainders modulo a leading-reduced basis are unique, so that division
yields exactly the canonical Q(q) remainder that elimination over the
field gives.

Digits stay exact while the absolute coefficients of every polynomial
sum to at most 2^(w-2).  Every packed vector carries a bound b on those
sums, its `_bits`: a product adds the bounds of its factors and a sum
of n terms adds _spread(n) (one, in an elimination step).  A bound that
could pass w - 2 raises _TooWide, the one overflow signal; the owner of
the digits widens them and restarts.  In `Triangular` every entry of the
working vector carries its own bound, which only the steps that touch
the entry raise, and a non-unit lead raises all of them at once through
a running offset.  When one could pass w - 2, the bounds are first
recomputed from the digits; if one is still too large, w doubles, the
stored rows are repacked, and the elimination restarts from its input.
"""

from __future__ import annotations

import collections
import math
from bisect import insort
from typing import NamedTuple

from .scalars import (ONE, MixedParameterError, Scalar, _pcontent,
                      _pdivexact, _pdivexact_int, _pgcd, _pmul,
                      laurent_multiplier)


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
# function uses only `+`, `is_zero`, `scale` and the callables it is given.


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


def traced(left: dict, right: dict, weights: list, mul, zero):
    """Weighted trace of left . right, reading only the entries it sums.

    zero + sum over r of w(r) * sum over k of mul(left[r][k], right[k][r]),
    with w(r) the product of weights[i-1] over the indices i of r, w(()) = 1,
    and applied by `scale`.  Only the diagonal of left . right is formed.
    """
    total = zero
    for r, cs in left.items():
        acc = zero
        for k, v in cs.items():
            x = right.get(k, {}).get(r)
            if x is not None:
                acc = acc + mul(v, x)
        if not acc.is_zero():
            w = math.prod((weights[i - 1] for i in r), start=ONE)
            total = total + acc.scale(w)
    return total


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


# Digit width, in bits, of a new Triangular or action kernel.
_WIDTH = 64


class _TooWide(Exception):
    """A packed coefficient could outgrow the digit width.

    Raised by the loads and sums below and by Triangular's elimination;
    the owner of the digits widens them and starts the call again.
    """


def _pack(poly, w: int) -> int:
    """The packed integer sum of poly[i]·2^(w·i) of an integer polynomial."""
    p = 0
    for c in reversed(poly):
        p = (p << w) + c
    return p


def _unpack(p: int, w: int) -> tuple:
    """The coefficients of a packed polynomial, lowest degree first.

    Each digit is read in [-2^(w-1), 2^(w-1)), so every polynomial whose
    coefficients lie in that range comes back exactly.
    """
    out = []
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    while p:
        d = p & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        p = (p - d) >> w
    return tuple(out)


def _bits(poly: tuple) -> int:
    """The least b with the absolute coefficients of poly summing to <= 2^b."""
    return (sum(map(abs, poly)) - 1).bit_length()


def _spread(n: int) -> int:
    """Bits by which a sum of n terms can exceed its largest term."""
    return (n - 1).bit_length()


class Load(NamedTuple):
    """A packed vector q^frame · packed / den at digit width w.

    packed maps keys to packed integer polynomials, den is an integer
    polynomial with a nonzero constant term, and bound is at least the
    `_bits` of every packed polynomial and at most w - 2.  param is the
    vector's parameter, or None while it holds only rational constants.
    """

    w: int
    param: str | None
    frame: int
    packed: dict
    den: tuple
    bound: int

    def at(self, w: int) -> "Load":
        """The same vector at digit width w (bound must fit w - 2)."""
        if w == self.w:
            return self
        return self._replace(w=w, packed={
            k: _pack(_unpack(p, self.w), w) for k, p in self.packed.items()})


def _pack_vector(vec: dict, w: int, param) -> Load:
    """The Load of a dict of Scalars at digit width w.

    den is an integer polynomial with a nonzero constant term, and bound
    is the largest `_bits` of a packed polynomial.  Zero entries are
    dropped; vec itself is left unchanged.  param is the given one, or
    else the parameter of the first value that is not a rational
    constant (a constant's parameter is a label); a value with another
    parameter raises MixedParameterError.  Raises _TooWide when
    bound > w - 2.
    """
    for v in vec.values():
        if v.param != param and not v._parameter_free():
            if param is not None:
                raise MixedParameterError(f"{param!r} vs {v.param!r}")
            param = v.param
    mult = laurent_multiplier(vec.values())
    # each value as q^shift · num / d, d an integer: mult clears the
    # primitive part p of a denominator c·p, v = q^shift·num·(mult/p)/(c·mult),
    # one exact division per distinct denominator and no gcd (a canonical
    # num shares no factor with c·p)
    cleared = []
    if mult is None:
        for k, v in vec.items():
            if v.num:
                cleared.append((k, v.shift, v.num, v.den[0]))
    else:
        mult = mult.num
        cofactors: dict = {}
        for k, v in vec.items():
            if v.num:
                cof = cofactors.get(v.den)
                if cof is None:
                    c = _pcontent(v.den)
                    cof = cofactors[v.den] = (
                        _pdivexact(mult, _pdivexact_int(v.den, c)), c)
                cleared.append((k, v.shift, _pmul(v.num, cof[0]), cof[1]))
    scale = math.lcm(*(d for *_, d in cleared))
    frame = min((shift for _, shift, _, _ in cleared), default=0)
    packed = {}
    bound = 0
    for k, shift, num, d in cleared:
        f = scale // d
        if f != 1:
            num = tuple(c * f for c in num)
        bound = max(bound, _bits(num))
        packed[k] = _pack(num, w) << (w * (shift - frame))
    if bound > w - 2:
        raise _TooWide
    den = (scale,) if mult is None else tuple(c * scale for c in mult)
    return Load(w, param, frame, packed, den, bound)


def _lcm(a: tuple, b: tuple) -> tuple:
    """A common multiple of the nonzero integer polynomials a and b.

    It is the lcm of their contents times the lcm of their primitive
    parts, so two constants give their integer lcm.
    """
    if a == b or b == (1,):
        return a
    if a == (1,):
        return b
    if len(a) == 1 and len(b) == 1:
        return (math.lcm(a[0], b[0]),)
    ca, cb = _pcontent(a), _pcontent(b)
    pa, pb = _pdivexact_int(a, ca), _pdivexact_int(b, cb)
    return tuple(math.lcm(ca, cb) * x
                 for x in _pmul(pa, _pdivexact(pb, _pgcd(pa, pb))))


def _den_product(a: tuple, b: tuple) -> tuple:
    """The product of the integer polynomials a and b, free when one is 1."""
    if b == (1,):
        return a
    return b if a == (1,) else _pmul(a, b)


def _shared_factor(den: tuple, polys) -> tuple:
    """The gcd in Z[q] of the integer polynomial den and every poly."""
    c = _pcontent(den)
    g = den if len(den) > 1 else (1,)
    for t in polys:
        if c != 1:
            c = math.gcd(c, _pcontent(t))
        if g != (1,):
            g = _pgcd(g, t)
        if c == 1 and g == (1,):
            break
    return g if c == 1 else tuple(c * x for x in g)


def _one_denominator(loads: dict, w: int) -> dict:
    """{key: m · loads[key]}, each a Load at digit width w over 1.

    m is one integer polynomial for every load: the `_lcm` of their
    denominators, each first divided by the factor it shares with all
    its load's coefficients, so m is 1 when every load is a Laurent
    polynomial and the lcm of the canonical denominators when they are
    constants.  Each Load is `_reframed`, so its bound is read from the
    digits.  Zero loads are left out.  Raises _TooWide when a bound
    passes w - 2.
    """
    reduced = []
    m = (1,)
    for key, load in loads.items():
        if not load.packed:
            continue
        if load.den != (1,):
            polys = {k: _unpack(p, load.w) for k, p in load.packed.items()}
            g = _shared_factor(load.den, polys.values())
            if g != (1,):
                load = load._replace(
                    packed={k: _pack(_pdivexact(t, g), load.w)
                            for k, t in polys.items()},
                    den=_pdivexact(load.den, g))
        reduced.append((key, load))
        m = _lcm(m, load.den)
    out = {}
    for key, load in reduced:
        cof = _pdivexact(m, load.den)
        vec = load.packed
        if load.w == w and load.bound + _bits(cof) <= w - 2:
            if cof != (1,):
                c = _pack(cof, w)
                vec = {k: p * c for k, p in vec.items()}
        else:
            polys = {k: _pmul(_unpack(p, load.w), cof)
                     for k, p in vec.items()}
            if max(map(_bits, polys.values())) > w - 2:
                raise _TooWide
            vec = {k: _pack(t, w) for k, t in polys.items()}
        out[key] = _reframed(Load(w, load.param, load.frame, vec, (1,), 0))
    return out


def _unpack_vector(load: Load) -> dict:
    """The Scalars of a Load, in its parameter or else q."""
    w, param, frame, packed, den, _ = load
    param = param or "q"
    return {k: Scalar._make(param, frame, _unpack(p, w), den)
            for k, p in packed.items()}


def _reframed(load: Load) -> Load:
    """load with no zero low digit common to its entries, bound exact.

    The low digits that are zero in every entry of the nonempty load go
    into its frame, and its bound is read from the digits.
    """
    w, _, frame, vec, _, _ = load
    low = min(((p & -p).bit_length() - 1) // w for p in vec.values())
    if low:
        vec = {k: p >> (w * low) for k, p in vec.items()}
    return load._replace(
        frame=frame + low, packed=vec,
        bound=max(_bits(_unpack(p, w)) for p in vec.values()))


def _combine(parts: list, w: int, param) -> Load:
    """The Load of the sum of m · q^frame / den · vec over parts.

    parts are flat tuples (m, m_bound, frame, den, vec, vec_bound): m a
    packed polynomial, den an integer polynomial and vec a packed vector,
    m and vec each with its bound.  Each part is lifted to the `_lcm` of
    the parts' den by its cofactor, which adds the cofactor's `_bits` to
    its bound, and the frames are lined up at the lowest.  A product's
    bound is the sum of its factors' bounds, and a sum adds _spread(n),
    n the most parts that meet at one key; n is counted only when
    len(parts) does not fit, so parts on disjoint keys add nothing.
    Raises _TooWide when the bound passes w - 2.  No parts give the empty
    Load over 1.
    """
    if not parts:
        return Load(w, param, 0, {}, (1,), 0)
    den = parts[0][3]
    frame = parts[0][2]
    for part in parts:
        if part[3] != den:
            den = _lcm(den, part[3])
        if part[2] < frame:
            frame = part[2]
    # the packed sums are exact whatever the bound, which is checked last
    out: dict = {}
    high = 0
    for m, mb, fr, d, vec, vb in parts:
        b = mb + vb
        if d != den:
            cof = _pdivexact(den, d)
            m *= _pack(cof, w)
            b += _bits(cof)
        if fr != frame:
            m <<= w * (fr - frame)
        if b > high:
            high = b
        if m != 1:
            for k, p in vec.items():
                cur = out.get(k)
                out[k] = m * p if cur is None else cur + m * p
        elif len(parts) == 1:
            out = vec  # the one part as it is
        else:  # the digits of vec, shared and not copied
            for k, p in vec.items():
                cur = out.get(k)
                out[k] = p if cur is None else cur + p
    bound = high + _spread(len(parts))
    if bound > w - 2:
        meets = collections.Counter(k for part in parts for k in part[4])
        bound = high + _spread(max(meets.values(), default=1))
        if bound > w - 2:
            raise _TooWide
    if 0 in out.values():
        out = {k: p for k, p in out.items() if p}
    return Load(w, param, frame, out, den, bound)


def _load_matrix(rows, w: int, param=None) -> Load:
    """The Load of Scalar rows, its packed entries grouped by row.

    rows yields (row index, {col index: Scalar}) pairs, as the items of
    sparse rows do, and is read once, so a caller can make each row as
    it is read.  packed maps each row index to {col index: packed
    polynomial}, read by _pack_vector over the (row, col) entries with
    the given param; rows without entries are left out.  Raises _TooWide
    and MixedParameterError as _pack_vector does.
    """
    load = _pack_vector({(r, c): v for r, cs in rows for c, v in cs.items()},
                        w, param)
    prows: dict = {}
    for (r, c), p in load.packed.items():
        prows.setdefault(r, {})[c] = p
    return load._replace(packed=prows)


def packed_mat_mul(left: Load, right: Load) -> dict:
    """mat_mul(left rows, right rows, operator.mul) from two Loads.

    left and right are `_load_matrix` Loads at one digit width w; the
    product is the rows of Scalars.  Every output entry is one integer
    multiply-accumulate, bounded by the factors' bounds plus _spread of
    the longest left row, and every output row leaves through one
    _unpack_vector.  Raises _TooWide when that bound passes w - 2 (the
    caller widens and reloads both operands) and MixedParameterError for
    operands in two parameters.
    """
    w, lp, lf, lrows, ld, lb = left
    _, rp, rf, rrows, rd, rb = right
    if lp and rp and lp != rp:
        raise MixedParameterError(f"{lp!r} vs {rp!r}")
    bound = lb + rb + _spread(max(map(len, lrows.values()), default=1))
    if bound > w - 2:
        raise _TooWide
    param = lp or rp
    frame = lf + rf
    den = _pmul(ld, rd)
    rows: dict = {}
    for r, cs in lrows.items():
        acc: dict = {}
        for k, a in cs.items():
            mid = rrows.get(k)
            if mid:
                for c, b in mid.items():
                    cur = acc.get(c)
                    acc[c] = a * b if cur is None else cur + a * b
        acc = {c: p for c, p in acc.items() if p}
        if acc:
            rows[r] = _unpack_vector(Load(w, param, frame, acc, den, bound))
    return rows


class Triangular:
    """Growable triangular basis of rows over Z[q, 1/q], packed as integers.

    pivots[key] = (rest, bound, shift, lead, content): the stored row with
    pivot `key`, known only up to a nonzero factor.  Its entries are
    integer polynomials: `rest` maps each smaller key to its packed
    polynomial, and the pivot entry is q^shift · lead, where lead is a
    coefficient tuple with a nonzero constant term and a positive leading
    coefficient, and `content` is its integer content.  The row is
    primitive: its
    coefficients share no integer factor, its polynomials no polynomial
    factor and no power of the parameter.  `bound` is the largest exact
    `_bits` of its polynomials.  Rows are kept leading-reduced (each row's
    keys other than its pivot are strictly smaller), which makes
    remainders unique without full inter-reduction; sortkey must order
    distinct keys strictly.  An elimination (`_eliminate`) bounds each
    entry of its working vector apart, so a step against a row whose lead
    is 1 reads no digit.

    `insert`, `reduce` and `remainder` take a dict of Scalars or a Load.
    `param` is the parameter of the first entry that is not a rational
    constant, or of the first Load that names one; an entry or a Load
    with another parameter raises MixedParameterError.  Remainders and
    rows carry `param`, or q while every entry seen was a constant (a
    constant's label does not matter).

    `derive`, if given, names rows that are never stored.  derive(key)
    gives None or (source, prefix, suffix), with source a stored pivot
    and key = prefix + source + suffix; the row with pivot key is then
    the source row with each key k read as prefix + k + suffix.  That
    map must be strictly monotone under sortkey (graded-lex on words
    is), so the derived row is leading-reduced and primitive like its
    source, and derive must answer the same for a key on every call.  A
    stored pivot is never asked.  An elimination asks derive once per
    key it meets that is no stored pivot, and maps the source's keys as
    it steps on it, so `pivots` holds only the inserted rows and a
    derived row costs no memory between reductions.
    """

    def __init__(self, sortkey=None, derive=None):
        self.sortkey = sortkey if sortkey is not None else (lambda k: k)
        self.derive = derive
        self.pivots: dict = {}
        self.param = None
        self._width = _WIDTH

    def __len__(self):
        return len(self.pivots)

    def _load(self, vec) -> Load:
        """vec as a Load at this Triangular's width, in a new dict.

        vec is a dict of Scalars, which _pack_vector packs, or a Load,
        which is repacked when its width differs.  Either way the
        Triangular takes the parameter of vec (see the class).  Raises
        _TooWide when the bound passes w - 2.
        """
        w = self._width
        if type(vec) is not Load:
            load = _pack_vector(vec, w, self.param)
            self.param = load.param
            return load
        if vec.param is not None and vec.param != self.param:
            if self.param is not None:
                raise MixedParameterError(f"{self.param!r} vs {vec.param!r}")
            self.param = vec.param
        if vec.bound > w - 2:
            raise _TooWide
        vec = vec.at(w)
        return vec._replace(packed=dict(vec.packed))

    def _eliminate(self, load: Load) -> Load:
        """The remainder of load, as a Load at this width and parameter.

        The elimination works on the packed dict of load in place; its
        entries start bounded by the load's bound, base.  The remainder's
        den is the load's times the leads it scales by.  Each entry of the
        working vector carries its own bound, base until a step touches it: a
        step adds c times the row, whose bound is the cleared coefficient
        c's plus the row's, and one more when the entry was already
        there.  A step against a pivot whose lead is 1 reads no digit: c
        stays packed, its low zero digits are counted from its lowest set
        bit, and its bound is the entry's.  Other leads take the gcd
        path, which unpacks c and scales every entry by the lead; a
        running offset adds the lead's bound to every entry's at once.
        A derived pivot (see the class) is a step on its source row with
        the keys mapped.  When a bound could pass w - 2, all are read from
        the digits once; raises _TooWide when one is still too large.
        """
        w, _, frame, vec, den, base = load
        limit = w - 2
        pivots = self.pivots
        sortkey = self.sortkey
        derive = self.derive
        # derive(k) of each key that is no stored pivot, asked once
        derived: dict = {}
        # the pivot keys of vec (stored or derived) by sortkey, ascending;
        # a key that cancelled stays until it is popped
        todo = []
        for k in vec:
            if k in pivots:
                todo.append((sortkey(k), k))
            elif derive is not None:
                if (found := derive(k)) is not None:
                    todo.append((sortkey(k), k))
                derived[k] = found
        todo.sort()
        # bounds[k] + off bounds the `_bits` of entry k, base + off one
        # that no step touched yet; top bounds every entry
        bounds: dict = {}
        off = 0
        top = base
        while True:
            while todo:
                hit = todo.pop()[1]
                if hit in vec:
                    break
            else:
                return Load(w, self.param, frame, vec, den, top)
            cp = vec.pop(hit)
            own = bounds.pop(hit, base) + off
            row = pivots.get(hit)
            if row is None:  # prefix + source + suffix: read the source
                source, prefix, suffix = derived[hit]
                row = pivots[source]
            else:
                prefix = None
            rest, rbound, lshift, lead, lcont = row
            if lead == (1,):
                tz = ((cp & -cp).bit_length() - 1) // w
                if tz:
                    cp >>= w * tz
                unit = True
                grow = 0
                step = own + rbound
            else:
                c = _unpack(cp, w)
                tz = 0
                while not c[tz]:
                    tz += 1
                if tz:
                    c = c[tz:]
                # vec := lead' vec - c' q^(tz - lshift) rest, where lead'
                # and c' are lead and c over their gcd in Z[q]
                if len(lead) > 1:
                    g = _pgcd(lead, c)
                    if g != (1,):
                        lead = _pdivexact(lead, g)
                        c = _pdivexact(c, g)
                if lcont != 1:
                    g = math.gcd(lcont, *c)
                    if g != 1:
                        lead = tuple(x // g for x in lead)
                        c = tuple(x // g for x in c)
                cp = _pack(c, w)
                unit = lead == (1,)
                grow = 0 if unit else _bits(lead)
                step = _bits(c) + rbound
            hi = max(top + grow, step)
            if hi >= limit:
                # the tracked bounds may be loose: take them from the digits
                bounds = {k: _bits(_unpack(p, w)) for k, p in vec.items()}
                off = 0
                top = max(bounds.values(), default=0)
                step = _bits(_unpack(cp, w)) + rbound
                hi = max(top + grow, step)
                if hi >= limit:
                    raise _TooWide
            off += grow
            sb = step - off
            hi -= off
            e = tz - lshift
            m = 1 if unit else _pack(lead, w)
            if e < 0:  # lower the frame so that rest lines up with vec
                m <<= w * -e
                frame += e
                e = 0
            if m != 1:
                vec = {k: p * m for k, p in vec.items()}
            if not unit:
                den = _pmul(den, lead)
            nc = -(cp << (w * e))
            if prefix is None:
                terms = rest.items()
            else:
                terms = [(prefix + k + suffix, r) for k, r in rest.items()]
            for k, r in terms:
                cur = vec.get(k)
                if cur is None:
                    vec[k] = nc * r
                    bounds[k] = sb
                    if k in pivots:
                        insort(todo, (sortkey(k), k))
                    elif derive is not None:
                        # derived itself marks a key not asked yet
                        found = derived.get(k, derived)
                        if found is derived:
                            found = derived[k] = derive(k)
                        if found is not None:
                            insort(todo, (sortkey(k), k))
                else:
                    s = cur + nc * r
                    if s:
                        vec[k] = s
                        b = bounds.get(k, base)
                        b = (b if b > sb else sb) + 1
                        bounds[k] = b
                        if b > hi:
                            hi = b
                    else:
                        del vec[k]
            top = hi + off
            if hit in vec:  # the step cancels the pivot key by construction
                raise AssertionError("reduction failed to clear pivot key")

    def remainder(self, vec) -> Load:
        """The unique remainder of vec as a Load, widening until it fits."""
        while True:
            try:
                return self._eliminate(self._load(vec))
            except _TooWide:
                self._widen()

    def _widen(self):
        """Double the digit width and repack the stored rows."""
        w = self._width
        self._width = wide = 2 * w
        for key, (rest, *tail) in self.pivots.items():
            self.pivots[key] = (
                {k: _pack(_unpack(p, w), wide) for k, p in rest.items()},
                *tail)

    def reduce(self, vec) -> dict:
        """Unique remainder of vec modulo the current row span, as Scalars."""
        return _unpack_vector(self.remainder(vec))

    def insert(self, vec):
        """Reduce vec and adjoin it if independent; returns its pivot or None."""
        vec = self.remainder(vec).packed
        if not vec:
            return None
        w = self._width
        polys = {k: _unpack(p, w) for k, p in vec.items()}
        low = min(next(i for i, x in enumerate(t) if x)
                  for t in polys.values())
        if low:
            polys = {k: t[low:] for k, t in polys.items()}
        # the polynomials share no factor when one of them is a monomial,
        # since some entry has a nonzero constant term
        g = (1,) if any(t.count(0) == len(t) - 1 for t in polys.values()) \
            else ()
        for t in polys.values():
            if g == (1,):
                break
            g = _pgcd(g, t)
        if g != (1,):
            polys = {k: _pdivexact(t, g) for k, t in polys.items()}
        pivot = max(polys, key=self.sortkey)
        content = 0
        for t in polys.values():
            content = math.gcd(content, *t)
            if content == 1:
                break
        if polys[pivot][-1] < 0:
            content = -content
        if content != 1:
            polys = {k: tuple(x // content for x in t)
                     for k, t in polys.items()}
        bound = max(_bits(t) for t in polys.values())
        while bound > self._width - 2:
            self._widen()
        w = self._width
        lead = polys.pop(pivot)
        shift = 0
        while not lead[shift]:
            shift += 1
        lead = lead[shift:]
        self.pivots[pivot] = ({k: _pack(t, w) for k, t in polys.items()},
                              bound, shift, lead, _pcontent(lead))
        return pivot

    def row(self, pivot) -> dict:
        """The stored row with pivot `pivot`, as one vector."""
        rest, bound, shift, lead, _ = self.pivots[pivot]
        out = _unpack_vector(
            Load(self._width, self.param, 0, rest, (1,), bound))
        out[pivot] = Scalar(self.param or "q", shift, lead, (1,))
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


def _marked(row, marker):
    """row plus marker · 1, for a row of Scalars or a Load.

    A loaded row q^frame · packed / den gets marker · den at the lowest
    frame of the two, so the vector is den · (row + marker) up to a power
    of the parameter; the digits widen first if den does not fit them.
    """
    if type(row) is not Load:
        return {**row, marker: ONE}
    w, _, frame, packed, den, bound = row
    bound = max(bound, _bits(den))
    while bound > w - 2:
        w *= 2
    row = row.at(w)
    low = min(frame, 0)
    if frame != low:
        packed = {k: p << (w * (frame - low)) for k, p in row.packed.items()}
    else:
        packed = dict(row.packed)
    packed[marker] = _pack(den, w) << (w * -low)
    return row._replace(frame=low, packed=packed, bound=bound)


def coordinates(rows):
    """Coordinates with respect to linearly independent rows.

    rows is any iterable, read once, of dicts of Scalars or Loads.  Each
    row, augmented by a marker of its position, goes into one
    `Triangular`; markers sort below the row keys, which must be mutually
    comparable.  A loaded row's marker carries that row's own
    denominator, so the coordinates are those of the rows' values,
    whatever their denominators.  Raises ArithmeticError when the rows are
    dependent.  Returns coords(vec) -> {i: c_i} with vec = sum of
    c_i * rows[i], for vec a dict of Scalars or a Load, with Scalars made
    only for the coordinates; coords raises ArithmeticError when vec lies
    outside the span of the rows.
    """
    tri = Triangular()
    for i, row in enumerate(rows):
        if type(tri.insert(_marked(row, _Position(i)))) is _Position:
            raise ArithmeticError("rows are linearly dependent")

    def coords(vec) -> dict:
        # the remainder of vec is vec - sum of c_i * (rows[i] + marker i)
        out = {}
        for key, c in tri.reduce(vec).items():
            if type(key) is not _Position:
                raise ArithmeticError("vector outside the span of the rows")
            out[key.i] = -c
        return out

    return coords
