"""Quantum determinants and the shifted-product identity for M·D.

Over a deformed flip the top skew-symmetrizer A^(N) has rank one and
factors as |u><v| with <v|u> = 1; the structure tensors define the
determinants

    det_R M      = <v| M_1 M_over(2) ... M_over(N) |u>,
    det_Rinv D   = <v| D_over(N) ... D_over(2) D_1 |u>.

With the composite matrix Lhat = M·D (entrywise product of generator
matrices in the derivative double), the shifted products satisfy

    A^(k) Lhat_over(1) (Lhat_over(2) + q I) ...
        (Lhat_over(k) + q^(k-1) (k-1)_q I) A^(k)
    = q^(k(k-1)) A^(k) M_over(1) ... M_over(k) D_over(k) ... D_over(1),

verified here by two independent routes: entrywise bi-normal forms of
both sides, and both sides applied as operators to the bounded-degree
normal words through the counit action of the certified double.  Both
routes reduce one difference of the sides in one derivative double: the
capelli suite builds that pair once per parameter point and hands it to
the routes of its point, so neither route builds a double.  Taking the
full weighted trace at k = N relates the left product to
q^(-N) det_R M det_Rinv D; that trace and both determinants are traced
chains.
"""

from __future__ import annotations

import functools
import operator

from .anchors import anchor
from .braidings import Braiding, TensorOperator
from .doubles import (QuantumDouble, conjugated_copy, make_double,
                      matrix_copy, monomial_matrix)
from .heckerep import hecke_integer, skew_symmetrizer
from .ncengine import MatrixOverAlgebra, NCElement
from .reports import VerificationReport
from .scalars import ONE, Scalar


class StructureError(ArithmeticError):
    """Raised when an operator has no rank-1 factorization with unit pairing."""


class StructurePair:
    """Column tensor u and row tensor v with A = |u><v| and <v|u> = 1.

    The gauge freedom u -> c·u, v -> v/c is fixed by normalizing the
    first nonzero component of u to 1.
    """

    __slots__ = ("dim", "arity", "u", "v")

    def __init__(self, dim: int, arity: int, u: dict, v: dict):
        self.dim = dim
        self.arity = arity
        self.u = u
        self.v = v

    def pairing(self) -> Scalar:
        total = ONE - ONE
        for i, ui in self.u.items():
            vi = self.v.get(i)
            if vi is not None:
                total = total + vi * ui
        return total


def extract_uv(a: TensorOperator) -> StructurePair:
    """Factor a rank-1 idempotent into its structure tensors."""
    keys = sorted((r, c) for r, cs in a.rows.items()
                  for c, val in cs.items() if not val.is_zero())
    if not keys:
        raise StructureError("zero operator has no structure tensors")
    c0 = min(c for (_, c) in keys)
    column = {r: a.rows[r][c0] for (r, c) in keys if c == c0}
    rf = min(column)
    scale = column[rf].inverse()
    u = {r: val * scale for r, val in column.items()}
    v = {c: val for c, val in a.rows[rf].items() if not val.is_zero()}
    for (r, c) in keys:
        ur = u.get(r)
        vc = v.get(c)
        if ur is None or vc is None or a.rows[r][c] != ur * vc:
            raise StructureError("operator rank is not one")
    if len(keys) != len(u) * len(v):
        raise StructureError("operator rank is not one")
    pair = StructurePair(a.dim, a.arity, u, v)
    if pair.pairing() != ONE:
        raise StructureError("structure tensors do not pair to 1")
    return pair


def det_r(braiding: Braiding, tag: str, pair: StructurePair,
          reverse: bool = False) -> NCElement:
    """Sandwich <v| F_1 ... F_N |u> of the matrix copies.

    Forward order X_1 X_over(2) ... X_over(N); reversed factor order when
    reverse is set (the inverse-braiding determinant of the derivative
    side uses it).  The row vector v^T is multiplied through the copies
    and closed against the column u as a traced chain.
    """
    n = braiding.dim
    slots = range(n, 0, -1) if reverse else range(1, n + 1)
    row = MatrixOverAlgebra(n, 0, n, {(): {
        r: NCElement.constant(x) for r, x in pair.v.items()}})
    column = MatrixOverAlgebra(n, n, 0, {
        c: {(): NCElement.constant(x)} for c, x in pair.u.items()})
    factors = [matrix_copy(braiding, tag, i, "OVER", n) for i in slots]
    return row.traced_chain(factors + [column], [])


# ---------------------------------------------------------------------------
# The shifted-product identity


def shifted_factors(double: QuantumDouble, k: int) -> list:
    """Factors Lhat_over(1), Lhat_over(2) + q I, ... with Lhat = M·D."""
    b = double.braiding
    m1 = MatrixOverAlgebra.generator_matrix(double.b_tag, b.dim, k, 1)
    d1 = MatrixOverAlgebra.generator_matrix(double.a_tag, b.dim, k, 1)
    lhat1 = m1 * d1
    ident = MatrixOverAlgebra.identity(b.dim, k)
    return [conjugated_copy(b, lhat1, i) +
            ident.scale(b.q ** (i - 1) * hecke_integer(b, i - 1))
            for i in range(1, k + 1)]


def capelli_sides(double: QuantumDouble, k: int) -> tuple:
    """Both sides of the degree-k identity as matrices over the double."""
    b = double.braiding
    skew = skew_symmetrizer(b, k)
    lhs = functools.reduce(operator.mul, shifted_factors(double, k))
    lhs = lhs.lmul_op(skew).rmul_op(skew)
    rhs = monomial_matrix(b, double.b_tag, k)
    for i in range(k, 0, -1):
        rhs = rhs * matrix_copy(b, double.a_tag, i, "OVER", k)
    rhs = rhs.lmul_op(skew).scale(b.q ** (k * (k - 1)))
    return lhs, rhs


def capelli_difference(double: QuantumDouble, k: int) -> MatrixOverAlgebra:
    """lhs - rhs of capelli_sides(double, k) in the derivative double."""
    lhs, rhs = capelli_sides(double, k)
    return lhs - rhs


def verify_capelli(double: QuantumDouble, difference: MatrixOverAlgebra
                   ) -> VerificationReport:
    """Word route: bi-normal forms of both sides agree entrywise.

    difference is capelli_difference(double, k) of the derivative double.
    """
    report = VerificationReport("capelli")
    ok, witness = difference.first_nonzero(double.binormal_form)
    report.add("word-route", anchor("capelli-word-route"), ok, witness)
    return report


def verify_capelli_action(double: QuantumDouble,
                          difference: MatrixOverAlgebra,
                          degree: int = 2) -> VerificationReport:
    """Operator route: both sides act identically on bounded monomials.

    Applies every entry of difference, capelli_difference(double, k) of
    the derivative double, through the counit action of the double, to
    each normal word of length <= degree of the coordinate algebra, and
    compares the results modulo its relation ideal I.  These span every
    free word of that length modulo I (diamond lemma), and the double
    maps I into itself once its presentation is certified, which is
    checked first.
    """
    report = VerificationReport("capelli")
    double.presentation.ensure(3)
    targets = [w for d in range(degree + 1)
               for w in double.b_pres.normal_words(d)]
    ok = True
    witness = None
    # the action is linear in the acting element: act once by the difference
    entries = difference.entries
    keys = sorted(entries)
    images = double.act_each((entries[key] for key in keys),
                             [NCElement.word(w) for w in targets])
    for (r, c), row in zip(keys, images):
        for w, image in zip(targets, row):
            if not double.b_pres.reduces_to_zero(image):
                ok = False
                witness = f"entry {r}->{c} on {w!r}"
                break
        if not ok:
            break
    report.add("action-route", anchor("capelli-operator-route"), ok, witness)
    return report


def verify_det_capelli(braiding: Braiding) -> VerificationReport:
    """Traced identity: the k = N product against the determinant product.

    Full weighted trace of A^(N) times the shifted product equals
    q^(-N) det_R M det_Rinv D in the derivative double over the braiding.
    A failing check's witness is the bi-normal form of the difference.
    """
    n = braiding.dim
    report = VerificationReport("det-capelli")
    double = make_double(braiding, "derivative")
    skew = skew_symmetrizer(braiding, n)
    lhs = MatrixOverAlgebra.from_operator(skew).traced_chain(
        shifted_factors(double, n), braiding.trace_form().weights)
    pair = extract_uv(skew)
    det_m = det_r(braiding, double.b_tag, pair)
    det_d = det_r(braiding, double.a_tag, pair, reverse=True)
    rhs = (det_m * det_d).scale(braiding.q ** (-n))
    residual = double.binormal_form(lhs - rhs)
    ok = residual.is_zero()
    report.add("traced-identity", anchor("capelli-determinant"), ok,
               None if ok else repr(residual))
    return report
