"""Central elements of reflection-equation algebras and their spectra.

The weighted-trace power sums Tr_R(X^k) and the braided elementary
symmetric polynomials e_k = Tr_R(1..k)(A^(k) X_1 X_over(2) ... X_over(k))
are central in the quotient algebra.  Both are traced chains, which
form only the rows and the diagonal the trace reads.  The generating
matrix satisfies the characteristic identity

    X^N - q e_1 X^(N-1) + q^2 e_2 X^(N-2) + ... + (-q)^N e_N I = 0,

whose entries this module materializes and reduces.  On the irreducible
module labeled by a partition, every central element acts by a scalar;
those scalars are packaged in SpectralCharacter, derived from the
eigenvalue values mu_i = q^(-2(lam_i + N - i)).  Two verification routes
confirm the scalars: a pure operator route (the partial weighted trace of
the inverse Jucys-Murphy element, restricted to a tableau projector) and
an action route (the operator extracted from the element acting inside
the invariant-fields double).
"""

from __future__ import annotations

import itertools

from .anchors import anchor
from .braidings import Braiding, TensorOperator, memoized
from .doubles import QuantumDouble, action_operator, matrix_copy
from .heckerep import (
    content_sum_power,
    hecke_integer,
    jucys_murphy_inverse,
    partitions,
    shape_label,
    skew_symmetrizer,
    standard_tableaux,
    young_idempotent,
)
from .ncengine import (
    MatrixOverAlgebra,
    NCElement,
    re_presentation,
)
from .reports import VerificationReport
from .scalars import ONE, ZERO, Scalar


# ---------------------------------------------------------------------------
# Central elements


def power_sum(braiding: Braiding, tag: str, k: int) -> NCElement:
    """Weighted trace of the k-th power of the generating matrix."""
    assert k >= 1
    x = MatrixOverAlgebra.generator_matrix(tag, braiding.dim, 1, 1)
    return MatrixOverAlgebra.identity(braiding.dim, 1).traced_chain(
        [x] * k, braiding.trace_form().weights)


def elementary_symmetric(braiding: Braiding, tag: str, k: int) -> NCElement:
    """Full weighted trace of A^(k) times the product of the matrix copies.

    Degree-k element, central in the quotient; k = 1 is the weighted trace
    itself, and every k above the dimension gives 0 (the skew-symmetrizer
    vanishes there).  The chain A^(k) X_1 ... X_over(k-1) has only the
    k!·C(N, k) rows of A^(k); it is traced against X_over(k).  It starts
    from [k]_q!·A^(k), whose entries are Laurent polynomials, so no
    product along the chain divides polynomials; the traced element is
    divided by [k]_q! once.
    """
    assert k >= 1
    copies = [matrix_copy(braiding, tag, i, "OVER", k)
              for i in range(1, k + 1)]
    factorial = ONE
    for m in range(2, k + 1):
        factorial = factorial * hecke_integer(braiding, m)
    skew = MatrixOverAlgebra.from_operator(
        skew_symmetrizer(braiding, k).scale(factorial))
    return skew.traced_chain(copies, braiding.trace_form().weights) \
        .scale(factorial.inverse())


def characteristic_residual(braiding: Braiding, tag: str) -> MatrixOverAlgebra:
    """Matrix of the characteristic identity, zero modulo the ideal.

    sum over k = 0..N of (-q)^k e_k X^(N-k), with e_0 = 1; the coefficient
    elements multiply from the left.
    """
    n = braiding.dim
    q = braiding.q
    x = MatrixOverAlgebra.generator_matrix(tag, n, 1, 1)
    powers = [MatrixOverAlgebra.identity(n, 1)]
    for _ in range(n):
        powers.append(powers[-1] * x)
    acc = powers[n]
    for k in range(1, n + 1):
        ek = elementary_symmetric(braiding, tag, k)
        term = powers[n - k].map_entries(lambda v, e=ek: e * v)
        acc = acc + term.scale((-q) ** k)
    return acc


def verify_cayley_hamilton(braiding: Braiding, tag: str = "l"
                           ) -> VerificationReport:
    """Reduce every entry of the characteristic identity to zero.

    The residual and the presentation are built from the braiding, which
    is symbolic or substituted at one parameter point.
    """
    report = VerificationReport("cayley-hamilton")
    ok, witness = characteristic_residual(braiding, tag).first_nonzero(
        re_presentation(braiding, tag).normal_form)
    report.add("entries-vanish", anchor("cayley-hamilton"), ok, witness)
    return report


# ---------------------------------------------------------------------------
# Spectral characters


def spectral_char_trl(shape: tuple, braiding: Braiding) -> Scalar:
    """Scalar by which the weighted trace acts on the module of a partition.

    The weighted trace of the identity, minus nu/q^(2N) times the sum of
    q^(-2c) over the boxes of the diagram.
    """
    n = braiding.dim
    if len([p for p in shape if p]) > n:
        raise ValueError("partition has more parts than the matrix size")
    q = braiding.q
    boxes = content_sum_power(shape, q)
    return braiding.trace_form().dimension_value() \
        - braiding.nu * q ** (-2 * n) * boxes


class SpectralCharacter:
    """Values of the central family on one irreducible module.

    Everything derives from the eigenvalue values
    mu_i = q^(-2(lam_i + N - i)) of the zero-padded partition: the shifted
    eigenvalues solve mu = 1 - (q - q^-1) mu_hat, the elementary values
    satisfy q^k e_k = e_k(mu_1, ..., mu_N), the interpolation weights are
    d_i = q^-1 prod_{j != i} (mu_i - q^-2 mu_j) / (mu_i - mu_j), and the
    power values are sum_i mu_i^k d_i.  The exponents lam_i + N - i are
    strictly decreasing, so the mu_i are distinct unless q = 1 or
    q = -1; the weights divide by their differences.
    """

    __slots__ = ("shape", "braiding", "mu", "mu_hat")

    def __init__(self, shape: tuple, braiding: Braiding):
        n = braiding.dim
        if len([p for p in shape if p]) > n:
            raise ValueError("partition has more parts than the matrix size")
        q = braiding.q
        lam = tuple(shape) + (0,) * (n - len(shape))
        self.shape = tuple(shape)
        self.braiding = braiding
        self.mu = [q ** (-2 * (lam[i] + n - i - 1)) for i in range(n)]
        self.mu_hat = [q ** (-(lam[i] + n - i - 1)) *
                       hecke_integer(braiding, lam[i] + n - i - 1)
                       for i in range(n)]

    def elementary(self, k: int) -> Scalar:
        """Value of e_k: the elementary symmetric function of mu over q^k."""
        total = ZERO
        for comb in itertools.combinations(self.mu, k):
            prod = ONE
            for m in comb:
                prod = prod * m
            total = total + prod
        return self.braiding.q ** (-k) * total

    def weights(self) -> list:
        """Interpolation weights d_i entering the power-sum expansion."""
        q = self.braiding.q
        if len(set(self.mu)) < len(self.mu):
            raise ValueError("interpolation weights need distinct mu")
        out = []
        for i, mi in enumerate(self.mu):
            w = q.inverse()
            for j, mj in enumerate(self.mu):
                if j != i:
                    w = w * (mi - q ** (-2) * mj) / (mi - mj)
            out.append(w)
        return out

    def power(self, k: int) -> Scalar:
        """Value of the k-th power sum: sum of mu_i^k d_i."""
        total = ZERO
        for mi, di in zip(self.mu, self.weights()):
            total = total + mi ** k * di
        return total


# ---------------------------------------------------------------------------
# Spectrum verification


def trace_action_operator(braiding: Braiding, k: int) -> TensorOperator:
    """Operator of the weighted trace on degree-k monomials, closed form.

    The partial weighted trace over slot k+1 of the inverse Jucys-Murphy
    element J_(k+1)^-1.  Memoized on the braiding.
    """
    def build():
        jinv = jucys_murphy_inverse(braiding, k + 1)[k]
        return jinv.rtrace(k + 1, braiding.trace_form().weights)
    return memoized(braiding, ("trace_action_operator", k), build)


def _projector_checks(report: VerificationReport, op: TensorOperator,
                      chi: Scalar, shape: tuple, braiding: Braiding,
                      check_anchor: str) -> None:
    for i, t in enumerate(standard_tableaux(shape), start=1):
        proj = young_idempotent(braiding, t)
        lhs = op * proj
        rhs = proj.scale(chi)
        ok = lhs == rhs
        witness = None if ok else f"residual rank {(lhs - rhs).rank()}"
        report.add(f"tableau-{i}", check_anchor, ok, witness)


def verify_spectrum_operator(shape: tuple, braiding: Braiding,
                             chi: Scalar) -> VerificationReport:
    """Closed-form route: the trace operator restricted to each projector.

    Checks trace_action_operator(k) * P = chi * P for every standard
    tableau of the shape; chi is the content-formula value
    spectral_char_trl(shape, braiding).
    """
    report = VerificationReport("spectrum")
    op = trace_action_operator(braiding, sum(shape))
    _projector_checks(report, op, chi, shape, braiding,
                      anchor("spectrum-operator"))
    return report


def verify_spectrum(double: QuantumDouble, a: NCElement, chi: Scalar,
                    shape: tuple, check_anchor: str) -> VerificationReport:
    """Action route: the central element a acting inside the double.

    a acts on monomials of degree equal to the partition size, and every
    standard tableau projector of the shape must be an eigenprojector with
    eigenvalue chi: the weighted trace with the content-formula value, or
    a probe (e_2 with SpectralCharacter.elementary(2), p_k with
    SpectralCharacter.power(k)) under its conjecture anchor.  Failures are
    recorded, not raised.
    """
    report = VerificationReport("spectrum")
    op = action_operator(double, a, sum(shape))
    _projector_checks(report, op, chi, shape, double.braiding, check_anchor)
    return report


def verify_character_consistency(braiding: Braiding,
                                 max_boxes: int = 4) -> VerificationReport:
    """Scalar identities every partition's character values must satisfy.

    For each partition with at most N parts and at most max_boxes boxes:
    the content-formula trace value equals q^-1 sum mu_i (the k = 1 case
    of the elementary compatibility), the shifted eigenvalues satisfy the
    linear link, and the interpolation weights reproduce the trace value
    as the first power sum.
    """
    report = VerificationReport(
        "conjecture", {"max_boxes": max_boxes, "n": braiding.dim})
    for size in range(1, max_boxes + 1):
        for shape in partitions(size, braiding.dim):
            label = shape_label(shape)
            char = SpectralCharacter(shape, braiding)
            trl = spectral_char_trl(shape, braiding)
            e1 = char.elementary(1)
            report.add(f"e1-{label}", anchor("character-e1-consistency"),
                       e1 == trl,
                       None if e1 == trl else f"{e1.text()} vs {trl.text()}")
            link = all(m == ONE - braiding.nu * mh
                       for m, mh in zip(char.mu, char.mu_hat))
            report.add(f"shift-link-{label}", anchor("character-mu-shift"),
                       link, None if link else "linear shift link broken")
            p1 = char.power(1)
            report.add(f"p1-{label}", anchor("character-power-weights"),
                       p1 == trl,
                       None if p1 == trl else f"{p1.text()} vs {trl.text()}")
    return report
