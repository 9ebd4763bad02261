"""Adjoint fields on the coordinate algebra and fixed-level quotients.

In the mixed double built on the inhomogeneous adjoint rule, every
field-side generator commutes with every weighted trace power of the
coordinate matrix, hence annihilates those traces under the regular
action.  Pinning the first N trace powers to constants therefore gives
quotient coordinate algebras that still carry the field action; they
play the role of function rings on fixed conjugation orbits.  The descent
is checked on the pinned trace powers times the bounded normal words.
The quotient is built on the double's own coordinate presentation, so an
orbits row builds its reflection-equation algebra once, with its double.

The commutation claim is checked two ways: generator-by-generator
bi-normal forms, and the matrix identity behind it,

    R Lhat_1 R M_1^k - M_1^k R Lhat_1 R = R M_1^k - M_1^k R,

whose weighted partial trace in the second slot collapses to the
commutator of Lhat with the traced power.
"""

from __future__ import annotations

from .anchors import anchor
from .braidings import Braiding
from .doubles import QuantumDouble, make_double
from .invariants import power_sum
from .ncengine import CentralQuotient, MatrixOverAlgebra, NCElement
from .reports import VerificationReport


def _trace_commutes(double: QuantumDouble, trace: NCElement) -> tuple:
    for g in double.a_pres.generators:
        x = NCElement.generator(g)
        residual = double.binormal_form(x * trace - trace * x)
        if not residual.is_zero():
            return False, f"field {g} does not commute: {residual!r}"
    return True, None


def _fields(double: QuantumDouble) -> list:
    return [NCElement.generator(g) for g in double.a_pres.generators]


def _trace_annihilated(double: QuantumDouble, trace: NCElement) -> tuple:
    for g, [image] in zip(double.a_pres.generators,
                          double.act_each(_fields(double), [trace])):
        if not double.b_pres.reduces_to_zero(image):
            return False, f"field {g} acts by {image!r}"
    return True, None


def _proof_identity_matrix(double: QuantumDouble, k: int
                           ) -> MatrixOverAlgebra:
    """Difference of both sides of the slot-wise commutation identity."""
    b = double.braiding
    r = b.at(1, 2)
    l1 = MatrixOverAlgebra.generator_matrix(double.a_tag, b.dim, 2, 1)
    mk = MatrixOverAlgebra.generator_matrix(double.b_tag, b.dim, 2, 1)
    for _ in range(k - 1):
        mk = mk * MatrixOverAlgebra.generator_matrix(
            double.b_tag, b.dim, 2, 1)
    sandwiched = l1.lmul_op(r).rmul_op(r)
    return (sandwiched * mk - mk * sandwiched) \
        - (mk.lmul_op(r) - mk.rmul_op(r))


def verify_adjoint_invariance(braiding: Braiding, k: int
                              ) -> VerificationReport:
    """Traced powers of the coordinate matrix are invariants of the fields.

    Three independent checks in the double of the adjoint_shifted kind
    over the braiding: the commutator of each field generator with the
    traced k-th power is zero in the double, the regular action of each
    field generator kills the traced power, and the slot-wise matrix
    identity underlying both.
    """
    if k < 1:
        raise ValueError("trace power must be positive")
    report = VerificationReport("adjoint")
    double = make_double(braiding, "adjoint_shifted")
    trace = power_sum(braiding, double.b_tag, k)
    ok, witness = _trace_commutes(double, trace)
    report.add("commutation", anchor("adjoint-commutation"), ok, witness)
    ok, witness = _trace_annihilated(double, trace)
    report.add("annihilation", anchor("adjoint-annihilation"), ok, witness)
    ok, witness = _proof_identity_matrix(double, k).first_nonzero(
        double.binormal_form)
    report.add("matrix-identity", anchor("adjoint-proof-identity"), ok,
               witness)
    return report


# ---------------------------------------------------------------------------
# Orbit quotients


def orbit_quotient(double: QuantumDouble, alphas) -> CentralQuotient:
    """Coordinate algebra of the double with the first N traced powers pinned.

    The double's reflection-equation algebra (double.b_pres) divided by
    p_k - alpha_k, the traced k-th power minus its level constant, for
    k = 1..N.  The traced powers are central in that algebra, so the
    quotient is a CentralQuotient: one certified presentation whose
    ideal is spanned by the re-keyed relation rows and w·(p_k - alpha_k)
    over normal words w, so that trace occurrences rewrite to constants
    in one elimination.  A traced power that fails to be central raises
    PresentationError.
    """
    braiding, tag = double.braiding, double.b_tag
    n = braiding.dim
    alphas = list(alphas)
    if len(alphas) != n:
        raise ValueError("need one level constant per matrix size")
    pinned = [power_sum(braiding, tag, k) - NCElement.constant(alpha)
              for k, alpha in enumerate(alphas, start=1)]
    return CentralQuotient(double.b_pres, pinned,
                           name=f"orbit({tag}, dim={n})")


def verify_orbit_descent(braiding: Braiding, alphas, degree: int = 1
                         ) -> VerificationReport:
    """The field action is well defined on the pinned quotient.

    Checks that each trace power reduces to its level constant, and that
    every field maps the pinned ideal J into itself: it acts on p_k·w for
    each pinned p_k (trace power minus level) and normal w, |w| <= degree.
    Modulo the relation ideal I these span p_k·w and w·p_k for every free
    word w of that length: a free word is a normal word plus an element
    of I (diamond lemma), w·p_k - p_k·w lies in I (the quotient certifies
    that p_k is central), and the fields map I into itself once the
    double's presentation is certified, which is checked first.
    """
    n = braiding.dim
    report = VerificationReport(
        "orbits", {"n": n, "alphas": [a.text() for a in alphas],
                   "degree": degree,
                   "genericity_pairs": "all ordered pairs including i=j"})
    double = make_double(braiding, "adjoint_shifted")
    quotient = orbit_quotient(double, alphas)
    ok = True
    witness = None
    for k, (alpha, pinned) in enumerate(zip(alphas, quotient.pinned),
                                        start=1):
        reduced = quotient.normal_form(pinned + NCElement.constant(alpha))
        if reduced != NCElement.constant(alpha):
            ok = False
            witness = f"trace power {k} reduces to {reduced!r}"
            break
    report.add("pinned-reduction", anchor("orbit-quotient"), ok, witness)
    double.presentation.ensure(3)
    words = [NCElement.word(w) for d in range(degree + 1)
             for w in quotient.normal_words(d)]
    ok = True
    witness = None
    fields = _fields(double)
    for k, pinned in enumerate(quotient.pinned, start=1):
        for g, images in zip(double.a_pres.generators,
                             double.act_each(fields,
                                             [pinned * w for w in words])):
            if not all(map(quotient.reduces_to_zero, images)):
                ok = False
                witness = f"field {g} escapes the ideal at power {k}"
                break
        if not ok:
            break
    report.add("action-descends", anchor("orbit-descent"), ok, witness)
    return report

