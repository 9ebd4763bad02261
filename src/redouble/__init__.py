"""Exact reflection-equation algebra and quantum-double verification.

Everything runs over the exact rational function field Q(q) (or Q(h) for
the shifted enveloping-algebra calculus); no floating point is used.
"""

from .scalars import Scalar, qint, nu
from .braidings import Braiding, TensorOperator, standard_hecke, flip, rtrace_form
from .doubles import DoubleDefinition, QuantumDouble, make_double
from .reports import VerificationReport
from .suites import SUITES, SuiteConfig, run_all, run_suite

__all__ = [
    "Scalar", "qint", "nu",
    "Braiding", "TensorOperator", "standard_hecke", "flip", "rtrace_form",
    "DoubleDefinition", "QuantumDouble", "make_double",
    "VerificationReport",
    "SUITES", "SuiteConfig", "run_all", "run_suite",
]
