"""The one equality path: parameter points, their arguments, non-vacuity."""

from __future__ import annotations

import copy
import random

import pytest

from redouble import adjoint_orbits, capelli, invariants, suites
from redouble.braidings import TensorOperator, standard_hecke
from redouble.doubles import make_double
from redouble.invariants import characteristic_residual, elementary_symmetric
from redouble.ncengine import (Gen, MatrixOverAlgebra, NCElement,
                               matrix_generators, re_presentation)
from redouble.scalars import ONE, Scalar
from redouble.suites import (MIN_POINTS, SUITES, SuiteConfig,
                             parameter_points, random_parameter_values,
                             run_suite)


class _GivenRng(SuiteConfig):
    """A suite config whose points are drawn from a given rng, or None."""

    __slots__ = ("given",)

    def __init__(self, suite, rng, **fields):
        super().__init__(suite, **fields)
        self.given = rng

    def rng(self):
        return self.given


def _sampled_suite(suite, n, **fields):
    """Run suite at rank n with the given (mode, rng, samples)."""
    def run(mode, rng, samples):
        return run_suite(_GivenRng(suite, rng, n=n, mode=mode,
                                   samples=samples, **fields))
    return run


# The one loop over points, and every suite that runs it, by the
# arguments that choose the points.
ENTRY_POINTS = {
    "parameter_points": lambda **kw: parameter_points(standard_hecke(2),
                                                      **kw),
    "braiding": _sampled_suite("braiding", 2),
    "cayley-hamilton": _sampled_suite("cayley-hamilton", 2),
    "capelli": _sampled_suite("capelli", 2, k=1, degree=1),
    "det-capelli": _sampled_suite("det-capelli", 1),
    "adjoint": _sampled_suite("adjoint", 2, k=1),
}

BAD_ARGUMENTS = {
    "unknown-mode": {"mode": "BOGUS", "rng": random.Random(0), "samples": 3},
    "lower-case-mode": {"mode": "exact", "rng": None, "samples": 3},
    "no-rng": {"mode": "SAMPLED", "rng": None, "samples": 3},
    "no-points": {"mode": "SAMPLED", "rng": random.Random(0), "samples": 0},
    "too-few-points": {"mode": "SAMPLED", "rng": random.Random(0),
                       "samples": MIN_POINTS - 1},
}


@pytest.mark.parametrize("args", BAD_ARGUMENTS.values(),
                         ids=BAD_ARGUMENTS.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(),
                         ids=ENTRY_POINTS.keys())
def test_sampled_entry_points_reject_bad_arguments(entry, args):
    with pytest.raises(ValueError):
        entry(**args)


def test_sampled_entry_points_accept_good_arguments():
    for name, entry in ENTRY_POINTS.items():
        points = entry(mode="SAMPLED", rng=random.Random(0),
                       samples=MIN_POINTS)
        if name != "parameter_points":
            assert points.passed, name


@pytest.mark.parametrize("suite", SUITES)
def test_suite_configs_reject_an_unknown_mode(suite):
    for mode in ("exact", "bogus", None):
        with pytest.raises(ValueError):
            SuiteConfig(suite, mode=mode)


def test_exact_is_the_one_symbolic_point():
    b = standard_hecke(2)
    [(suffix, point)] = parameter_points(b, "EXACT", None, 0)
    assert suffix == "" and point is b


def test_sampled_points_follow_the_draw_order():
    b = standard_hecke(2)
    points = list(parameter_points(b, "SAMPLED", random.Random(5), 4))
    values = random_parameter_values(random.Random(5), 4)
    assert [s for s, _ in points] == [f"@{v}" for v in values]
    for (_, point), v in zip(points, values):
        assert point.q == Scalar.from_fraction(v)
        assert point.op == b.op.substituted(v)
        assert point.inv == b.inv.substituted(v)


# ---------------------------------------------------------------------------
# Built at a point equals built symbolically, then evaluated there.

# Two drawn points, as SAMPLED mode draws them.
VALUES = random_parameter_values(random.Random(11), 2)


def _at(x: NCElement, v) -> NCElement:
    """Reference: x with every coefficient evaluated at v."""
    out = {w: c.with_value(v) for w, c in x.terms.items()}
    return NCElement({w: c for w, c in out.items() if not c.is_zero()})


def _matrix_at(m: MatrixOverAlgebra, v) -> MatrixOverAlgebra:
    return m.map_entries(lambda e: _at(e, v))


@pytest.mark.parametrize("v", VALUES)
def test_the_rank_two_residual_built_at_a_point(v):
    b = standard_hecke(2)
    symbolic = characteristic_residual(b, "l")
    assert not symbolic.is_zero()
    assert characteristic_residual(b.substituted(v), "l") == \
        _matrix_at(symbolic, v)


def test_e3_at_rank_three_built_at_a_point():
    b = standard_hecke(3)
    symbolic = elementary_symmetric(b, "l", 3)
    assert not symbolic.is_zero()
    for v in VALUES:
        assert elementary_symmetric(b.substituted(v), "l", 3) == \
            _at(symbolic, v)


@pytest.mark.parametrize("v", VALUES)
def test_the_derivative_double_built_at_a_point(v):
    b = standard_hecke(2)
    symbolic = make_double(b, "derivative")
    point = make_double(b.substituted(v), "derivative")
    assert point.rule.table == {pair: _at(img, v) for pair, img
                                in symbolic.rule.table.items()}
    assert point.eps_a == {g: e.with_value(v)
                           for g, e in symbolic.eps_a.items()}


@pytest.mark.parametrize("v", VALUES)
def test_normal_forms_in_a_presentation_built_at_a_point(v):
    b = standard_hecke(2)
    symbolic = re_presentation(b, "m")
    point = re_presentation(b.substituted(v), "m")
    q = Scalar.var()
    coeffs = [ONE, -q, q * q + Scalar.from_fraction("1/2"),
              (q + Scalar.from_int(3)).inverse()]
    gens = matrix_generators("m", 2)
    rng = random.Random(f"points-{v}")
    for _ in range(6):
        x = NCElement.zero()
        for _ in range(4):
            w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            x = x + NCElement.word(w, rng.choice(coeffs))
        nf = symbolic.normal_form(x)
        assert point.normal_form(_at(x, v)) == _at(nf, v)
    # and a relation times a word stays in the ideal at the point
    rel = symbolic.relations[0] * NCElement.generator(gens[0])
    assert symbolic.normal_form(rel).is_zero()
    assert point.normal_form(_at(rel, v)).is_zero()


def test_a_substituted_braiding_keeps_a_spoiled_inverse():
    b = copy.copy(standard_hecke(2))
    b.inv = b.inv.scale(Scalar.from_int(2))
    v = VALUES[0]
    point = b.substituted(v)  # not re-verified: no BraidingError
    assert point.inv == b.inv.substituted(v)
    assert point.op * point.inv != TensorOperator.identity(2, 2)
    assert point.q == Scalar.from_fraction(v) and point.nu == b.nu.with_value(v)


@pytest.mark.parametrize("kind", ["left", "derivative_shifted"])
def test_a_substituted_double_is_the_double_at_the_point(kind):
    b = standard_hecke(2)
    v = VALUES[0]
    q = Scalar.var()
    h = q if kind == "derivative_shifted" else None
    got = make_double(b, kind, h).substituted(v)
    want = make_double(b.substituted(v), kind,
                       None if h is None else Scalar.from_fraction(v))
    assert got.kind == want.kind and got.braiding.op == want.braiding.op
    assert got.definition.h == want.definition.h
    assert got.rule.table == want.rule.table and got.eps_a == want.eps_a
    for side in ("a_pres", "b_pres"):
        assert getattr(got, side).relations == getattr(want, side).relations


# ---------------------------------------------------------------------------
# Non-vacuity: a spoiled residual fails at every point, with a witness.

def _plus_identity(build, arity):
    def spoiled(*args):
        m = build(*args)
        return m + MatrixOverAlgebra.identity(m.dim, arity)
    return spoiled


def _spoil_cayley_hamilton(monkeypatch):
    monkeypatch.setattr(invariants, "characteristic_residual",
                        _plus_identity(invariants.characteristic_residual, 1))


def _spoil_capelli(monkeypatch):
    sides = capelli.capelli_sides

    def spoiled(double, k):
        lhs, rhs = sides(double, k)
        return lhs + MatrixOverAlgebra.identity(lhs.dim, k), rhs
    monkeypatch.setattr(capelli, "capelli_sides", spoiled)


def _spoil_adjoint(monkeypatch):
    monkeypatch.setattr(
        adjoint_orbits, "_proof_identity_matrix",
        _plus_identity(adjoint_orbits._proof_identity_matrix, 2))


def _spoil_braiding(monkeypatch):
    def spoiled(n):
        b = copy.copy(standard_hecke(n))
        b.inv = b.inv.scale(Scalar.from_int(2))
        return b
    monkeypatch.setattr(suites, "standard_hecke", spoiled)


# name: (SAMPLED suite config, spoiler, id prefix of the spoiled check)
SPOILED = {
    "cayley-hamilton": (
        SuiteConfig("cayley-hamilton", n=2, mode="SAMPLED", seed=1),
        _spoil_cayley_hamilton, "entries-vanish"),
    "capelli": (
        SuiteConfig("capelli", n=2, k=2, degree=1, mode="SAMPLED", seed=1),
        _spoil_capelli, "word-route"),
    "adjoint": (
        SuiteConfig("adjoint", n=2, k=1, mode="SAMPLED", seed=1),
        _spoil_adjoint, "matrix-identity"),
    "braiding": (
        SuiteConfig("braiding", n=2, mode="SAMPLED"),
        _spoil_braiding, "braiding-inverse"),
}


@pytest.mark.parametrize("name", SPOILED)
def test_sampled_checks_are_not_vacuous(name, monkeypatch):
    config, spoil, prefix = SPOILED[name]
    intact = run_suite(config)
    assert intact.passed, intact.failures()
    spoil(monkeypatch)
    report = run_suite(config)
    spoiled = [c for c in report.checks if c["id"].startswith(prefix + "@")]
    assert len(spoiled) == 3
    assert not any(c["passed"] for c in spoiled)
    assert all(c["witness"].startswith("entry ") for c in spoiled)
    # the other identities checked at the same points still hold
    others = [c for c in report.checks
              if "@" in c["id"] and c not in spoiled]
    assert all(c["passed"] for c in others)


def _spoil_det_capelli(monkeypatch):
    det_r = capelli.det_r

    def spoiled(*args, **kwargs):
        return det_r(*args, **kwargs) + NCElement.constant(ONE)
    monkeypatch.setattr(capelli, "det_r", spoiled)


def test_sampled_det_capelli_is_not_vacuous(monkeypatch):
    sampled = SuiteConfig("det-capelli", n=2, mode="SAMPLED", seed=1)
    exact = SuiteConfig("det-capelli", n=2, seed=1)
    assert run_suite(sampled).passed and run_suite(exact).passed
    _spoil_det_capelli(monkeypatch)
    # one failing check per point, its witness the residual there, with
    # rational coefficients
    points = parameter_points(standard_hecke(2), "SAMPLED", sampled.rng(), 3)
    checks = run_suite(sampled).checks
    assert [c["id"] for c in checks] == \
        [f"traced-identity{suffix}" for suffix, _ in points]
    for check in checks:
        assert not check["passed"]
        assert "*" in check["witness"] and "q" not in check["witness"]
    [check] = run_suite(exact).checks
    assert check["id"] == "traced-identity" and not check["passed"]
    assert "q" in check["witness"]
