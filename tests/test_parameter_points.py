"""The one equality path: parameter points, their arguments, non-vacuity."""

from __future__ import annotations

import copy
import random

import pytest

from redouble import adjoint_orbits, capelli, invariants, suites
from redouble.adjoint_orbits import verify_adjoint_invariance
from redouble.braidings import standard_hecke
from redouble.capelli import verify_capelli, verify_det_capelli
from redouble.invariants import verify_cayley_hamilton
from redouble.ncengine import Gen, MatrixOverAlgebra, NCElement
from redouble.scalars import (MIN_POINTS, ONE, Scalar, parameter_points,
                              random_parameter_values)
from redouble.suites import SUITE_NAMES, SuiteConfig, run_suite


# Every library entry point that takes (mode, rng, samples).
ENTRY_POINTS = {
    "parameter_points": lambda **kw: parameter_points(**kw),
    "cayley-hamilton": lambda **kw: verify_cayley_hamilton(
        standard_hecke(2), **kw),
    "capelli": lambda **kw: verify_capelli(standard_hecke(2), 1, **kw),
    "det-capelli": lambda **kw: verify_det_capelli(standard_hecke(1), **kw),
    "adjoint": lambda **kw: verify_adjoint_invariance(
        standard_hecke(2), 1, **kw),
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


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_configs_reject_an_unknown_mode(suite):
    for mode in ("exact", "bogus", None):
        with pytest.raises(ValueError):
            SuiteConfig(suite, mode=mode)


def test_exact_is_the_one_symbolic_point():
    [(suffix, at)] = parameter_points("EXACT", None, 0)
    x = NCElement.generator(Gen("m", 1, 1)).scale(Scalar.var())
    assert suffix == "" and at(x) is x


def test_sampled_points_follow_the_draw_order():
    x = NCElement.generator(Gen("m", 1, 1)).scale(Scalar.var())
    points = parameter_points("SAMPLED", random.Random(5), 4)
    values = random_parameter_values(random.Random(5), 4)
    assert [s for s, _ in points] == [f"@{v}" for v in values]
    for (_, at), v in zip(points, values):
        assert at(x) == x.substituted(v)
        assert at(x).terms[(Gen("m", 1, 1),)] == Scalar.from_fraction(v)


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


# name: (SAMPLED run, spoiler, id prefix of the spoiled check)
SPOILED = {
    "cayley-hamilton": (
        lambda rng: verify_cayley_hamilton(standard_hecke(2), mode="SAMPLED",
                                           rng=rng, samples=3),
        _spoil_cayley_hamilton, "entries-vanish"),
    "capelli": (
        lambda rng: verify_capelli(standard_hecke(2), 2, mode="SAMPLED",
                                   rng=rng, samples=3),
        _spoil_capelli, "word-route"),
    "adjoint": (
        lambda rng: verify_adjoint_invariance(standard_hecke(2), 1,
                                              mode="SAMPLED", rng=rng,
                                              samples=3),
        _spoil_adjoint, "matrix-identity"),
    "braiding": (
        lambda rng: run_suite(SuiteConfig("braiding", n=2, mode="SAMPLED")),
        _spoil_braiding, "braiding-inverse"),
}


@pytest.mark.parametrize("name", SPOILED)
def test_sampled_checks_are_not_vacuous(name, monkeypatch):
    run, spoil, prefix = SPOILED[name]
    intact = run(random.Random(1))
    assert intact.passed, intact.failures()
    spoil(monkeypatch)
    report = run(random.Random(1))
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
    def run(mode):
        return verify_det_capelli(standard_hecke(2), mode=mode,
                                  rng=random.Random(1), samples=3)

    assert run("SAMPLED").passed and run("EXACT").passed
    _spoil_det_capelli(monkeypatch)
    [check] = run("SAMPLED").checks
    assert check["id"] == "traced-identity" and not check["passed"]
    # the witness names the first failing point and the residual there
    [(suffix, at), *_] = parameter_points("SAMPLED", random.Random(1), 3)
    point, residual = check["witness"].split(": ", 1)
    assert point == suffix
    assert "*" in residual and "q" not in residual  # rational coefficients
    [exact] = run("EXACT").checks
    assert not exact["passed"] and "q" in exact["witness"]
    assert not exact["witness"].startswith("@")

