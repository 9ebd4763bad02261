"""Acceptance grid: one test per criterion, with explicit runtime budgets.

Every check is exact (zero tolerance) over the rational function field;
SAMPLED checks substitute exact rational sample points, so they are also
zero-tolerance at those points.  Each test records one pass/fail line,
re-emitted after the run in the "acceptance criteria" terminal section.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import random
import time

import conftest
import pytest

from redouble.adjoint_orbits import verify_adjoint_invariance, \
    verify_orbit_descent
from redouble.anchors import anchor
from redouble.braidings import BraidingError, rtrace_form, standard_hecke
from redouble.cli import main
from redouble.heckerep import partitions
from redouble.invariants import spectral_char_trl, \
    verify_character_consistency
from redouble.reports import VerificationReport
from redouble.scalars import Scalar
from redouble.suites import SuiteConfig, exit_code_for, run_all, run_suite


def _record(num: int, passed: bool, detail: str) -> None:
    state = "PASS" if passed else "FAIL"
    conftest.ACCEPTANCE_LINES[num] = f"criterion {num:2d}: {state} — {detail}"


def _run(num: int, budget: float, detail: str, reports: list) -> None:
    elapsed = reports.pop()
    ok = all(r.passed for r in reports) and elapsed < budget
    _record(num, ok, f"{detail}, exact, {elapsed:.2f}s (budget {budget:g}s)")
    for report in reports:
        assert report.passed, report.failures()
    assert elapsed < budget


def test_criterion_01_braiding_identities():
    """Braid relation, quadratic condition, and inverse, ranks 1-4; < 5 s."""
    t0 = time.perf_counter()
    reports = [run_suite(SuiteConfig("braiding", n=n)) for n in (1, 2, 3, 4)]
    reports.append(time.perf_counter() - t0)
    _run(1, 5.0, "braiding identities, ranks 1-4", reports)


def test_criterion_02_hecke_representation_tower():
    """Tower data for N <= 3, k <= 3: commuting elements, idempotents,
    absorption, ranks, completeness, classical dimensions; < 60 s."""
    t0 = time.perf_counter()
    reports = [run_suite(SuiteConfig("heckerep", n=n, k=k))
               for n in (1, 2, 3) for k in (1, 2, 3)]
    reports.append(time.perf_counter() - t0)
    _run(2, 60.0, "tower of idempotents, N<=3 k<=3", reports)


def test_criterion_03_spectrum_both_routes():
    """Trace-operator spectrum equals the content formula for every
    partition of at most 3 boxes at N <= 3, including the three pinned
    rank-2 values; < 120 s."""
    t0 = time.perf_counter()
    reports = []
    for n in (1, 2, 3):
        for size in (1, 2, 3):
            for shape in partitions(size, n):
                reports.append(run_suite(SuiteConfig("spectrum", n=n,
                                                     shape=shape)))
    b2 = standard_hecke(2)
    pinned = VerificationReport("spectrum", {"n": 2})
    for shape, coeffs in (((1,), {-1: 1, -5: 1}),
                          ((2,), {-1: 1, -7: 1}),
                          ((1, 1), {-3: 1, -5: 1})):
        got = spectral_char_trl(shape, b2)
        pinned.add(f"pinned-{shape}", "closed form",
                   got == Scalar.laurent(coeffs, "q"), got.text())
    reports.append(pinned)
    reports.append(time.perf_counter() - t0)
    _run(3, 120.0, "spectrum for all partitions k<=3 N<=3 + pinned values",
         reports)


def test_criterion_04_conjecture_probes():
    """First elementary compatibility for every partition of at most 4
    boxes (covered at rank 4), the second elementary probe for all
    partitions of 2 and 3 boxes at rank 2, and the distinct exit status
    on a probe failure; < 600 s."""
    t0 = time.perf_counter()
    reports = [run_suite(SuiteConfig("conjecture", n=n)) for n in (2, 3)]
    full = verify_character_consistency(standard_hecke(4), 4)
    reports.append(full)
    e2_ids = [c["id"] for c in reports[0].checks if c["id"].startswith("e2-")]
    covered = {label.split("-")[1] for label in e2_ids}
    assert covered == {"2", "1,1", "3", "2,1"}
    e1_labels = {c["id"][3:] for c in full.checks
                 if c["id"].startswith("e1-")}
    wanted = {",".join(str(p) for p in shape)
              for size in (1, 2, 3, 4) for shape in partitions(size)}
    assert wanted <= e1_labels

    spoiled = VerificationReport("conjecture")
    spoiled.add("e2-2-tableau-1", anchor("conjecture-e2"), False,
                "synthetic")
    assert exit_code_for(spoiled) == 2
    assert exit_code_for(reports[0]) == 0

    reports.append(time.perf_counter() - t0)
    _run(4, 600.0, "e1 for all partitions k<=4, e2 at rank 2, exit-2 path",
         reports)


def test_criterion_05_characteristic_identity():
    """Characteristic identity entries vanish modulo the quadratic ideal:
    rank 2 exact, rank 3 at 3 exact sample points; < 300 s."""
    t0 = time.perf_counter()
    reports = [
        run_suite(SuiteConfig("cayley-hamilton", n=2)),
        run_suite(SuiteConfig("cayley-hamilton", n=3, mode="SAMPLED",
                              samples=3, seed=0)),
    ]
    assert len(reports[1].checks) == 3
    reports.append(time.perf_counter() - t0)
    _run(5, 300.0, "characteristic identity, rank 2 exact + rank 3 sampled",
         reports)


def test_criterion_06_capelli_identities():
    """Degree-1 and degree-2 quantum minors: word route and operator
    route (monomials of degree <= 2) at rank 2, plus the traced
    determinant identity; < 600 s."""
    t0 = time.perf_counter()
    reports = [run_suite(SuiteConfig("capelli", n=2, k=k, degree=2))
               for k in (1, 2)]
    reports.append(run_suite(SuiteConfig("det-capelli", n=2)))
    for report in reports[:2]:
        assert [c["id"] for c in report.checks] == \
            ["word-route", "action-route"]
    reports.append(time.perf_counter() - t0)
    _run(6, 600.0, "minor identities k in {1,2}, both routes + determinant",
         reports)


def test_criterion_07_adjoint_invariance_and_orbits():
    """Invariant fields commute with and annihilate the weighted power
    traces, k <= 2 at rank 2 exact, and the action descends to pinned
    orbit quotients; < 300 s."""
    t0 = time.perf_counter()
    b = standard_hecke(2)
    reports = [verify_adjoint_invariance(b, k) for k in (1, 2)]
    for report in reports:
        ids = [c["id"] for c in report.checks]
        assert "commutation" in ids and "annihilation" in ids
    reports.append(verify_orbit_descent(
        b, [Scalar.from_int(2), Scalar.from_int(3)], degree=1))
    reports.append(time.perf_counter() - t0)
    _run(7, 300.0, "adjoint commutation/annihilation k<=2 + orbit descent",
         reports)


def test_criterion_08_shifted_derivative_calculus():
    """Derivative commutativity to degree 3, matrix multiplicativity on
    all 16 generator pairs plus 20 seeded random pairs, the bracket
    representation, the radius square identity, the four closed-form
    radius actions, and classical limits; < 120 s."""
    t0 = time.perf_counter()
    report = run_suite(SuiteConfig("u2h", seed=0))
    ids = [c["id"] for c in report.checks]
    assert "commutativity" in ids
    assert sum(1 for i in ids if i.startswith("pair-")) == 16
    assert sum(1 for i in ids if i.startswith("random-")) == 20
    assert {"bracket-xy", "bracket-yz", "bracket-zx"} <= set(ids)
    assert {"radius-matrix", "radius-actions", "radius-square"} <= set(ids)
    assert {"first-order-actions", "second-order-corrections",
            "radius-limit"} <= set(ids)
    reports = [report, time.perf_counter() - t0]
    _run(8, 120.0, "shifted derivative calculus, all layers", reports)


def test_criterion_09_convention_guard():
    """The weighted-trace collapse property and the first elementary
    consistency pin the braiding and trace conventions; < 5 s."""
    t0 = time.perf_counter()
    guard = VerificationReport("guard", {})
    for n in (2, 3):
        try:
            rtrace_form(standard_hecke(n))
            ok, witness = True, None
        except BraidingError as err:
            ok, witness = False, str(err)
        guard.add(f"trace-property-n{n}", "trace form", ok, witness)
    e1 = verify_character_consistency(standard_hecke(2), 4)
    for c in e1.checks:
        if c["id"].startswith("e1-"):
            guard.add(c["id"], c["anchor"], c["passed"], c["witness"])
    reports = [guard, time.perf_counter() - t0]
    _run(9, 5.0, "trace-collapse + e1 convention guard", reports)


def _benchmark_pin(name: str) -> str:
    """A sha256 pin of report bytes at seed 0 from perfbench/run.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("_perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def test_criterion_10_deterministic_reports():
    """Two full grid runs with one seed serialize to identical bytes,
    and those bytes are the ones the benchmark pins."""
    t0 = time.perf_counter()
    first = run_all(seed=0)
    second = run_all(seed=0)
    elapsed = time.perf_counter() - t0
    text = first.to_json()
    identical = text == second.to_json()
    pinned = hashlib.sha256(text.encode()).hexdigest() == \
        _benchmark_pin("GRID_SHA256")
    ok = first.passed and identical and pinned
    _record(10, ok, f"run-all byte-identity over {len(first.checks)} rows, "
                    f"{elapsed:.2f}s")
    assert first.passed, first.failures()
    assert identical
    assert pinned


def test_orbits_report_bytes_are_the_benchmark_pin(tmp_path):
    """`redouble --suite orbits --n 3` writes the bytes the benchmark pins."""
    out = tmp_path / "orbits.json"
    assert main(["--suite", "orbits", "--n", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        _benchmark_pin("ORBITS_SHA256")
