"""Run-wide memos: shared artifacts never change report bytes."""

from __future__ import annotations

import multiprocessing
from fractions import Fraction

import pytest

from redouble import braidings, doubles, heckerep, suites
from redouble.braidings import standard_hecke
from redouble.cli import main
from redouble.doubles import action_operator, make_double
from redouble.heckerep import standard_tableaux, young_idempotent
from redouble.ncengine import Gen, NCElement
from redouble.scalars import ONE, Scalar
from redouble.suites import SuiteConfig, clear_caches, run_all, run_suite


def _spectrum(shape: tuple) -> str:
    return run_suite(SuiteConfig("spectrum", n=2, shape=shape)).to_json()


def test_shared_operator_leaves_row_reports_unchanged():
    clear_caches()
    shared = [_spectrum((3,)), _spectrum((2, 1))]
    # both rows act by the same k = 3 operator: one memo entry
    assert len(doubles._operator_cache) == 1
    alone = []
    for shape in ((3,), (2, 1)):
        clear_caches()
        alone.append(_spectrum(shape))
    assert shared == alone
    assert all('"passed": true' in text for text in alone)


def test_substituted_double_does_not_share_the_symbolic_operator():
    d = make_double(standard_hecke(1), "left")
    a = NCElement.generator(Gen(d.a_tag, 1, 1))
    value = Fraction(7, 3)
    symbolic = action_operator(d, a, 2)
    sub = action_operator(d.substituted(value), a, 2)
    assert sub != symbolic
    assert sub == symbolic.substituted(value)


def test_shift_scalar_is_part_of_the_key():
    clear_caches()
    b = standard_hecke(2)
    one = NCElement.constant(ONE)
    first = action_operator(
        make_double(b, "derivative_shifted", h=Scalar.from_fraction("7/3")),
        one, 1)
    second = action_operator(
        make_double(b, "derivative_shifted", h=Scalar.from_int(2)), one, 1)
    assert first is not second
    assert len(doubles._operator_cache) == 2
    again = action_operator(
        make_double(b, "derivative_shifted", h=Scalar.from_int(2)), one, 1)
    assert again is second


def test_a_second_young_idempotent_is_the_same_object():
    clear_caches()
    b = standard_hecke(2)
    t = standard_tableaux((2, 1))[1]
    first = young_idempotent(b, t)
    assert young_idempotent(b, t) is first
    assert len(heckerep._idempotent_cache) == 1
    clear_caches()
    assert young_idempotent(b, t) is not first
    assert young_idempotent(b, t) == first


def test_shared_idempotents_leave_row_reports_unchanged():
    configs = (SuiteConfig("heckerep", n=3, k=3),
               SuiteConfig("spectrum", n=3, shape=(2, 1)))
    cold = []
    for config in configs:
        clear_caches()
        cold.append(run_suite(config).to_json())
    clear_caches()
    shared = [run_suite(config).to_json() for config in configs]
    # the spectrum row found both of its projectors built by heckerep
    assert len(heckerep._idempotent_cache) == 4
    assert shared == cold
    assert all('"passed": true' in text for text in cold)


def test_no_action_operator_is_solved_twice_under_jobs(monkeypatch,
                                                        tmp_path):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the spy reaches pool workers only when they fork")
    log = tmp_path / "solves.txt"
    real = doubles._solve_action_operator

    def spy(double, a, k):
        key = (double.braiding.dim, double.defining[1:], a, k)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(repr(key) + "\n")
        return real(double, a, k)

    monkeypatch.setattr(doubles, "_solve_action_operator", spy)
    assert run_all(jobs=2).passed
    keys = log.read_text(encoding="utf-8").splitlines()
    assert keys
    assert len(keys) == len(set(keys)), sorted(keys)


def _memo_sizes():
    return (len(braidings._hecke_cache), len(heckerep._idempotent_cache),
            len(doubles._operator_cache))


def test_each_run_starts_from_empty_memos(monkeypatch):
    rows = [("spectrum-n2-2", SuiteConfig("spectrum", n=2, shape=(2,))),
            ("spectrum-n2-1,1", SuiteConfig("spectrum", n=2, shape=(1, 1)))]
    monkeypatch.setattr(suites, "acceptance_grid", lambda mode, seed: rows)
    seen = []
    real = suites.run_suite

    def spy(config):
        seen.append(_memo_sizes())
        return real(config)

    monkeypatch.setattr(suites, "run_suite", spy)
    first = run_all()
    second = run_all()
    assert first.to_json() == second.to_json()
    assert seen[0] == seen[2] == (0, 0, 0)
    # the second row finds the first row's braiding, projectors and operator
    assert all(seen[1])

    seen.clear()
    monkeypatch.setattr("redouble.cli.run_suite", spy)
    assert main(["--suite", "spectrum", "--n", "2", "--lambda", "2"]) == 0
    assert seen == [(0, 0, 0)]
