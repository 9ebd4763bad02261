"""The braiding memo: shared artifacts never change report bytes."""

from __future__ import annotations

import collections
import concurrent.futures
import copy
import gc
import multiprocessing
import types
import weakref
from fractions import Fraction

import pytest
from conftest import spoiled_copy

from redouble import braidings, doubles, heckerep, ncengine, suites
from redouble.braidings import standard_hecke
from redouble.cli import main
from redouble.doubles import QuantumDouble, action_operator, make_double
from redouble.heckerep import (skew_symmetrizer, standard_tableaux,
                               young_idempotent)
from redouble.ncengine import (Gen, NCElement, PresentationError,
                               QuadraticPresentation)
from redouble.scalars import ONE, Scalar
from redouble.suites import SuiteConfig, clear_caches, run_all, run_suite


def _spectrum(shape: tuple) -> str:
    return run_suite(SuiteConfig("spectrum", n=2, shape=shape)).to_json()


def _memo_keys(b, name: str) -> list:
    """The keys of b's memo that hold objects of the named kind."""
    return [key for key in b.memo if key[0] == name]


def test_shared_operator_leaves_row_reports_unchanged():
    clear_caches()
    shared = [_spectrum((3,)), _spectrum((2, 1))]
    # both rows act by the same k = 3 operator: one memo entry
    assert len(_memo_keys(standard_hecke(2), "action_operator")) == 1
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
    assert len(_memo_keys(b, "action_operator")) == 2
    again = action_operator(
        make_double(b, "derivative_shifted", h=Scalar.from_int(2)), one, 1)
    assert again is second


def test_a_second_young_idempotent_is_the_same_object():
    clear_caches()
    b = standard_hecke(2)
    t = standard_tableaux((2, 1))[1]
    first = young_idempotent(b, t)
    assert young_idempotent(b, t) is first
    assert len(_memo_keys(b, "young_idempotent")) == 1
    clear_caches()
    # the next run's braiding is a new one, with an empty memo
    fresh = standard_hecke(2)
    assert fresh is not b and fresh.memo == {}
    assert young_idempotent(fresh, t) is not first
    assert young_idempotent(fresh, t) == first


def test_a_second_skew_symmetrizer_is_the_same_object():
    clear_caches()
    b = standard_hecke(2)
    first = skew_symmetrizer(b, 2)
    assert skew_symmetrizer(b, 2) is first
    assert skew_symmetrizer(b, 3) is not first
    assert _memo_keys(b, "skew_symmetrizer") == [("skew_symmetrizer", 2),
                                                 ("skew_symmetrizer", 3)]
    # a product keeps the symmetrizer's packed load with it
    assert (first * first) == first and first._load is not None
    clear_caches()
    fresh = standard_hecke(2)
    assert skew_symmetrizer(fresh, 2) is not first
    assert skew_symmetrizer(fresh, 2) == first


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
    assert len(_memo_keys(standard_hecke(3), "young_idempotent")) == 4
    assert shared == cold
    assert all('"passed": true' in text for text in cold)


def test_each_hecke_chain_is_built_once_per_braiding_and_degree(
        count_calls):
    # Jucys-Murphy lists and trace action operators live in the braiding
    # memo: a serial grid builds each once per (braiding, k)
    chains = count_calls(heckerep._jucys_murphy_chain)
    inverses = count_calls(heckerep.jucys_murphy_inverse)
    assert run_all().passed
    lists = [(id(at.__self__), k) for at, _, k in chains
             if at.__name__ == "at"]
    operators = [(id(b), k) for b, k in inverses]
    assert lists and operators
    assert len(lists) == len(set(lists))
    assert len(operators) == len(set(operators))


def test_no_memo_holds_a_capelli_difference():
    # a difference is read by the routes of one row's point, so it lives
    # in that row and not in the braiding memo
    for mode in ("EXACT", "SAMPLED"):
        report = run_suite(SuiteConfig("capelli", n=2, k=2, mode=mode))
        assert report.passed, report.failures()
    assert braidings._hecke_cache
    assert not any(_memo_keys(b, "capelli_difference")
                   for b in braidings._hecke_cache.values())


def test_no_action_operator_is_solved_twice_under_jobs(monkeypatch,
                                                        tmp_path):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the spy reaches pool workers only when they fork")
    log = tmp_path / "solves.txt"
    real = doubles._solve_action_operator

    def spy(double, a, k):
        d = double.definition
        key = (double.braiding.dim, d.kind, d.h, d.b_quotient, a, k)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(repr(key) + "\n")
        return real(double, a, k)

    monkeypatch.setattr(doubles, "_solve_action_operator", spy)
    assert run_all(jobs=2).passed
    keys = log.read_text(encoding="utf-8").splitlines()
    assert keys
    assert len(keys) == len(set(keys)), sorted(keys)


def test_nothing_is_built_twice_under_jobs(monkeypatch, tmp_path):
    # one task per braiding: a worker never rebuilds a braiding or a Young
    # idempotent that the other built, so the counts are the serial ones
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the spy reaches pool workers only when they fork")
    log = tmp_path / "builds.txt"
    for module, name in ((braidings, "_build_standard_hecke"),
                         (heckerep, "_build_young_idempotent")):
        def spy(*args, real=getattr(module, name), name=name):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(name + "\n")
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    counts = []
    for jobs in (1, 2):
        log.write_text("", encoding="utf-8")
        assert run_all(jobs=jobs).passed
        counts.append(dict(collections.Counter(
            log.read_text(encoding="utf-8").splitlines())))
    serial = {"_build_standard_hecke": 4, "_build_young_idempotent": 21}
    assert counts == [serial, serial]


def _memo_sizes():
    """Cached braidings, and the projectors and operators in their memos."""
    cached = braidings._hecke_cache.values()
    return (len(cached),
            sum(len(_memo_keys(b, "young_idempotent")) for b in cached),
            sum(len(_memo_keys(b, "action_operator")) for b in cached))


@pytest.mark.parametrize("step", ["first", "second"])
def test_each_test_starts_with_no_memoized_braiding(step):
    # the first step leaves a braiding memoized; the second must not see it
    assert not braidings._hecke_cache
    standard_hecke(2)
    assert braidings._hecke_cache


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


def test_a_copy_or_a_point_of_a_braiding_starts_with_an_empty_memo():
    b = standard_hecke(2)
    b.trace_form()
    assert b.memo
    spoiled = copy.copy(b)
    assert spoiled.memo == {} and spoiled.memo is not b.memo
    spoiled.trace_form()
    assert spoiled.memo[("trace_form",)] is not b.memo[("trace_form",)]
    keys = set(b.memo)
    point = b.substituted(Fraction(7, 3))
    assert point.memo == {}
    assert point.trace_form() is not b.trace_form()
    assert set(b.memo) == keys


def _double_key(braiding, kind, h=None, b_quotient="free") -> tuple:
    return braiding, kind, h, b_quotient


def _presentation_key(braiding, tag, use_inverse=False, shift=None) -> tuple:
    return braiding, tag, use_inverse, shift


def _by_identity(keys: list) -> list:
    """The keys with each braiding replaced by its id (the calls keep
    every braiding alive, so no id is reused)."""
    return [(id(key[0]),) + key[1:] for key in keys]


def _reachable(root) -> list:
    """The objects reachable from root, not looking into classes,
    modules or functions."""
    seen = {}
    stack = [root]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(
                x, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(x)] = x
        stack.extend(gc.get_referents(x))
    return list(seen.values())


def test_a_grid_defines_each_double_and_presentation_once(count_calls,
                                                          monkeypatch):
    made = count_calls(doubles.make_double, _double_key)
    extracted = count_calls(doubles._extract_rule)
    asked = count_calls(ncengine.re_presentation, _presentation_key)
    built = count_calls(ncengine._re_presentation)
    certified = []
    certify = QuadraticPresentation._certify

    def spy(self):
        certified.append(self)
        return certify(self)

    monkeypatch.setattr(QuadraticPresentation, "_certify", spy)
    checked = []
    define = doubles.DoubleDefinition.__init__
    monkeypatch.setattr(doubles.DoubleDefinition, "__init__",
                        lambda self, kind, *args: checked.append(kind)
                        or define(self, kind, *args))
    wrapped = []
    wrap = QuantumDouble.__init__
    monkeypatch.setattr(QuantumDouble, "__init__",
                        lambda self, braiding, definition: wrapped.append(
                            definition) or wrap(self, braiding, definition))
    assert run_all().passed
    # one rule extraction per distinct (braiding, kind, h, b_quotient)
    definitions = set(_by_identity(made))
    assert len(definitions) == 11 and len(made) > len(definitions)
    assert len(extracted) == len(definitions)
    # the definition checks run once per definition: the 11 of make_double
    # and the 2 that u2h builds, not once per double
    assert len(checked) == 13
    assert checked.count("compact_derivative") == 2
    assert len(wrapped) == 33 and len({id(d) for d in wrapped}) == 13
    # one build per distinct presentation, however often it is asked for
    assert len(asked) > len(built)
    assert len(set(_by_identity(built))) == len(built)
    assert set(_by_identity(built)) == set(_by_identity(asked))
    # and no presentation is certified twice
    assert certified
    assert len({id(p) for p in certified}) == len(certified)
    # the memos hold definitions, never a double
    cached = list(braidings._hecke_cache.values())
    assert any(_memo_keys(b, "double") for b in cached)
    assert not any(isinstance(x, QuantumDouble)
                   for b in cached for x in _reachable(b.memo))


def test_a_grid_builds_each_trace_form_once(monkeypatch):
    built = []
    real = braidings.rtrace_form
    monkeypatch.setattr(braidings, "rtrace_form",
                        lambda b: built.append(b.dim) or real(b))
    assert run_all().passed
    # the braiding suite reads the memoized form that later rows share
    assert sorted(built) == [1, 2, 3, 4]


def test_the_memo_holds_the_definition_and_no_double():
    b = standard_hecke(2)
    first = make_double(b, "left")
    l11 = NCElement.generator(Gen(first.a_tag, 1, 1))
    m12 = NCElement.generator(Gen(first.b_tag, 1, 2))
    first.act(l11, m12)
    first.normal_order(l11 * m12)
    assert first._kernel is not None and first._order_cache
    shared = (first.rule, first.a_pres, first.b_pres, first.presentation)
    dropped = weakref.ref(first)
    del first
    gc.collect()
    assert dropped() is None
    second = make_double(b, "left")
    assert second._order_cache == {} and second._kernel is None
    assert all(x is y for x, y in zip(
        (second.rule, second.a_pres, second.b_pres, second.presentation),
        shared))


def test_a_failed_certificate_fails_on_every_call(monkeypatch):
    # a later row sharing the presentation must not pass on the rows the
    # failed certificate left behind
    d = spoiled_copy(make_double(standard_hecke(2), "left"),
                     lambda image: image + image)
    runs = []
    certify = QuadraticPresentation._certify
    monkeypatch.setattr(QuadraticPresentation, "_certify",
                        lambda self: runs.append(self) or certify(self))
    messages = []
    for _ in range(3):
        with pytest.raises(PresentationError,
                           match="is not certified") as err:
            d.presentation.ensure(3)
        messages.append(str(err.value))
    cubic = NCElement.word(tuple(d.presentation.generators[:3]))
    with pytest.raises(PresentationError, match="is not certified"):
        d.binormal_form(cubic)
    assert len(runs) == 1 and len(set(messages)) == 1


class _ReversePool:
    """A pool that runs the tasks in this process, last task first and
    each task's rows last row first, and hands back their results in
    task and row order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task[::-1])[::-1] for task in tasks[::-1]][::-1]


def test_reverse_task_order_gives_the_same_rows_and_summary(monkeypatch):
    # shared presentations keep the rows their reductions stored; no
    # verdict or byte may depend on which row stored them.  The serial
    # run goes in grid order, the reverse pool against it
    ran = []
    real = suites._timed_run

    def spy(config):
        report, ms = real(config)
        ran.append(report.to_json())
        return report, ms

    monkeypatch.setattr(suites, "_timed_run", spy)
    grid = suites.acceptance_grid()
    serial = run_all().to_json()
    forward = dict(zip((label for label, _ in grid), ran))
    ran.clear()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _ReversePool)
    assert run_all(jobs=2).to_json() == serial
    reverse = [label for task in suites.grid_tasks(grid)[::-1]
               for label, _ in task[::-1]]
    assert reverse[0] == "u2h" and reverse[-1] == "braiding-n1"
    assert dict(zip(reverse, ran)) == forward


