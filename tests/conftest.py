"""Shared pytest plumbing: the acceptance-criteria summary block, cold
caches for every test, a spy that counts the calls of a redouble
function, and spoilers for the verifiers that act through a double."""

from __future__ import annotations

import sys

import pytest

from redouble.doubles import DoubleDefinition, PermutationRule, QuantumDouble
from redouble.ncengine import Gen, NCElement
from redouble.suites import clear_caches

# test_acceptance.py records one line per criterion here; the terminal
# summary below re-emits them after the run, outside output capture.
ACCEPTANCE_LINES: dict = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[num])


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with no memoized braiding, so a test that patches a
    builder behind the memo reads its own build, not an earlier test's."""
    clear_caches()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) -> the argument tuples of fn's later calls.

    The spy replaces fn in every redouble module that holds it, so calls
    through any `from ... import` binding are counted.  With
    count_calls(fn, key), key(*args, **kwargs) is recorded in place of
    the argument tuple.
    """
    def install(fn, key=None) -> list:
        calls = []

        def spy(*args, **kwargs):
            calls.append(args if key is None else key(*args, **kwargs))
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "redouble" or name.startswith("redouble."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, spy)
        return calls

    return install


@pytest.fixture
def spoil_action(monkeypatch):
    """spoil_action(spoiled): act_each adds m11 to every image of an
    acting element x with spoiled(x), and acts as before otherwise."""
    def install(spoiled) -> None:
        act_each = QuantumDouble.act_each
        m11 = NCElement.generator(Gen("m", 1, 1))

        def spoiling(self, xs, targets):
            xs = list(xs)
            for x, images in zip(xs, act_each(self, xs, targets)):
                if spoiled(x):
                    images = [image + m11 for image in images]
                yield images

        monkeypatch.setattr(QuantumDouble, "act_each", spoiling)

    return install


def spoiled_copy(double: QuantumDouble, spoil) -> QuantumDouble:
    """A copy of double whose first rule image is spoil(image).

    The copy has its own definition, with its own rule table and
    presentation, so the definition that make_double shares stays whole.
    """
    d = double.definition
    table = dict(d.rule.table)
    pair, image = next(iter(table.items()))
    table[pair] = spoil(image)
    return QuantumDouble(double.braiding, DoubleDefinition(
        d.kind, d.dim, d.a_pres, d.b_pres,
        PermutationRule(d.a_tag, d.b_tag, table), d.eps_a, d.h,
        d.b_quotient))


def first_term_again(image: NCElement) -> NCElement:
    """image plus its first term: a spoiled rule image."""
    return image + NCElement.word(*next(iter(image.terms.items())))


@pytest.fixture
def spoil_rule(monkeypatch):
    """spoil_rule(module): the make_double that module calls returns
    spoiled copies of its doubles, whose first rule image is doubled."""
    def install(module) -> None:
        make_double = module.make_double

        def spoiled(*args, **kwargs):
            return spoiled_copy(make_double(*args, **kwargs),
                                lambda image: image + image)

        monkeypatch.setattr(module, "make_double", spoiled)

    return install
