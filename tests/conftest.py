"""Shared pytest plumbing: the acceptance-criteria summary block, cold
caches for every test, and a spy that counts the calls of a redouble
function."""

from __future__ import annotations

import sys

import pytest

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
    through any `from ... import` binding are counted.
    """
    def install(fn) -> list:
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "redouble" or name.startswith("redouble."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, spy)
        return calls

    return install
