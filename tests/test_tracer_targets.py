"""Every layer the benchmark tracer wraps is defined where it looks.

perfbench/tracer.py replaces `owner.__dict__[attr]` (or a module
function) by a wrapper; an attribute that is only inherited, or that
moved to another module, makes a traced run die with a KeyError.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

import redouble.cli  # noqa: F401  (loads every layer module)

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [entry[:3] for entry in module.SPANS + module.COUNTS]


TARGETS = _tracer_tables()


@pytest.mark.parametrize(
    "module,owner,attr", TARGETS,
    ids=[".".join(p for p in t if p is not None) for t in TARGETS])
def test_traced_attribute_is_defined_on_its_owner(module, owner, attr):
    mod = importlib.import_module(f"redouble.{module}")
    target = mod if owner is None else getattr(mod, owner)
    assert attr in vars(target)
