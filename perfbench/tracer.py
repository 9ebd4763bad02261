"""Spans and counts around redouble's layers, installed from outside.

`Tracer.install` wraps the public functions and methods that the
benchmark's per-layer metrics name.  Nothing under `src/` is edited:

* module functions are rebound in every `redouble` module that holds
  them, because `suites`, `invariants`, `capelli` and others import them
  with `from ... import`;
* methods are replaced on their class;
* `Scalar` operators only count (a span per scalar operation would cost
  more than the operation).

Spans (name, start, end, parent) stay in memory in flat arrays and are
written out once, when the process ends: by the caller for the main
process, and by a multiprocessing finalizer for each forked pool worker,
which inherits the wrappers and starts with empty buffers.  `aggregate`
turns the files of one run into the per-layer metrics.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import sys
import time
import weakref
from multiprocessing import util as mp_util

# Span layers: (module, owner, attribute, span name).  An owner of None
# means a module-level function; otherwise a class defined in the module.
SPANS = (
    ("linalg", "Triangular", "insert", "linalg.insert"),
    ("linalg", "Triangular", "reduce", "linalg.reduce"),
    ("ncengine", "QuadraticPresentation", "ensure", "ncengine.ensure"),
    ("ncengine", "QuadraticPresentation", "normal_form",
     "ncengine.normal_form"),
    ("ncengine", "MatrixOverAlgebra", "__mul__", "ncengine.matrix_mul"),
    ("ncengine", "MatrixOverAlgebra", "lmul_op", "ncengine.matrix_mul"),
    ("ncengine", "MatrixOverAlgebra", "rmul_op", "ncengine.matrix_mul"),
    ("braidings", "TensorOperator", "__mul__", "braidings.tensor_mul"),
    ("heckerep", None, "young_idempotent", "heckerep.young_idempotent"),
    ("doubles", None, "make_double", "doubles.make_double"),
    ("doubles", None, "action_operator", "doubles.action_operator"),
    ("doubles", "QuantumDouble", "normal_order", "doubles.normal_order"),
    ("doubles", "QuantumDouble", "act_mixed", "doubles.act_mixed"),
    ("doubles", "QuantumDouble", "binormal_form", "doubles.binormal_form"),
    ("invariants", None, "verify_spectrum", "invariants.verify_spectrum"),
    ("invariants", None, "verify_cayley_hamilton",
     "invariants.verify_cayley_hamilton"),
    ("capelli", None, "verify_capelli_action",
     "capelli.verify_capelli_action"),
    ("adjoint_orbits", None, "verify_orbit_descent",
     "adjoint_orbits.verify_orbit_descent"),
    ("u2h", None, "verify_derivative_commutativity", "u2h.verify"),
    ("u2h", None, "verify_dhat_homomorphism", "u2h.verify"),
    ("u2h", None, "verify_radius", "u2h.verify"),
    ("u2h", None, "verify_shift_structure", "u2h.verify"),
    ("u2h", None, "classical_limit_report", "u2h.verify"),
    ("suites", None, "run_suite", "suites.run_suite"),
)

# Count-only layers: (module, owner, attribute, counter name).
COUNTS = (
    ("scalars", "Scalar", "__mul__", "scalars.mul"),
    ("scalars", "Scalar", "__add__", "scalars.add"),
    ("scalars", "Scalar", "inverse", "scalars.inverse"),
    ("scalars", "Scalar", "with_value", "scalars.with_value"),
    ("ncengine", "QuadraticPresentation", "__init__",
     "ncengine.presentations_built"),
    ("braidings", None, "standard_hecke", "braidings.standard_hecke"),
    ("doubles", "QuantumDouble", "substituted", "doubles.substituted"),
)

# Span names whose calls are also checked for repeated argument values.
REPEATS = ("heckerep.young_idempotent", "doubles.make_double",
           "doubles.action_operator")

_TRIVIAL = ((1,), (-1,))


def value_key(x):
    """Hashable key equal for arguments of equal mathematical value."""
    # Imported here: run.py loads this module for `aggregate` without
    # redouble on its path.
    from redouble.braidings import Braiding
    from redouble.doubles import QuantumDouble
    from redouble.ncengine import NCElement
    if isinstance(x, Braiding):
        return ("Braiding", x.dim, x.q,
                frozenset((r, c, v) for r, cs in x.op.rows.items()
                          for c, v in cs.items()))
    if isinstance(x, NCElement):
        return ("NCElement", frozenset(x.terms.items()))
    if isinstance(x, QuantumDouble):
        return ("QuantumDouble", value_key(x.braiding), x.kind, x.a_tag,
                x.b_tag, x.max_word, frozenset(x.eps_a.items()),
                frozenset((k, value_key(v))
                          for k, v in x.rule.table.items()))
    if isinstance(x, (list, tuple)):
        return tuple(value_key(v) for v in x)
    return x  # Scalar, StandardTableau, str, int and None hash by value


class Tracer:
    """Span buffers and counters for one process of one traced run."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self._seen_pairs: set = set()
        self._seen_args: dict = {name: set() for name in REPEATS}
        self._seen_words = weakref.WeakKeyDictionary()
        self._saved: list = []  # (owner object, attribute, original)
        self._originals: dict = {}  # id(original) -> original

    # -- buffers ------------------------------------------------------------

    def _reset(self) -> None:
        """Empty every buffer in place; the wrappers hold references."""
        for buf in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del buf[:]
        self._stack[:] = [-1]
        for key in self.counts:
            self.counts[key] = 0
        self._seen_pairs.clear()
        for seen in self._seen_args.values():
            seen.clear()
        self._seen_words.clear()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def dump(self) -> None:
        """Write this process's spans and counts to the run directory."""
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "run_id": self.run_id,
                "pid": os.getpid(),
                "names": self.names,
                "span_name": self.span_name.tolist(),
                "span_parent": self.span_parent.tolist(),
                "span_start": self.span_start.tolist(),
                "span_end": self.span_end.tolist(),
                "counts": self.counts,
            }, handle)

    def _after_fork(self) -> None:
        # Runs in each forked pool worker, after multiprocessing cleared the
        # finalizers it inherited; the worker writes its own file on exit.
        self._reset()
        mp_util.Finalize(self, self.dump, exitpriority=10)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        seen = self._seen_args.get(name)
        if seen is not None:
            signature = inspect.signature(fn)
            counts = self.counts
            repeat = name + "_repeat"
            counts[repeat] = 0

        def wrapper(*args, **kwargs):
            if seen is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = value_key(tuple(bound.arguments.values()))
                if key in seen:
                    counts[repeat] += 1
                else:
                    seen.add(key)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul_wrapper(self, fn, name: str):
        counts = self.counts
        for key in (name, name + "_repeat", name + "_trivial"):
            counts[key] = 0
        seen = self._seen_pairs
        scalar_cls = sys.modules["redouble.scalars"].Scalar

        def mul(a, b):
            counts[name] += 1
            if isinstance(b, scalar_cls):
                if (a.den == (1,) and a.num in _TRIVIAL) or \
                        (b.den == (1,) and b.num in _TRIVIAL):
                    counts[name + "_trivial"] += 1
                pair = (a, b)
                if pair in seen:
                    counts[name + "_repeat"] += 1
                else:
                    seen.add(pair)
            return fn(a, b)

        return mul

    def _insert_wrapper(self, fn, name: str):
        span = self._span_wrapper(fn, name)
        counts = self.counts
        counts[name + "_useful"] = 0

        def insert(tri, vec):
            pivot = span(tri, vec)
            if pivot is not None:
                counts[name + "_useful"] += 1
            return pivot

        return insert

    def _normal_form_wrapper(self, fn, name: str):
        span = self._span_wrapper(fn, name)
        counts = self.counts
        counts["ncengine.nf_words"] = 0
        counts["ncengine.nf_word_repeat"] = 0
        seen_words = self._seen_words

        def normal_form(pres, x):
            seen = seen_words.get(pres)
            if seen is None:
                seen = seen_words[pres] = set()
            for w in x.terms:
                counts["ncengine.nf_words"] += 1
                if w in seen:
                    counts["ncengine.nf_word_repeat"] += 1
                else:
                    seen.add(w)
            return span(pres, x)

        return normal_form

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import redouble.cli  # noqa: F401  (loads every layer module)
        modules = _redouble_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        special = {"scalars.mul": self._mul_wrapper,
                   "linalg.insert": self._insert_wrapper,
                   "ncengine.normal_form": self._normal_form_wrapper}
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for module, owner, attr, name in table:
                target = by_name[module] if owner is None \
                    else getattr(by_name[module], owner)
                original = target.__dict__[attr]
                wrapper = special.get(name, make)(original, name)
                functools.update_wrapper(wrapper, original)
                self._originals[id(original)] = original
                if owner is not None:
                    self._patch(target, attr, wrapper)
                    continue
                # A module function: rebind it wherever it was imported.
                for mod in modules:
                    for held, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, held, wrapper)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def unwrapped_holders(self) -> list:
        """Module names still bound to a function that should be wrapped."""
        return [f"{mod.__name__}.{attr}"
                for mod in _redouble_modules()
                for attr, value in vars(mod).items()
                if self._originals.get(id(value)) is value]


def _redouble_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and
            (name == "redouble" or name.startswith("redouble."))]


def snapshot() -> dict:
    """Every attribute of every redouble module and of its classes."""
    out = {}
    for mod in _redouble_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def changed(before: dict, after: dict) -> list:
    """Keys of `before` bound to another object, or gone, in `after`.

    Attributes a run adds (pickling caches `__slotnames__` on classes it
    sends to pool workers) are not the tracer's and are left out.
    """
    return sorted(str(k) for k in before if before[k] is not after.get(k))


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics

def _ratio(num: int, base: int) -> float:
    return num / base if base else 0.0


def aggregate(trace_dir: str, jobs: int, wall_s: float) -> dict:
    """Per-layer metric values from the trace files of one run.

    Returns {metric: (value, is_exact_count)}; `_s` metrics are self time
    (a span's duration minus its child spans), summed over processes.
    """
    calls: dict = {}
    self_s: dict = {}
    counts: dict = {}
    rows = []  # durations of run_suite spans
    for fname in sorted(os.listdir(trace_dir)):
        if not fname.startswith("trace-"):
            continue
        with open(os.path.join(trace_dir, fname), encoding="utf-8") as fh:
            data = json.load(fh)
        names = data["names"]
        starts, ends = data["span_start"], data["span_end"]
        durations = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(durations)
        for i, p in enumerate(data["span_parent"]):
            if p >= 0:
                child[p] += durations[i]
        for i, nid in enumerate(data["span_name"]):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + durations[i] - child[i]
            if name == "suites.run_suite":
                rows.append(durations[i])
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def c(name):
        return counts.get(name, 0)

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    exact = {
        "scalars.mul_calls": c("scalars.mul"),
        "scalars.add_calls": c("scalars.add"),
        "scalars.inverse_calls": c("scalars.inverse"),
        "scalars.mul_repeat_ratio": _ratio(c("scalars.mul_repeat"),
                                           c("scalars.mul")),
        "scalars.mul_trivial_ratio": _ratio(c("scalars.mul_trivial"),
                                            c("scalars.mul")),
        "scalars.with_value_calls": c("scalars.with_value"),
        "linalg.insert_calls": n("linalg.insert"),
        "linalg.insert_useful_ratio": _ratio(c("linalg.insert_useful"),
                                             n("linalg.insert")),
        "linalg.reduce_calls": n("linalg.reduce"),
        "ncengine.normal_form_calls": n("ncengine.normal_form"),
        "ncengine.nf_word_repeat_ratio": _ratio(
            c("ncengine.nf_word_repeat"), c("ncengine.nf_words")),
        "ncengine.presentations_built": c("ncengine.presentations_built"),
        "braidings.standard_hecke_calls": c("braidings.standard_hecke"),
        "heckerep.young_idempotent_calls": n("heckerep.young_idempotent"),
        "heckerep.young_idempotent_repeat_ratio": _ratio(
            c("heckerep.young_idempotent_repeat"),
            n("heckerep.young_idempotent")),
        "doubles.make_double_calls": n("doubles.make_double"),
        "doubles.make_double_repeat_ratio": _ratio(
            c("doubles.make_double_repeat"), n("doubles.make_double")),
        "doubles.action_operator_calls": n("doubles.action_operator"),
        "doubles.action_operator_repeat_ratio": _ratio(
            c("doubles.action_operator_repeat"),
            n("doubles.action_operator")),
        "doubles.normal_order_calls": n("doubles.normal_order"),
        "doubles.act_mixed_calls": n("doubles.act_mixed"),
        "doubles.substituted_calls": c("doubles.substituted"),
        "suites.rows": n("suites.run_suite"),
    }
    timed = {
        "linalg.insert_s": s("linalg.insert"),
        "linalg.reduce_s": s("linalg.reduce"),
        "ncengine.ensure_s": s("ncengine.ensure"),
        "ncengine.normal_form_s": s("ncengine.normal_form"),
        "ncengine.matrix_mul_s": s("ncengine.matrix_mul"),
        "braidings.tensor_mul_s": s("braidings.tensor_mul"),
        "heckerep.young_idempotent_s": s("heckerep.young_idempotent"),
        "doubles.make_double_s": s("doubles.make_double"),
        "doubles.action_operator_s": s("doubles.action_operator"),
        "doubles.normal_order_s": s("doubles.normal_order"),
        "doubles.act_mixed_s": s("doubles.act_mixed"),
        "doubles.binormal_form_s": s("doubles.binormal_form"),
        "invariants.verify_spectrum_s": s("invariants.verify_spectrum"),
        "invariants.verify_cayley_hamilton_s":
            s("invariants.verify_cayley_hamilton"),
        "capelli.verify_capelli_action_s":
            s("capelli.verify_capelli_action"),
        "adjoint_orbits.verify_orbit_descent_s":
            s("adjoint_orbits.verify_orbit_descent"),
        "u2h.verify_s": s("u2h.verify"),
        "suites.row_max_s": max(rows, default=0.0),
        "suites.worker_busy_ratio": _ratio(sum(rows), jobs * wall_s),
    }
    out = {k: (v, True) for k, v in exact.items()}
    out.update({k: (v, False) for k, v in timed.items()})
    return out
