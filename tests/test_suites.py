"""Suite assembly, the acceptance grid, and exit-status classification."""

from __future__ import annotations

import concurrent.futures
import copy
import pickle

import pytest
from conftest import first_term_again, spoiled_copy

from redouble import capelli, doubles, invariants, ncengine, suites, u2h
from redouble.anchors import ANCHORS, CONJECTURAL, anchor, is_conjectural
from redouble.braidings import (Braiding, BraidingError, TensorOperator,
                                braiding_residuals, standard_hecke)
from redouble.doubles import QuantumDouble
from redouble.heckerep import partitions, standard_tableaux
from redouble.ncengine import NCElement, matrix_generators
from redouble.reports import VerificationReport
from redouble.scalars import ONE, Scalar
from redouble.suites import (
    SUITES,
    SuiteConfig,
    acceptance_grid,
    clear_caches,
    exit_code_for,
    grid_tasks,
    run_all,
    run_suite,
)


def test_every_registered_suite_has_a_runner():
    for name in SUITES:
        report = None
        if name in ("braiding", "spectrum", "orbits"):
            report = run_suite(SuiteConfig(name, n=1))
            assert report.passed, name
    with pytest.raises(ValueError):
        run_suite(SuiteConfig("spectra"))


def test_braiding_suite_exact_checks():
    report = run_suite(SuiteConfig("braiding", n=3))
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == \
        ["braid-relation", "hecke-condition", "braiding-inverse",
         "trace-property"]


def test_braiding_suite_sampled_is_seed_reproducible():
    one = run_suite(SuiteConfig("braiding", n=2, mode="SAMPLED", seed=11))
    two = run_suite(SuiteConfig("braiding", n=2, mode="SAMPLED", seed=11))
    assert one.passed
    assert len(one.checks) == 10
    assert one.to_json() == two.to_json()
    other = run_suite(SuiteConfig("braiding", n=2, mode="SAMPLED", seed=12))
    assert [c["id"] for c in one.checks] != [c["id"] for c in other.checks]
    with pytest.raises(ValueError):
        run_suite(SuiteConfig("braiding", n=2, mode="APPROX"))


def _edited(b, edit):
    """R of b with edit(rows) applied, and the ids of the identities it
    fails, read from an unverified copy of b on it."""
    rows = {r: dict(cs) for r, cs in b.op.rows.items()}
    edit(rows)
    op = TensorOperator(b.dim, 2, rows)
    spoiled = copy.copy(b)
    spoiled.op, spoiled.inv = op, op - b.identity(2).scale(b.nu)
    return op, {name for name, residual in braiding_residuals(spoiled).items()
                if not residual.is_zero()}


def test_a_doubled_diagonal_entry_is_no_braiding():
    # doubling q in R fails every identity; construction names the first
    b = standard_hecke(2)

    def double_q(rows):
        rows[(1, 1)][(1, 1)] = b.q + b.q

    op, failed = _edited(b, double_q)
    assert failed == {"braid-relation", "hecke-condition", "braiding-inverse"}
    with pytest.raises(BraidingError,
                       match=r"^doubled: braid relation failed$"):
        Braiding(2, b.q, op, "doubled")


def test_a_hecke_operator_off_the_braid_relation_is_no_braiding():
    # moving the nu of the (1, 3) pair to the cell of (1, 3) keeps each
    # 2x2 block Hecke but breaks the braid relation on V^3
    b = standard_hecke(3)

    def move_nu(rows):
        rows[(1, 3)][(1, 3)] = rows[(3, 1)].pop((3, 1))

    op, failed = _edited(b, move_nu)
    assert failed == {"braid-relation"}
    with pytest.raises(BraidingError, match=r"^moved: braid relation failed$"):
        Braiding(3, b.q, op, "moved")


def test_heckerep_suite_checks():
    report = run_suite(SuiteConfig("heckerep", n=2, k=2))
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == [
        "jm-commutativity", "skew-idempotent", "skew-absorption",
        "skew-rank-top", "skew-vanish-above", "projector-complete",
        "projector-orthogonal", "projector-jm-eigenvalue",
        "projector-classical-rank"]


def test_doubles_suite_covers_every_kind():
    report = run_suite(SuiteConfig("doubles", n=2, seed=5))
    assert report.passed, report.failures()
    ids = [c["id"] for c in report.checks]
    assert len(ids) == 28
    for kind in ("left", "left_shifted", "adjoint", "adjoint_shifted",
                 "derivative", "derivative_shifted", "vector"):
        assert f"construction-{kind}" in ids
        assert f"unit-action-{kind}" in ids
        assert f"representation-{kind}" in ids
        assert f"ideal-compatibility-{kind}" in ids


def _spoil(monkeypatch, name, wrong):
    """Replace QuantumDouble.name by wrong(real, self, *args); returns the
    argument tuples of the calls, in order."""
    real = getattr(QuantumDouble, name)
    calls = []

    def spoiled(self, *args):
        calls.append(args)
        return wrong(real, self, *args)

    monkeypatch.setattr(QuantumDouble, name, spoiled)
    return calls


def _unit_plus_one(real, self, a, b):
    out = real(self, a, b)
    return out + NCElement.constant(ONE) if b.terms == {(): ONE} else out


@pytest.mark.parametrize("check", ["unit-action", "representation",
                                   "ideal-compatibility"])
def test_doubles_suite_names_the_first_failure(monkeypatch, check):
    monkeypatch.setattr(suites, "_DOUBLE_KINDS", ("left",))
    if check == "unit-action":
        _spoil(monkeypatch, "act", _unit_plus_one)
    elif check == "representation":
        calls = _spoil(monkeypatch, "act_by_ordering",
                       lambda real, self, x, b: real(self, x, b) + b)
    else:
        build = suites.make_double

        def spoiled_double(*args, **kwargs):
            # one exchange-rule entry gains its image's first term again
            return spoiled_copy(build(*args, **kwargs), first_term_again)

        monkeypatch.setattr(suites, "make_double", spoiled_double)
    report = run_suite(SuiteConfig("doubles", n=2, seed=5))
    checks = {c["id"]: c for c in report.checks}
    failed = checks.pop(f"{check}-left")
    assert all(c["passed"] for c in checks.values())
    assert not failed["passed"]
    if check == "unit-action":
        assert failed["witness"].startswith("l11 on 1: ")
    elif check == "representation":
        # the first (a1·a2, target) the ordering route saw
        x, target = calls[0]
        [word] = target.terms
        a1, a2 = (f"{g!r}" for g in next(iter(x.terms)))
        assert failed["witness"] == \
            f"({a1}, {a2}, {'·'.join(map(repr, word))})"
    else:
        assert failed["witness"].startswith(
            "double(left, dim=2) is not certified: the overlap (")


def _spoiled_report(monkeypatch, check):
    """The report holding check, with check spoiled in every case."""
    if check == "projector-jm-eigenvalue":
        jm = suites.jucys_murphy
        monkeypatch.setattr(suites, "jucys_murphy", lambda b, k: [
            j.scale(Scalar.from_int(2)) for j in jm(b, k)])
    elif check == "projector-classical-rank":
        monkeypatch.setattr(suites, "weyl_dimension", lambda shape, n: -1)
    elif check == "classical-generator-action":
        _spoil(monkeypatch, "act", lambda real, self, a, b: real(
            self, a, b).scale(Scalar.from_int(2, "h")))
        return u2h.verify_shift_structure()
    else:
        derivatives = u2h._derivatives
        monkeypatch.setattr(u2h, "_derivatives", lambda double, targets: [
            {sym: v + NCElement.constant(u2h.H_ONE) for sym, v in d.items()}
            for d in derivatives(double, targets)])
        return u2h.classical_limit_report(
            u2h.derivative_double(u2h.radius_presentation()))
    return run_suite(SuiteConfig("heckerep", n=2, k=2))


@pytest.mark.parametrize("check", [
    "projector-jm-eigenvalue", "projector-classical-rank",
    "classical-generator-action", "first-order-actions"])
def test_a_check_over_many_cases_names_the_first_failure(monkeypatch,
                                                         check):
    tableaux = [t for shape in partitions(2)
                for t in standard_tableaux(shape)]
    gd, gn = next((gd, gn) for gd in matrix_generators("d", 2)
                  for gn in matrix_generators("n", 2)
                  if (gd.row, gd.col) == (gn.col, gn.row))
    first = {"projector-jm-eigenvalue": f"{tableaux[0]!r} letter 1",
             "projector-classical-rank": f"{tableaux[0]!r}: rank ",
             "classical-generator-action": f"{gd} on {gn}: ",
             "first-order-actions": f"{u2h.DX} on x: "}[check]
    [failed] = [c for c in _spoiled_report(monkeypatch, check).checks
                if c["id"] == check]
    assert len(tableaux) == 2  # both tableaux fail, the first is named
    assert not failed["passed"]
    assert failed["witness"].startswith(first), failed["witness"]


def test_spectrum_suite_pins_rank_two_closed_forms():
    for shape, chi in (((1,), "(q^4+1)/(q^5)"),
                       ((2,), "(q^6+1)/(q^7)"),
                       ((1, 1), "(q^2+1)/(q^5)")):
        report = run_suite(SuiteConfig("spectrum", n=2, shape=shape))
        assert report.passed, report.failures()
        assert report.config["chi"] == chi
        assert report.checks[-1]["id"] == "closed-form"
    away = run_suite(SuiteConfig("spectrum", n=3, shape=(1, 1)))
    assert away.passed
    assert all(c["id"] != "closed-form" for c in away.checks)


def test_conjecture_suite_merges_both_probes():
    report = run_suite(SuiteConfig("conjecture", n=2))
    assert report.passed, report.failures()
    ids = [c["id"] for c in report.checks]
    assert any(i.startswith("e1-") for i in ids)
    assert any(i.startswith("e2-2-") for i in ids)
    assert any(i.startswith("e2-2,1-") for i in ids)


def test_capelli_suite_runs_both_routes():
    report = run_suite(SuiteConfig("capelli", n=2, k=1))
    assert report.passed, report.failures()
    assert [c["id"] for c in report.checks] == ["word-route", "action-route"]


@pytest.mark.parametrize("suite,n", [("braiding", 0), ("heckerep", -1)])
def test_a_config_needs_a_positive_rank(suite, n):
    # the zero space would pass the braiding checks vacuously
    with pytest.raises(ValueError, match="n must be at least 1"):
        SuiteConfig(suite, n=n)


def test_a_config_needs_a_nonempty_shape():
    # the spectrum suite would run the partition (1) in its place
    with pytest.raises(ValueError, match="nonempty partition"):
        SuiteConfig("spectrum", n=2, shape=())


@pytest.mark.parametrize("n,k", [(1, 2), (2, 3)])
def test_capelli_rejects_a_degree_above_the_rank(n, k):
    # A^(k) vanishes for k > n: both sides are zero, nothing is checked
    with pytest.raises(ValueError, match="k <= n"):
        run_suite(SuiteConfig("capelli", n=n, k=k))


def test_exact_capelli_builds_its_sides_once(count_calls):
    clear_caches()
    calls = count_calls(capelli.capelli_sides)
    report = run_suite(SuiteConfig("capelli", n=2, k=2))
    assert report.passed, report.failures()
    assert len(calls) == 1


def test_sampled_capelli_builds_the_sides_once_per_point(count_calls):
    clear_caches()
    calls = count_calls(capelli.capelli_sides)
    report = run_suite(SuiteConfig("capelli", n=2, k=2, mode="SAMPLED"))
    assert report.passed, report.failures()
    # three points for the word route, the symbolic braiding for the action
    assert len(calls) == 4
    assert len({id(double.braiding) for double, _ in calls}) == 4


def test_exact_capelli_routes_share_one_double(count_calls):
    # EXACT's one point is the symbolic braiding: the word route and the
    # action route read one derivative double and one pair of sides
    made = count_calls(doubles.make_double)
    sides = count_calls(capelli.capelli_sides)
    report = run_suite(SuiteConfig("capelli", n=2, k=2))
    assert report.passed, report.failures()
    assert len(made) == 1 and len(sides) == 1


def test_sampled_capelli_builds_one_double_per_point_and_one_more(
        count_calls):
    made = count_calls(doubles.make_double)
    report = run_suite(SuiteConfig("capelli", n=2, k=2, mode="SAMPLED"))
    assert report.passed, report.failures()
    points = [c for c in report.checks if c["id"].startswith("word-route@")]
    # one double per point, and the symbolic one of the action route
    assert len(points) == 3
    assert len(made) == len(points) + 1


def test_an_orbits_row_builds_its_coordinate_algebra_once(count_calls):
    # the orbit quotient is built on the double's coordinate presentation
    built = count_calls(ncengine.re_presentation)
    report = run_suite(SuiteConfig("orbits", n=2))
    assert report.passed, report.failures()
    assert [args[1] for args in built].count("m") == 1


def test_conjecture_builds_its_double_and_e2_once(count_calls):
    doubles_made = count_calls(suites.make_double)
    e2_made = count_calls(invariants.elementary_symmetric)
    report = run_suite(SuiteConfig("conjecture", n=2))
    assert report.passed, report.failures()
    assert len(doubles_made) == 1 and len(e2_made) == 1


@pytest.mark.parametrize("n,shape", [(1, (1,)), (2, (2, 1)), (3, (2, 1))])
def test_a_spectrum_row_computes_its_character_once(count_calls, n, shape):
    calls = count_calls(invariants.spectral_char_trl)
    report = run_suite(SuiteConfig("spectrum", n=n, shape=shape))
    assert report.passed, report.failures()
    assert calls == [(shape, standard_hecke(n))]


def test_sampled_suites_record_the_seed():
    report = run_suite(SuiteConfig("cayley-hamilton", n=2, mode="SAMPLED",
                                   seed=9))
    assert report.passed, report.failures()
    assert report.config["seed"] == 9
    assert len(report.checks) == 3


def test_u2h_suite_aggregates_all_layers():
    report = run_suite(SuiteConfig("u2h", seed=3))
    assert report.passed, report.failures()
    ids = [c["id"] for c in report.checks]
    assert len(ids) == 53
    for expected in ("commutativity", "unit", "random-19", "bracket-zx",
                     "radius-square", "first-order-actions",
                     "substitution-consistency", "coproduct-route"):
        assert expected in ids


def test_configs_are_picklable():
    cfg = SuiteConfig("capelli", n=2, k=2, shape=(2, 1), mode="SAMPLED",
                      samples=4, seed=17)
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone.suite == cfg.suite and clone.shape == cfg.shape
    assert clone.rng().random() == cfg.rng().random()


def test_acceptance_grid_shape():
    grid = acceptance_grid()
    labels = [label for label, _ in grid]
    assert len(labels) == len(set(labels)) == 39
    assert labels[0] == "braiding-n1"
    assert "spectrum-n3-2,1" in labels
    assert labels[-1] == "u2h"
    assert dict(grid)["cayley-hamilton-n3"].mode == "EXACT"
    sampled = dict(acceptance_grid(mode="SAMPLED"))
    assert sampled["capelli-n2-k1"].mode == "SAMPLED"
    assert sampled["cayley-hamilton-n3"].mode == "SAMPLED"
    with pytest.raises(ValueError):
        acceptance_grid(mode="FAST")


def _braiding_of(row) -> object:
    """The rank of the braiding a grid row builds on; u2h builds on none."""
    return "u2h" if row[1].suite == "u2h" else row[1].n


def test_grid_tasks_partition_the_grid_in_order():
    for mode in ("EXACT", "SAMPLED"):
        grid = acceptance_grid(mode)
        tasks = grid_tasks(grid)
        # one task per braiding, in the order its first row appears
        order = [_braiding_of(task[0]) for task in tasks]
        assert order == [1, 2, 3, 4, "u2h"]
        assert all(_braiding_of(row) == _braiding_of(task[0])
                   for task in tasks for row in task)
        # each task keeps grid order, and the tasks hold every row once
        assert [row for task in tasks for row in task] == \
            sorted(grid, key=lambda row: order.index(_braiding_of(row)))


def test_rank_three_spectrum_rows_of_three_boxes_share_a_task():
    labels = [[label for label, _ in task]
              for task in grid_tasks(acceptance_grid())]
    rank_three = next(task for task in labels if "spectrum-n3-3" in task)
    # every row that builds rank-3 projectors or operators runs in one
    # process: the 3-box spectrum rows beside heckerep-n3-k3
    assert {"heckerep-n3-k3", "spectrum-n3-3", "spectrum-n3-2,1",
            "spectrum-n3-1,1,1", "conjecture-n3",
            "cayley-hamilton-n3"} <= set(rank_three)
    assert all(label.split("-n")[1].startswith("3") for label in rank_three)
    assert ["braiding-n4"] in labels and ["u2h"] in labels
    assert len(labels) == 5


def test_run_all_parallel_matches_serial():
    serial = run_all(seed=2)
    assert serial.passed, serial.failures()
    for jobs in (2, 3):
        assert run_all(seed=2, jobs=jobs).to_json() == serial.to_json(), jobs


@pytest.mark.parametrize("jobs", [1, 2, 10 ** 6])
def test_the_pool_has_no_more_workers_than_tasks(jobs, monkeypatch):
    # No process starts: the executor runs the tasks in this process and
    # each row gets an empty, passing report.  A serial run makes no pool.
    made = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(suites, "_timed_run", lambda config: (
        VerificationReport(config.suite, {}), 0.0))
    summary = run_all(jobs=jobs)
    assert summary.passed and len(summary.checks) == len(acceptance_grid())
    want = min(jobs, len(grid_tasks(acceptance_grid())))
    assert made == ([] if jobs == 1 else [want])


def test_exit_code_classification():
    good = VerificationReport("capelli")
    good.add("word-route", "x", True)
    assert exit_code_for(good) == 0

    hard = VerificationReport("capelli")
    hard.add("word-route", "x", False)
    assert exit_code_for(hard) == 1

    probe = VerificationReport("conjecture")
    probe.add("e2-2-tableau-1", anchor("conjecture-e2"), False)
    assert exit_code_for(probe) == 2
    probe.add("e1-2", anchor("character-e1-consistency"), False)
    assert exit_code_for(probe) == 1

    # An `all` row that failed only on probes carries a probe's anchor.
    summary = VerificationReport("all")
    summary.add("conjecture-n2", anchor("conjecture-pk"), False)
    summary.add("capelli-n2-k1", "grid", True)
    assert exit_code_for(summary) == 2
    summary.add("capelli-n2-k2", "grid", False)
    assert exit_code_for(summary) == 1


def test_conjectural_labels_are_not_shared():
    labels = {ANCHORS[k] for k in CONJECTURAL}
    assert all(is_conjectural(label) for label in labels)
    for key, label in ANCHORS.items():
        assert (key in CONJECTURAL) == (label in labels), key
