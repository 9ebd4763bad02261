"""Driver flags, report serialization, and exit statuses."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import time

import pytest

import redouble
from redouble import adjoint_orbits
from redouble.cli import ENGINE_ERRORS, main
from redouble.anchors import anchor
from redouble.braidings import BraidingError
from redouble.capelli import StructureError
from redouble.doubles import DoubleDefinition, DoubleError, QuantumDouble
from redouble.heckerep import IdempotentError
from redouble.invariants import SpectralCharacter
from redouble.ncengine import (Gen, NCElement, PresentationError,
                               QuadraticPresentation, matrix_generators)
from redouble.reports import VerificationReport
from redouble.scalars import ONE, MixedParameterError, PoleError
from redouble.suites import (SUITES, SuiteConfig, acceptance_grid,
                             replay_command, run_all)
from redouble.u2h import UnsupportedElementError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_example_output(capsys):
    code, out, err = run_cli(capsys, "--suite", "spectrum", "--n", "2",
                             "--lambda", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["suite"] == "spectrum"
    assert payload["config"]["chi"] == "(q^2+1)/(q^5)"
    assert payload["passed"] is True
    assert all(c["wall_time_ms"] is None for c in payload["checks"])
    assert "spectrum" in err


def test_default_output_is_deterministic(capsys):
    _, one, _ = run_cli(capsys, "--suite", "braiding", "--n", "2",
                        "--mode", "SAMPLED", "--seed", "4")
    _, two, _ = run_cli(capsys, "--suite", "braiding", "--n", "2",
                        "--mode", "SAMPLED", "--seed", "4")
    assert one == two


def test_out_flag_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--suite", "braiding", "--n", "1",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["suite"] == "braiding"
    assert payload["passed"] is True


def test_sampled_braiding_report_replays_from_its_config(capsys):
    _, first, _ = run_cli(capsys, "--suite", "braiding", "--n", "3",
                          "--mode", "SAMPLED", "--seed", "7")
    config = json.loads(first)["config"]
    assert config == {"mode": "SAMPLED", "n": 3, "samples": 3, "seed": 7}
    replay = [arg for key in sorted(config)
              for arg in (f"--{key}", str(config[key]))]
    _, again, _ = run_cli(capsys, "--suite", "braiding", *replay)
    assert again == first
    # the seed picks the points, so dropping it would not replay
    _, other, _ = run_cli(capsys, "--suite", "braiding", "--n", "3",
                          "--mode", "SAMPLED")
    assert other != first
    _, exact, _ = run_cli(capsys, "--suite", "braiding", "--n", "3",
                          "--seed", "7")
    assert json.loads(exact)["config"] == {"mode": "EXACT", "n": 3}


def test_sampled_report_replays_its_sample_count(capsys):
    _, first, _ = run_cli(capsys, "--suite", "cayley-hamilton", "--n", "2",
                          "--mode", "SAMPLED", "--samples", "5",
                          "--seed", "7")
    config = json.loads(first)["config"]
    assert config == {"mode": "SAMPLED", "n": 2, "samples": 5, "seed": 7}
    replay = [arg for key in sorted(config)
              for arg in (f"--{key}", str(config[key]))]
    _, again, _ = run_cli(capsys, "--suite", "cayley-hamilton", *replay)
    assert again == first
    # the default count draws other points, so dropping it would not replay
    _, other, _ = run_cli(capsys, "--suite", "cayley-hamilton", "--n", "2",
                          "--mode", "SAMPLED", "--seed", "7")
    assert other != first


def test_timings_flag_adds_wall_time(capsys):
    _, plain, _ = run_cli(capsys, "--suite", "braiding", "--n", "1")
    _, timed, _ = run_cli(capsys, "--suite", "braiding", "--n", "1",
                          "--timings")
    assert "wall_time_ms" not in json.loads(plain)["config"]
    assert json.loads(timed)["config"]["wall_time_ms"] >= 0


def _slow_passing_runner(config):
    time.sleep(0.005)
    report = VerificationReport(config.suite, {})
    report.add("fake", "grid", True)
    return report


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_timings_fill_the_wall_time_of_each_grid_row(capsys, monkeypatch,
                                                     jobs):
    # forked workers inherit the patched runners and time them themselves
    for suite, (_, reads) in SUITES.items():
        monkeypatch.setitem(SUITES, suite, (_slow_passing_runner, reads))
    _, plain, _ = run_cli(capsys, "--suite", "all", "--jobs", jobs)
    assert all(c["wall_time_ms"] is None
               for c in json.loads(plain)["checks"])
    _, timed, _ = run_cli(capsys, "--suite", "all", "--jobs", jobs,
                          "--timings")
    checks = json.loads(timed)["checks"]
    assert len(checks) == 39
    assert all(c["wall_time_ms"] >= 5 for c in checks)


def test_a_failing_grid_row_names_its_replay_command(capsys, monkeypatch):
    seen = []

    def failing(config):
        seen.append(config)
        report = VerificationReport(config.suite, {})
        report.add("entries-vanish", "characteristic-identity", False, "x")
        return report

    monkeypatch.setitem(SUITES, "cayley-hamilton",
                        (failing, SUITES["cayley-hamilton"][1]))
    summary = run_all(mode="SAMPLED", seed=3)
    rows = {c["id"]: c for c in summary.checks}
    assert [c["id"] for c in summary.failures()] == \
        ["cayley-hamilton-n2", "cayley-hamilton-n3"]
    assert all(c["witness"] is None for c in rows.values() if c["passed"])
    witness = rows["cayley-hamilton-n3"]["witness"]
    assert witness == ("entries-vanish; replay: redouble --suite"
                       " cayley-hamilton --n 3 --mode SAMPLED --samples 3"
                       " --seed 3")
    command = witness.split("; replay: ")[-1].split()
    assert command[0] == "redouble"
    code, _, _ = run_cli(capsys, *command[1:])
    assert code == 1
    grid_row, replayed = seen[-2], seen[-1]
    for field in SuiteConfig.__slots__:
        if field != "samples":
            assert getattr(replayed, field) == getattr(grid_row, field)
    assert replayed.samples == 3 and grid_row.samples is None


def test_replay_commands_of_every_grid_row_parse(capsys, monkeypatch):
    seen = []

    def record(config):
        seen.append(config)
        return VerificationReport(config.suite, {})

    monkeypatch.setattr("redouble.cli.run_suite", record)
    for mode in ("EXACT", "SAMPLED"):
        for _, config in acceptance_grid(mode, seed=4):
            command = replay_command(config).split()
            assert run_cli(capsys, *command[1:])[0] == 0, command
            got = seen.pop()
            for field in ("suite", "n", "k", "shape", "degree", "mode",
                          "seed"):
                assert getattr(got, field) == getattr(config, field), \
                    (command, field)


def test_an_empty_partition_exits_with_status_three(capsys):
    # it must not fall back to the partition (1) under a "1" label
    with pytest.raises(SystemExit) as excinfo:
        main(["--suite", "spectrum", "--n", "2", "--lambda", ""])
    assert excinfo.value.code == 3
    assert "--lambda" in capsys.readouterr().err


def test_config_errors_exit_with_status_three(capsys):
    for argv in (
        ["--suite", "spectra"],
        ["--suite", "braiding", "--n", "0"],
        ["--suite", "braiding", "--jobs", "0"],
        ["--suite", "braiding", "--mode", "FAST"],
        ["--suite", "spectrum", "--lambda", "2,x"],
        ["--suite", "spectrum", "--lambda", "1,2"],
        ["--suite", "spectrum", "--lambda", "0"],
        ["--suite", "spectrum", "--n", "2", "--lambda", "1,1,1"],
        ["--suite", "heckerep", "--k", "0"],
        ["--suite", "heckerep", "--k", "-2"],
        ["--suite", "conjecture", "--k", "-1"],
        ["--suite", "capelli", "--degree", "0"],
        ["--suite", "heckerep", "--n", "-1"],
        ["--suite", "capelli", "--n", "1", "--k", "2"],
        ["--suite", "capelli", "--n", "2", "--k", "3"],
        ["--suite", "u2h", "--degree", "-1"],
        ["--suite", "u2h", "--samples", "0"],
        ["--suite", "braiding", "--mode", "SAMPLED", "--samples", "-1"],
        ["--suite", "braiding", "--mode", "SAMPLED", "--samples", "2"],
        ["--suite", "cayley-hamilton", "--n", "2", "--mode", "SAMPLED",
         "--samples", "1"],
        ["--suite", "capelli", "--mode", "SAMPLED", "--samples", "2"],
        ["--suite", "det-capelli", "--mode", "SAMPLED", "--samples", "1"],
        ["--suite", "adjoint", "--mode", "SAMPLED", "--samples", "2"],
        ["--suite", "all", "--k", "0", "--samples", "-4", "--n", "9"],
        ["--suite", "all", "--n", "2"],
        ["--suite", "all", "--k", "2"],
        ["--suite", "all", "--lambda", "2,1"],
        ["--suite", "all", "--degree", "2"],
        ["--suite", "all", "--samples", "3"],
        # flags the single suite never reads
        ["--suite", "u2h", "--n", "3"],
        ["--suite", "orbits", "--mode", "SAMPLED"],
        ["--suite", "heckerep", "--lambda", "2,1"],
        ["--suite", "braiding", "--jobs", "2"],
        ["--suite", "doubles", "--k", "2"],
        ["--suite", "spectrum", "--degree", "2"],
        ["--suite", "cayley-hamilton", "--samples", "5"],
        [],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 3, argv
        capsys.readouterr()


SUITE_FLAG_VALUES = {"n": ("--n", "3"), "k": ("--k", "2"),
                     "shape": ("--lambda", "2,1"), "degree": ("--degree", "2"),
                     "mode": ("--mode", "SAMPLED"),
                     "samples": ("--samples", "4")}


def test_each_suite_takes_the_flags_of_its_row(capsys, monkeypatch):
    seen = []

    def fake_run_suite(config):
        seen.append(config)
        return VerificationReport(config.suite, {})

    monkeypatch.setattr("redouble.cli.run_suite", fake_run_suite)
    for suite, (_, row) in SUITES.items():
        argv = ["--suite", suite, "--seed", "5"]
        for field in sorted(row):
            argv += SUITE_FLAG_VALUES[field]
        assert run_cli(capsys, *argv)[0] == 0, argv
        config = seen.pop()
        for field in row - {"mode"}:
            assert getattr(config, field) is not None, (suite, field)
        assert config.mode == ("SAMPLED" if "mode" in row else "EXACT")
        assert config.seed == 5
        for field in set(SUITE_FLAG_VALUES) - row:
            with pytest.raises(SystemExit) as excinfo:
                main(["--suite", suite, *SUITE_FLAG_VALUES[field]])
            assert excinfo.value.code == 3, (suite, field)
            assert "does not read" in capsys.readouterr().err


def test_suite_all_takes_the_run_wide_flags(tmp_path, capsys, monkeypatch):
    seen = {}

    def fake_run_all(mode, seed, jobs):
        seen.update(mode=mode, seed=seed, jobs=jobs)
        report = VerificationReport("all", {"mode": mode, "seed": seed})
        report.add("row", "x", True)
        return report

    monkeypatch.setattr("redouble.cli.run_all", fake_run_all)
    target = tmp_path / "all.json"
    code, _, _ = run_cli(capsys, "--suite", "all", "--mode", "SAMPLED",
                         "--seed", "5", "--jobs", "2", "--timings",
                         "--out", str(target))
    assert code == 0
    assert seen == {"mode": "SAMPLED", "seed": 5, "jobs": 2}
    assert "wall_time_ms" in json.loads(target.read_text())["config"]


RAISED_ERRORS = (MixedParameterError("'q' vs 'h'"),
                 BraidingError("standard: braid relation failed"),
                 UnsupportedElementError("derivative of a radius power"),
                 PresentationError("re(m, dim=2) is not certified"),
                 DoubleError("degree-overflow during the action"),
                 StructureError("lhs entry has the wrong degree"),
                 IdempotentError("no idempotent for this tableau"),
                 PoleError("parameter value is a pole"))


@pytest.mark.parametrize("error", RAISED_ERRORS,
                         ids=lambda e: type(e).__name__)
def test_engine_errors_exit_with_status_one(capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr("redouble.cli.run_suite", broken)
    code, out, err = run_cli(capsys, "--suite", "capelli", "--n", "3",
                             "--k", "2", "--mode", "SAMPLED", "--seed", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["suite"] == "capelli" and payload["passed"] is False
    assert payload["config"] == {"k": 2, "mode": "SAMPLED", "n": 3,
                                 "seed": 4}
    [check] = payload["checks"]
    assert check["id"] == "engine-error" and not check["passed"]
    assert check["witness"] == f"{type(error).__name__}: {error}"
    assert "FAIL(1/1)" in err

    monkeypatch.setattr("redouble.cli.run_all", broken)
    code, out, _ = run_cli(capsys, "--suite", "all", "--jobs", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["config"] == {"mode": "EXACT", "seed": 0}
    assert [c["id"] for c in payload["checks"]] == ["engine-error"]


def test_a_real_engine_error_is_reported_with_status_one(capsys):
    # the rank-1 action of a degree-24 operator passes the longest word a
    # double acts on
    code, out, err = run_cli(capsys, "--suite", "spectrum", "--n", "1",
                             "--lambda", "24")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    [check] = payload["checks"]
    assert check["id"] == "engine-error" and not check["passed"]
    assert check["witness"] == \
        "DoubleError: degree-overflow during the action"
    assert "FAIL(1/1)" in err


def test_every_error_class_has_an_exit_status():
    # an error escaping the engine is a ValueError (exit 3), an engine
    # error (exit 1), or private and caught inside the engine
    sources = {}
    classes = []
    for info in pkgutil.iter_modules(redouble.__path__):
        module = importlib.import_module(f"redouble.{info.name}")
        sources[info.name] = inspect.getsource(module)
        classes += [c for c in vars(module).values()
                    if inspect.isclass(c) and issubclass(c, BaseException)
                    and c.__module__ == module.__name__]
    assert DoubleError in classes
    for cls in classes:
        if cls.__name__.startswith("_"):
            assert any(f"except {cls.__name__}" in text
                       for text in sources.values()), cls
        else:
            assert issubclass(cls, ValueError) or cls in ENGINE_ERRORS, cls


def test_other_value_errors_still_exit_with_status_three(capsys,
                                                        monkeypatch):
    def broken(config):
        raise ValueError("need one level constant per matrix size")

    monkeypatch.setattr("redouble.cli.run_suite", broken)
    with pytest.raises(SystemExit) as excinfo:
        main(["--suite", "orbits"])
    assert excinfo.value.code == 3
    assert "level constant" in capsys.readouterr().err


def test_failing_conjecture_probe_exits_with_status_two(capsys,
                                                        monkeypatch):
    spoiled = VerificationReport("conjecture", {"n": 2})
    spoiled.add("e2-2-tableau-1", anchor("conjecture-e2"), False,
                "residual rank 1")

    monkeypatch.setattr("redouble.cli.run_suite", lambda cfg: spoiled)
    code, out, _ = run_cli(capsys, "--suite", "conjecture")
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_hard_failure_exits_with_status_one(capsys, monkeypatch):
    broken = VerificationReport("capelli", {"n": 2})
    broken.add("word-route", "x", False, "entry (1,1)->(1,1)")

    monkeypatch.setattr("redouble.cli.run_suite", lambda cfg: broken)
    code, _, _ = run_cli(capsys, "--suite", "capelli")
    assert code == 1


@pytest.mark.parametrize("spoiled_k, status", [(1, 1), (2, 2)])
def test_conjecture_exit_status_follows_the_failing_anchor(
        capsys, monkeypatch, spoiled_k, status):
    # e1-2 is a proven identity (exit 1); e2-2-* probe the conjecture
    # (exit 2).  Both live in the conjecture suite and its grid row.
    original = SpectralCharacter.elementary

    def spoiled(self, k):
        value = original(self, k)
        return value + ONE if k == spoiled_k and self.shape == (2,) \
            else value

    monkeypatch.setattr(SpectralCharacter, "elementary", spoiled)
    code, out, _ = run_cli(capsys, "--suite", "conjecture")
    failed = [c["id"] for c in json.loads(out)["checks"] if not c["passed"]]
    if spoiled_k == 1:
        assert failed == ["e1-2"]
    else:
        assert failed and all(i.startswith("e2-2-") for i in failed)
    assert code == status

    monkeypatch.setattr(
        "redouble.suites.acceptance_grid",
        lambda mode, seed: [("conjecture-n2",
                             SuiteConfig("conjecture", n=2, seed=seed))])
    code, out, _ = run_cli(capsys, "--suite", "all")
    assert json.loads(out)["passed"] is False
    assert code == status


def test_passing_rows_keep_the_grid_anchor(monkeypatch):
    monkeypatch.setattr(
        "redouble.suites.acceptance_grid",
        lambda mode, seed: [("conjecture-n2",
                             SuiteConfig("conjecture", n=2, seed=seed))])
    summary = run_all()
    assert summary.passed
    assert [c["anchor"] for c in summary.checks] == ["grid"]


def _engine_error_witness(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "FAIL(1/1)" in err
    [check] = json.loads(out)["checks"]
    assert check["id"] == "engine-error" and not check["passed"]
    return check["witness"]


def _uncertified(braiding, tag):
    # the lead m12·m12 overlaps itself, and m12·m12·m12 does not resolve
    m11, m12, m21 = (NCElement.generator(Gen(tag, i, j))
                     for i, j in ((1, 1), (1, 2), (2, 1)))
    return QuadraticPresentation(matrix_generators(tag, braiding.dim),
                                 [m12 * m12 - m11 * m21],
                                 name=f"uncertified({tag})")


def test_an_uncertified_presentation_is_an_engine_error(capsys, monkeypatch):
    # the orbit quotient is built on its double's coordinate presentation
    make_double = adjoint_orbits.make_double

    def uncertified_double(braiding, kind):
        d = make_double(braiding, kind).definition
        return QuantumDouble(braiding, DoubleDefinition(
            d.kind, d.dim, d.a_pres, _uncertified(braiding, d.b_tag),
            d.rule, d.eps_a, d.h, d.b_quotient))

    monkeypatch.setattr(adjoint_orbits, "make_double", uncertified_double)
    witness = _engine_error_witness(capsys, "--suite", "orbits", "--n", "2")
    assert witness.startswith("PresentationError: uncertified(m) is not"
                              " certified: the overlap (m12, m12, m12)")


def test_a_pinned_element_that_is_not_central_is_an_engine_error(
        capsys, monkeypatch):
    monkeypatch.setattr("redouble.adjoint_orbits.power_sum",
                        lambda braiding, tag, k: NCElement.generator(
                            Gen(tag, 1, k)))
    witness = _engine_error_witness(capsys, "--suite", "orbits", "--n", "2")
    assert witness == ("PresentationError: orbit(m, dim=2): pinned element"
                       " 1 ((-2)*1 + (1)*m11) does not commute with m12 in"
                       " re(m, dim=2)")


def test_timings_fill_the_wall_time_of_each_check_of_a_suite(capsys):
    argv = ("--suite", "orbits", "--n", "2")
    _, plain, _ = run_cli(capsys, *argv)
    _, timed, _ = run_cli(capsys, *argv, "--timings")
    assert all(c["wall_time_ms"] is None
               for c in json.loads(plain)["checks"])
    checks = json.loads(timed)["checks"]
    assert [c["id"] for c in checks] == ["pinned-reduction",
                                         "action-descends"]
    assert all(c["wall_time_ms"] > 0 for c in checks)
    # without the flag the bytes are those of any other run
    _, again, _ = run_cli(capsys, *argv)
    assert again == plain


def _bytes_under_hash_seeds(argv):
    """The report bytes of argv run in subprocesses under two hash seeds."""
    src = str(pathlib.Path(redouble.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "redouble.cli", *argv], env=env,
            capture_output=True, check=True, timeout=300)
        outs.append(done.stdout)
    return outs


def test_reports_do_not_depend_on_the_hash_seed():
    for argv in (["--suite", "orbits", "--n", "2"],
                 ["--suite", "spectrum", "--n", "2", "--lambda", "2,1"],
                 ["--suite", "adjoint", "--mode", "SAMPLED"],
                 ["--suite", "doubles", "--n", "2"]):
        outs = _bytes_under_hash_seeds(argv)
        assert outs[0] and outs[0] == outs[1], argv


def test_orbit_quotient_bytes_do_not_depend_on_the_hash_seed():
    # the pinned span is built in the order of the normal words, never
    # in the order of a hashed container
    outs = _bytes_under_hash_seeds(["--suite", "orbits", "--n", "2",
                                    "--degree", "2"])
    assert outs[0] and outs[0] == outs[1]
