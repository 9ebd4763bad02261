"""Command-line driver exposing the verification suites.

Writes one JSON report per invocation, to stdout or --out, with a fixed
key order and no timestamps, so a fixed seed reproduces the bytes
exactly; --timings adds the wall-clock time of the run to the
configuration echo and the time of each check to the check: for a
single suite the time since the check before it, for --suite all the
time of each grid row.  Exit status: 0 all checks pass, 1 hard failure
(a failing check or an engine error, reported as one failing check that
names it), 2 failure confined to the conjecture probes, 3 unusable
configuration.
"""

from __future__ import annotations

import argparse
import sys
import time

from .braidings import BraidingError
from .capelli import StructureError
from .doubles import DoubleError
from .heckerep import IdempotentError
from .ncengine import PresentationError
from .reports import VerificationReport
from .scalars import MixedParameterError, PoleError
from .suites import (_PER_SUITE_FLAGS, MODES, SUITES, SuiteConfig,
                     clear_caches, exit_code_for, run_all, run_suite)
from .u2h import UnsupportedElementError

CONFIG_ERROR = 3

# Errors raised by the engine on a valid configuration: a failed run
# (exit 1), not an unusable configuration (exit 3, any other ValueError).
ENGINE_ERRORS = (MixedParameterError, BraidingError, UnsupportedElementError,
                 PresentationError, DoubleError, StructureError,
                 IdempotentError, PoleError)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with the config status."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(CONFIG_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redouble",
        description="Exact verification suites for braided matrix algebras,"
                    " their quantum doubles, and the shifted derivative"
                    " calculus.")
    parser.add_argument("--suite", required=True,
                        metavar="NAME",
                        help="one of: " + ", ".join(SUITES)
                        + ", or 'all' for the acceptance grid")
    parser.add_argument("--n", type=int, default=None,
                        help="matrix rank (default 2)")
    parser.add_argument("--k", type=int, default=None,
                        help="power / monomial degree, suite-specific"
                        " default")
    parser.add_argument("--lambda", dest="shape", default=None,
                        metavar="PARTS",
                        help="partition as comma-separated parts, e.g. 2,1")
    parser.add_argument("--degree", type=int, default=None,
                        help="word-degree bound where a suite samples words")
    parser.add_argument("--mode", choices=MODES, default="EXACT")
    parser.add_argument("--samples", type=int, default=None,
                        help="sample-point count in SAMPLED mode")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized choice (default 0)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --suite all (default 1)")
    parser.add_argument("--timings", action="store_true",
                        help="record the wall time of the run and of each"
                        " check (each row, for --suite all) in the report")
    return parser


_FLAG_TEXT = {dest: flag for flag, dest in _PER_SUITE_FLAGS} | {
    "mode": "--mode SAMPLED", "jobs": "--jobs"}


def _unread_flags(args: argparse.Namespace) -> list:
    """The given flags that the single suite args.suite does not read."""
    given = [dest for _, dest in _PER_SUITE_FLAGS
             if getattr(args, dest) is not None]
    if args.mode == "SAMPLED":
        given.append("mode")
    if args.jobs is not None:
        given.append("jobs")
    _, reads = SUITES[args.suite]
    if "mode" in reads and args.mode != "SAMPLED":
        reads = reads - {"samples"}
    return [_FLAG_TEXT[dest] for dest in given if dest not in reads]


def _parse_shape(text: str, parser: argparse.ArgumentParser) -> tuple:
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"--lambda expects comma-separated integers, got "
                     f"{text!r}")
    if any(p < 1 for p in shape) or \
            any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        parser.error(f"--lambda must be a weakly decreasing partition, got "
                     f"{text!r}")
    return shape


def _engine_failure(args: argparse.Namespace,
                    err: Exception) -> VerificationReport:
    """A report whose one failing check names the engine error.

    Its config echoes the flags that reproduce the run.
    """
    config = {"mode": args.mode, "seed": args.seed}
    for flag, dest in _PER_SUITE_FLAGS:
        if getattr(args, dest) is not None:
            config[flag[2:]] = getattr(args, dest)
    report = VerificationReport(args.suite, config)
    report.add("engine-error", "engine", False,
               f"{type(err).__name__}: {err}")
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.suite == "all":
        for flag, dest in _PER_SUITE_FLAGS:
            if getattr(args, dest) is not None:
                parser.error(f"{flag} applies to a single suite, not to"
                             " --suite all")
    elif args.suite not in SUITES:
        parser.error(f"unknown suite {args.suite!r}")
    else:
        unread = _unread_flags(args)
        if unread:
            parser.error(f"--suite {args.suite} does not read "
                         + ", ".join(unread))
        if args.n is None:
            args.n = 2
    if args.jobs is None:
        args.jobs = 1
    elif args.jobs < 1:
        parser.error("--jobs must be at least 1")
    shape = None if args.shape is None else _parse_shape(args.shape, parser)

    clear_caches()
    started = time.perf_counter()
    try:
        if args.suite == "all":
            report = run_all(mode=args.mode, seed=args.seed, jobs=args.jobs)
        else:
            report = run_suite(SuiteConfig(
                args.suite, n=args.n, k=args.k, shape=shape,
                degree=args.degree, mode=args.mode, samples=args.samples,
                seed=args.seed))
    except ENGINE_ERRORS as err:
        report = _engine_failure(args, err)
    except ValueError as err:
        parser.error(str(err))
    if args.timings:
        report.config["wall_time_ms"] = round(
            (time.perf_counter() - started) * 1000, 3)
        for check in report.checks:
            check["wall_time_ms"] = report.wall_ms.get(
                check["id"], check["wall_time_ms"])

    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(report.summary_line() + "\n")
    return exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
