"""One redouble CLI run, started by run.py as a fresh process.

    python3 perfbench/child.py STAMP [--setup-only] [--trace DIR --run-id ID]
        -- REDOUBLE_ARGS...

Writes STAMP, a JSON object whose "first_call" is the CLOCK_MONOTONIC time
of the CLI's first suite call: redouble is imported and the arguments are
parsed, so the parent's launch time subtracted from it is the set-up time.
--setup-only stops there, before any suite work.  --trace installs the
tracer, writes this process's spans to DIR (pool workers write their
own), then uninstalls it and records in STAMP any module name the tracer
failed to wrap or to restore.  The exit status is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


class _SetupDone(Exception):
    """Raised at the first suite call of a --setup-only run."""


def main(argv: list) -> int:
    sep = argv.index("--")
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("stamp")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="DIR")
    parser.add_argument("--run-id", default="")
    opts = parser.parse_args(argv[:sep])

    from redouble import cli

    tracer = None
    if opts.trace:
        import tracer as tracing
        before = tracing.snapshot()
        tracer = tracing.Tracer(opts.run_id, opts.trace)
        tracer.install()
        unwrapped = tracer.unwrapped_holders()

    first_call = []

    def stamped(fn):
        def call(*args, **kwargs):
            if not first_call:
                first_call.append(time.monotonic())
                if opts.setup_only:
                    raise _SetupDone
            return fn(*args, **kwargs)
        return call

    entry_points = {name: getattr(cli, name)
                    for name in ("run_all", "run_suite")}
    for name, fn in entry_points.items():
        setattr(cli, name, stamped(fn))
    try:
        code = cli.main(argv[sep + 1:])
    except _SetupDone:
        code = 0
    finally:
        for name, fn in entry_points.items():
            setattr(cli, name, fn)

    info = {"first_call": first_call[0] if first_call else None}
    if tracer is not None:
        tracer.dump()
        tracer.uninstall()
        info["unwrapped"] = unwrapped
        info["not_restored"] = tracing.changed(before, tracing.snapshot())
    with open(opts.stamp, "w", encoding="utf-8") as handle:
        json.dump(info, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
