"""Benchmark of the redouble CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 1

Every rep is one fresh `redouble` process (perfbench/child.py around
`redouble.cli.main`), run one after another by a closed loop with one
client, because module-level caches in `u2h` and the normal-form caches
of each presentation would be warm in a loop inside one process and no
CLI user gets warm caches.  Every rep passes the correctness gate or
counts as failed.  The last line of stdout is the JSON result; the lines
before it give the host, each rep, and each metric with its sample
count.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from math import gcd
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TIME_LIMIT_S = 165.0  # a run must end within 180 s, set-up included
SETUP_PROBES = 20

# Host-speed reference: timed every SAMPLE_GAP_S while the reps run.
# Times are reported scaled to a host on which it takes REF_NOMINAL_S of
# CPU; see HostSpeed.
REF_NOMINAL_S = 0.004
SAMPLE_GAP_S = 0.1
MIN_SAMPLES = 5


class Workload(NamedTuple):
    args: tuple   # redouble CLI arguments, without --seed and --out
    jobs: int     # worker processes the command uses
    checks: int   # checks a correct report holds
    sha256: str | None  # pinned report bytes (seed set to 0); None: unpinned


# sha256 of the report bytes at --seed 0.  Other seeds are compared after
# setting config.seed back to 0, so one pin serves every seed.  grid and
# grid-jobs2 share a pin, which makes their summaries byte-identical.
GRID_SHA256 = \
    "fb1eee05ea597b2750bd3a74a8cc5413078c6a9d894325a3653019214d6a9500"
ORBITS_SHA256 = \
    "744b2847e66612b71696050f3322cf5312c380a9f51fb766da5b813e844e6a93"

WORKLOADS = {
    "grid": Workload(("--suite", "all"), 1, 39, GRID_SHA256),
    "grid-jobs2": Workload(("--suite", "all", "--jobs", "2"), 2, 39,
                           GRID_SHA256),
    "orbits-n3": Workload(("--suite", "orbits", "--n", "3"), 1, 2,
                          ORBITS_SHA256),
    # Not in BENCHMARK.json: a fourth workload would leave too little time
    # per run in a full measurement pass; run it by hand.  SAMPLED bytes hold
    # the sample points, which the scalar layer may legitimately change, so
    # only the pass status and the count are pinned.
    "sampled-ch3": Workload(("--suite", "cayley-hamilton", "--n", "3",
                             "--mode", "SAMPLED", "--samples", "40"),
                            1, 40, None),
}

# Small config for the tracing self-test: traced and untraced bytes agree.
SELF_TEST = Workload(("--suite", "spectrum", "--n", "2", "--lambda", "2,1"),
                     1, 4, None)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


class Rep(NamedTuple):
    ok: bool
    why: str           # failure reason, "" when ok
    started: float     # CLOCK_MONOTONIC at launch
    wall_s: float      # launch to exit
    cpu_s: float       # user + system, reaped pool workers included
    rss_mb: float      # largest resident set of the process tree
    setup_s: float | None
    report: bytes
    stamp: dict


# ---------------------------------------------------------------------------
# Host speed

def reference_work() -> int:
    """Fixed pure-Python work like the program's inner loops: products of
    small integer coefficient tuples, gcds and tuple-keyed dicts."""
    seen = {}
    a = (3, -1, 4, 1, -5, 9)
    for i in range(1000):
        b = (i % 7 - 3, 2, -(i % 5), 1)
        c = [0] * (len(a) + len(b) - 1)
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                c[j + k] += x * y
        seen[tuple(c)] = gcd(c[0], c[-1] or 1)
    return len(seen)


class HostSpeed:
    """Samples how fast the host runs Python while the reps run.

    The host is a shared VM whose speed swings by a third or more within
    tens of seconds, and the program's CPU time swings with it.  A thread
    of this process times reference_work() by its own CPU time every
    SAMPLE_GAP_S, on the core the rep leaves free (about 4% of one core).
    A time measured over an interval is reported scaled by REF_NOMINAL_S
    over the mean reference time in that interval: seconds on a host where
    the reference takes REF_NOMINAL_S.  The program's own speed-ups pass
    through unscaled, since the reference does not run its code.
    """

    def __init__(self):
        self.samples = []  # (CLOCK_MONOTONIC at the end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            begin = time.thread_time()
            reference_work()
            spent = time.thread_time() - begin
            self.samples.append((time.monotonic(), spent))
            self._stop.wait(SAMPLE_GAP_S)

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean reference time in [start, end],
        widened until it holds MIN_SAMPLES samples."""
        pad = 0.0
        while True:
            got = [cpu for at, cpu in self.samples
                   if start - pad <= at <= end + pad]
            if len(got) >= MIN_SAMPLES or pad > 10.0:
                break
            pad += SAMPLE_GAP_S
        return REF_NOMINAL_S / statistics.fmean(got)


# ---------------------------------------------------------------------------
# Launching and gating one rep

def _wait(proc: subprocess.Popen, deadline: float):
    """Wait for proc until deadline; past it, or on an interrupt, kill it.

    The child leads its own process group, so killing the group also ends
    its pool workers.  Its resource usage covers the workers it reaped.
    """
    fd = os.pidfd_open(proc.pid)
    ready = []
    try:
        ready, _, _ = select.select([fd], [], [],
                                    max(0.0, deadline - time.monotonic()))
    finally:
        os.close(fd)
        if not ready:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:  # workers left by a child that crashed
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return bool(ready), usage


def launch(work: Path, tag: str, workload: Workload, seed: int,
           deadline: float, setup_only: bool = False,
           trace_dir: Path | None = None,
           hash_seed: int | None = None) -> Rep:
    stamp_path = work / f"{tag}.stamp.json"
    report_path = work / f"{tag}.report.json"
    child = [str(stamp_path)]
    if setup_only:
        child.append("--setup-only")
    if trace_dir is not None:
        trace_dir.mkdir()
        child += ["--trace", str(trace_dir), "--run-id", tag]
    cmd = [sys.executable, str(HERE / "child.py"), *child, "--",
           *workload.args, "--seed", str(seed), "--out", str(report_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    with open(work / f"{tag}.stderr", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT, start_new_session=True)
        finished, usage = _wait(proc, deadline)
        wall = time.monotonic() - started
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024.0
    stamp = json.loads(stamp_path.read_text()) if stamp_path.exists() \
        else {}
    setup = stamp["first_call"] - started \
        if stamp.get("first_call") is not None else None
    report = report_path.read_bytes() if report_path.exists() else b""
    why = ""
    if not finished:
        why = "killed at the time limit"
    elif proc.returncode != 0:
        why = f"exit code {proc.returncode}"
    elif setup is None:
        why = "no suite call"
    elif stamp.get("unwrapped") or stamp.get("not_restored"):
        why = (f"tracer left unwrapped {stamp['unwrapped']} and "
               f"unrestored {stamp['not_restored']}")
    elif not setup_only:
        why = gate(workload, report)
    if why:
        tail = (work / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        print(f"rep {tag} FAILED: {why}\n{tail}", file=sys.stderr)
    return Rep(not why, why, started, wall, cpu, rss, setup, report,
               stamp)


def gate(workload: Workload, data: bytes) -> str:
    """Reason the report fails the workload's correctness gate, or ""."""
    try:
        report = json.loads(data)
    except ValueError:
        return "report is not JSON"
    if report.get("passed") is not True:
        return "report did not pass"
    if len(report.get("checks", ())) != workload.checks:
        return f"{len(report.get('checks', ()))} checks, " \
               f"want {workload.checks}"
    if workload.sha256 is None:
        return ""
    if json.dumps(report, indent=2) + "\n" != data.decode():
        return "report bytes are not in canonical JSON form"
    if "seed" in report["config"]:
        report["config"]["seed"] = 0
    digest = hashlib.sha256(
        (json.dumps(report, indent=2) + "\n").encode()).hexdigest()
    if digest != workload.sha256:
        return f"report sha256 {digest} differs from the pin"
    return ""


# ---------------------------------------------------------------------------
# Runs

class Tally:
    """Processes launched, and those that failed the correctness gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, rep: Rep) -> Rep:
        self.attempted += 1
        self.failed += not rep.ok
        return rep


def _show(tag: str, rep: Rep, scale: float) -> None:
    setup = f"{rep.setup_s:.4f}" if rep.setup_s is not None else "-"
    print(f"rep {tag}: wall_s {rep.wall_s:.4f} cpu_s {rep.cpu_s:.4f} "
          f"peak_rss_mb {rep.rss_mb:.1f} setup_s {setup} (raw) "
          f"host scale {scale:.4f} "
          f"{'ok' if rep.ok else 'FAILED: ' + rep.why}")


def untraced_run(name: str, seed: int, seconds: float, work: Path,
                 deadline: float, tally: Tally, speed: HostSpeed) -> dict:
    """End-to-end metrics: set-up probes, then reps for about `seconds`."""
    workload = WORKLOADS[name]
    # The first launch in a checkout writes bytecode caches, which users
    # do not pay on every run; it is gated but not timed.
    tally.add(launch(work, "warmup", workload, seed, deadline,
                     setup_only=True))
    setups, raw_setups = [], []

    def probe(count: int) -> None:
        for _ in range(count):
            rep = tally.add(launch(work, f"setup{tally.attempted}", workload,
                                   seed, deadline, setup_only=True))
            if rep.setup_s is not None:
                raw_setups.append(rep.setup_s)
                setups.append(rep.setup_s * speed.scale(
                    rep.started, rep.started + rep.setup_s))

    probe(SETUP_PROBES // 2)
    reps, scales = [], []
    started = time.monotonic()
    while True:
        rep = tally.add(launch(work, f"rep{len(reps)}", workload, seed,
                               deadline))
        scales.append(speed.scale(rep.started, rep.started + rep.wall_s))
        _show(f"rep{len(reps)}", rep, scales[-1])
        reps.append(rep)
        if not rep.ok:
            break
        # Start another rep only if it is expected to end less than half
        # a rep past `seconds`, so that runs last about `seconds`.
        now = time.monotonic()
        typical = statistics.median(r.wall_s for r in reps)
        longest = max(r.wall_s for r in reps)
        if now - started + typical / 2 >= seconds \
                or now + 1.5 * longest > deadline:
            break
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    # setup_s comes from the probes only: the scale of a rep's set-up
    # would take in samples from after it, when pool workers may run.
    good = [(r, k) for r, k in zip(reps, scales) if r.ok]
    samples = {
        "setup_s": (setups, raw_setups),
        "wall_s": ([r.wall_s * k for r, k in good],
                   [r.wall_s for r, _ in good]),
        "cpu_s": ([r.cpu_s * k for r, k in good],
                  [r.cpu_s for r, _ in good]),
        "peak_rss_mb": ([r.rss_mb for r, _ in good],) * 2,
    }
    metrics = {}
    for metric, (values, raw) in samples.items():
        if not values:
            continue
        unit = END_TO_END_UNITS[metric]
        scaled = "" if values is raw else \
            f", host-scaled; raw median {statistics.median(raw):.4f} {unit}"
        print(f"{metric}: median {statistics.median(values):.4f} {unit} "
              f"over n={len(values)} (min {min(values):.4f}, "
              f"max {max(values):.4f}{scaled})")
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
    return metrics


def traced_run(name: str, seed: int, work: Path, deadline: float,
               tally: Tally, speed: HostSpeed) -> dict:
    """Per-layer metrics: self-test, one untraced rep, two traced reps."""
    import tracer

    plain = tally.add(launch(work, "selftest-plain", SELF_TEST, seed,
                             deadline))
    traced = tally.add(launch(work, "selftest-traced", SELF_TEST, seed,
                              deadline, trace_dir=work / "selftest-trace"))
    if plain.ok and traced.ok and plain.report != traced.report:
        tally.failed += 1
        print("self-test: traced report bytes differ from untraced",
              file=sys.stderr)
    print(f"self-test: traced and untraced bytes "
          f"{'agree' if plain.report == traced.report else 'DIFFER'}; "
          f"tracer restored every original: "
          f"{traced.ok and not traced.stamp.get('not_restored')}")

    workload = WORKLOADS[name]
    def scaled_wall(rep: Rep, tag: str) -> float:
        scale = speed.scale(rep.started, rep.started + rep.wall_s)
        _show(tag, rep, scale)
        return rep.wall_s * scale

    base = tally.add(launch(work, "untraced", workload, seed, deadline))
    base_wall = scaled_wall(base, "untraced")
    # Two traced reps under two hash seeds: counts that differ between
    # them are reported with their spread, never as exact counts.
    layers, walls = [], []
    for i in range(2):
        hash_seed = (2 * seed + i) % 2**32
        rep = tally.add(launch(work, f"traced{i}", workload, seed, deadline,
                               trace_dir=work / f"trace{i}",
                               hash_seed=hash_seed))
        walls.append(scaled_wall(rep, f"traced{i} "
                                      f"(PYTHONHASHSEED={hash_seed})"))
        if not rep.ok:
            return {}
        if base.ok and rep.report != base.report:
            tally.failed += 1
            print(f"traced{i} report bytes differ from the untraced rep",
                  file=sys.stderr)
        layers.append(tracer.aggregate(str(work / f"trace{i}"),
                                       workload.jobs, rep.wall_s))
    metrics = {}
    for metric, (first, exact) in layers[0].items():
        second = layers[1][metric][0]
        value = first if first == second else (first + second) / 2
        if exact and first == second:
            note = "exact, repeats across hash seeds"
        elif exact:
            note = f"NOT exact: {first} and {second} across hash seeds"
        else:
            note = f"median of {first:.6g} and {second:.6g}"
        unit = "s" if metric.endswith("_s") else \
            "ratio" if metric.endswith("_ratio") else "count"
        print(f"{metric}: {value:.6g} {unit} ({note})")
        metrics[metric] = {"value": value, "unit": unit}
    if base.ok:
        ratio = statistics.median(walls) / base_wall
        print(f"trace.overhead_ratio: {ratio:.4f} ratio "
              f"(median traced wall_s over untraced wall_s, host-scaled)")
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


# ---------------------------------------------------------------------------
# Host facts

def host_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": sys.version.split()[0], "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # On SIGTERM, unwind through the finally blocks that stop the running
    # rep and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "redouble" / "cli.py").is_file():
        print(f"perfbench: no redouble sources under {SRC}", file=sys.stderr)
        return 2

    facts = host_facts()
    facts["loadavg_before"] = os.getloadavg()
    print(f"perfbench: workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    tally = Tally()
    try:
        with HostSpeed() as speed:
            if args.trace:
                metrics = traced_run(args.workload, args.seed, work,
                                     deadline, tally, speed)
            else:
                metrics = untraced_run(args.workload, args.seed,
                                       args.seconds, work, deadline, tally,
                                       speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    facts["loadavg_after"] = os.getloadavg()
    print("host: " + json.dumps(facts))
    print(f"fail_ratio: {tally.failed}/{tally.attempted} processes failed "
          f"the correctness gate")
    print(json.dumps({"correct": tally.failed == 0 and bool(metrics),
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
