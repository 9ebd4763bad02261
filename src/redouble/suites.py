"""Named verification suites and the acceptance grid behind the CLI.

Each suite assembles one VerificationReport from the checks its module
exposes.  Configurations are plain picklable records, so a grid can fan
out across worker processes; assembly keeps the configured order, and
every randomized choice flows through a seed echoed in the report, which
makes reports byte-reproducible.

This module alone reads the mode: an identity over Q(q) is checked
either symbolically (EXACT) or at random rational values of q (SAMPLED),
and `_sampled` runs a verifier once per parameter point.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import braidings
from .adjoint_orbits import verify_adjoint_invariance, verify_orbit_descent
from .anchors import anchor, is_conjectural
from .braidings import (BraidingError, TensorOperator, braiding_residuals,
                        standard_hecke)
from .capelli import (capelli_difference, verify_capelli,
                      verify_capelli_action, verify_det_capelli)
from .doubles import DoubleError, make_double
from .heckerep import (jucys_murphy, partitions, shape_label,
                       skew_symmetrizer, standard_tableaux, weyl_dimension,
                       young_idempotent)
from .invariants import (SpectralCharacter, elementary_symmetric, power_sum,
                         spectral_char_trl, verify_cayley_hamilton,
                         verify_character_consistency, verify_spectrum,
                         verify_spectrum_operator)
from .linalg import first_nonzero
from .ncengine import NCElement, PresentationError, matrix_generators
from .reports import VerificationReport
from .scalars import ONE, Scalar
from .u2h import (classical_limit_report, compact_presentation,
                  derivative_double, radius_presentation,
                  verify_derivative_commutativity, verify_dhat_homomorphism,
                  verify_radius, verify_shift_structure)

# Pinned rank-2 values of the weighted-trace character.
_CLOSED_FORMS = {
    (1,): {-1: 1, -5: 1},
    (2,): {-1: 1, -7: 1},
    (1, 1): {-3: 1, -5: 1},
}


# Flags that configure one suite; the `all` grid fixes its own per row.
_PER_SUITE_FLAGS = (("--n", "n"), ("--k", "k"), ("--lambda", "shape"),
                    ("--degree", "degree"), ("--samples", "samples"))

# ---------------------------------------------------------------------------
# Parameter points

# Fewest random parameter points a SAMPLED check may draw.
MIN_POINTS = 3

# How an identity over the parameter field is checked: symbolically, or at
# random rational values of the parameter.
MODES = ("EXACT", "SAMPLED")


def is_root_of_unity_risk(value, bound: int) -> bool:
    """True iff value^(2k) = 1 for some integer 2 <= k <= bound."""
    value = Fraction(value)
    p = value * value
    acc = p  # value^(2k) at k = 1
    for _ in range(2, bound + 1):
        acc *= p
        if acc == 1:
            return True
    return False


def random_parameter_values(rng, count: int, unity_bound: int = 12) -> list:
    """Distinct rational sample points, no zeros and no roots of unity."""
    out = []
    seen = set()
    while len(out) < count:
        v = Fraction(rng.randint(2, 19), rng.randint(1, 11))
        if rng.random() < 0.5:
            v = 1 / v
        if v in seen or v == 0 or is_root_of_unity_risk(v, unity_bound) or v in (1, -1):
            continue
        seen.add(v)
        out.append(v)
    return out


def parameter_points(braiding, mode: str, rng, samples: int):
    """The points at which an identity is checked: (suffix, braiding) pairs.

    EXACT gives the one symbolic point ("", braiding).  SAMPLED draws
    `samples` (at least MIN_POINTS) distinct rational values v from rng on
    the call and yields (f"@{v}", braiding.substituted(v)) for each, in
    draw order; a check builds every object from its point's braiding.
    The suffix names the point in check ids.
    """
    if mode == "EXACT":
        return iter([("", braiding)])
    if mode != "SAMPLED":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("SAMPLED mode needs an rng")
    if samples < MIN_POINTS:
        raise ValueError(f"SAMPLED mode needs at least {MIN_POINTS} points,"
                         f" got {samples}")
    return ((f"@{v}", braiding.substituted(v))
            for v in random_parameter_values(rng, samples))


class SuiteConfig:
    """Picklable description of one suite run.

    Fields a suite does not consume are ignored, but every field is
    validated: mode is one of MODES; n is positive; k, degree and samples
    default to per-suite values when left unset and must be positive when
    set; a shape that is set must be nonempty; and a suite whose SUITES
    entry reads "mode" needs at least MIN_POINTS samples.
    A fixed seed makes the resulting report byte-identical across runs.
    """

    __slots__ = ("suite", "n", "k", "shape", "degree", "mode", "samples",
                 "seed")

    def __init__(self, suite: str, n: int = 2, k: int | None = None,
                 shape: tuple | None = None, degree: int | None = None,
                 mode: str = "EXACT", samples: int | None = None,
                 seed: int = 0):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        for name, value in (("n", n), ("k", k), ("degree", degree),
                            ("samples", samples)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if shape is not None and not shape:
            raise ValueError("shape must be a nonempty partition")
        if samples is not None and samples < MIN_POINTS and \
                suite in SUITES and "mode" in SUITES[suite][1]:
            raise ValueError(f"{suite} needs at least {MIN_POINTS} sample"
                             f" points, got {samples}")
        self.suite = suite
        self.n = n
        self.k = k
        self.shape = tuple(shape) if shape is not None else None
        self.degree = degree
        self.mode = mode
        self.samples = samples
        self.seed = seed

    def rng(self) -> random.Random:
        label = (f"{self.seed}:{self.suite}:{self.n}:{self.k}"
                 f":{self.shape}:{self.mode}")
        return random.Random(label)


def _points(config: SuiteConfig) -> int:
    """Parameter points of a SAMPLED run: `samples`, by default 3."""
    return 3 if config.samples is None else config.samples


def _sampled_report(config: SuiteConfig, fields: dict
                    ) -> VerificationReport:
    """The report of a suite that samples, its config echoing fields.

    The config adds the mode and, in SAMPLED mode, the point count and the
    seed the points are drawn from, so the report replays from its config.
    """
    echo = dict(fields, mode=config.mode)
    if config.mode == "SAMPLED":
        echo.update(samples=_points(config), seed=config.seed)
    return VerificationReport(config.suite, echo)


def _sampled(report: VerificationReport, config: SuiteConfig, verify,
             braiding, *args) -> VerificationReport:
    """Append verify(b, *args) at each parameter point b of braiding.

    The one loop over the points of config: each check id gets the
    suffix of its point ("" in EXACT mode, "@v" at the value v).
    """
    for suffix, b in parameter_points(braiding, config.mode, config.rng(),
                                      _points(config)):
        _merge(report, verify(b, *args), suffix=suffix)
    return report


def _merge(report: VerificationReport, sub: VerificationReport,
           prefix: str = "", suffix: str = "") -> None:
    """Append sub's checks, keeping the wall times measured in sub."""
    for c in sub.checks:
        name = prefix + c["id"] + suffix
        report.add(name, c["anchor"], c["passed"], c["witness"])
        report.wall_ms[name] = sub.wall_ms[c["id"]]


# ---------------------------------------------------------------------------
# Suites

def braiding_suite(config: SuiteConfig) -> VerificationReport:
    """Braid relation, quadratic condition, and inverse for one rank."""
    report = _sampled_report(config, {"n": config.n})
    try:
        b = standard_hecke(config.n)
    except BraidingError as err:
        report.add("construction", anchor("braid-relation"), False, str(err))
        return report
    _sampled(report, config, _braiding_checks, b)
    try:
        b.trace_form()
        ok, witness = True, None
    except BraidingError as err:
        ok, witness = False, str(err)
    report.add("trace-property", anchor("trace-form"), ok, witness)
    return report


def _braiding_checks(p) -> VerificationReport:
    """The defining identities of the braiding p, each as a residual."""
    report = VerificationReport("braiding")
    for name, res in braiding_residuals(p).items():
        ok, witness = first_nonzero(res.rows, lambda v: v)
        report.add(name, anchor(name), ok, witness)
    return report


def heckerep_suite(config: SuiteConfig) -> VerificationReport:
    """Symmetric-group tower data carried by the braiding."""
    n = config.n
    k = 2 if config.k is None else config.k
    report = VerificationReport("heckerep", {"n": n, "k": k})
    b = standard_hecke(n)
    js = jucys_murphy(b, k)
    ok = all((js[i] * js[j]) == (js[j] * js[i])
             for i in range(k) for j in range(i + 1, k))
    report.add("jm-commutativity", anchor("jm-commutativity"), ok)
    skew = skew_symmetrizer(b, k)
    report.add("skew-idempotent", anchor("skew-idempotent"),
               (skew * skew) == skew)
    eig = -(b.q.inverse())
    ok = all(b.at(i, k) * skew == skew.scale(eig)
             and skew * b.at(i, k) == skew.scale(eig)
             for i in range(1, k))
    report.add("skew-absorption", anchor("skew-recursion"), ok)
    report.add("skew-rank-top", anchor("skew-rank-top"),
               skew_symmetrizer(b, n).rank() == 1)
    report.add("skew-vanish-above", anchor("skew-vanish-above"),
               skew_symmetrizer(b, n + 1).is_zero())
    tableaux = [t for shape in partitions(k) for t in standard_tableaux(shape)]
    projectors = [young_idempotent(b, t) for t in tableaux]
    report.add("projector-complete", anchor("projector-complete"),
               sum(projectors, TensorOperator(b.dim, k)) == b.identity(k))
    report.add("projector-orthogonal", anchor("projector-orthogonal"),
               all((pa * pb).is_zero()
                   for a, pa in enumerate(projectors)
                   for pb in projectors[a + 1:]))
    bad = (f"{tab!r} letter {i}" for tab, proj in zip(tableaux, projectors)
           for i in range(1, k + 1)
           if js[i - 1] * proj
           != proj.scale(b.q ** (2 * tab.content_of(i))))
    witness = next(bad, None)
    report.add("projector-jm-eigenvalue", anchor("projector-jm-eigenvalue"),
               witness is None, witness)
    ranks = ((tab, proj.substituted(1).rank(), weyl_dimension(tab.shape, n))
             for tab, proj in zip(tableaux, projectors))
    bad = (f"{tab!r}: rank {got} vs {want}"
           for tab, got, want in ranks if got != want)
    witness = next(bad, None)
    report.add("projector-classical-rank",
               anchor("projector-classical-rank"), witness is None, witness)
    return report


_DOUBLE_KINDS = ("left", "left_shifted", "adjoint", "adjoint_shifted",
                 "derivative", "derivative_shifted", "vector")


def doubles_suite(config: SuiteConfig) -> VerificationReport:
    """Construction, unit action, representation, and ideal checks."""
    report = VerificationReport("doubles", {"n": config.n,
                                            "seed": config.seed})
    b = standard_hecke(config.n)
    rng = config.rng()
    one = NCElement.constant(ONE)
    for kind in _DOUBLE_KINDS:
        kwargs = {}
        if kind == "derivative_shifted":
            kwargs["h"] = Scalar.from_fraction("7/3")
        try:
            d = make_double(b, kind, **kwargs)
        except DoubleError as err:
            report.add(f"construction-{kind}", anchor(f"double-rule-{kind}"),
                       False, str(err))
            continue
        report.add(f"construction-{kind}", anchor(f"double-rule-{kind}"),
                   True)
        a_gens = matrix_generators(d.a_tag, config.n)
        b_gens = sorted(d.b_pres.generators)
        witness = None
        for g in a_gens:
            got = d.act(NCElement.generator(g), one)
            if got != NCElement.constant(d.eps_a[g]):
                witness = f"{g} on 1: {got!r}"
                break
        report.add(f"unit-action-{kind}", anchor("double-action-unit"),
                   witness is None, witness)
        witness = None
        for _ in range(4):
            g1, g2 = rng.choice(a_gens), rng.choice(a_gens)
            word = tuple(rng.choice(b_gens)
                         for _ in range(rng.randint(1, 2)))
            a1, a2 = NCElement.generator(g1), NCElement.generator(g2)
            target = NCElement.word(word)
            # One side by ordering: the letter route computes act(a1·a2)
            # as act(a1, act(a2, ·)), so comparing it with itself would
            # check nothing.
            diff = d.act_by_ordering(a1 * a2, target) \
                - d.act(a1, d.act(a2, target))
            if witness is None and not d.b_pres.reduces_to_zero(diff):
                witness = f"({g1!r}, {g2!r}, {'·'.join(map(repr, word))})"
        report.add(f"representation-{kind}", anchor("double-representation"),
                   witness is None, witness)
        witness = None
        try:
            d.presentation.ensure(3)
        except PresentationError as err:
            witness = str(err)
        report.add(f"ideal-compatibility-{kind}",
                   anchor("double-ideal-compatibility"), witness is None,
                   witness)
    return report


def spectrum_suite(config: SuiteConfig) -> VerificationReport:
    """Both spectrum routes for one partition, plus pinned rank-2 values."""
    shape = config.shape if config.shape is not None else (1,)
    b = standard_hecke(config.n)
    chi = spectral_char_trl(shape, b)
    report = VerificationReport("spectrum", {
        "lambda": shape_label(shape), "n": config.n, "chi": chi.text()})
    _merge(report, verify_spectrum_operator(shape, b, chi), "operator-")
    double = make_double(b, "left")
    trl = power_sum(b, double.a_tag, 1)
    _merge(report, verify_spectrum(double, trl, chi, shape, anchor(
        "spectrum-action-route")), "action-")
    pinned = _CLOSED_FORMS.get(shape)
    if config.n == 2 and pinned is not None:
        report.add("closed-form", anchor("spectrum-closed-form"),
                   chi == Scalar.laurent(pinned, "q"), None)
    return report


def conjecture_suite(config: SuiteConfig) -> VerificationReport:
    """Character consistency plus the second elementary probe at rank 2."""
    boxes = 4 if config.k is None else config.k
    b = standard_hecke(config.n)
    report = VerificationReport("conjecture", {"n": config.n,
                                               "max_boxes": boxes})
    _merge(report, verify_character_consistency(b, boxes))
    if config.n == 2:
        double = make_double(b, "left")
        e2 = elementary_symmetric(b, double.a_tag, 2)
        for size in (2, 3):
            for shape in partitions(size, 2):
                chi = SpectralCharacter(shape, b).elementary(2)
                _merge(report, verify_spectrum(double, e2, chi, shape,
                                               anchor("conjecture-e2")),
                       f"e2-{shape_label(shape)}-")
    return report


def cayley_hamilton_suite(config: SuiteConfig) -> VerificationReport:
    return _sampled(_sampled_report(config, {"n": config.n}), config,
                    verify_cayley_hamilton, standard_hecke(config.n))


def capelli_suite(config: SuiteConfig) -> VerificationReport:
    """Word route at each parameter point, operator route once; k <= n.

    Each point gets one derivative double and one difference of the
    sides, which its routes share; EXACT's one point is the symbolic
    braiding, so both routes read one pair.  Only the pair of the last
    point is held: it is dropped before the next pair is built.
    """
    k = 2 if config.k is None else config.k
    if k > config.n:  # A^(k) = 0: both sides vanish, nothing is checked
        raise ValueError(f"capelli needs k <= n, got k = {k}, n = {config.n}")
    degree = 2 if config.degree is None else config.degree
    b = standard_hecke(config.n)
    report = _sampled_report(config, {"n": config.n, "k": k,
                                      "degree": degree})
    held = []  # [point, double, difference] of the last point

    def pair(point) -> list:
        if not held or held[0] is not point:
            held.clear()
            double = make_double(point, "derivative")
            held[:] = point, double, capelli_difference(double, k)
        return held[1:]

    _sampled(report, config, lambda point: verify_capelli(*pair(point)), b)
    _merge(report, verify_capelli_action(*pair(b), degree))
    return report


def det_capelli_suite(config: SuiteConfig) -> VerificationReport:
    return _sampled(_sampled_report(config, {"n": config.n}), config,
                    verify_det_capelli, standard_hecke(config.n))


def adjoint_suite(config: SuiteConfig) -> VerificationReport:
    k = 1 if config.k is None else config.k
    report = _sampled_report(config, {"n": config.n, "k": k,
                                      "kind": "adjoint_shifted"})
    return _sampled(report, config, verify_adjoint_invariance,
                    standard_hecke(config.n), k)


def orbits_suite(config: SuiteConfig) -> VerificationReport:
    alphas = [Scalar.from_int(i + 2) for i in range(config.n)]
    degree = 1 if config.degree is None else config.degree
    return verify_orbit_descent(standard_hecke(config.n), alphas,
                                degree=degree)


def u2h_suite(config: SuiteConfig) -> VerificationReport:
    degree = 3 if config.degree is None else config.degree
    samples = config.samples if config.samples is not None else 20
    report = VerificationReport("u2h", {"degree": degree,
                                        "samples": samples,
                                        "seed": config.seed})
    compact = derivative_double(compact_presentation())
    radius = derivative_double(radius_presentation())
    _merge(report, verify_derivative_commutativity(compact, degree))
    _merge(report, verify_dhat_homomorphism(compact, rng=config.rng(),
                                            samples=samples))
    _merge(report, verify_radius(radius))
    _merge(report, classical_limit_report(radius))
    _merge(report, verify_shift_structure())
    return report


# Every suite, in CLI order: its runner, and the flags it reads by
# SuiteConfig field ("shape" is --lambda).  "mode" stands for --mode
# SAMPLED, and a suite that samples reads --samples, its point count, only
# in that mode.  --seed, --timings and --out apply to every run; --jobs
# only to --suite all.
SUITES = {
    "braiding": (braiding_suite, {"n", "mode", "samples"}),
    "heckerep": (heckerep_suite, {"n", "k"}),
    "doubles": (doubles_suite, {"n"}),
    "spectrum": (spectrum_suite, {"n", "shape"}),
    "conjecture": (conjecture_suite, {"n", "k"}),
    "cayley-hamilton": (cayley_hamilton_suite, {"n", "mode", "samples"}),
    "capelli": (capelli_suite, {"n", "k", "degree", "mode", "samples"}),
    "det-capelli": (det_capelli_suite, {"n", "mode", "samples"}),
    "adjoint": (adjoint_suite, {"n", "k", "mode", "samples"}),
    "orbits": (orbits_suite, {"n", "degree"}),
    "u2h": (u2h_suite, {"degree", "samples"}),
}


def run_suite(config: SuiteConfig) -> VerificationReport:
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}; expected one of "
                         + ", ".join(SUITES))
    runner, _ = SUITES[config.suite]
    return runner(config)


def _timed_run(config: SuiteConfig) -> tuple:
    """(report, wall time in ms) of run_suite(config), timed where it runs."""
    started = time.perf_counter()
    report = run_suite(config)
    return report, round((time.perf_counter() - started) * 1000, 3)


def _run_task(task: list) -> list:
    """_timed_run of each (label, config) row of a task, in order."""
    return [_timed_run(config) for _, config in task]


def replay_command(config: SuiteConfig) -> str:
    """The `redouble` command that reruns config as a single suite.

    It passes each per-suite value that config sets and the suite reads,
    --mode SAMPLED with the point count for a SAMPLED run, and the seed.
    """
    _, reads = SUITES[config.suite]
    words = ["redouble", "--suite", config.suite]
    for flag, field in _PER_SUITE_FLAGS:
        value = getattr(config, field)
        # a suite that samples points gets --samples below, in SAMPLED mode
        if value is None or field not in reads or \
                (field == "samples" and "mode" in reads):
            continue
        words += [flag, shape_label(value) if field == "shape" else str(value)]
    if config.mode == "SAMPLED":
        words += ["--mode", "SAMPLED", "--samples", str(_points(config))]
    return " ".join(words + ["--seed", str(config.seed)])


# ---------------------------------------------------------------------------
# The acceptance grid

def acceptance_grid(mode: str = "EXACT", seed: int = 0) -> list:
    """Labeled configurations for the default full verification run.

    mode switches the suites that support sampling between exact
    reduction and seeded rational sample points; the braiding rows stay
    exact (they are already instant).
    """
    rows = []
    for n in (1, 2, 3, 4):
        rows.append((f"braiding-n{n}",
                     SuiteConfig("braiding", n=n, seed=seed)))
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            rows.append((f"heckerep-n{n}-k{k}",
                         SuiteConfig("heckerep", n=n, k=k, seed=seed)))
    for n in (1, 2, 3):
        for size in (1, 2, 3):
            for shape in partitions(size, n):
                rows.append((f"spectrum-n{n}-{shape_label(shape)}",
                             SuiteConfig("spectrum", n=n, shape=shape,
                                         seed=seed)))
    rows.append(("doubles-n2", SuiteConfig("doubles", n=2, seed=seed)))
    rows.append(("conjecture-n2", SuiteConfig("conjecture", n=2, seed=seed)))
    rows.append(("conjecture-n3", SuiteConfig("conjecture", n=3, seed=seed)))
    rows.append(("cayley-hamilton-n2",
                 SuiteConfig("cayley-hamilton", n=2, mode=mode, seed=seed)))
    rows.append(("cayley-hamilton-n3",
                 SuiteConfig("cayley-hamilton", n=3, mode=mode, seed=seed)))
    for k in (1, 2):
        rows.append((f"capelli-n2-k{k}",
                     SuiteConfig("capelli", n=2, k=k, mode=mode, seed=seed)))
    rows.append(("det-capelli-n2",
                 SuiteConfig("det-capelli", n=2, mode=mode, seed=seed)))
    for k in (1, 2):
        rows.append((f"adjoint-n2-k{k}",
                     SuiteConfig("adjoint", n=2, k=k, mode=mode, seed=seed)))
    rows.append(("orbits-n2", SuiteConfig("orbits", n=2, seed=seed)))
    rows.append(("u2h", SuiteConfig("u2h", seed=seed)))
    return rows


def _braiding_key(config: SuiteConfig):
    """The rank n of the braiding a row builds on, standard_hecke(n).

    Every suite that reads n builds on that braiding; a suite that reads
    no n is keyed by its name.
    """
    return config.n if "n" in SUITES[config.suite][1] else config.suite


def grid_tasks(grid: list) -> list:
    """Group labeled grid rows into one task per braiding.

    A task holds every row that builds on one braiding (_braiding_key),
    in grid order, and the tasks come in the order their first rows
    appear in the grid.  The rows of a task share the braiding's memo,
    so under --jobs no object is built in two processes.  The acceptance
    grid gives five tasks: ranks 1 to 4 and u2h.
    """
    tasks: dict = {}
    for row in grid:
        tasks.setdefault(_braiding_key(row[1]), []).append(row)
    return list(tasks.values())


def clear_caches() -> None:
    """Forget the memoized braidings, so that the next run starts cold.

    Within one run, each braiding and every object in its memo are built
    once and shared by the rows of one process; forked --jobs workers
    inherit the empty cache.
    """
    braidings._hecke_cache.clear()


def run_all(mode: str = "EXACT", seed: int = 0, jobs: int = 1
            ) -> VerificationReport:
    """Run the acceptance grid and aggregate one row per configuration.

    With jobs 1 the rows run in grid order in this process.  Otherwise
    the tasks of grid_tasks, one per braiding, run one at a time per
    worker of a pool of jobs processes, but no more processes than tasks
    (a fork pool starts every worker up front), and their results are put
    back in grid order.  Either way every row that builds on one braiding
    shares one process's memo, and the summary lists the rows in grid
    order.  The witness of a failing row names its first failing checks
    and ends with the command that replays the row.  Each row's wall
    time, taken in the process that ran it, waits in the summary's
    `wall_ms`.
    """
    clear_caches()
    grid = acceptance_grid(mode, seed)
    if jobs > 1:
        # imported here: a serial run does not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        tasks = grid_tasks(grid)
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            done = pool.map(_run_task, tasks)
            by_label = {label: result
                        for task, results in zip(tasks, done)
                        for (label, _), result in zip(task, results)}
        results = [by_label[label] for label, _ in grid]
    else:
        results = [_timed_run(config) for _, config in grid]
    summary = VerificationReport("all", {"mode": mode, "seed": seed,
                                         "rows": len(grid)})
    for (label, config), (sub, ms) in zip(grid, results):
        bad = sub.failures()
        witness = None if not bad else \
            "; ".join([c["id"] for c in bad[:4]]
                      + ["replay: " + replay_command(config)])
        row_anchor = "grid"
        if bad and all(is_conjectural(c["anchor"]) for c in bad):
            row_anchor = bad[0]["anchor"]
        summary.add(label, row_anchor, sub.passed, witness)
        summary.wall_ms[label] = ms
    return summary


def exit_code_for(report: VerificationReport) -> int:
    """0 all pass, 2 only conjecture probes failed, 1 any other failure.

    Reads the anchors of the failing checks, whatever suite ran them; an
    `all` row that failed only on probes carries a probe's anchor.
    """
    if report.passed:
        return 0
    if all(is_conjectural(c["anchor"]) for c in report.failures()):
        return 2
    return 1
