"""The four benchmark workloads: job lists, per-job checks and pooled checks.

A workload is an endless, deterministic sequence of jobs ``job(0), job(1),
...``; the first ``pass_len`` of them are one *pass*, and a timed run always
executes whole passes.  A job is one public top-level call a user of
pivotlab would make.  Every call goes through a module attribute
(``grid_uso.build_comb``, ``seeding.derive_rng``, ...) so that the tracer's
wrappers see it.

Seeded workloads check invariants and pooled statistics, never seeded bytes,
so a change of random stream does not break them.  Exact workloads compare
against committed goldens in ``goldens/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import fmean
from time import perf_counter
from typing import Callable

from pivotlab import analysis, cli, geometry, grid_uso, process, seeding

GOLDENS = Path(__file__).resolve().parent / "goldens"


class CheckFailed(Exception):
    """A job returned, but its output is wrong."""


@dataclass
class Job:
    """One job.  ``group`` names the pooled check it feeds (if any);
    ``expect`` holds counts the tracer must reproduce exactly:
    ``derive_rng`` streams derived, ``states`` transversals enumerated by
    exact solves, ``hyperplane_misses`` distinct transversals solved."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], None]
    group: str = ""
    expect: dict = field(default_factory=dict)


@dataclass
class Done:
    """Outcome of one executed job."""

    job: Job
    latency_s: float
    result: object = None
    error: str | None = None  # exception type name, or None if it passed
    message: str = ""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def run_job(job: Job, tracer=None, index: int = -1) -> Done:
    """Run and check one job.  A job that raises or fails its check is
    recorded with the exception's type; it never stops the run."""
    if tracer is not None:
        tracer.job = index
    start = perf_counter()
    try:
        result = job.call()
    except Exception as exc:
        return Done(job, perf_counter() - start, None, type(exc).__name__, str(exc))
    latency = perf_counter() - start
    try:
        job.check(result)
    except Exception as exc:  # CheckFailed, or output the check cannot read
        return Done(job, latency, result, type(exc).__name__, str(exc))
    return Done(job, latency, result)


def run_list(jobs: list[Job], tracer=None) -> tuple[list[Done], float]:
    start = perf_counter()
    done = [run_job(job, tracer, i) for i, job in enumerate(jobs)]
    return done, perf_counter() - start


def apply_pooled(workload, done: list[Done]) -> dict[str, str]:
    """Run the workload's pooled checks; a failed one fails every job that
    fed it."""
    failed = workload.pooled(done)
    for i, d in enumerate(done):
        if d.error is None and d.job.group in failed:
            done[i] = Done(d.job, d.latency_s, d.result, "PooledCheckFailed", failed[d.job.group])
    return failed


def summarize(done: list[Done]) -> dict:
    errors = Counter(d.error for d in done if d.error is not None)
    return {
        "attempted": len(done),
        "failed": sum(errors.values()),
        "errors_by_type": dict(errors),
        "failures": [f"{d.job.key}: {d.error}: {d.message}" for d in done if d.error][:10],
    }


def pooled_mean_se(values: list[float]) -> tuple[float, float]:
    mean = fmean(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))


# ---------------------------------------------------------------------------
# comb_exact
# ---------------------------------------------------------------------------

COMB_SHAPES = ((2, 20), (3, 8))
COMB_DELTAS = (0, 1, 2)


class CombExact:
    """Seeded combs, alternating shapes; each job solves the walk exactly
    from a uniform start, plain and with escape weights 0, 1 and 2."""

    name = "comb_exact"
    pass_len = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def job(self, i: int) -> Job:
        r, m = COMB_SHAPES[i % len(COMB_SHAPES)]
        seed = self.seed

        def call():
            comb = grid_uso.build_comb(r, m, seeding.derive_rng(seed, "comb", i))
            plain = grid_uso.expected_duration_exact(comb, None)
            return (plain,) + tuple(
                grid_uso.expected_duration_exact(comb, grid_uso.AugmentedConfig(d))
                for d in COMB_DELTAS
            )

        def check(values):
            if values[1] != values[0] + 1:
                _fail(f"delta=0 value {values[1]} is not plain {values[0]} + 1")

        return Job(
            f"comb r={r} m={m} i={i}", call, check, group=f"{r},{m}",
            expect={"derive_rng": 1, "states": 0},
        )

    def pooled(self, done: list[Done]) -> dict[str, str]:
        """Per shape and delta: the ensemble mean clears the lemma bound
        within three standard errors."""
        failed = {}
        for r, m in COMB_SHAPES:
            group = f"{r},{m}"
            rows = [d.result for d in done if d.job.group == group and d.error is None]
            if len(rows) < 2:
                continue
            for k, delta in enumerate(COMB_DELTAS, start=1):
                mean, se = pooled_mean_se([float(row[k]) for row in rows])
                b = grid_uso.uso_lemma_bound(r, m, delta)
                if mean < b - 3 * se:
                    failed[group] = (
                        f"(r,m)=({r},{m}) delta={delta}: mean {mean:.4f} below "
                        f"bound {b:.4f} - 3*SE ({se:.4f})"
                    )
        return failed


# ---------------------------------------------------------------------------
# process_exact
# ---------------------------------------------------------------------------

SWEEP_MS = range(3, 9)
SWEEP_DELTAS = (0, 1, 2)
# (r, m, solves per pass).  Every sweep solve at one m costs about the
# same, and each m is 27 jobs, 25-40% dearer than the m below it.  The 26
# (3,4) solves put the median 11 jobs inside the m=6 class and the 90th
# percentile 10 jobs into the (3,4) class, 19 of 194 jobs above it.  With
# one solve per shape the 90th percentile fell among the 60 ms m=8 sweep
# solves and jumped by up to 40% between runs; with 40 (3,4) solves the
# median lay 4 jobs from the top of the m=6 class and jumped by 17%.
MAIN_STARTS = ((3, 3, 2), (3, 4, 26), (3, 5, 2), (4, 3, 2))


def transversal_count(r: int, m: int, augmented: bool) -> int:
    """Color ``i`` owns layers ``i..r`` with ``m`` phases each, plus one
    adversary point when augmented."""
    return math.prod((r - i + 1) * m + augmented for i in range(1, r + 1))


def process_specs() -> list[tuple]:
    """The adversary sweep at r=2 with the main-start solves spread evenly
    through it, shapes taken in turn."""
    sweep = [
        ("sweep", 2, m, delta, (a1, a2))
        for m in SWEEP_MS
        for delta in SWEEP_DELTAS
        for a1 in range(m + 1, m + 4)
        for a2 in range(m + 1, m + 4)
    ]
    mains = [
        ("main", r, m, 0, None)
        for k in range(max(n for _, _, n in MAIN_STARTS))
        for r, m, n in MAIN_STARTS
        if k < n
    ]
    keyed = [(j / len(sweep), spec) for j, spec in enumerate(sweep)]
    keyed += [((k + 0.5) / len(mains), spec) for k, spec in enumerate(mains)]
    return [spec for _, spec in sorted(keyed, key=lambda pair: pair[0])]


def process_key(spec: tuple) -> str:
    kind, r, m, delta, alphas = spec
    if kind == "sweep":
        return f"sweep r={r} m={m} delta={delta} alphas={alphas[0]},{alphas[1]}"
    return f"main r={r} m={m}"


def solve_process(spec: tuple) -> Fraction:
    """One exact solve on a freshly generated point set (cold caches)."""
    kind, r, m, delta, alphas = spec
    if kind == "sweep":
        ps = geometry.gen_point_set(r, m).augmented(alphas)
        cfg = process.ProcessConfig(
            ps, process.adversary_start(ps), delta=delta, count_terminal_step=True
        )
    else:
        ps = geometry.gen_point_set(r, m)
        cfg = process.ProcessConfig(ps, process.main_start(ps))
    return process.exact_expected_steps(cfg)


def process_bound(spec: tuple) -> float:
    kind, r, m, delta, _ = spec
    family = "augmented_theorem" if kind == "sweep" else "main_theorem"
    return analysis.bound(analysis.BoundParams(family, r, m, delta))


def load_golden(name: str) -> dict:
    return json.loads((GOLDENS / f"{name}.json").read_text())["values"]


class ProcessExact:
    """Exact expected step counts: the r=2 adversary sweep and the
    main-start solves, each on a fresh point set."""

    name = "process_exact"

    def __init__(self, seed: int, golden: dict | None = None) -> None:
        self.seed = seed  # unused: these values depend on no seed
        self.golden = load_golden(self.name) if golden is None else golden
        self.specs = process_specs()
        self.pass_len = len(self.specs)

    def job(self, i: int) -> Job:
        spec = self.specs[i % self.pass_len]
        key = process_key(spec)
        want = Fraction(self.golden[key])
        bound = Fraction(process_bound(spec))
        states = transversal_count(spec[1], spec[2], spec[0] == "sweep")

        def check(value):
            if value != want:
                _fail(f"{key}: {value} differs from the golden {want}")
            if value < bound:
                _fail(f"{key}: {value} below its bound {float(bound)}")

        return Job(
            key, lambda: solve_process(spec), check,
            expect={"derive_rng": 0, "states": states, "hyperplane_misses": states},
        )

    def pooled(self, done: list[Done]) -> dict[str, str]:
        return {}


# ---------------------------------------------------------------------------
# sim_mc
# ---------------------------------------------------------------------------

PHASE_SHAPE = (2, 6)
PHASE_DELTAS = (0, 2)
WALK_SHAPE = (3, 8)
WALK_DELTA = 1
PHASE_TRIALS = 1500  # trials per phase_law_report job
WALK_TRIALS = 1500  # walks per mc_estimate job
# Pooled statistical checks run once per sim_mc run, and an evaluation of a
# change makes a few dozen runs on distinct seeds.  At the repository's
# per-test levels (3 SE, p >= 1e-3) about one evaluation in twelve would see
# a false alarm; these levels keep it near one in three hundred.
WALK_Z = 4.0  # two-sided false-alarm rate 6.3e-5 per run
CHI2_SIGNIFICANCE = 1e-4


class SimMC:
    """Seeded Monte Carlo batches, alternating phase-law reports and comb
    walk estimates on one seeded comb."""

    name = "sim_mc"
    pass_len = 100

    def __init__(self, seed: int, expected_walk: float | None = None) -> None:
        self.seed = seed
        self.comb = grid_uso.build_comb(*WALK_SHAPE, seeding.derive_rng(seed, "comb"))
        self.cfg = grid_uso.AugmentedConfig(WALK_DELTA)
        self.vertices = math.prod(self.comb.sizes)
        self.expected_walk = expected_walk

    def job(self, i: int) -> Job:
        seed = self.seed + i
        if i % 2 == 0:
            delta = PHASE_DELTAS[(i // 2) % len(PHASE_DELTAS)]
            r, m = PHASE_SHAPE

            def call():
                rep = analysis.phase_law_report(r, m, delta, PHASE_TRIALS, seed)
                return rep.to_dict()

            def check(rep):
                if not math.isfinite(rep["transition"]["stat"]):
                    _fail("disallowed phase jump: transition statistic is infinite")
                if not rep["entry_consequence_ok"]:
                    _fail("a good phase entered with a second-layer point above")

            return Job(
                f"phase r={r} m={m} delta={delta} seed={seed}", call, check,
                group="phase", expect={"derive_rng": PHASE_TRIALS, "states": 0},
            )

        comb, cfg = self.comb, self.cfg

        def call():
            longest = 0

            def sample(rng):
                nonlocal longest
                steps = grid_uso.walk(comb, cfg, "uniform", rng, record=False).steps
                longest = max(longest, steps)
                return steps

            report = analysis.mc_estimate(sample, WALK_TRIALS, seed)
            return report.to_dict(), longest

        def check(out):
            _, longest = out
            if longest > self.vertices:
                _fail(f"a walk took {longest} steps on {self.vertices} vertices")

        return Job(
            f"walk r=3 m=8 delta=1 seed={seed}", call, check, group="walk",
            expect={"derive_rng": WALK_TRIALS, "states": 0},
        )

    def expected_walk_exact(self) -> Fraction:
        return grid_uso.expected_duration_exact(self.comb, self.cfg)

    def pooled(self, done: list[Done]) -> dict[str, str]:
        """Summed chi-square of the phase jump law; pooled walk mean within
        ``WALK_Z`` standard errors of the comb's exact expected duration.
        Runs after the timed phase, so scipy is imported here and not in
        the set-up the benchmark measures."""
        from scipy.stats import chi2

        failed = {}
        phases = [d.result for d in done if d.job.group == "phase" and d.error is None]
        if phases:
            stat = sum(p["transition"]["stat"] for p in phases)
            df = sum(p["transition"]["df"] for p in phases)
            p_value = float(chi2.sf(stat, df))
            if p_value < CHI2_SIGNIFICANCE:
                failed["phase"] = f"pooled chi-square {stat:.1f} on {df} df, p={p_value:.2e}"
        walks = [d.result[0] for d in done if d.job.group == "walk" and d.error is None]
        if walks:
            expected = self.expected_walk
            if expected is None:
                expected = float(self.expected_walk_exact())
            mean = fmean(w["value"] for w in walks)
            se = math.sqrt(sum(w["se"] ** 2 for w in walks)) / len(walks)
            if abs(mean - expected) > WALK_Z * se:
                failed["walk"] = (
                    f"pooled walk mean {mean:.4f} is not within {WALK_Z:g}*SE ({se:.4f}) "
                    f"of the exact {expected:.4f}"
                )
        return failed


# ---------------------------------------------------------------------------
# verify_cli
# ---------------------------------------------------------------------------

LEMMA_ARGVS = (
    [["verify", "lemmas", "--r", "2", "--m", str(m)] for m in range(3, 9)]
    + [["verify", "lemmas", "--r", "3", "--m", "2"]]
    + [["verify", "lemmas", "--r", "2", "--m", "3", "--deep", "3"]]
    + [["verify", "lemmas", "--r", "3", "--m", "3"]]
)
# (2,6) is three in five so that the median job lies inside that long-job
# class: a 40 ms (2,5) job is either wholly slowed by a burst of contention
# from other processes on the machine or not at all, which makes a median
# inside that class jump between runs.
USO_VERIFY_SHAPES = ((2, 6), (2, 5), (2, 6), (3, 3), (2, 6))
LEMMA_EVERY = 11  # one lemma job per this many; 9 lemma + 91 uso jobs a pass


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """In-process ``pivotlab`` call with stdout captured and parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, json.loads(buf.getvalue())


class VerifyCli:
    """``verify lemmas`` over the small families and ``uso verify`` over
    successive seeds, through the CLI dispatcher."""

    name = "verify_cli"
    pass_len = 100

    def __init__(self, seed: int, golden: dict | None = None) -> None:
        self.seed = seed
        self.golden = load_golden(self.name) if golden is None else golden

    def job(self, i: int) -> Job:
        slot = i % self.pass_len
        if slot % LEMMA_EVERY == 0 and slot // LEMMA_EVERY < len(LEMMA_ARGVS):
            argv = LEMMA_ARGVS[slot // LEMMA_EVERY]
            key = " ".join(argv)
            want = self.golden[key]

            def check(out):
                code, payload = out
                if code != 0 or not payload["ok"]:
                    _fail(f"{key}: exit {code}, ok={payload['ok']}")
                cases = {c["lemma"]: c["cases"] for c in payload["checks"]}
                if cases != want:
                    _fail(f"{key}: case counts {cases} differ from the golden {want}")

            return Job(key, lambda: run_cli(argv), check, expect={"derive_rng": 0, "states": 0})

        r, m = USO_VERIFY_SHAPES[slot % len(USO_VERIFY_SHAPES)]
        argv = ["uso", "verify", "--r", str(r), "--m", str(m), "--seed", str(self.seed + i)]

        def check(out):
            code, payload = out
            if code != 0 or not payload["acyclic"] or not payload["unique_sinks"]:
                _fail(
                    f"{' '.join(argv)}: exit {code}, acyclic={payload['acyclic']}, "
                    f"unique_sinks={payload['unique_sinks']}"
                )

        return Job(" ".join(argv), lambda: run_cli(argv), check, expect={"derive_rng": 1, "states": 0})

    def pooled(self, done: list[Done]) -> dict[str, str]:
        return {}


WORKLOADS = {w.name: w for w in (CombExact, ProcessExact, SimMC, VerifyCli)}
