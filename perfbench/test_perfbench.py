"""Tests of the benchmark itself: its checks can fail, and the tracer's
counts agree with counts known independently of it.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import builtins
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from pivotlab import analysis, cli, geometry, seeding  # noqa: E402
from workloads import apply_pooled, run_job, run_list, summarize  # noqa: E402


def test_perturbed_process_golden_fails_its_job():
    golden = workloads.load_golden("process_exact")
    first = workloads.process_key(workloads.process_specs()[0])
    golden[first] = str(Fraction(golden[first]) + Fraction(1, 10**9))
    wl = workloads.ProcessExact(0, golden=golden)
    done = [run_job(wl.job(i)) for i in range(2)]
    assert [d.error for d in done] == ["CheckFailed", None]
    summary = summarize(done)
    assert summary["failed"] == 1 and summary["failed"] / summary["attempted"] > 0
    assert summary["errors_by_type"] == {"CheckFailed": 1}


def test_perturbed_lemma_case_golden_fails_its_job():
    golden = workloads.load_golden("verify_cli")
    key = " ".join(workloads.LEMMA_ARGVS[0])
    golden[key] = dict(golden[key], monotone=golden[key]["monotone"] + 1)
    wl = workloads.VerifyCli(0, golden=golden)
    assert wl.job(0).key == key
    assert run_job(wl.job(0)).error == "CheckFailed"


def test_wrong_pooled_walk_expectation_fails_the_walk_jobs():
    jobs_of = lambda wl: [wl.job(i) for i in range(4)]  # noqa: E731
    right = workloads.SimMC(5)
    done = [run_job(job) for job in jobs_of(right)]
    assert "walk" not in apply_pooled(right, done)

    exact = float(right.expected_walk_exact())
    wrong = workloads.SimMC(5, expected_walk=exact + 1.5)
    done = [run_job(job) for job in jobs_of(wrong)]
    assert all(d.error is None for d in done)
    assert "walk" in apply_pooled(wrong, done)
    walk_errors = [d.error for d in done if d.job.group == "walk"]
    assert walk_errors == ["PooledCheckFailed"] * 2
    assert summarize(done)["failed"] >= 2


def test_worker_setup_imports_nothing_from_scipy(monkeypatch):
    """After ``import pivotlab.cli``, a worker's set-up (importing the
    worker and workload modules, building the first pass of every workload)
    makes no scipy import of its own, so ``setup_s`` and ``peak_rss_mb``
    carry only what pivotlab imports."""
    own = ("fresh_worker", "fresh_workloads")
    requested = []
    real_import = builtins.__import__

    def spy(name, globals=None, *args, **kwargs):
        if globals and globals.get("__name__") in own:
            requested.append(name)
        return real_import(name, globals, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", spy)
    for name in own:
        spec = importlib.util.spec_from_file_location(name, HERE / f"{name[6:]}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    for cls in module.WORKLOADS.values():
        wl = cls(1)
        [wl.job(i) for i in range(wl.pass_len)]
    monkeypatch.undo()
    assert "pivotlab" in requested
    assert [name for name in requested if name.split(".")[0] == "scipy"] == []


def test_job_that_raises_is_counted_with_its_type():
    done = [
        run_job(workloads.Job("boom", lambda: 1 / 0, lambda _: None)),
        run_job(workloads.Job("ok", lambda: 1, lambda _: None)),
    ]
    summary = summarize(done)
    assert summary["errors_by_type"] == {"ZeroDivisionError": 1}
    assert summary["failed"] / summary["attempted"] == 0.5


def _traced(jobs):
    """Untraced results, traced results and the tracer for one job list."""
    plain, _ = run_list(jobs)
    t = tracing.Tracer()
    t.install()
    try:
        traced, _ = run_list(jobs, t)
    finally:
        t.uninstall()
    assert [d.error for d in plain] == [None] * len(jobs)
    assert [d.result for d in traced] == [d.result for d in plain]
    assert tracing.self_check(t, jobs) == []
    return t, tracing.per_layer_metrics(t, 1.0, 1.0)


def test_tracer_counts_on_exact_process_solves():
    wl = workloads.ProcessExact(0)
    jobs = [wl.job(i) for i in (0, 9, 161)]
    t, m = _traced(jobs)
    states = 0
    for i in (0, 9, 161):
        kind, r, mm, _, alphas = wl.specs[i]
        ps = geometry.gen_point_set(r, mm)
        states += (ps.augmented(alphas) if kind == "sweep" else ps).transversal_count()
    assert m["process.states_enumerated"] == states
    assert t.counts["hyperplane_misses"] == states
    # below_set reaches side_of through module globals: every non-member
    # point of every state is tested once
    assert m["geometry.side_of.calls"] > m["geometry.below_set.calls"] == states
    assert m["seeding.derive_rng.calls"] == 0


def test_tracer_counts_on_monte_carlo_and_combs():
    sim = workloads.SimMC(2)
    _, m = _traced([sim.job(i) for i in range(4)])
    assert m["seeding.derive_rng.calls"] == 2 * workloads.PHASE_TRIALS + 2 * workloads.WALK_TRIALS
    assert m["process.run.calls"] == 2 * workloads.PHASE_TRIALS
    assert 0 < m["process.node_cache.hit_ratio"] < 1

    comb = workloads.CombExact(2)
    _, m = _traced([comb.job(i) for i in range(2)])
    assert m["seeding.derive_rng.calls"] == 2  # one stream per comb
    assert m["grid_uso.expected_duration_exact.calls"] == 2 * 4

    verify = workloads.VerifyCli(2)
    _, m = _traced([verify.job(i) for i in (0, 2, 3)])
    assert m["seeding.derive_rng.calls"] == 2  # the two uso verify combs
    assert m["cli.dispatch.self_ms_per_call"] > 0


def test_uninstall_restores_every_patched_name():
    original = seeding.derive_rng
    t = tracing.Tracer()
    t.install()
    assert analysis.derive_rng is not original and cli.derive_rng is not original
    t.uninstall()
    assert seeding.derive_rng is analysis.derive_rng is cli.derive_rng is original


@pytest.mark.parametrize("n, above", [(10, 1), (100, 10), (101, 10), (109, 10)])
def test_p90_leaves_a_tenth_of_the_samples_above(n, above):
    p90 = run.nearest_rank(list(range(n)), 90)
    assert sum(v > p90 for v in range(n)) == above


def test_reference_times_scale_by_the_surrounding_probes():
    ref = run.PROBE_REFERENCE_S
    # job 0 ran at reference speed, job 1 at half speed, job 2 in between
    probes = [ref, ref, 2 * ref, ref]
    assert run.reference_times([3.0, 4.0, 6.0], probes) == pytest.approx([3.0, 4.0 / 1.5, 6.0 / 1.5])


def test_reference_setup_scales_cpu_time_by_the_probe_cpu_time():
    ref = run.PROBE_REFERENCE_S
    sample = {"setup_s": 2.0, "setup_cpu_s": 1.2, "setup_probe_cpu_s": 1.5 * ref}
    assert run.reference_setup(sample) == pytest.approx(1.2 / 1.5)
