"""One workload in one fresh interpreter (started by ``run.py``).

Set-up is everything from interpreter launch until the first job may start:
importing ``pivotlab.cli`` (which pulls in ``analysis`` and ``scipy.stats``)
and building the first pass of jobs.  Its CPU time is recorded with the CPU
time of a few probes just before and just after it (see
``run.reference_setup``).  The timed phase is a
closed loop, one
job at a time, over whole passes until the run length is used, with a short
fixed probe timed between jobs (see ``run.reference_times``).  With
``--trace 1`` the worker instead runs one pass untraced and the same pass
traced, checks that both give the same results, and derives the per-layer
metrics from the spans.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5  # probes before and after set-up that gauge its speed


def probe() -> float:
    """Time a fixed pure-Python task of about 2 ms that uses no pivotlab
    code, as a gauge of how fast the machine runs this process right now."""
    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    x = Fraction(1, 3)
    for i in range(200):
        x = (x * Fraction(i + 1, i + 2) + 1) / 2
    return perf_counter() - start


def probe_cpu() -> float:
    """Mean CPU time of ``SETUP_PROBES`` probes."""
    cpu = time.process_time()
    for _ in range(SETUP_PROBES):
        probe()
    return (time.process_time() - cpu) / SETUP_PROBES


def run_timed(workload, first_pass, seconds: float):
    """Whole passes until one more pass would overshoot the run length by
    more than it would fall short.  A probe is timed before the first job
    and after every job."""
    from workloads import run_job

    done = []
    probes = [probe()]
    start = perf_counter()
    passes = 0
    jobs = first_pass
    while True:
        for job in jobs:
            done.append(run_job(job))
            probes.append(probe())
        passes += 1
        wall = perf_counter() - start
        if wall + 0.5 * wall / passes > seconds:
            return done, probes, wall
        base = passes * workload.pass_len
        jobs = [workload.job(base + k) for k in range(workload.pass_len)]


def traced_run(workload, jobs, spans_path: Path) -> dict:
    """One pass untraced, then the same pass traced; a job whose traced
    result differs fails as ``TraceMismatch``."""
    from tracer import Tracer, per_layer_metrics, self_check
    from workloads import Done, apply_pooled, run_list, summarize

    untraced, untraced_wall = run_list(jobs)
    pooled = apply_pooled(workload, untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = run_list(jobs, tracer)
    finally:
        tracer.uninstall()
    pooled.update(apply_pooled(workload, traced))
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if a.error is None and b.error is None and a.result != b.result:
            traced[i] = Done(b.job, b.latency_s, b.result, "TraceMismatch",
                             "traced result differs from the untraced one")
        elif a.error is not None and b.error is None:
            traced[i] = a
    problems = self_check(tracer, jobs)
    metrics = per_layer_metrics(tracer, traced_wall, untraced_wall)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return {
        **summarize(traced),
        "pooled_failures": pooled,
        "self_check_problems": problems,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "per_layer": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched-at", type=float, required=True, dest="launched_at")
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = p.parse_args(argv)

    # the probes around set-up are the benchmark's, not part of set-up
    t0 = time.monotonic()
    before = probe_cpu()
    probing_s = time.monotonic() - t0
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.monotonic()
    import pivotlab.cli  # noqa: F401  the import every CLI user pays

    import_s = time.monotonic() - t0
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    first_pass = [workload.job(i) for i in range(workload.pass_len)]
    setup_s = time.monotonic() - args.launched_at - probing_s
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "setup_s": setup_s,
        "import_s": import_s,
        "setup_cpu_s": usage.ru_utime + usage.ru_stime - SETUP_PROBES * before,
        "setup_probe_cpu_s": (before + probe_cpu()) / 2,
    }
    if not args.setup_only:
        if args.trace:
            out.update(traced_run(workload, first_pass, Path(args.out).with_suffix(".spans.tsv.gz")))
        else:
            done, probes, wall = run_timed(workload, first_pass, args.seconds)
            out["pooled_failures"] = workloads.apply_pooled(workload, done)
            out.update(workloads.summarize(done))
            out["wall_s"] = wall
            out["latencies_s"] = [d.latency_s for d in done]
            out["probes_s"] = probes
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
