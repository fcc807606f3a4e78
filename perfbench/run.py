"""pivotlab benchmark: one workload per call, every metric by name and unit.

Usage, from the repository root::

    python3 perfbench/run.py --workload comb_exact --seed 1 --seconds 20 --trace 0

Workloads: comb_exact, process_exact, sim_mc, verify_cli (see README.md).
With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it reports the per-layer metrics from a
separate traced run.  The workload names and each metric's name and unit
are read from ``BENCHMARK.json``.  Every job's output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Interpreters run one at a time, each single-threaded, and the
full result with machine metadata is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # interpreters whose set-up time is measured per run
SCIPY_SAMPLES = 3  # fresh interpreters timing ``import scipy.stats`` alone
RUN_LIMIT_S = 170  # the whole run, every interpreter included
# The probe task (worker.probe) takes this long on an undisturbed 2-vCPU
# Intel Xeon under Python 3.11.7.  Reported times are in seconds of that
# machine; elsewhere they scale by the probe's speed there, which leaves a
# comparison of two commits on one machine unchanged.
PROBE_REFERENCE_S = 0.0022

SCIPY_IMPORT = (
    "import time; t = time.perf_counter(); import scipy.stats; "
    "print(time.perf_counter() - t)"
)


class RunError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str], deadline: float, capture: bool = False) -> str:
    """Run one interpreter to completion; its stdout goes to our stderr
    unless captured, so our stdout carries only the report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("run time limit reached")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, timeout=remaining,
            stdout=subprocess.PIPE if capture else sys.stderr, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{cmd[1]} exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd[1:3])} exited with code {proc.returncode}")
    return proc.stdout if capture else ""


def run_worker(args, deadline: float, setup_only: bool, tag: str) -> dict:
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched-at", repr(time.monotonic())]
    spawn(cmd, deadline)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def reference_setup(sample: dict) -> float:
    """A worker's set-up time restated at the reference machine speed.

    Other processes take the CPU from this one for 10 ms or more at a time,
    which made the wall time of one set-up vary by 30%.  The set-up's CPU
    time leaves those pauses out; the worker runs on one thread, so on an
    undisturbed machine it equals the wall time.  It is scaled by the
    probe's reference time over the probe's mean CPU time just before and
    just after set-up.
    """
    return sample["setup_cpu_s"] * PROBE_REFERENCE_S / sample["setup_probe_cpu_s"]


def reference_times(times: list[float], probes: list[float]) -> list[float]:
    """Wall times restated at the reference machine speed.

    Other processes on the machine slow this one down in bursts lasting from
    a fraction of a second to minutes, at times to half speed.  ``probes[i]``
    and ``probes[i + 1]`` time one fixed task just before and just after the
    interval ``times[i]``; the interval is scaled by ``PROBE_REFERENCE_S``
    over the mean of the two.
    """
    return [
        t * PROBE_REFERENCE_S / ((probes[i] + probes[i + 1]) / 2)
        for i, t in enumerate(times)
    ]


def nearest_rank(values: list[float], percent: int) -> float:
    """The smallest sample with at least ``percent`` % of the samples at or
    below it (so p90 of 100 samples leaves 10 above)."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * percent // 100))
    return ordered[k - 1]


def machine_metadata() -> dict:
    def git_commit():
        try:
            top = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
            return None
        return lines[1]

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "scipy": version("scipy"),
        "numpy": version("numpy"),
    }


def measure(args, catalogue: list[dict]) -> dict:
    """Run one workload; ``catalogue`` lists the metrics to report, with
    their units, as ``BENCHMARK.json`` names them for this mode."""
    deadline = time.monotonic() + RUN_LIMIT_S
    meta = machine_metadata()
    meta["loadavg_start"] = os.getloadavg()
    samples = [
        run_worker(args, deadline, setup_only=True, tag=f"setup{k}")
        for k in range(SETUP_SAMPLES - 1)
    ]
    scipy_imports = []
    if args.trace:
        for _ in range(SCIPY_SAMPLES):
            out = spawn([sys.executable, "-c", SCIPY_IMPORT], deadline, capture=True)
            scipy_imports.append(float(out.split()[-1]))
    res = run_worker(args, deadline, setup_only=False, tag="run")
    samples.append(res)
    meta["loadavg_end"] = os.getloadavg()

    raw = {}
    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["analysis.scipy_import_s"] = statistics.median(scipy_imports)
        metrics["cli.import_s"] = statistics.median(sample["import_s"] for sample in samples)
    else:
        lat = res["latencies_s"]
        ref = reference_times(lat, res["probes_s"])
        metrics = {
            "setup_s": statistics.median(reference_setup(sample) for sample in samples),
            "jobs_per_s": len(ref) / sum(ref),
            "job_p50_s": statistics.median(ref),
            "job_p90_s": nearest_rank(ref, 90),
            "peak_rss_mb": res["peak_rss_mib"],
        }
        raw = {
            "setup_s": statistics.median(sample["setup_s"] for sample in samples),
            "jobs_per_s": len(lat) / res["wall_s"],
            "job_p50_s": statistics.median(lat),
            "job_p90_s": nearest_rank(lat, 90),
            "probe_min_s": min(res["probes_s"]),
            "probe_median_s": statistics.median(res["probes_s"]),
        }
    problems = res.get("self_check_problems", [])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "meta": meta,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"],
        "errors_by_type": res["errors_by_type"],
        "failures": res["failures"],
        "pooled_failures": res["pooled_failures"],
        "self_check_problems": problems,
        "setup_samples_s": [sample["setup_s"] for sample in samples],
        "setup_samples_ref_s": [reference_setup(sample) for sample in samples],
        "worker": {k: v for k, v in res.items() if k != "per_layer"},
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in catalogue},
        "wall_clock": raw,
        "correct": res["failed"] == 0 and not problems,
    }


def main(argv=None) -> int:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description="pivotlab benchmark")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pivotlab" / "__init__.py").is_file():
        print(f"error: no pivotlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        report = measure(args, bench["per_layer" if args.trace else "end_to_end"])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=2) + "\n")

    print("meta " + json.dumps(report["meta"]))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"jobs={report['attempted']} failed={report['failed']}"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<52} {report['error_rate']:.6g} ratio  {report['errors_by_type']}")
    for name, value in report["wall_clock"].items():
        print(f"  wall clock, not restated: {name:<26} {value:.6g}")
    for line in report["failures"] + report["self_check_problems"]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
