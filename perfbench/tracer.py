"""Span tracer installed around pivotlab's public functions from outside the
package.

Each traced call records one span: name, start, end, parent span and job id,
kept in flat in-memory arrays and written out at the end.  A name is patched
wherever a pivotlab module holds it (``analysis.derive_rng`` and
``cli.derive_rng`` as well as ``seeding.derive_rng``; ``geometry.side_of``
as ``below_set`` sees it through module globals), so the wrappers intercept
internal calls too.  Self time is a span's duration minus the time its child
spans cover.  Nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import gzip
import math
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("seeding", "geometry", "process", "grid_uso", "analysis", "cli")

TRACED = {
    "seeding": ("derive_rng",),
    "geometry": (
        "hyperplane_coefficients", "side_of", "below_set", "solve_exact",
        "is_pierced_subset", "pivot_generic",
    ),
    "process": ("exact_expected_steps", "run", "good_phases"),
    "grid_uso": (
        "build_comb", "expected_duration_exact", "out_neighbors", "walk",
        "unique_sink_violations", "has_topological_order",
    ),
    "analysis": (
        "phase_law_report", "mc_estimate", "verify_lemmas",
        "pivot_agreement_violations",
    ),
    "cli": ("dispatch",),
}

# recursive functions: only the outermost call is a span
OUTERMOST = {"grid_uso.build_comb"}

def _grid_subgrids(spec) -> int:
    return math.prod(2**s - 1 for s in spec.factor_sizes)


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores every
    patched name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self._hyperplanes_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "geometry.hyperplane_coefficients": self._after_hyperplane,
            "geometry.below_set": self._after_below_set,
            "process.run": self._after_run,
            "grid_uso.walk": self._after_walk,
            "grid_uso.expected_duration_exact": self._after_exact_walk,
            "grid_uso.unique_sink_violations": self._after_usv,
            "analysis.verify_lemmas": self._after_verify,
        }
        for mod, funcs in TRACED.items():
            module = sys.modules[f"pivotlab.{mod}"]
            for fn in funcs:
                name = f"{mod}.{fn}"
                original = getattr(module, fn)
                self._patch(original, self._wrap(name, original, hooks.get(name)))
        geometry = sys.modules["pivotlab.geometry"]
        self._patch(geometry.transversals, self._count_transversals(geometry.transversals))

    def _patch(self, original, wrapper) -> None:
        """Replace ``original`` in every pivotlab module that holds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "pivotlab" and not modname.startswith("pivotlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn, after):
        nid = self._intern(name)
        module = name.split(".", 1)[0]
        outermost = name in OUTERMOST
        stack = self.stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_job = self.span_parent, self.span_job
        counts = self.counts

        def wrapper(*args, **kwargs):
            if outermost and stack and span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_job.append(self.job)
            span_end.append(0)
            stack.append(idx)
            start = perf_counter_ns()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span_end[idx] = perf_counter_ns()
                stack.pop()
                counts[f"{module}.errors"] += 1
                raise
            end = perf_counter_ns()
            span_end[idx] = end
            stack.pop()
            if after is not None:
                after(args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_transversals(self, fn):
        """Count-only hook: transversals enumerated, by the innermost open
        span (``process.exact_expected_steps`` gives states enumerated)."""

        def wrapper(*args, **kwargs):
            owner = self.names[self.span_name[self.stack[-1]]] if self.stack else ""
            key = f"transversals@{owner}"
            for t in fn(*args, **kwargs):
                self.counts[key] += 1
                yield t

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call work counters ----------------------------------------------

    def _after_hyperplane(self, args, result, dur_ns) -> None:
        point_set, simplex = args[0], args[1]
        seen = self._hyperplanes_seen.setdefault(point_set, set())
        if simplex.members in seen:
            self.counts["hyperplane_hits"] += 1
        else:
            seen.add(simplex.members)
            self.counts["hyperplane_misses"] += 1
            self.counts["hyperplane_miss_ns"] += dur_ns

    def _after_below_set(self, args, result, dur_ns) -> None:
        """A below-set computed directly inside ``run`` is a node-cache miss."""
        if self.stack and self.names[self.span_name[self.stack[-1]]] == "process.run":
            self.counts["below_set_in_run"] += 1

    def _after_run(self, args, result, dur_ns) -> None:
        self.counts["trace_records"] += result.total_steps

    def _after_walk(self, args, result, dur_ns) -> None:
        self.counts["walk_steps"] += result.steps

    def _after_exact_walk(self, args, result, dur_ns) -> None:
        self.counts["exact_vertices"] += math.prod(args[0].sizes)

    def _after_usv(self, args, result, dur_ns) -> None:
        self.counts["subgrids"] += _grid_subgrids(args[0])

    def _after_verify(self, args, result, dur_ns) -> None:
        self.counts["lemma_cases"] += sum(c.cases for c in result.checks)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive and self nanoseconds."""
        n = len(self.span_name)
        child_ns = [0] * n
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        agg = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            a = agg[self.names[names[i]]]
            dur = ends[i] - starts[i]
            a["calls"] += 1
            a["ns"] += dur
            a["self_ns"] += dur - child_ns[i]
        return agg

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every per-layer metric except the import times, which ``run.py``
    measures in fresh interpreters; a per-call figure of a function the
    workload never calls reads 0."""
    agg = tracer.aggregate()
    counts = tracer.counts
    none = {"calls": 0, "ns": 0, "self_ns": 0}

    def a(name):
        return agg.get(name, none)

    def us_per_call(name, self_time=False, per=None):
        x = a(name)
        return _ratio((x["self_ns"] if self_time else x["ns"]) / 1e3, x["calls"] if per is None else per)

    hyper = a("geometry.hyperplane_coefficients")
    states = counts["transversals@process.exact_expected_steps"]
    runs = a("process.run")["calls"]
    walks = a("grid_uso.walk")["calls"]
    m = {
        "seeding.derive_rng.calls": a("seeding.derive_rng")["calls"],
        "seeding.derive_rng.us_per_call": us_per_call("seeding.derive_rng"),
        "geometry.hyperplane_coefficients.calls": hyper["calls"],
        "geometry.hyperplane_coefficients.hit_ratio": _ratio(counts["hyperplane_hits"], hyper["calls"]),
        "geometry.hyperplane_coefficients.us_per_miss": _ratio(
            counts["hyperplane_miss_ns"] / 1e3, counts["hyperplane_misses"]
        ),
        "geometry.side_of.calls": a("geometry.side_of")["calls"],
        "geometry.side_of.us_per_call": us_per_call("geometry.side_of"),
        "geometry.below_set.calls": a("geometry.below_set")["calls"],
        "geometry.below_set.self_us_per_call": us_per_call("geometry.below_set", self_time=True),
        "geometry.solve_exact.calls": a("geometry.solve_exact")["calls"],
        "geometry.solve_exact.us_per_call": us_per_call("geometry.solve_exact"),
        "geometry.is_pierced_subset.calls": a("geometry.is_pierced_subset")["calls"],
        "geometry.is_pierced_subset.us_per_call": us_per_call("geometry.is_pierced_subset"),
        "geometry.pivot_generic.calls": a("geometry.pivot_generic")["calls"],
        "geometry.pivot_generic.ms_per_call": us_per_call("geometry.pivot_generic") / 1e3,
        "process.states_enumerated": states,
        "process.exact_expected_steps.self_us_per_state": us_per_call(
            "process.exact_expected_steps", self_time=True, per=states
        ),
        "process.run.calls": runs,
        "process.run.self_us_per_trace": us_per_call("process.run", self_time=True),
        "process.steps_per_trace": _ratio(counts["trace_records"], runs),
        "process.node_cache.hit_ratio": (
            1 - _ratio(counts["below_set_in_run"], counts["trace_records"])
            if counts["trace_records"] else 0.0
        ),
        "process.good_phases.us_per_call": us_per_call("process.good_phases"),
        "grid_uso.build_comb.us_per_call": us_per_call("grid_uso.build_comb"),
        "grid_uso.expected_duration_exact.calls": a("grid_uso.expected_duration_exact")["calls"],
        "grid_uso.expected_duration_exact.self_us_per_vertex": us_per_call(
            "grid_uso.expected_duration_exact", self_time=True, per=counts["exact_vertices"]
        ),
        "grid_uso.out_neighbors.calls": a("grid_uso.out_neighbors")["calls"],
        "grid_uso.out_neighbors.us_per_call": us_per_call("grid_uso.out_neighbors"),
        "grid_uso.walk.self_us_per_step": us_per_call(
            "grid_uso.walk", self_time=True, per=counts["walk_steps"]
        ),
        "grid_uso.steps_per_walk": _ratio(counts["walk_steps"], walks),
        "grid_uso.unique_sink_violations.us_per_subgrid": us_per_call(
            "grid_uso.unique_sink_violations", per=counts["subgrids"]
        ),
        "grid_uso.has_topological_order.ms_per_call": us_per_call("grid_uso.has_topological_order") / 1e3,
        "analysis.phase_law_report.self_ms_per_call": us_per_call(
            "analysis.phase_law_report", self_time=True
        ) / 1e3,
        "analysis.mc_estimate.self_ms_per_call": us_per_call("analysis.mc_estimate", self_time=True) / 1e3,
        "analysis.verify_lemmas.cases_per_s": _ratio(
            counts["lemma_cases"], a("analysis.verify_lemmas")["ns"] / 1e9
        ),
        "analysis.pivot_agreement_violations.ms_per_call": us_per_call(
            "analysis.pivot_agreement_violations"
        ) / 1e3,
        "cli.dispatch.self_ms_per_call": us_per_call("cli.dispatch", self_time=True) / 1e3,
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }
    for mod in MODULES:
        self_ns = sum(v["self_ns"] for k, v in agg.items() if k.split(".", 1)[0] == mod)
        m[f"{mod}.share"] = _ratio(self_ns / 1e9, traced_wall_s)
        m[f"{mod}.errors"] = counts[f"{mod}.errors"]
    return m


def self_check(tracer: Tracer, jobs) -> list[str]:
    """Traced counts against counts known from the job list: streams
    derived, states enumerated and (where declared) distinct transversals
    solved.  Returns the mismatches."""
    measured = {
        "derive_rng": tracer.aggregate().get("seeding.derive_rng", {"calls": 0})["calls"],
        "states": tracer.counts["transversals@process.exact_expected_steps"],
        "hyperplane_misses": tracer.counts["hyperplane_misses"],
    }
    problems = []
    for key, got in measured.items():
        if not all(key in job.expect for job in jobs):
            continue
        want = sum(job.expect[key] for job in jobs)
        if got != want:
            problems.append(f"{key}: traced {got}, expected {want}")
    return problems
