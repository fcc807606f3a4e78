"""Acceptance suite.

One test per criterion.  Every test prints a single PASS line (visible with
``pytest -s`` / ``-rA``) carrying its wall time, and enforces the stated
tolerance: exact comparisons carry none, statistical ones use the 3-SE /
1e-3-significance margins pinned here.
"""

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from pivotlab import analysis, cli, process
from pivotlab.analysis import BoundParams, bound, phase_law_report, verify_lemmas
from pivotlab.geometry import PointId, gen_point_set
from pivotlab.grid_uso import (
    AugmentedConfig,
    build_comb,
    embed_padded,
    expected_duration_exact,
    grid_spec,
    has_topological_order,
    identity_comb,
    unique_sink_violations,
    uso_lemma_bound,
)
from pivotlab.process import ProcessConfig, exact_expected_steps, main_start
from pivotlab.seeding import derive_rng
from test_geometry import flip_tail_sign
from test_grid_uso import flip_top_pair_out, planted

SEED = 20260810


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def report(num: int, label: str, t0: float, budget: float | None, detail: str = ""):
    elapsed = time.perf_counter() - t0
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {num:2d}] {label}: PASS ({elapsed:.2f}s){suffix}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue()


def sampled_comb(r: int, m: int, index: int):
    return build_comb(r, m, derive_rng(SEED, "comb", r, m, index))


# ---------------------------------------------------------------------------


def test_criterion_01_r1_closed_form():
    t0 = time.perf_counter()
    for m in range(2, 101):
        exact = expected_duration_exact(identity_comb(1, m), None, "uniform")
        assert exact == harmonic(m) - 1, m
        assert float(exact) >= math.log(m + 1) - 1
    report(1, "dimension-1 walk equals H_m - 1 and clears the log bound", t0, 1.0,
           "m=2..100, exact rational equality")


def test_criterion_02_uso_inner_lemma_ensembles():
    t0 = time.perf_counter()
    checked = 0
    for r in (1, 2):
        for m in range(2, 9):
            durations = {
                delta: [] for delta in (0, 1, 2)
            }
            for i in range(200):
                comb = sampled_comb(r, m, i)
                for delta in (0, 1, 2):
                    durations[delta].append(
                        expected_duration_exact(comb, AugmentedConfig(delta), "uniform")
                    )
            for delta, values in durations.items():
                floats = [float(v) for v in values]
                mean = sum(floats) / len(floats)
                var = sum((v - mean) ** 2 for v in floats) / (len(floats) - 1)
                se = math.sqrt(var / len(floats))
                floor = uso_lemma_bound(r, m, delta)
                assert mean >= floor - 3 * se, (r, m, delta, mean, floor, se)
                checked += 1
    report(2, "augmented-walk ensembles clear the inner lemma bound", t0, 120.0,
           f"{checked} (r,m,delta) configs x 200 combs, 3-SE one-sided margin")


def test_criterion_03_augmentation_identity():
    t0 = time.perf_counter()
    checked = 0
    for r in (1, 2):
        for m in range(2, 9):
            for i in range(200):
                comb = sampled_comb(r, m, i)
                base = expected_duration_exact(comb, None, "uniform")
                aug = expected_duration_exact(comb, AugmentedConfig(0), "uniform")
                assert aug == base + 1, (r, m, i)
                checked += 1
    report(3, "delta-0 augmentation adds exactly one step", t0, 120.0,
           f"{checked} combs, exact rational equality")


def test_criterion_04_corollary_embedding():
    t0 = time.perf_counter()
    for n in (5, 7):
        m = n // 2
        for i in range(50):
            comb = build_comb(2, m, derive_rng(SEED, "pad", n, i))
            padded = embed_padded(comb, n)
            assert expected_duration_exact(
                padded, None, "uniform"
            ) >= expected_duration_exact(comb, None, "uniform"), (n, i)
            spec = grid_spec(padded)
            assert not unique_sink_violations(spec, padded), (n, i)
            assert has_topological_order(spec, padded)
    report(4, "padded grids dominate their originals and stay unique-sink", t0, 60.0,
           "r=2, n in {5,7}, 50 combs each, exhaustive subgrid checks")


def test_criterion_05_geometry_lemma_suite():
    t0 = time.perf_counter()
    details = []
    for r, m in [(2, 3), (2, 4), (3, 2), (3, 3)]:
        deep = (3, 4) if (r, m) == (2, 3) else ()
        rep = verify_lemmas(r, m, deep_from=deep)
        bad = [c for c in rep.checks if not c.passed]
        assert not bad, [(c.lemma, c.counterexample) for c in bad]
        details.append(f"({r},{m})x{sum(c.cases for c in rep.checks)}")
    report(5, "structural lemma suite passes exhaustively (incl. deep projections)",
           t0, 120.0, " ".join(details))


def test_criterion_06_pivot_equivalence():
    t0 = time.perf_counter()
    exhaustive_ps = gen_point_set(2, 4)
    violations, cases24 = analysis.pivot_agreement_violations(exhaustive_ps)
    assert not violations, violations
    assert cases24 == 160
    violations33, cases33 = analysis.pivot_agreement_violations(gen_point_set(3, 3))
    assert not violations33, violations33
    assert cases33 == 1215
    report(6, "ratio-test pivot equals color-swap pivot", t0, 2.2,
           f"exhaustive {cases24} pairs at (2,4), {cases33} at (3,3)")


def test_criterion_07_main_theorem_conformance():
    t0 = time.perf_counter()
    checked = 0
    for r, m_range in ((1, range(2, 51)), (2, range(2, 9))):
        for m in m_range:
            ps = gen_point_set(r, m)
            cfg = ProcessConfig(ps, main_start(ps))
            exact = exact_expected_steps(cfg)
            floor = bound(BoundParams("main_theorem", r, m))
            assert exact >= Fraction(floor), (r, m, exact, floor)
            checked += 1
    report(7, "exact process durations clear the main bound", t0, 120.0,
           f"{checked} (r,m) configs, exact comparison")


def test_criterion_08_augmented_theorem_conformance():
    t0 = time.perf_counter()
    checked = 0
    for r in (1, 2):
        for delta in (0, 1, 2):
            for m in range(2, 7):
                worst, alphas = process.worst_case_expected_steps(r, m, delta, 3)
                floor = bound(BoundParams("augmented_theorem", r, m, delta))
                assert worst >= Fraction(floor), (r, m, delta, worst, floor, alphas)
                checked += 1
    report(8, "worst-adversary augmented durations clear their bound", t0, 120.0,
           f"{checked} (r,m,delta) configs, alpha in {{m+1..m+3}}^r, exact")


def test_criterion_09_phase_laws():
    t0 = time.perf_counter()
    details = []
    for delta in (0, 2):
        law = phase_law_report(2, 6, delta, trials=100_000, seed=SEED)
        assert law.transition.p >= 1e-3, law.to_dict()["transition"]
        assert law.pivot_color.p >= 1e-3, law.to_dict()["pivot_color"]
        for row in law.good_phases:
            assert row.ok, (delta, row)
        assert law.entry_consequence_ok
        details.append(
            f"d={delta}: p_trans={law.transition.p:.3f} p_color={law.pivot_color.p:.3f}"
        )
    report(9, "phase transition, pivot color, and good-phase laws hold", t0, 120.0,
           "; ".join(details) + " @1e5 traces each")


def test_criterion_10_reproducibility():
    t0 = time.perf_counter()
    commands = {
        "grid_uso": ["uso", "build", "--r", "2", "--m", "4", "--seed", "77"],
        "geometry": ["points", "dump", "--r", "3", "--m", "3"],
        "process": [
            "process", "run", "--r", "2", "--m", "4", "--seed", "77",
            "--delta", "1", "--alphas", "5,6", "--trials", "5",
        ],
        "analysis": [
            "bench", "bounds", "--families", "main_theorem", "--r-list", "1",
            "--m-list", "2..5", "--seed", "77",
        ],
        "cli": ["verify", "lemmas", "--r", "2", "--m", "3"],
    }
    for module, argv in commands.items():
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert code1 == code2 == 0, (module, code1, code2)
        assert out1 == out2, f"{module} output not byte-identical"
        assert out1, module
    report(10, "same seed gives byte-identical output", t0, None,
           "one command per module: " + ", ".join(commands))


def test_criterion_11_sensitivity():
    t0 = time.perf_counter()
    # a single flipped tail sign must break the geometry suite
    mutated = flip_tail_sign(gen_point_set(2, 4), PointId(1, 1, 1), 1)
    rep = verify_lemmas(2, 4, point_set=mutated)
    assert not rep.all_passed
    failed = [c.lemma for c in rep.checks if not c.passed]
    # a single reversed rank comparison must break the unique-sink check
    comb = build_comb(2, 3, derive_rng(SEED, "mutant"))
    lowest = comb.ranks.index(1) + 1
    highest = comb.ranks.index(3) + 1
    broken = planted(comb, flip_top_pair_out(comb, lowest, highest))
    violations = unique_sink_violations(grid_spec(comb), broken)
    assert violations
    assert not has_topological_order(grid_spec(comb), broken)
    report(11, "both deliberate faults are detected", t0, None,
           f"geometry suite fails {failed}; {len(violations)} sinkless subgrids")
