"""Tests for bounds, Monte Carlo estimation, and the verification suites."""

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pivotlab import geometry, grid_uso
from pivotlab.analysis import (
    FAMILIES,
    BoundParams,
    bound,
    compare_to_bound,
    mc_estimate,
    phase_law_report,
    verify_lemmas,
)
from pivotlab.analysis import (
    LemmaCheck,
    _FAULTS,
    _chi2_sf,
    _colors_and_pierced,
    _jump_law_chi2,
    _lemma,
)
from pivotlab.errors import DegeneracyError
from pivotlab.geometry import PointId, Side, gen_point_set
from test_geometry import flip_tail_sign, per_pair_pivot, small_colored_sets

GOLDENS = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def test_bound_examples():
    assert abs(bound(BoundParams("main_theorem", 1, 8)) - math.log(8)) < 1e-12
    expected = (math.log(9) - math.log(2)) ** 2 / 8
    assert abs(bound(BoundParams("augmented_theorem", 2, 8, 0)) - expected) < 1e-12
    assert abs(bound(BoundParams("uso_lemma", 1, 3, 0)) - math.log(4)) < 1e-12
    assert bound(BoundParams("uso_lemma", 0, 9, 4)) == 1.0
    eq1 = 0.5 * math.log(5) ** 2 - 1
    assert abs(bound(BoundParams("uso_theorem_eq1", 2, 4)) - eq1) < 1e-12
    cor = 0.5 * math.log(7 / 2) ** 2 - 1
    assert abs(bound(BoundParams("corollary", 2, n=7)) - cor) < 1e-12


def test_main_theorem_equals_augmented_at_delta_zero():
    for r, m in [(1, 5), (2, 7), (3, 4)]:
        a = bound(BoundParams("augmented_theorem", r, m, 0))
        b = bound(BoundParams("main_theorem", r, m, delta=5))  # delta ignored
        assert a == b


def test_bounds_monotone_in_m_and_delta():
    for family in FAMILIES:
        for r in (1, 2, 3):
            for delta in (0, 1, 2):
                values = []
                for m in range(max(r + 1, 2), 12):
                    params = (
                        BoundParams(family, r, n=m)
                        if family == "corollary"
                        else BoundParams(family, r, m, delta)
                    )
                    values.append(bound(params))
                assert all(a < b for a, b in zip(values, values[1:])), (family, r)
        if family in ("uso_lemma", "augmented_theorem"):
            by_delta = [bound(BoundParams(family, 2, 6, d)) for d in range(5)]
            assert all(a > b for a, b in zip(by_delta, by_delta[1:]))


def test_bound_vanishes_as_delta_grows():
    assert bound(BoundParams("uso_lemma", 2, 6, 10**9)) < 1e-8
    assert bound(BoundParams("augmented_theorem", 2, 6, 10**9)) < 1e-8


def test_bound_validation():
    with pytest.raises(ValueError, match="unknown bound family"):
        bound(BoundParams("nope", 1, 2))
    with pytest.raises(ValueError, match="n > r"):
        bound(BoundParams("corollary", 2, n=2))
    with pytest.raises(ValueError):
        bound(BoundParams("main_theorem", 1))
    for family in ("main_theorem", "augmented_theorem"):
        with pytest.raises(ValueError, match=f"^{family} needs r >= 1"):
            bound(BoundParams(family, 0, 3))
    # a comb family keeps its one-vertex grid at r = 0
    assert bound(BoundParams("uso_theorem_eq1", 0, 3)) == grid_uso.uso_theorem_bound(0, 3)


# ---------------------------------------------------------------------------
# Monte Carlo machinery
# ---------------------------------------------------------------------------


def test_mc_estimate_degenerate_distribution():
    report = mc_estimate(lambda rng: 1.0, 500, seed=4)
    assert report.value == 1.0
    assert report.se == 0.0
    assert report.ci_low == report.ci_high == 1.0


def test_mc_estimate_requires_two_trials():
    with pytest.raises(ValueError):
        mc_estimate(lambda rng: 1.0, 1, seed=0)


def test_mc_estimate_reproducible():
    a = mc_estimate(lambda rng: rng.randrange(10**6), 200, seed=9)
    b = mc_estimate(lambda rng: rng.randrange(10**6), 200, seed=9)
    assert a.value == b.value and a.se == b.se


def test_mc_ci_contains_known_process_value():
    report = compare_to_bound(
        BoundParams("main_theorem", 1, 4),
        mode="mc",
        trials=30_000,
        seed=2,
    )
    assert report.ci_low <= 11 / 6 <= report.ci_high
    assert report.satisfied is True


def test_mc_ci_contains_known_walk_value():
    report = compare_to_bound(
        BoundParams("uso_theorem_eq1", 1, 3),
        mode="mc",
        trials=30_000,
        seed=3,
    )
    assert report.ci_low <= 5 / 6 <= report.ci_high


def test_mc_ci_width_shrinks_like_root_two():
    kwargs = dict(mode="mc", seed=6)
    small = compare_to_bound(BoundParams("main_theorem", 1, 4), trials=20_000, **kwargs)
    large = compare_to_bound(BoundParams("main_theorem", 1, 4), trials=40_000, **kwargs)
    ratio = (large.ci_high - large.ci_low) / (small.ci_high - small.ci_low)
    assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)


def test_inconclusive_flag_on_straddling_interval():
    # ten trials are far too few to separate H_2 = 1.5 from ln(3) ~ 1.0986:
    # the 3-SE margin reaches past the bound on both sides
    report = compare_to_bound(
        BoundParams("main_theorem", 1, 3),
        mode="mc",
        trials=10,
        seed=1,
    )
    assert report.satisfied is False
    assert report.inconclusive is True


# ---------------------------------------------------------------------------
# compare_to_bound
# ---------------------------------------------------------------------------


def test_exact_process_comparison_r1_harmonic_vs_log():
    for m in range(2, 31):
        report = compare_to_bound(BoundParams("main_theorem", 1, m))
        assert report.satisfied is True
        assert isinstance(report.value, Fraction)


def test_exact_uso_ensemble_report_fields():
    report = compare_to_bound(
        BoundParams("uso_lemma", 1, 6, 2),
        orientations=40,
        seed=5,
    )
    # dimension-1 ensembles are rank-isomorphic: zero spread, exact verdict
    assert report.se == 0.0
    assert report.satisfied is True
    assert report.extras["max"] == report.extras["min"]


def test_exact_padded_ensemble_against_corollary():
    report = compare_to_bound(
        BoundParams("corollary", 2, n=5),
        orientations=30,
        seed=7,
    )
    assert report.satisfied is True


def test_alpha_sweep_comparison_records_witness():
    report = compare_to_bound(BoundParams("augmented_theorem", 2, 3, 2))
    assert report.satisfied is True
    assert len(report.extras["worst_alphas"]) == 2


def test_report_serialization_round_trips_types():
    report = compare_to_bound(BoundParams("main_theorem", 1, 4))
    blob = report.to_dict()
    assert blob["value"] == "11/6"
    assert isinstance(blob["bound"], float)


@pytest.mark.parametrize(
    "params,orientations,seed,extras",
    [
        # the exact comb ensemble: float witnesses rounded to 12 digits and
        # an int index
        (
            BoundParams("uso_lemma", 2, 3, 1),
            5,
            5,
            {
                "ensemble": "orientations",
                "max": 1.99027777778,
                "min": 1.93518518519,
                "max_index": 2,
            },
        ),
        (BoundParams("augmented_theorem", 2, 3, 2), 200, 0, {"worst_alphas": [4, 4]}),
    ],
)
def test_report_serialization_pins_extras(params, orientations, seed, extras):
    blob = compare_to_bound(params, orientations=orientations, seed=seed).to_dict()
    assert blob["extras"] == extras
    assert {k: type(v) for k, v in blob["extras"].items()} == {
        k: type(v) for k, v in extras.items()
    }


def test_report_serialization_omits_empty_extras():
    assert "extras" not in compare_to_bound(BoundParams("main_theorem", 1, 4)).to_dict()


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,m", [(2, 3), (3, 2)])
def test_verify_lemmas_passes_on_standard_families(r, m):
    report = verify_lemmas(r, m)
    assert report.all_passed, report.to_dict()
    names = {c.lemma for c in report.checks}
    assert {
        "colors",
        "pierced",
        "non_degenerate",
        "monotone",
        "layer_r_minus_1",
        "pivot_agreement",
    } <= names


def test_verify_lemmas_deep_checks_are_included():
    report = verify_lemmas(2, 3, deep_from=(3,))
    assert report.all_passed
    assert any(c.lemma.endswith("@deep[R=3]") for c in report.checks)


def test_verify_lemmas_reports_bad_deep_parameters():
    report = verify_lemmas(2, 2, deep_from=(3,))
    deep = [c for c in report.checks if c.lemma.startswith("deep")]
    assert deep and not deep[0].passed  # m >= 3 required


def test_tail_sign_mutation_is_detected():
    mutated = flip_tail_sign(gen_point_set(2, 4), PointId(1, 1, 1), 1)
    report = verify_lemmas(2, 4, point_set=mutated)
    assert not report.all_passed
    failed = [c.lemma for c in report.checks if not c.passed]
    assert failed
    # and the counterexamples say what broke
    assert any(c.counterexample for c in report.checks if not c.passed)


@pytest.mark.parametrize(
    "r, m, pid, index, cases, counterexample",
    [
        (
            3, 2, PointId(1, 1, 1), 2, 37,
            "axis value increased pivoting PointId(color=3, layer=3, phase=1) at "
            "(PointId(color=1, layer=1, phase=1), PointId(color=2, layer=3, phase=1), "
            "PointId(color=3, layer=3, phase=2))",
        ),
        (
            2, 4, PointId(1, 1, 1), 1, 0,
            "raised: hyperplane of (PointId(color=1, layer=1, phase=1), "
            "PointId(color=2, layer=2, phase=1)) meets an axis on the negative side",
        ),
    ],
)
def test_monotone_check_reports_the_first_tail_sign_fault(r, m, pid, index, cases, counterexample):
    mutated = flip_tail_sign(gen_point_set(r, m), pid, index)
    (check,) = [c for c in verify_lemmas(r, m, point_set=mutated).checks if c.lemma == "monotone"]
    assert (check.passed, check.cases, check.counterexample) == (False, cases, counterexample)


def _inner_mutations():
    """Every single-coordinate sign flip of an inner-layer point at the
    small sizes, keyed as in ``goldens/verify-lemmas-mutations.json``."""
    for r, m in [(2, 3), (2, 4), (3, 2), (2, 5)]:
        base = gen_point_set(r, m)
        for pid in base.ids():
            for index, x in enumerate(base.coords(pid)):
                if pid.layer < r and x:
                    key = f"r={r} m={m} point={pid.color},{pid.layer},{pid.phase} index={index}"
                    yield key, r, m, flip_tail_sign(base, pid, index)


def verify_lemmas_mutations_json() -> str:
    """The lemma reports of every :func:`_inner_mutations` set, as
    ``goldens/verify-lemmas-mutations.json`` holds them."""
    reports = {
        key: verify_lemmas(r, m, point_set=mutated).to_dict()
        for key, r, m, mutated in _inner_mutations()
    }
    assert len(reports) == 38
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def test_failing_lemma_reports_match_their_golden():
    golden = (GOLDENS / "verify-lemmas-mutations.json").read_bytes()
    assert verify_lemmas_mutations_json().encode() == golden


def _members(*pids) -> str:
    return f"({', '.join(map(repr, pids))})"


A1, B1, B2 = PointId(1, 2, 1), PointId(2, 2, 1), PointId(2, 2, 2)
D1, D2, D3 = PointId(1, 3, 1), PointId(2, 3, 1), PointId(3, 3, 1)

#: hand-built sets that reach a failing path no standard family or
#: tail-sign mutant reaches, with the check they fail as
#: ``(lemma, passed, cases, counterexample)``
HAND_BUILT_FAILURES = {
    "pierced proper subset": (
        {A1: (6, 6), B1: (0, 4)},
        ("non_degenerate", False, 1, f"pierced proper subset ((6, 6),) of {_members(A1, B1)}"),
    ),
    # the two reports that changed when the suite stopped ranking [A | 1]
    # apart: both read "affinely dependent transversal S" before, and now
    # each fails the first later check of S
    "affinely dependent transversal": (
        {D1: (1, 0, 0), D2: (2, 0, 0), D3: (3, 0, 0)},
        (
            "non_degenerate", False, 1,
            f"degenerate hyperplane on {_members(D1, D2, D3)}: spanning system of "
            f"{_members(D1, D2, D3)} is singular; the simplex is degenerate",
        ),
    ),
    "affinely dependent transversal with a pierced point": (
        {D1: (1, 1, 1), D2: (2, 0, 0), D3: (3, -1, -1)},
        (
            "non_degenerate", False, 1,
            f"pierced proper subset ((1, 1, 1),) of {_members(D1, D2, D3)}",
        ),
    ),
    "ratio test drops another color": (
        {A1: (1, 5), B1: (4, -4), B2: (0, 6)},
        (
            "pivot_agreement", False, 2,
            f"{_members(A1, B1)} with {B2!r}: pivot of {_members(A1, B1)} with {B2!r}: "
            f"the exit facet drops {A1!r} and lacks a color",
        ),
    ),
    "diagonal misses the simplex": (
        {A1: (5, -4), B1: (4, -1), B2: (2, -1)},
        (
            "pivot_agreement", False, 1,
            f"{_members(A1, B1)} with {B2!r}: the diagonal misses the interior of "
            f"{_members(A1, B1)}",
        ),
    ),
}


@pytest.mark.parametrize(
    "points, want", HAND_BUILT_FAILURES.values(), ids=list(HAND_BUILT_FAILURES)
)
def test_hand_built_set_reaches_its_failure(points, want):
    r = len(next(iter(points.values())))
    report = verify_lemmas(r, 3, point_set=geometry.PointSet(r, 3, points))
    (check,) = [c for c in report.checks if c.lemma == want[0]]
    assert (check.lemma, check.passed, check.cases, check.counterexample) == want


def parent_non_degenerate(ps):
    """Oracle: the suite's former ``non_degenerate`` body, which ranked
    ``[A | 1]`` apart and re-ran the Caratheodory test on every proper
    subset of every transversal."""
    r = ps.r
    for S in geometry.transversals(ps):
        coords = [ps.coords(p) for p in S.members]
        proper = (sub for size in range(1, r) for sub in combinations(coords, size))
        if len(geometry._eliminate([[*x, 1] for x in coords])[1]) != r:
            yield f"affinely dependent transversal {S.members}"
        elif sub := next((s for s in proper if geometry.is_pierced_subset(s, r)), None):
            yield f"pierced proper subset {sub} of {S.members}"
        else:
            try:
                ps.normal(S.members)
            except DegeneracyError as exc:
                yield f"degenerate hyperplane on {S.members}: {exc}"
            else:
                yield None


def parent_pivot_agreement(ps) -> LemmaCheck:
    """Oracle: the suite's former ``pivot_agreement``, which pivoted by the
    color swap beside the ratio test and compared the two."""

    def violations():
        found, cases = [], 0
        for S in geometry.transversals(ps):
            for p in geometry.below_set(ps, S):
                cases += 1
                try:
                    if p in S.members:
                        raise ValueError(f"pivot point {p} is already a member")
                    if geometry.side_of(ps, S, p) is not Side.BELOW:
                        raise ValueError(f"pivot point {p} is not strictly below the simplex")
                    swapped = S.replace(p)
                    tested = per_pair_pivot(ps, S, p)
                    problem = None if swapped == tested else (
                        f"swap gives {swapped.members}, ratio test gives {tested.members}"
                    )
                except _FAULTS as exc:
                    problem = str(exc)
                if problem is not None and len(found) < 5:
                    found.append(f"{S.members} with {p}: {problem}")
        return found, cases

    try:
        found, cases = violations()
    except _FAULTS as exc:
        found, cases = [f"raised: {exc}"], 0
    return LemmaCheck("pivot_agreement", not found, cases, found[0] if found else None)


def parent_colors_and_pierced(ps):
    """Oracle: the suite's former ``colors`` and ``pierced`` body, which ran
    the whole Caratheodory search of ``is_pierced_subset`` on every subset
    of at most ``r`` points."""
    r = ps.r
    colors_bad = pierced_bad = None
    cases = 0
    small_pierced = set()
    for size in range(1, r + 1):
        for subset in combinations(ps.ids(), size):
            cases += 1
            full_color = sorted(p.color for p in subset) == list(range(1, r + 1))
            pierced = geometry.is_pierced_subset([ps.coords(p) for p in subset], r)
            if pierced and size < r:
                small_pierced.add(subset)
            if pierced and not full_color and colors_bad is None:
                colors_bad = f"pierced subset missing a color: {subset}"
            if full_color and not pierced and pierced_bad is None:
                pierced_bad = f"full-color subset not pierced: {subset}"
    for S in geometry.transversals(ps):
        try:
            ps.normal(S.members)
        except DegeneracyError as exc:
            if pierced_bad is None:
                pierced_bad = f"axis intersections failed on {S.members}: {exc}"
    return [
        LemmaCheck("colors", colors_bad is None, cases, colors_bad),
        LemmaCheck("pierced", pierced_bad is None, cases + ps.transversal_count(), pierced_bad),
    ], small_pierced


def test_pierced_subsets_match_the_full_search_on_random_sets():
    """On small random colored sets, whose subsets are often pierced only
    through a pierced proper subset, the memoised ``colors`` and ``pierced``
    checks report what a full Caratheodory search per subset reports, and
    find the same pierced subsets of fewer than ``r`` points."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(small_colored_sets())
    def check(ps):
        got = _colors_and_pierced(ps, "")
        assert got == parent_colors_and_pierced(ps)
        checks, small_pierced = got
        # with a pierced proper subset, its supersets are decided by lookup
        seen.add("lookup" if small_pierced else "no lookup")
        seen.update(c.lemma for c in checks if not c.passed)

    check()
    assert {"lookup", "no lookup", "colors", "pierced"} <= seen, seen


@pytest.mark.parametrize("r, m, tails_only", [(2, 4, False), (3, 3, True)])
def test_pierced_subsets_match_the_full_search_on_mutants(r, m, tails_only):
    """Single-coordinate sign flips of the (2,4) family, and of the (3,3)
    family's negative tail entries: the memoised checks report what the
    full search per subset reports."""
    base = gen_point_set(r, m)
    failed = 0
    for pid in base.ids():
        for index, x in enumerate(base.coords(pid)):
            if x < 0 if tails_only else x:
                mutated = flip_tail_sign(base, pid, index)
                got = _colors_and_pierced(mutated, "")
                assert got == parent_colors_and_pierced(mutated), (pid, index)
                failed += not all(c.passed for c in got[0])
    assert failed


def test_hyperplane_pass_back_substitutes_every_transversal(monkeypatch):
    """The ``pierced`` check asks for every transversal's hyperplane, and
    on the family, whose points are zero before their color, it runs no
    elimination: each pair is back-substituted."""
    ps = gen_point_set(3, 3)
    spans = []
    span = geometry.PointSet._span

    def counting(self, members):
        spans.append(members)
        return span(self, members)

    monkeypatch.setattr(geometry.PointSet, "_span", counting)
    checks, _ = _colors_and_pierced(ps, "")
    assert all(c.passed for c in checks)
    assert len(ps._normals) == ps.transversal_count()
    assert spans == []


def test_lemma_suite_matches_its_former_bodies():
    """On small random colored sets, ``verify_lemmas`` reports what the former
    bodies of ``non_degenerate`` and ``pivot_agreement`` reported, except
    that an affinely dependent transversal fails on a later check of the
    same transversal, at the same case."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(small_colored_sets())
    def check(ps):
        checks = {c.lemma: c for c in verify_lemmas(ps.r, ps.m, point_set=ps).checks}
        assert checks["pivot_agreement"] == parent_pivot_agreement(ps)
        got, want = checks["non_degenerate"], _lemma("non_degenerate", parent_non_degenerate(ps))
        dependent = "affinely dependent transversal "
        if want.counterexample and want.counterexample.startswith(dependent):
            members = want.counterexample[len(dependent):]
            assert (got.passed, got.cases) == (want.passed, want.cases)
            singular = (
                f"degenerate hyperplane on {members}: spanning system of {members} is "
                "singular; the simplex is degenerate"
            )
            assert got.counterexample == singular or (
                got.counterexample.startswith("pierced proper subset ")
                and got.counterexample.endswith(f" of {members}")
            )
            seen.add("dependent")
        else:
            assert got == want
            seen.add("passed" if got.passed else "failed")

    check()
    assert {"passed", "failed"} <= seen, seen


# ---------------------------------------------------------------------------
# phase laws (small smoke; the full 1e5-trace runs live in the acceptance suite)
# ---------------------------------------------------------------------------


def test_chi2_sf_closed_form_values():
    for x in (0.0, 0.1, 1.0, 7.5, 60.0, 1500.0):
        assert _chi2_sf(x, 2) == math.exp(-x / 2)
    for df in range(1, 6):
        assert _chi2_sf(0.0, df) == 1.0
        # the statistic a disallowed phase jump sets
        assert _chi2_sf(math.inf, df) == 0.0
    assert abs(_chi2_sf(3.841458820694124, 1) - 0.05) <= 1e-12


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 300), st.floats(0.0, 1.0))
def test_chi2_sf_matches_scipy(df, u):
    chi2 = pytest.importorskip("scipy.stats").chi2
    x = u * (4 * df + 40)
    expected = float(chi2.sf(x, df))
    if expected > 1e-30:
        assert abs(_chi2_sf(x, df) - expected) <= 1e-10 * expected


def test_phase_law_report_smoke():
    report = phase_law_report(2, 5, delta=1, trials=4_000, seed=20)
    assert report.transition.df > 0
    assert report.transition.p >= 1e-3
    assert report.pivot_color.p >= 1e-3
    assert report.entry_consequence_ok
    assert all(row.ok for row in report.good_phases)
    blob = report.to_dict()
    assert blob["all_ok"] is True


@pytest.mark.parametrize("r,delta", [(1, 100), (2, 1000)])
def test_phase_law_report_without_positive_phase_changes(r, delta):
    # with m = 1 and a heavy escape weight no trace makes a positive-phase
    # change, so the color test has no counts
    report = phase_law_report(r, 1, delta=delta, trials=3, seed=1)
    assert report.to_dict()["pivot_color"] == {
        "stat": 0.0,
        "df": r - 1,
        "p": 1.0,
    }


@pytest.mark.parametrize("trials", [0, -5])
def test_phase_law_report_needs_a_trace(trials):
    with pytest.raises(ValueError, match="need at least 1 trace"):
        phase_law_report(2, 3, 0, trials, 1)


def test_phase_law_report_delta_zero_has_no_escape_cells():
    report = phase_law_report(2, 4, delta=0, trials=3_000, seed=21)
    assert report.all_ok()


# ---------------------------------------------------------------------------
# the pooled jump-law chi-square on synthetic count tables
# ---------------------------------------------------------------------------


def test_jump_law_chi2_exact_counts_score_zero():
    # r = 2, delta = 1: from phase 3 the weights are 2, 2, 1 on 1, 2, 0
    counts = [[0, 0, 0, 0], [7, 0, 0, 0], [10, 20, 0, 0], [20, 40, 40, 0]]
    assert _jump_law_chi2(counts, 2, 1) == (0.0, 3)


def test_jump_law_chi2_sums_rows_in_phase_order():
    # r = 1, delta = 0: phase 3 jumps to 1 or 2 with equal weight
    counts = [[0, 0, 0, 0], [9, 0, 0, 0], [0, 5, 0, 0], [0, 30, 10, 0]]
    stat, df = _jump_law_chi2(counts, 1, 0)
    assert df == 1
    assert stat == pytest.approx((30 - 20) ** 2 / 20 + (10 - 20) ** 2 / 20)


@pytest.mark.parametrize(
    "counts, delta",
    [
        ([[0, 0, 0], [0, 0, 0], [1, 9, 0]], 0),  # phase 2 at delta 0: only 1 is allowed
        ([[0, 0, 0, 0], [5, 0, 0, 0], [0, 0, 0, 0], [1, 4, 4, 0]], 0),  # escape from phase 3
        ([[0, 0, 0], [5, 0, 1], [0, 0, 0]], 1),  # a jump upward from phase 1
        ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 3, 3, 1]], 1),  # a self-jump
        ([[1]], 1),  # a jump out of the terminal phase
    ],
)
def test_jump_law_chi2_unexpected_target_is_infinite(counts, delta):
    stat, _ = _jump_law_chi2(counts, 2, delta)
    assert stat == math.inf


def test_jump_law_chi2_rows_with_one_outcome_add_no_df():
    # phase 1 at delta 0 (forced escape), phase 1 at delta 1 (escape only)
    # and phase 2 at delta 0 (only phase 1) carry no multinomial term
    assert _jump_law_chi2([[0, 0], [12, 0]], 2, 0) == (0.0, 0)
    assert _jump_law_chi2([[0, 0], [12, 0]], 2, 1) == (0.0, 0)
    assert _jump_law_chi2([[0, 0, 0], [12, 0, 0], [0, 12, 0]], 3, 0) == (0.0, 0)


# ---------------------------------------------------------------------------
# seeded Monte Carlo at the benchmark's shapes, pinned byte for byte
# ---------------------------------------------------------------------------

SIM_MC_SEEDS = (1, 2)


def sim_mc_shapes() -> dict:
    """Phase-law reports at (2, 6) and comb-walk estimates at (3, 8),
    delta 1, the shapes the ``sim_mc`` benchmark samples; the golden
    ``goldens/sim-mc-shapes.json`` holds this dict."""
    from pivotlab import grid_uso
    from pivotlab.seeding import derive_rng

    out = {}
    for seed in SIM_MC_SEEDS:
        for delta in (0, 2):
            rep = phase_law_report(2, 6, delta, 3000, seed)
            out[f"phase delta={delta} seed={seed}"] = rep.to_dict()
    comb = grid_uso.build_comb(3, 8, derive_rng(1, "comb"))
    cfg = grid_uso.AugmentedConfig(1)
    for seed in SIM_MC_SEEDS:
        rep = mc_estimate(
            lambda rng: grid_uso.walk(comb, cfg, "uniform", rng, record=False).steps,
            3000,
            seed,
        )
        out[f"walk delta=1 seed={seed}"] = rep.to_dict()
    return out


def sim_mc_shapes_json() -> str:
    return json.dumps(sim_mc_shapes(), indent=2, sort_keys=True) + "\n"


def test_sim_mc_shapes_match_their_golden():
    assert sim_mc_shapes_json().encode() == (GOLDENS / "sim-mc-shapes.json").read_bytes()


def test_sampler_call_contract(monkeypatch):
    """The calls a seeded Monte Carlo job makes, as the benchmark's tracer
    counts them: one stream, one ``run`` and one ``good_phases`` per phase
    trace, a ``below_set`` only inside ``run`` and only for a state no
    earlier trace expanded, and one ``walk`` per Monte Carlo trial."""
    from collections import Counter

    from pivotlab import analysis, grid_uso, process

    calls = Counter()
    open_calls = []
    visited = set()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "below_set" and open_calls[-1:] == ["run"]:
                calls["below_set in run"] += 1
            open_calls.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_calls.pop()
            if name == "run":
                visited.update(st.members for st in result.states)
            return result

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [
        (analysis, "derive_rng"),
        (process, "run"),
        (process, "good_phases"),
        (geometry, "below_set"),
        (grid_uso, "walk"),
    ]:
        counting(module, name)

    phase_law_report(2, 6, 2, 300, 5)
    assert (calls["derive_rng"], calls["run"], calls["good_phases"]) == (300, 300, 300)
    # each state is expanded once, by the first trace that visits it
    assert calls["below_set"] == calls["below_set in run"] == len(visited) > 0

    calls.clear()
    comb = grid_uso.build_comb(3, 8, analysis.derive_rng(1, "comb"))
    calls.clear()
    cfg = grid_uso.AugmentedConfig(1)
    mc_estimate(
        lambda rng: grid_uso.walk(comb, cfg, "uniform", rng, record=False).steps, 200, 3
    )
    assert (calls["derive_rng"], calls["walk"]) == (200, 200)
    calls.clear()
    compare_to_bound(BoundParams("uso_lemma", 2, 5, 1), "mc", trials=50, seed=4)
    assert (calls["derive_rng"], calls["walk"]) == (50, 50)
