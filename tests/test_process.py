"""Tests for the pivoting process: dynamics, traces, phases, exact solves."""

import math
from fractions import Fraction
from itertools import permutations, product
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pivotlab import chain, process
from pivotlab.errors import DegeneracyError, InstanceTooLargeError, InternalInvariantError
from pivotlab.geometry import (
    PointId,
    PointSet,
    Transversal,
    below_set,
    gen_point_set,
    hyperplane_coefficients,
    make_transversal,
    transversals,
)
from pivotlab.process import (
    ProcessConfig,
    Trace,
    adversaries,
    adversary_start,
    exact_expected_steps,
    good_phases,
    main_start,
    phase_of,
    run,
    trace_to_jsonl,
    worst_case_expected_steps,
)
from pivotlab.grid_uso import GridSpec, has_topological_order, unique_sink_violations
from pivotlab.seeding import derive_rng
from test_chain import expected_steps, writes_rule_breaker
from test_geometry import axis_intersections, flip_tail_sign
from test_grid_uso import oriented


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def plain_config(r, m, delta=0):
    ps = gen_point_set(r, m)
    return ProcessConfig(ps, main_start(ps), delta=delta)


def augmented_config(r, m, delta, alphas=None):
    ps = gen_point_set(r, m).augmented(alphas)
    return ProcessConfig(
        ps, adversary_start(ps), delta=delta, count_terminal_step=True
    )


# ---------------------------------------------------------------------------
# starts and stepping
# ---------------------------------------------------------------------------


def test_main_start_uses_maximal_axis_points():
    ps = gen_point_set(2, 5)
    S = main_start(ps)
    assert [ps.coords(p) for p in S.members] == [(5, 0), (0, 5)]


def test_adversary_start_requires_augmented_set():
    ps = gen_point_set(2, 3)
    with pytest.raises(ValueError, match="augmented"):
        adversary_start(ps)
    assert adversary_start(ps.augmented()).members == (
        PointId(1, 2, 4),
        PointId(2, 2, 4),
    )


def test_step_forced_escape_without_candidates():
    ps = gen_point_set(1, 2)
    bottom = make_transversal(ps, [PointId(1, 1, 1)])
    trace = run(ProcessConfig(ps, bottom), Random(0))
    assert trace.pivot(0) is None and trace.total_steps == 1


def test_step_distribution_matches_weights():
    # |below| = 3 and delta = 2: each point 1/5, escape 2/5
    cfg = augmented_config(1, 3, delta=2)
    trials = 20_000
    counts = {"escape": 0}
    for i in range(trials):
        trace = run(cfg, derive_rng(7, i))
        assert trace.states[0].members == adversary_start(cfg.point_set).members
        pivot = trace.pivot(0)
        key = "escape" if pivot is None else pivot.phase
        counts[key] = counts.get(key, 0) + 1
    se = math.sqrt(0.2 * 0.8 / trials)
    for k in (1, 2, 3):
        assert abs(counts[k] / trials - 0.2) < 4 * se
    se_esc = math.sqrt(0.4 * 0.6 / trials)
    assert abs(counts["escape"] / trials - 0.4) < 4 * se_esc


@pytest.mark.parametrize(
    "augmented,delta,counted", [(False, 0, False), (False, 2, True), (True, 0, True)]
)
def test_config_defaults_follow_the_point_set(augmented, delta, counted):
    ps = gen_point_set(2, 3)
    ps = ps.augmented() if augmented else ps
    cfg = ProcessConfig(ps, delta=delta)
    start = adversary_start(ps) if augmented else main_start(ps)
    assert cfg.start == start
    assert cfg.count_terminal_step is counted


def test_config_validates_start_and_delta():
    ps = gen_point_set(2, 2)
    with pytest.raises(ValueError):
        ProcessConfig(ps, main_start(ps), delta=-1)
    other = gen_point_set(2, 3)
    with pytest.raises(ValueError):
        ProcessConfig(ps, main_start(other))
    # a start without a valid hyperplane is refused when the config is made,
    # as hyperplane_coefficients refuses it: a line through (0, 1) and (1, 2)
    # meets the first axis at -1, one through (0, 1) and (5, 1) never does
    start = Transversal((PointId(1, 1, 1), PointId(2, 2, 1)))
    for far in [(1, 2), (5, 1)]:
        degenerate = PointSet(2, 2, {PointId(1, 1, 1): (0, 1), PointId(2, 2, 1): far})
        with pytest.raises(DegeneracyError) as want:
            hyperplane_coefficients(degenerate, start)
        with pytest.raises(DegeneracyError) as got:
            ProcessConfig(degenerate, start)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# ---------------------------------------------------------------------------
# runs and traces
# ---------------------------------------------------------------------------


def test_run_deterministic_single_pivot():
    cfg = plain_config(1, 2)
    trace = run(cfg, Random(0))
    assert trace.pivot_count == 1
    assert trace.total_steps == 2
    assert [st.members for st in trace.states] == [
        (PointId(1, 1, 2),),
        (PointId(1, 1, 1),),
    ]


def test_trace_counts_differ_by_exactly_one_and_match_conventions():
    cfg = augmented_config(1, 2, delta=0, alphas=[3])
    for seed in range(25):
        trace = run(cfg, Random(seed))
        assert trace.total_steps == trace.pivot_count + 1
        assert trace.steps(True) == trace.total_steps
        assert trace.steps(False) == trace.pivot_count


def test_trace_invariants_hold_on_sampled_runs():
    cfg = augmented_config(2, 5, delta=1)
    n_states = cfg.point_set.transversal_count()
    for i in range(300):
        trace = run(cfg, derive_rng(3, "run", i))
        positions = [st.members for st in trace.states]
        assert len(set(positions)) == len(positions)  # no repeats
        assert len(positions) < n_states
        phases = [trace.states[0].phase] + [phi for _, phi in trace.phase_changes()]
        assert all(a > b for a, b in zip(phases, phases[1:]))
        assert phases[0] == cfg.point_set.m + 1
        assert phases[-1] == 0
        # phase changes only when pivoting an outermost-layer point
        for t in range(1, len(trace.states)):
            if trace.states[t].phase != trace.states[t - 1].phase:
                pivot = trace.pivot(t - 1)
                assert pivot is not None
                assert pivot.layer == cfg.point_set.r


def test_run_seed_determinism_byte_for_byte():
    cfg = augmented_config(2, 4, delta=2)
    a = trace_to_jsonl(run(cfg, Random(12345)))
    b = trace_to_jsonl(run(cfg, Random(12345)))
    assert a == b


def test_runs_of_one_config_share_its_setup(monkeypatch):
    # the step budget and the start state are made once per config, not per
    # trace, and the start state before the first run
    cfg = augmented_config(2, 4, delta=2)
    (start,) = cfg._states.values()
    counted = []
    real = type(cfg.point_set).transversal_count
    monkeypatch.setattr(
        type(cfg.point_set), "transversal_count", lambda ps: counted.append(1) or real(ps)
    )
    traces = [run(cfg, Random(seed)) for seed in range(5)]
    assert counted == []
    assert all(t.states[0] is start for t in traces)
    assert start.members == cfg.start.members


def hand_state(cfg, members, phase, below) -> process._State:
    """A state built outside any config's graph, for traces fed by hand:
    its escape weight under ``cfg`` set with its below points, as
    :func:`process._below` sets them, and its entry verdict not yet
    judged."""
    escape = chain.escape_weight(cfg.delta, len(below))
    return process._State(-1, members, 0, 1, phase, below, escape=escape)


def scalar_run(cfg, rng) -> Trace:
    """Oracle: the process stepped from scratch, recomputing the below set
    and the axis-intersection sum of every visited position and checking
    that the sum falls on every step."""
    ps = cfg.point_set
    states, picks = [], []
    position = cfg.start
    prev_t_sum = None
    while True:
        t_sum = sum(axis_intersections(ps, position))
        if prev_t_sum is not None and t_sum >= prev_t_sum:
            raise InternalInvariantError("monotonicity is broken")
        prev_t_sum = t_sum
        below = below_set(ps, position)
        i = chain.draw(rng, len(below), chain.escape_weight(cfg.delta, len(below)))
        states.append(hand_state(cfg, position.members, phase_of(ps, position), below))
        picks.append(i)
        if i is None:
            return Trace(states, picks)
        position = position.replace(below[i])


def trace_steps(trace) -> tuple:
    """A trace as one ``(members, below count, phase, pivot)`` per step."""
    return tuple(
        (st.members, len(st.below), st.phase, trace.pivot(t))
        for t, st in enumerate(trace.states)
    )


def record_run(cfg, rng) -> tuple:
    """Oracle: the process stepped over the config's state graph, recording
    ``(members, below count, phase, pivot)`` per step as it goes."""
    budget = cfg.point_set.transversal_count() + 1
    records = []
    st = process._state(cfg, cfg.start.members)
    t = 0
    while True:
        below = process._below(cfg, st)
        n_below = len(below)
        i = chain.draw(rng, n_below, chain.escape_weight(cfg.delta, n_below))
        pivot = None if i is None else below[i]
        records.append((st.members, n_below, st.phase, pivot))
        t += 1
        if t > budget:
            raise InternalInvariantError(
                "process exceeded its step budget; positions must not repeat"
            )
        if i is None:
            return tuple(records)
        st = process._edge(cfg, st, i)


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(1, 3),
    m=st.integers(1, 5),
    data=st.data(),
    delta=st.integers(0, 2),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
def test_run_draws_as_the_record_oracle(r, m, data, delta, seeds):
    # run and the oracle on separate configs, so each builds its own graph;
    # the stream states after every call pin the draws one by one
    ps = gen_point_set(r, m)
    if data.draw(st.booleans(), label="augmented"):
        alphas = data.draw(
            st.lists(st.integers(m + 1, m + 4), min_size=r, max_size=r), label="alphas"
        )
        ps = ps.augmented(alphas)
    cfg, oracle_cfg = ProcessConfig(ps, delta=delta), ProcessConfig(ps, delta=delta)
    for seed in seeds:
        rng, oracle_rng = Random(seed), Random(seed)
        for _ in range(3):
            trace = run(cfg, rng)
            want = record_run(oracle_cfg, oracle_rng)
            assert trace_steps(trace) == want
            assert (trace.total_steps, trace.pivot_count) == (len(want), len(want) - 1)
            assert rng.getstate() == oracle_rng.getstate()


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(1, 3),
    m=st.integers(1, 4),
    data=st.data(),
    delta=st.integers(0, 3),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
def test_run_matches_scalar_oracle(r, m, data, delta, seeds):
    ps = gen_point_set(r, m)
    if data.draw(st.booleans(), label="augmented"):
        alphas = data.draw(
            st.lists(st.integers(m + 1, m + 4), min_size=r, max_size=r), label="alphas"
        )
        ps = ps.augmented(alphas)
    cfg = ProcessConfig(ps, delta=delta)
    for seed in seeds:  # the later traces run on the graph the earlier ones built
        want = trace_to_jsonl(scalar_run(cfg, Random(seed)))
        assert trace_to_jsonl(run(cfg, Random(seed))) == want


def test_trace_jsonl_shape():
    cfg = plain_config(1, 3)
    lines = trace_to_jsonl(run(cfg, Random(1))).strip().split("\n")
    import json

    first = json.loads(lines[0])
    assert set(first) == {"t", "S", "pivot", "below", "phase"}
    last = json.loads(lines[-1])
    assert last["pivot"] == "inf"


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def test_phase_of_examples():
    ps = gen_point_set(2, 6)
    assert phase_of(ps, main_start(ps)) == 6
    aug = ps.augmented()
    assert phase_of(aug, adversary_start(aug)) == 7
    ps22 = gen_point_set(2, 2)
    S = make_transversal(ps22, [PointId(1, 1, 1), PointId(2, 2, 1)])
    assert phase_of(ps22, S) == 1


def phase_from_min_t(point_set, position) -> Fraction:
    """The axis-intersection characterization of the phase: ``min(t_1..t_r)``."""
    return min(axis_intersections(point_set, position))


@pytest.mark.parametrize("r,m", [(2, 4), (3, 3)])
def test_phase_definitions_agree_exhaustively(r, m):
    ps = gen_point_set(r, m)
    for S in transversals(ps):
        assert phase_of(ps, S) == phase_from_min_t(ps, S)


# ---------------------------------------------------------------------------
# good phases
# ---------------------------------------------------------------------------


def test_good_phases_empty_below_dimension_two():
    cfg = plain_config(1, 5)
    trace = run(cfg, Random(2))
    assert good_phases(cfg, trace) == {}


def test_good_phases_match_independent_reimplementation():
    cfg = augmented_config(2, 5, delta=1)
    ps = cfg.point_set
    for i in range(200):
        trace = run(cfg, derive_rng(8, "gp", i))
        report = good_phases(cfg, trace)
        # independent re-derivation straight from the states
        expected = set()
        phases = [st.phase for st in trace.states]
        for t in range(1, len(trace.states)):
            if phases[t] == phases[t - 1]:
                continue
            pivot = trace.pivot(t - 1)
            entry = trace.states[t].members
            if (
                pivot is not None
                and pivot.color == ps.r
                and not any(p.layer == ps.r - 1 for p in entry)
            ):
                expected.add(phases[t])
        assert set(report) == expected
        # the documented consequence of a good entry
        assert all(report.values())


def scalar_good_phases(cfg, trace):
    """Oracle: good phases with the layer-(r-1) set and the below set of
    every good entry rebuilt from scratch."""
    ps = cfg.point_set
    r = ps.r
    if r < 2:
        return {}
    layer_rm1 = set(ps.layer_members(r - 1))
    good = {}
    for sigma, phi in trace.phase_changes():
        if phi == 0 or sigma >= len(trace.states):
            continue
        pivot = trace.pivot(sigma - 1)
        entry = trace.states[sigma]
        if pivot.color != r:
            continue
        if any(p.layer == r - 1 for p in entry.members):
            continue
        good[phi] = layer_rm1 <= set(
            below_set(ps, make_transversal(ps, entry.members))
        )
    return good


@pytest.mark.parametrize(
    "r, m, delta, alphas", [(2, 5, 0, None), (2, 6, 2, None), (3, 3, 1, (4, 5, 6))]
)
def test_good_phases_match_scalar_oracle(r, m, delta, alphas):
    # one config for every trace, so later traces reuse the cached flags
    cfg = augmented_config(r, m, delta, alphas)
    plain = plain_config(r, m, delta)
    seen = 0
    for i in range(150):
        for c in (cfg, plain):
            trace = run(c, derive_rng(9, "gp-oracle", i))
            report = good_phases(c, trace)
            assert report == scalar_good_phases(c, trace)
            seen += len(report)
    assert seen > 0


def test_good_phases_flag_false_when_a_layer_point_is_above():
    # a trace fed by hand: its entry avoids layer r - 1 but sits where some
    # layer r - 1 point is not below, and the report must say so
    cfg = augmented_config(2, 4, 1)
    ps = cfg.point_set
    layer_rm1 = set(ps.layer_members(1))
    members = next(
        (
            t.members
            for t in transversals(ps)
            if not any(p.layer == 1 for p in t.members)
            and not layer_rm1 <= set(below_set(ps, t))
        ),
        None,
    )
    assert members is not None, "every layer-2 transversal has all of layer 1 below"
    pivot = next(p for p in members if p.color == ps.r)
    phase = phase_of(ps, make_transversal(ps, members))
    # the first state pivots that point in; the entry is the config's own
    entry = process._state(cfg, members)
    trace = Trace([hand_state(cfg, members, phase + 1, (pivot,)), entry], [0, None])
    for _ in range(2):  # the second call reads the cached flag
        report = good_phases(cfg, trace)
        assert report == scalar_good_phases(cfg, trace)
        assert report == {phase: False}


def uncached_good_phases(cfg, trace):
    """Oracle: the good-phase rule judging every entry afresh, from its
    members and the config's layer-(r-1) set, with no verdict kept."""
    r = cfg.point_set.r
    if r < 2:
        return {}
    good = {}
    # the last change is the escape to phase 0, after every state
    for sigma, phi in trace.phase_changes()[:-1]:
        pivot = trace.pivot(sigma - 1)
        assert pivot is not None  # a positive-phase change is a point pivot
        if pivot.color != r:
            continue
        entry = trace.states[sigma]
        if any(p.layer == r - 1 for p in entry.members):
            continue
        good[phi] = cfg._layer_rm1.issubset(process._below(cfg, entry))
    return good


def check_kept_fields(cfg):
    """Every expanded state of ``cfg`` keeps its escape weight, and every
    judged one the verdict its members and below points give."""
    r = cfg.point_set.r
    layer_rm1 = set(cfg.point_set.layer_members(r - 1))
    expanded = [st for st in cfg._states.values() if st.below is not None]
    assert expanded
    for st in expanded:
        assert st.escape == chain.escape_weight(cfg.delta, len(st.below))
    judged = [st for st in cfg._states.values() if st.entry is not None]
    for st in judged:
        if any(p.layer == r - 1 for p in st.members):
            assert st.entry is process._NEVER
        else:
            assert st.entry is (layer_rm1 <= set(st.below))
    return judged


def verdicts_against_oracle(cfg, seed, traces):
    """Every good-phase verdict of ``traces`` seeded traces, each report
    checked against the uncached rule."""
    verdicts = []
    for i in range(traces):
        trace = run(cfg, derive_rng(seed, "verdict", i))
        report = good_phases(cfg, trace)
        assert report == uncached_good_phases(cfg, trace)
        verdicts += report.values()
    return verdicts


@pytest.mark.parametrize("delta", [0, 2])
@pytest.mark.parametrize("r, m", [(2, 6), (3, 4), (4, 3)])
def test_kept_entry_verdicts_match_the_uncached_rule(r, m, delta):
    # one config for every trace, so later traces read the kept verdicts
    cfg = augmented_config(r, m, delta)
    verdicts = verdicts_against_oracle(cfg, 11, 200)
    assert verdicts and all(verdicts)
    judged = check_kept_fields(cfg)
    assert any(st.entry is process._NEVER for st in judged)


def test_kept_entry_verdicts_match_the_uncached_rule_on_a_mutant():
    # a flipped second-layer point that still runs: it sits above every
    # good entry, so each verdict is False
    ps = flip_tail_sign(gen_point_set(3, 3).augmented((4, 5, 6)), PointId(1, 2, 1), 2)
    cfg = ProcessConfig(ps, delta=2)
    verdicts = verdicts_against_oracle(cfg, 12, 150)
    assert verdicts and not any(verdicts)
    check_kept_fields(cfg)


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------


def test_exact_r1_matches_harmonic_closed_form():
    assert exact_expected_steps(plain_config(1, 4)) == Fraction(11, 6)
    for m in (2, 3, 7, 12):
        assert exact_expected_steps(plain_config(1, m)) == harmonic(m - 1)


# generated before the fraction-free geometry kernel replaced the rational one
PINNED_EXACT = {
    "main-3-4": (
        lambda: plain_config(3, 4),
        "176963457842676087776492799187627/24158059351866954935156736000000",
    ),
    "main-4-3": (
        lambda: plain_config(4, 3),
        "8684606816136233405290577735872777106387029870591904642041262192116544677/"
        "971696380693148422625974972717816879841102415268664259379200000000000000",
    ),
    "augmented-2-6-delta1-alphas-7-8": (
        lambda: ProcessConfig(gen_point_set(2, 6).augmented((7, 8)), delta=1),
        "16378742060853/3488566681600",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_EXACT))
def test_exact_values_are_pinned(name):
    make_config, want = PINNED_EXACT[name]
    value = exact_expected_steps(make_config())
    assert type(value) is Fraction and str(value) == want


def fraction_expected_steps(cfg):
    """Reference solver on ``geometry`` alone: ``Fraction`` back-substitution
    over every transversal in increasing order of the ``Fraction`` sum of
    its axis intersections, each reading the values of its color swaps
    with the points below it."""
    ps = cfg.point_set
    expected = {}
    for s in sorted(transversals(ps), key=lambda s: sum(axis_intersections(ps, s))):
        below = below_set(ps, s)
        expected[s.members] = expected_steps(
            sum((expected[s.replace(p).members] for p in below), Fraction(0)),
            len(below),
            chain.escape_weight(cfg.delta, len(below)),
        )
    result = expected[cfg.start.members]
    return result if cfg.count_terminal_step else result - 1


@pytest.mark.parametrize("delta", [0, 1, 2])
@pytest.mark.parametrize("r,m", [(1, 2), (1, 5), (2, 2), (2, 4), (3, 2), (3, 3)])
def test_exact_matches_fraction_oracle(r, m, delta):
    ps = gen_point_set(r, m)
    augmented = ps.augmented(tuple(range(m + 1, m + 1 + r)))
    configs = [
        ProcessConfig(ps, delta=delta),
        ProcessConfig(augmented, delta=delta),
        ProcessConfig(augmented, delta=delta, count_terminal_step=False),
    ]
    if (r, m) in [(2, 2), (3, 2)]:  # every start, each value read by its state id
        configs += [
            ProcessConfig(point_set, start, delta)
            for point_set in (ps, augmented)
            for start in transversals(point_set)
        ]
    for cfg in configs:
        assert exact_expected_steps(cfg) == fraction_expected_steps(cfg)


def edge_expected_steps(cfg):
    """The edge-by-edge compile that the fiber compile replaced: every edge
    built by ``_edge``, which checks that it lowers the axis-intersection
    sum, each state reading its successors one by one and writing a group
    of its own."""
    ps = cfg.point_set
    chain.check_state_count(ps.transversal_count(), "transversals", "exact mode")
    known = cfg._states
    states = [
        known.get(sid) or process._new_state(cfg, s, sid)
        for sid, s in enumerate(transversals(ps))
    ]
    states.sort(key=process._solve_order)
    order = [st.sid for st in states]
    n_succ, reads = [], []
    for st in states:
        n_below = len(process._below(cfg, st))
        n_succ.append(n_below)
        reads.append([process._edge(cfg, st, i).sid for i in range(n_below)])
    ch = chain.Chain(order, n_succ, reads, [(k,) for k in order], len(order))
    scaled, d = chain.solve(ch, cfg.delta)
    x = scaled[process._state(cfg, cfg.start.members).sid]
    return Fraction(x if cfg.count_terminal_step else x - d, d)


def check_fiber_chain(ch, r):
    """The rules of a compiled process chain: each state writes only groups
    it reads or groups no earlier state wrote, and reads only groups that
    exist; the groups past the ``r`` fibers per state are each one state's
    own, written by it alone and solved before the first state that reads
    it, and numbered in the order of those first readers."""
    assert writes_rule_breaker(ch) is None
    assert all(0 <= g < ch.n_groups for rd in ch.reads for g in rd)
    fibers = r * len(ch.order)
    writer, first_reader = {}, {}
    for i, (rd, wr) in enumerate(zip(ch.reads, ch.writes)):
        for g in wr:
            if g >= fibers:
                assert g not in writer
                writer[g] = i
        for g in rd:
            if g >= fibers:
                first_reader.setdefault(g, i)
    assert list(first_reader) == list(range(fibers, ch.n_groups))
    assert sorted(writer) == list(first_reader)
    assert all(writer[g] < i for g, i in first_reader.items())


@st.composite
def small_cases(draw):
    """Plain and augmented sets, and ``flip_tail_sign`` mutants of either,
    with ``r <= 4``, ``m <= 4`` and ``delta`` in 0..2, as
    ``(r, m, alphas, flip, delta)``."""
    r = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["plain", "augmented", "mutant"]))
    alphas = None
    if kind == "augmented" or kind == "mutant" and draw(st.booleans()):
        alphas = tuple(draw(st.lists(st.integers(m + 1, m + 3), min_size=r, max_size=r)))
    flip = None
    if kind == "mutant":
        flip = draw(st.sampled_from(tail_flips(case_set(r, m, alphas, None))))
    return r, m, alphas, flip, draw(st.integers(0, 2))


def case_set(r, m, alphas, flip):
    ps = gen_point_set(r, m)
    if alphas is not None:
        ps = ps.augmented(alphas)
    return ps if flip is None else flip_tail_sign(ps, *flip)


def tail_flips(ps):
    """Every ``(point, coordinate)`` whose sign ``flip_tail_sign`` can flip."""
    return [(p, i) for p in ps.ids() for i, x in enumerate(ps.coords(p)) if x]


def outcome(solve, make_set, delta):
    """``solve`` on a config of a fresh ``make_set()``: its value, or the
    type and message of what it raised."""
    try:
        value = solve(ProcessConfig(make_set(), delta=delta))
    except Exception as exc:  # every raise must match the oracle's
        return type(exc), str(exc)
    assert type(value) is Fraction
    return value


def fiber_matches_edge(make_set, delta, r):
    """The fiber compile's outcome, after checking that it equals the edge
    compile's and that the chain it solved keeps the fiber rules."""
    with mock.patch.object(chain, "solve", wraps=chain.solve) as spy:
        got = outcome(exact_expected_steps, make_set, delta)
    assert got == outcome(edge_expected_steps, make_set, delta)
    if spy.called:
        check_fiber_chain(spy.call_args.args[0], r)
    return got


@settings(max_examples=80, deadline=None)
@given(case=small_cases())
def test_fiber_compile_matches_the_edge_compile(case):
    r, m, alphas, flip, delta = case
    fiber_matches_edge(lambda: case_set(r, m, alphas, flip), delta, r)


def test_every_small_mutant_matches_the_edge_compile():
    # most mutants stop on a degenerate hyperplane, and all of them do at
    # r <= 2; from r = 3 on some solve and some break monotonicity
    kinds = set()
    for r, m in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        for alphas in (None, tuple(range(m + 1, m + 1 + r))):
            for flip in tail_flips(case_set(r, m, alphas, None)):
                got = fiber_matches_edge(lambda: case_set(r, m, alphas, flip), 1, r)
                kinds.add(got[0] if type(got) is tuple else Fraction)
    assert kinds == {Fraction, DegeneracyError, InternalInvariantError}


@pytest.mark.parametrize("r,m", [(2, 20), (3, 6), (4, 3)])
def test_plain_solve_reads_only_fiber_sums(r, m):
    ch = process._compile(plain_config(r, m))
    assert ch.n_groups == r * len(ch.order)
    assert all(len(rd) == r and rd == wr for rd, wr in zip(ch.reads, ch.writes))


def guard_failures(cfg, order):
    """States whose swaps of some color are not all the states of that
    color's fiber (its transversals that differ from it in that color alone)
    solved before it, counted from the below sets alone."""
    r = cfg.point_set.r
    solved = {}
    failures = 0
    for sid in order:
        st = cfg._states[sid]
        counts = [0] * r
        for p in below_set(cfg.point_set, Transversal(st.members)):
            counts[p.color - 1] += 1
        fibers = [(c, st.members[:c] + st.members[c + 1 :]) for c in range(r)]
        failures += any(solved.get(f, 0) != n for f, n in zip(fibers, counts))
        for f in fibers:
            solved[f] = solved.get(f, 0) + 1
    return failures


@pytest.mark.parametrize(
    "r,m,failing,one_by_one", [(2, 5, 1, 5), (3, 3, 16, 45), (4, 3, 262, 675)]
)
def test_guard_failures_on_augmented_sets(r, m, failing, one_by_one):
    # a state that fails the guard leaves every later state of that fiber
    # reading the color one by one
    cfg = ProcessConfig(gen_point_set(r, m).augmented())
    ch = process._compile(cfg)
    check_fiber_chain(ch, r)
    assert guard_failures(cfg, ch.order) == failing
    fibers = r * len(ch.order)
    assert sum(any(g >= fibers for g in rd) for rd in ch.reads) == one_by_one
    fresh = ProcessConfig(gen_point_set(r, m).augmented())
    assert exact_expected_steps(cfg) == edge_expected_steps(fresh)


def test_a_fiber_that_failed_its_guard_is_read_no_more():
    # on one color-1 fiber a < b < c in solve order: b loses its color-1
    # swaps and fails the guard, and c's color-1 swaps become b alone; their
    # count equals the states the fiber's sum holds, a alone, so only the
    # fiber's retirement makes c read b one by one
    cfg = plain_config(2, 3)
    fibers = {}
    for sid in process._compile(cfg).order:
        st = cfg._states[sid]
        fibers.setdefault(st.members[1:], []).append(st)
    a, b, c = next(f for f in fibers.values() if len(f) >= 3)[:3]
    cached = cfg.point_set._below  # the below sets both compiles read
    assert {a.members[0], b.members[0]} <= set(cached[c.members])
    cached[b.members] = tuple(p for p in cached[b.members] if p.color != 1)
    cached[c.members] = tuple(
        p for p in cached[c.members] if p.color != 1 or p == b.members[0]
    )
    ch = process._compile(cfg)
    check_fiber_chain(ch, 2)
    fiber_groups = 2 * len(ch.order)
    assert [g for g in ch.reads[ch.order.index(c.sid)] if g >= fiber_groups]
    assert exact_expected_steps(cfg) == edge_expected_steps(cfg)


def test_solve_order_is_exact_on_a_float_tie():
    # all three sums round to the float 1.0 but differ exactly
    e = 10**17
    a = process._State(0, (), e + 1, e, 1)
    b = process._State(1, (), e + 2, e, 1)
    c = process._State(2, (), 2 * (e + 3), 2 * e, 1)
    assert len({process._solve_order(st)[0] for st in (a, b, c)}) == 1
    for states in permutations((a, b, c)):
        assert sorted(states, key=process._solve_order) == [a, b, c]


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 3),
    m=st.integers(1, 4),
    alphas=st.none() | st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_solve_order_follows_the_exact_axis_sum(r, m, alphas):
    ps = gen_point_set(r, m)
    if alphas is not None:
        ps = ps.augmented([m + 1 + a for a in alphas[:r]])
    cfg = ProcessConfig(ps)
    exact_expected_steps(cfg)
    states = sorted(cfg._states.values(), key=process._solve_order)
    assert len(states) == ps.transversal_count()
    sums = [sum(axis_intersections(ps, Transversal(st.members))) for st in states]
    assert all(Fraction(st.t_num, st.t_den) == t for st, t in zip(states, sums))
    assert sums == sorted(sums)


def test_exact_r2_m2_matches_hand_back_substitution():
    # worked by hand over all eight positions of the (2, 2) family:
    # E{1e1,2e2->...} chains give E[start] = 1 + (1 + 11/6)/2 = 29/12
    assert exact_expected_steps(plain_config(2, 2)) == Fraction(29, 12)


def test_exact_counting_conventions_differ_by_one():
    ps = gen_point_set(2, 3).augmented()
    start = adversary_start(ps)
    pivots = exact_expected_steps(
        ProcessConfig(ps, start, delta=1, count_terminal_step=False)
    )
    total = exact_expected_steps(
        ProcessConfig(ps, start, delta=1, count_terminal_step=True)
    )
    assert total == pivots + 1


def test_exact_agrees_with_monte_carlo():
    cfg = augmented_config(2, 4, delta=1)
    exact = float(exact_expected_steps(cfg))
    trials = 10_000
    values = [
        run(cfg, derive_rng(13, "mc", i)).total_steps for i in range(trials)
    ]
    mean = sum(values) / trials
    var = sum((v - mean) ** 2 for v in values) / (trials - 1)
    se = math.sqrt(var / trials)
    assert abs(mean - exact) <= 4 * se


def test_exact_delta_limit_is_one_step():
    cfg = augmented_config(2, 3, delta=10**9)
    assert abs(float(exact_expected_steps(cfg)) - 1) < 1e-6


def test_broken_monotonicity_is_an_internal_error():
    # a flipped tail coordinate lets some pivot raise the axis-intersection sum
    ps = flip_tail_sign(gen_point_set(3, 2), PointId(1, 1, 1), 2)
    with pytest.raises(InternalInvariantError, match="monotonicity is broken"):
        exact_expected_steps(ProcessConfig(ps))


def test_a_swap_of_equal_axis_sum_breaks_monotonicity():
    # tie a state's sum to that of its highest swap, whose id is lower, so
    # the stable sort puts the swap first: only the check against the first
    # state of the shared sum, which the swap is placed after, refuses it
    cfg = plain_config(2, 3)
    process._compile(cfg)  # builds every state
    for st in sorted(cfg._states.values(), key=lambda s: s.sid):
        position = Transversal(st.members)
        swaps = [
            process._state(cfg, position.replace(p).members)
            for p in below_set(cfg.point_set, position)
        ]
        top = max(swaps, key=lambda s: Fraction(s.t_num, s.t_den), default=None)
        if top is not None and top.sid < st.sid:
            break
    else:
        pytest.fail("no state has a highest swap of lower id")
    st.t_num, st.t_den = top.t_num, top.t_den
    message = (
        f"pivot from {st.members} to {top.members} does not lower the "
        "axis-intersection sum; monotonicity is broken"
    )
    for solve in (exact_expected_steps, edge_expected_steps):
        with pytest.raises(InternalInvariantError) as raised:
            solve(cfg)
        assert str(raised.value) == message


def test_exact_respects_cap(monkeypatch):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "5")
    with pytest.raises(InstanceTooLargeError, match="too large for exact mode"):
        exact_expected_steps(plain_config(2, 4))


def test_worst_case_alpha_sweep_is_minimum():
    values = {}
    for a1 in (4, 5):
        for a2 in (4, 5):
            cfg = augmented_config(2, 3, delta=1, alphas=(a1, a2))
            values[(a1, a2)] = exact_expected_steps(cfg)
    best, alphas = worst_case_expected_steps(2, 3, 1, 2)
    assert best == min(values.values())
    assert values[alphas] == best


def test_adversaries_yield_every_alpha_tuple_in_product_order():
    sweep = list(adversaries(2, 3, 1, 3))
    assert [alphas for alphas, _ in sweep] == list(product((4, 5, 6), repeat=2))
    for alphas, cfg in sweep:
        assert cfg.point_set.alphas == alphas
        assert cfg.start == adversary_start(cfg.point_set)
        assert (cfg.delta, cfg.count_terminal_step) == (1, True)
    assert exact_expected_steps(sweep[5][1]) == exact_expected_steps(
        augmented_config(2, 3, delta=1, alphas=(5, 6))
    )
    with pytest.raises(ValueError, match="no alpha choices supplied"):
        next(adversaries(2, 3, 1, 0))


# ---------------------------------------------------------------------------
# the paper's application (2): the transversals as a grid orientation
# ---------------------------------------------------------------------------


def transversal_grid(ps):
    """The grid of the color classes, oriented by the below sets: a vertex
    is 1 plus each member's place in its class, and its out-arcs are its
    swaps.  Returns the classes, the grid and each vertex's targets."""
    classes = [ps.color_class(c) for c in range(1, ps.r + 1)]
    place = {p: k + 1 for cls in classes for k, p in enumerate(cls)}
    spec = GridSpec(tuple(map(len, classes)))
    arcs = {}
    for v in spec.vertices():
        members = tuple(cls[c - 1] for cls, c in zip(classes, v))
        arcs[v] = tuple(
            v[: p.color - 1] + (place[p],) + v[p.color :]
            for p in below_set(ps, Transversal(members))
        )
    return classes, spec, arcs


@pytest.mark.parametrize("r,m", [(2, 8), (3, 4), (4, 3)])
def test_plain_transversal_grid_is_an_acyclic_unique_sink_orientation(r, m):
    _, spec, arcs = transversal_grid(gen_point_set(r, m))
    comb = oriented(spec, arcs.__getitem__)
    assert has_topological_order(spec, comb)
    assert unique_sink_violations(spec, comb) == []


@pytest.mark.parametrize(
    "r,m,unoriented,edges", [(2, 2, 1, 45), (2, 4, 1, 270), (3, 3, 17, 2520)]
)
def test_augmented_transversal_grid_leaves_edges_unoriented(r, m, unoriented, edges):
    # a grid edge carries no arc when neither transversal has the other's
    # point below it; each such edge has an endpoint holding two or more
    # adversary points
    base = gen_point_set(r, m)
    ps = base.augmented()
    classes, spec, arcs = transversal_grid(ps)
    comb = oriented(spec, arcs.__getitem__)
    assert has_topological_order(spec, comb)
    adversary = set(ps.ids()) - set(base.ids())

    def held(v):
        return sum(cls[c - 1] in adversary for cls, c in zip(classes, v))

    bare = []
    pairs = 0
    for v in spec.vertices():
        for d, s in enumerate(spec.factor_sizes):
            for c in range(v[d] + 1, s + 1):
                w = v[:d] + (c,) + v[d + 1 :]
                pairs += 1
                if w not in arcs[v] and v not in arcs[w]:
                    bare.append((v, w))
    assert (len(bare), pairs) == (unoriented, edges)
    assert all(max(held(v), held(w)) >= 2 for v, w in bare)
    # at (3, 3) naming the violations would sweep more subgrids than the cap
    if r == 2:
        assert unique_sink_violations(spec, comb)
