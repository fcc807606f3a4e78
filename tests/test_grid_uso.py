"""Tests for comb orientations, walks, and exact expected durations."""

import math
import re
from collections import Counter
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from functools import cache, partial
from itertools import combinations, product
from operator import ne
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from pivotlab import chain, grid_uso
from pivotlab.errors import InstanceTooLargeError, InternalInvariantError
from pivotlab.grid_uso import (
    WalkOutcome,
    _identity_for,
    _moves,
    _vertex_id,
    LEAF,
    AugmentedConfig,
    CombOrientation,
    GridSpec,
    build_comb,
    comb_to_dict,
    embed_padded,
    expected_duration_exact,
    grid_spec,
    has_topological_order,
    identity_comb,
    out_neighbors,
    unique_sink_violations,
    uso_lemma_bound,
    uso_theorem_bound,
    walk,
)
from pivotlab.seeding import derive_rng


def harmonic(n: int) -> Fraction:
    """Independent oracle: H_n as an exact rational."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_leaf_comb():
    comb = build_comb(0, 5, Random(1))
    assert comb.dimension == 0 and comb.sizes == ()
    assert grid_spec(comb).vertex_count == 1
    assert out_neighbors(comb, ()) == ()


def test_one_level_comb_is_acyclic_tournament():
    comb = build_comb(1, 3, Random(2))
    assert sorted(comb.ranks) == [1, 2, 3]
    assert has_topological_order(grid_spec(comb), comb)
    # exactly one sink and one source in the K_3 tournament
    degs = [len(out_neighbors(comb, (v,))) for v in (1, 2, 3)]
    assert sorted(degs) == [0, 1, 2]


def test_build_determinism_bit_for_bit():
    a = build_comb(2, 2, Random(99))
    b = build_comb(2, 2, Random(99))
    assert a == b
    assert comb_to_dict(a) == comb_to_dict(b)


def test_build_validates_inputs():
    with pytest.raises(ValueError):
        build_comb(-1, 3, Random(0))
    with pytest.raises(ValueError):
        build_comb(1, 0, Random(0))


@pytest.mark.parametrize(
    "r, m, message",
    [(-1, 3, "dimension must be >= 0"), (2, 0, "factor size must be >= 1")],
)
def test_identity_comb_takes_the_comb_shape_check(r, m, message):
    for make in (lambda: build_comb(r, m, Random(0)), lambda: identity_comb(r, m)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            make()


def test_comb_rejects_malformed_ranks():
    with pytest.raises(ValueError):
        CombOrientation((1, 3), (identity_comb(0, 1), identity_comb(0, 1)))


# ---------------------------------------------------------------------------
# orient_edge: a reference oracle kept in the tests, its self-tests, and the
# exhaustive check of out_neighbors against it
# ---------------------------------------------------------------------------


def orient_edge(comb, u, v):
    """Oracle: the edge ``{u, v}`` as an ordered pair ``(tail, head)``.

    The two vertices must differ in exactly one coordinate.  Edges along the
    last factor follow the top-level ranks (higher rank is the tail); edges
    along earlier factors are oriented by the child of the shared last
    coordinate, recursively.
    """
    spec = grid_spec(comb)
    if not (spec.contains(u) and spec.contains(v)):
        raise ValueError(f"vertices must lie in the grid {spec.factor_sizes}")
    diff = [i for i, (a, b) in enumerate(zip(u, v)) if a != b]
    if len(diff) != 1:
        raise ValueError("vertices must differ in exactly one coordinate")
    d = diff[0]
    node = comb
    for level in range(spec.dimension - 1, d, -1):
        node = node.children[u[level] - 1]
    if node.ranks[u[d] - 1] > node.ranks[v[d] - 1]:
        return (u, v)
    return (v, u)


def test_orient_edge_identity_ranks():
    comb = identity_comb(1, 3)
    assert orient_edge(comb, (1,), (3,)) == ((3,), (1,))


def test_orient_edge_permuted_ranks():
    # value 1 carries the highest rank, so the edge {1, 2} leaves 1
    comb = CombOrientation((3, 1, 2), (identity_comb(0, 1),) * 3)
    assert orient_edge(comb, (1,), (2,)) == ((1,), (2,))


def test_orient_edge_top_level_ignores_other_coordinates():
    comb = build_comb(2, 3, Random(11))
    for first in (1, 2, 3):
        tail, head = orient_edge(comb, (first, 1), (first, 3))
        assert (tail[1], head[1]) == ((1, 3) if comb.ranks[0] > comb.ranks[2] else (3, 1))


def test_orient_edge_rejects_bad_pairs():
    comb = build_comb(2, 3, Random(0))
    with pytest.raises(ValueError):
        orient_edge(comb, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        orient_edge(comb, (1, 1), (2, 2))
    with pytest.raises(ValueError):
        orient_edge(comb, (1, 1), (1, 4))


@settings(max_examples=60)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_orient_edge_antisymmetric(seed, data):
    comb = build_comb(2, 3, Random(seed))
    u = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    axis = data.draw(st.integers(0, 1))
    other = data.draw(st.integers(1, 3).filter(lambda x: x != u[axis]))
    v = tuple(other if i == axis else c for i, c in enumerate(u))
    assert orient_edge(comb, u, v) == orient_edge(comb, v, u)


def test_out_function_lists_exactly_the_oriented_edges():
    checked = 0
    for r in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for seed in range(5):
                comb = build_comb(r, m, Random(seed))
                out = partial(out_neighbors, comb)
                for v in product(range(1, m + 1), repeat=r):
                    neighbours = [
                        v[:i] + (x,) + v[i + 1 :]
                        for i in range(r)
                        for x in range(1, m + 1)
                        if x != v[i]
                    ]
                    want = {w for w in neighbours if orient_edge(comb, v, w) == (v, w)}
                    got = out(v)
                    assert len(set(got)) == len(got) and set(got) == want
                    checked += 1
    assert checked == 700


# ---------------------------------------------------------------------------
# out_neighbors
# ---------------------------------------------------------------------------


def test_out_neighbors_lists_lower_ranks_last_axis_first():
    # top ranks (2, 1, 3): value 3 has the highest rank, value 2 the lowest;
    # every hyperplane carries the identity comb on K_3
    comb = CombOrientation((2, 1, 3), (identity_comb(1, 3),) * 3)
    assert out_neighbors(comb, (3, 3)) == ((3, 1), (3, 2), (1, 3), (2, 3))
    assert out_neighbors(comb, (1, 2)) == ()
    assert out_neighbors(comb, (2, 1)) == ((2, 2), (1, 1))


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def test_walk_single_vertex_delta_zero_takes_one_hop():
    comb = identity_comb(1, 1)
    outcome = walk(comb, AugmentedConfig(0), (1,), Random(0))
    assert outcome.steps == 1
    assert outcome.visited == ((1,), None)


def test_walk_base_graph_stops_at_sink():
    comb = identity_comb(1, 4)
    outcome = walk(comb, None, (4,), Random(3))
    assert outcome.visited is not None
    assert outcome.visited[-1] == (1,)
    assert outcome.steps == len(outcome.visited) - 1


def test_walk_uniform_base_m2_matches_exact_half():
    comb = identity_comb(1, 2)
    exact = expected_duration_exact(comb, None, "uniform")
    assert exact == Fraction(1, 2)
    trials = 20_000
    mean = (
        sum(
            walk(comb, None, "uniform", derive_rng(17, i), record=False).steps
            for i in range(trials)
        )
        / trials
    )
    # Bernoulli(1/2) outcome: sd = 1/2
    se = 0.5 / math.sqrt(trials)
    assert abs(mean - 0.5) <= 4 * se


def test_walk_determinism():
    comb = build_comb(2, 3, Random(4))
    a = walk(comb, AugmentedConfig(1), "uniform", Random(123))
    b = walk(comb, AugmentedConfig(1), "uniform", Random(123))
    assert a == b


def test_walk_large_delta_forces_immediate_escape():
    comb = build_comb(2, 3, Random(8))
    exact = expected_duration_exact(comb, AugmentedConfig(10**6), "uniform")
    assert 1 < exact < Fraction(10001, 10000)


# ---------------------------------------------------------------------------
# walk against the scalar oracle
# ---------------------------------------------------------------------------


def recursive_out_targets(comb, v):
    """Oracle: the grid targets of ``v``, rebuilt recursively from the rank
    tuples, last axis first and ascending within an axis."""
    if not comb.ranks:
        return []
    last = len(v) - 1
    my_rank = comb.ranks[v[last] - 1]
    out = [v[:last] + (w,) for w in range(1, comb.m + 1) if comb.ranks[w - 1] < my_rank]
    child = comb.children[v[last] - 1]
    out.extend(t + (v[last],) for t in recursive_out_targets(child, v[:last]))
    return out


def unchecked_id(sizes, v):
    """Oracle: the mixed-radix number of ``v``, first coordinate fastest,
    with no range check."""
    return sum((c - 1) * math.prod(sizes[:d]) for d, c in enumerate(v))


def uniform_vertex(spec, rng):
    """One uniform draw over the grid's vertices, numbered first coordinate
    fastest."""
    idx = rng.randrange(spec.vertex_count)
    coords = []
    for s in spec.factor_sizes:
        idx, c = divmod(idx, s)
        coords.append(c + 1)
    return tuple(coords)


def scalar_walk(comb, cfg, start, rng, record=True, targets_of=recursive_out_targets):
    """Oracle: one walk over coordinate tuples that rebuilds every
    out-target list, ``targets_of(comb, v)``, on every step."""
    spec = grid_spec(comb)
    if start == "uniform":
        v = uniform_vertex(spec, rng)
    else:
        v = start
        if not spec.contains(v):
            raise ValueError(f"vertex {v} not in grid {spec.factor_sizes}")
    delta = None if cfg is None else cfg.delta
    budget = spec.vertex_count + 1
    visited = [v]
    steps = 0
    while True:
        targets = targets_of(comb, v)
        escape = chain.escape_weight(delta, len(targets))
        if not targets and not escape:
            break
        i = chain.draw(rng, len(targets), escape)
        steps += 1
        if steps > budget:
            raise InternalInvariantError("walk exceeded its step budget")
        if i is None:
            if record:
                visited.append(None)
            break
        v = targets[i]
        if record:
            visited.append(v)
    return WalkOutcome(steps, tuple(visited) if record else None)


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(0, 3),
    m=st.integers(1, 5),
    delta=st.sampled_from([None, 0, 1, 2]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_walk_matches_scalar_oracle(r, m, delta, seed, data):
    comb = build_comb(r, m, Random(seed))
    if r >= 2 and data.draw(st.booleans(), label="padded"):
        comb = embed_padded(comb, r * m + data.draw(st.integers(1, r - 1), label="extra"))
    cfg = None if delta is None else AugmentedConfig(delta)
    sizes = comb.sizes
    start = data.draw(
        st.one_of(
            st.just("uniform"), st.tuples(*[st.integers(1, s) for s in sizes])
        ),
        label="start",
    )
    for i in range(5):
        rng_a, rng_b = Random(f"{seed}:{i}"), Random(f"{seed}:{i}")
        assert walk(comb, cfg, start, rng_a, record=True) == scalar_walk(
            comb, cfg, start, rng_b
        )
        # both consumed the same draws
        assert rng_a.random() == rng_b.random()
        unrecorded = walk(comb, cfg, start, Random(f"{seed}:{i}"), record=False)
        oracle = scalar_walk(comb, cfg, start, Random(f"{seed}:{i}"), record=False)
        assert unrecorded == oracle


def rows_walk(comb, cfg, start, rng, record=True):
    """Oracle: one walk over coordinate tuples, drawing over the comb's
    :func:`out_neighbors` on every step."""
    return scalar_walk(comb, cfg, start, rng, record, targets_of=out_neighbors)


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(0, 3),
    m=st.integers(1, 5),
    delta=st.sampled_from([None, 0, 1, 2]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_walk_draws_as_the_rows_oracle(r, m, delta, seed, data):
    # separate copies of one comb, so the walk fills its successor ids on
    # its own; the stream states after every call pin the draws one by one
    comb, oracle_comb = build_comb(r, m, Random(seed)), build_comb(r, m, Random(seed))
    cfg = None if delta is None else AugmentedConfig(delta)
    rng, oracle_rng = Random(seed), Random(seed)
    for _ in range(6):
        start = data.draw(
            st.one_of(
                st.just("uniform"), st.tuples(*[st.integers(1, m) for _ in range(r)])
            ),
            label="start",
        )
        record = data.draw(st.booleans(), label="record")
        got = walk(comb, cfg, start, rng, record=record)
        want = rows_walk(oracle_comb, cfg, start, oracle_rng, record=record)
        assert (got.steps, got.visited) == (want.steps, want.visited)
        assert rng.getstate() == oracle_rng.getstate()


def test_walk_fills_moves_only_for_visited_vertices():
    comb = build_comb(3, 6, Random(3))
    visited = set()
    for i in range(20):
        visited.update(walk(comb, AugmentedConfig(1), "uniform", Random(i)).visited)
    visited.discard(None)
    sizes = comb.sizes
    ids = {unchecked_id(sizes, v) for v in visited}
    assert set(comb._vertex_moves) == ids and len(ids) < math.prod(sizes)


@pytest.mark.parametrize("r, m", [(0, 3), (1, 5), (2, 4), (3, 3)])
def test_out_targets_match_recursive_oracle(r, m):
    comb = build_comb(r, m, Random(f"targets{r}:{m}"))
    if r >= 2:
        comb = embed_padded(comb, r * m + 1)
    for v in grid_spec(comb).vertices():
        assert out_neighbors(comb, v) == tuple(recursive_out_targets(comb, v))


@settings(max_examples=100, deadline=None)
@given(
    r=st.integers(0, 3),
    m=st.integers(1, 5),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_out_targets_match_recursive_oracle_on_drawn_combs(r, m, seed, data):
    if data.draw(st.booleans(), label="identity"):
        comb = identity_comb(r, m)
    else:
        comb = build_comb(r, m, Random(seed))
    if r >= 2 and data.draw(st.booleans(), label="padded"):
        comb = embed_padded(comb, r * m + data.draw(st.integers(1, r - 1), label="extra"))
    for v in grid_spec(comb).vertices():
        assert out_neighbors(comb, v) == tuple(recursive_out_targets(comb, v))


def rank_formula_moves(comb, v):
    """Oracle: along each axis ``d``, last first, ``(w - c) * stride`` for
    each value ``w`` ranked below ``c = v[d]`` at the node ``v`` lies in,
    ascending, ``stride`` being the vertex count of the first ``d`` axes."""
    sizes, node, out = comb.sizes, comb, []
    for d in reversed(range(len(v))):
        c, stride = v[d], math.prod(sizes[:d])
        lower = [w for w in range(1, node.m + 1) if node.ranks[w - 1] < node.ranks[c - 1]]
        out += [(w - c) * stride for w in lower]
        node = node.children[c - 1]
    return tuple(out)


def test_moves_of_a_line_are_the_lower_ranked_values():
    # a hyperplane holds one vertex here, so each move is a value change
    comb = CombOrientation((3, 1, 4, 2), (LEAF,) * 4)
    assert [_moves(comb, c - 1) for c in (1, 2, 3, 4)] == [(1, 3), (), (-2, -1, 1), (-2,)]


@pytest.mark.parametrize(
    "kind, r, m",
    [(kind, r, m) for kind in ("random", "identity") for r, m in [(0, 3), (1, 5), (2, 4), (3, 3)]]
    + [("padded", 2, 4), ("padded", 3, 3)],  # padding needs r >= 2
)
def test_moves_follow_the_rank_formula(kind, r, m):
    if kind == "identity":
        comb = identity_comb(r, m)
    else:
        comb = build_comb(r, m, Random(f"moves{r}:{m}"))
    if kind == "padded":
        comb = embed_padded(comb, r * m + r - 1)
    sizes = comb.sizes
    for v in grid_spec(comb).vertices():
        index = unchecked_id(sizes, v)
        want = rank_formula_moves(comb, v)
        assert _moves(comb, index) == want and comb._vertex_moves[index] == want, v


def test_walking_leaves_equality_and_hash_unchanged():
    walked = build_comb(3, 4, Random(5))
    fresh = build_comb(3, 4, Random(5))
    before = (hash(walked), repr(walked))
    for i in range(50):
        walk(walked, AugmentedConfig(1), "uniform", Random(i))
    out_neighbors(walked, (1, 2, 3))
    assert walked == fresh and fresh == walked
    assert hash(walked) == hash(fresh)
    assert (hash(walked), repr(walked)) == before
    assert repr(walked) == repr(fresh)
    assert comb_to_dict(walked) == comb_to_dict(fresh)


def test_walk_start_vertex_is_checked():
    comb = build_comb(2, 3, Random(6))
    for start in [(0, 1), (1, 4), (1,), (1, 1, 1)]:
        with pytest.raises(ValueError, match="not in grid"):
            walk(comb, AugmentedConfig(1), start, Random(0))


@pytest.mark.parametrize("v", [(0, 1), (1,), (4, 1)])
def test_out_queries_reject_vertices_outside_the_grid(v):
    # one rule and one message for every query that takes a grid vertex
    comb = build_comb(2, 3, Random(1))
    for query in (
        lambda: out_neighbors(comb, v),
        lambda: walk(comb, AugmentedConfig(1), v, Random(0)),
        lambda: walk(comb, None, v, Random(0), record=False),
        lambda: expected_duration_exact(comb, None, v),
        lambda: expected_duration_exact(comb, AugmentedConfig(2), v),
    ):
        with pytest.raises(ValueError, match="^" + re.escape(f"vertex {v} not in grid (3, 3)") + "$"):
            query()


def test_monte_carlo_within_four_se_of_exact():
    comb = build_comb(2, 4, Random(21))
    cfg = AugmentedConfig(1)
    exact = float(expected_duration_exact(comb, cfg, "uniform"))
    trials = 10_000
    values = [
        walk(comb, cfg, "uniform", derive_rng(5, "w", i), record=False).steps
        for i in range(trials)
    ]
    mean = sum(values) / trials
    var = sum((v - mean) ** 2 for v in values) / (trials - 1)
    se = math.sqrt(var / trials)
    assert abs(mean - exact) <= 4 * se


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 7, 20])
def test_uniform_duration_on_complete_graph_is_harmonic(m):
    # closed form H_m - 1; m=3 gives 5/6
    for comb in (identity_comb(1, m), build_comb(1, m, Random(m))):
        assert expected_duration_exact(comb, None, "uniform") == harmonic(m) - 1


def test_duration_from_fixed_rank_is_harmonic_prefix():
    comb = identity_comb(1, 5)
    # starting at rank t the expected duration is H_{t-1}
    for t in range(1, 6):
        assert expected_duration_exact(comb, None, (t,)) == harmonic(t - 1)


def test_augmentation_identity_exact():
    for seed in range(10):
        comb = build_comb(2, 3, Random(seed))
        base = expected_duration_exact(comb, None, "uniform")
        aug = expected_duration_exact(comb, AugmentedConfig(0), "uniform")
        assert aug == base + 1


def test_leaf_with_delta_is_one_step():
    comb = build_comb(0, 1, Random(0))
    assert expected_duration_exact(comb, AugmentedConfig(3), ()) == 1


def test_exact_respects_state_cap(monkeypatch):
    # built under the default cap, so the refusal is the exact solve's own
    comb = build_comb(2, 4, Random(0))
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "10")
    with pytest.raises(InstanceTooLargeError, match="too large for exact mode"):
        expected_duration_exact(comb, None, "uniform")


def test_refused_comb_draws_nothing(monkeypatch):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "8")
    rng = Random(3)
    before = rng.getstate()
    with pytest.raises(InstanceTooLargeError, match="a random comb: 9 vertices exceed the cap of 8"):
        build_comb(2, 3, rng)
    assert rng.getstate() == before


def test_build_comb_checks_the_cap_once_per_comb(monkeypatch):
    calls = []
    check = chain.check_state_count
    monkeypatch.setattr(chain, "check_state_count", lambda *a: calls.append(a) or check(*a))
    build_comb(3, 8, Random(0))
    assert calls == [(512, "vertices", "a random comb")]


def test_comb_json_respects_state_cap(monkeypatch):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "8")
    comb = identity_comb(2, 3)
    with pytest.raises(InstanceTooLargeError, match="the comb JSON: 9 vertices exceed the cap of 8"):
        comb_to_dict(comb)
    # an identity comb shares one child per level, so one of any size is
    # cheap to build; only its JSON is as large as its grid
    with pytest.raises(InstanceTooLargeError, match=f"the comb JSON: {2**60} vertices"):
        comb_to_dict(identity_comb(60, 2))


def test_exact_agrees_between_chain_fast_path_and_generic():
    # wrap a 1-dimensional comb inside a trivial 2-dimensional one: the
    # generic rank-order DP must reproduce the chain values
    inner = build_comb(1, 6, Random(9))
    outer = CombOrientation((1,), (inner,))
    for v in range(1, 7):
        assert expected_duration_exact(outer, None, (v, 1)) == expected_duration_exact(
            inner, None, (v,)
        )


def test_permutation_invariance_of_start_in_expectation_over_combs():
    # fixed-start and uniform-start durations agree in expectation over the
    # randomized construction (statistical check)
    diffs = []
    for i in range(400):
        comb = build_comb(2, 3, Random(f"pi:{i}"))
        fixed = expected_duration_exact(comb, None, (1, 1))
        uniform = expected_duration_exact(comb, None, "uniform")
        diffs.append(float(fixed - uniform))
    mean = sum(diffs) / len(diffs)
    var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
    se = math.sqrt(var / len(diffs))
    assert abs(mean) <= 4 * se


def _rank_key(comb, v):
    """The ranks of ``v``'s coordinates, last coordinate first: every arc
    lowers this tuple lexicographically."""
    key = []
    node = comb
    for c in reversed(v):
        key.append(node.ranks[c - 1])
        node = node.children[c - 1]
    return tuple(key)


def back_substitution_oracle(comb, cfg, start):
    """Reference solver: every vertex sums its successors' values afresh from
    ``out_neighbors``, in ascending rank order."""
    spec = grid_spec(comb)
    delta = None if cfg is None else cfg.delta
    values = {}
    for v in sorted(spec.vertices(), key=lambda u: _rank_key(comb, u)):
        targets = out_neighbors(comb, v)
        degree = len(targets) + chain.escape_weight(delta, len(targets))
        if degree == 0:
            values[v] = Fraction(0)
            continue
        total = sum((values[w] for w in targets), Fraction(0))
        values[v] = 1 + total / degree
    if start == "uniform":
        return sum(values.values(), Fraction(0)) / len(values)
    return values[start]


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(1, 4),
    delta=st.sampled_from([None, 0, 1, 3]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_fiber_solver_matches_back_substitution_oracle(r, delta, seed, data):
    m = data.draw(st.integers(1, 5 if r < 4 else 4))
    comb = build_comb(r, m, Random(seed))
    cfg = None if delta is None else AugmentedConfig(delta)
    start = data.draw(
        st.one_of(st.just("uniform"), st.tuples(*[st.integers(1, m)] * r))
    )
    assert expected_duration_exact(comb, cfg, start) == back_substitution_oracle(
        comb, cfg, start
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_lemma_bound_values():
    assert abs(uso_lemma_bound(1, 3, 0) - math.log(4)) < 1e-12
    assert uso_lemma_bound(0, 7, 3) == 1.0
    assert abs(uso_theorem_bound(2, 4) - (0.5 * math.log(5) ** 2 - 1)) < 1e-12


def test_lemma_bound_validates():
    with pytest.raises(ValueError):
        uso_lemma_bound(1, 0, 0)
    with pytest.raises(ValueError):
        uso_lemma_bound(1, 3, -1)


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------


def test_embed_identity_when_size_matches():
    comb = build_comb(2, 3, Random(1))
    assert embed_padded(comb, 6) is comb


def test_embed_padded_shape_and_edges_into_subgrid():
    comb = build_comb(2, 2, Random(2))
    padded = embed_padded(comb, 5)
    assert sorted(padded.sizes) == [2, 3]
    # every arc leaving a new vertex lands in the embedded subgrid or on
    # another new vertex; every arc between old and new points at the old part
    out = partial(out_neighbors, padded)
    spec = GridSpec(padded.sizes)
    for v in spec.vertices():
        v_new = any(c > 2 for c in v)
        for w in out(v):
            w_new = any(c > 2 for c in w)
            if not v_new and w_new:
                pytest.fail(f"edge {v}->{w} escapes the embedded subgrid")


def test_embed_padded_preserves_uso_and_acyclicity():
    for n in (5, 7):
        comb = build_comb(2, n // 2, Random(n))
        padded = embed_padded(comb, n)
        spec = grid_spec(padded)
        assert has_topological_order(spec, padded)
        assert not unique_sink_violations(spec, padded)


def test_embed_padded_duration_dominates_original():
    for i in range(25):
        comb = build_comb(2, 3, Random(f"embed:{i}"))
        padded = embed_padded(comb, 7)
        assert expected_duration_exact(padded, None, "uniform") >= (
            expected_duration_exact(comb, None, "uniform")
        )


def test_embed_padded_rejects_bad_sizes():
    comb = build_comb(2, 2, Random(0))
    with pytest.raises(ValueError, match="no valid grid"):
        embed_padded(comb, 2)
    with pytest.raises(ValueError, match="incompatible"):
        embed_padded(comb, 9)  # floor(9/2) = 4 != 2


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_random_combs_are_acyclic(r, m):
    comb = build_comb(r, m, Random(f"{r}:{m}"))
    assert has_topological_order(grid_spec(comb), comb)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_random_combs_have_unique_subgrid_sinks(r, m):
    comb = build_comb(r, m, Random(f"u{r}:{m}"))
    assert not unique_sink_violations(grid_spec(comb), comb)


def test_identity_comb_duration_is_reported_without_bound_claim():
    # the deterministic all-identity comb is outside the randomized
    # construction's guarantee; its exact value is computed and printed only
    for r, m in [(1, 6), (2, 6), (3, 4)]:
        value = expected_duration_exact(identity_comb(r, m), None, "uniform")
        assert value > 0
        print(f"identity comb (r={r}, m={m}): E = {value} ~ {float(value):.4f}")


def flip_top_pair_out(comb, a, b):
    """Adjacency with the rank rule reversed for the single top-factor value
    pair ``{a, b}``.  Fault injection for the checker-sensitivity tests: when
    some third value's rank lies between the ranks of ``a`` and ``b``, this
    creates a directed triangle, so some subgrid loses its sink.  A pair of
    adjacent ranks only swaps them, which leaves a valid comb.  ``a`` and
    ``b`` must be distinct values in ``1..m``; any other pair would inject
    no fault, so it raises ``ValueError``.
    """
    if a == b or not (1 <= a <= comb.m and 1 <= b <= comb.m):
        raise ValueError(
            f"need two distinct values of the top factor 1..{comb.m}, got {a} and {b}"
        )
    last = comb.dimension - 1
    pair = {a, b}

    def out(v):
        arcs = set(out_neighbors(comb, v))
        if v[last] in pair:
            (other,) = pair - {v[last]}
            w = v[:last] + (other,) + v[last + 1 :]
            if w in arcs:
                arcs.discard(w)
            else:
                arcs.add(w)
        return tuple(sorted(arcs))

    return out


def with_changes(comb, changes):
    """A copy of ``comb`` that keeps ``changes[v]`` as the id changes of
    each vertex ``v``, as a comb keeps what :func:`_moves` built."""
    copy = CombOrientation(comb.ranks, comb.children)
    for v, moves in changes.items():
        copy._vertex_moves[unchecked_id(comb.sizes, v)] = tuple(moves)
    return copy


def planted(comb, out_fn):
    """A copy of ``comb`` whose kept id changes are ``out_fn``'s targets, in
    their order: a fault that a comb's read meets as it meets its own arcs.
    A target's id is its :func:`unchecked_id`, so a target outside the grid
    plants a change that leaves it."""
    sizes = comb.sizes
    return with_changes(comb, {
        v: [unchecked_id(sizes, w) - unchecked_id(sizes, v) for w in out_fn(v)]
        for v in grid_spec(comb).vertices()
    })


def oriented(spec, out_fn):
    """``out_fn``'s orientation of the grid ``spec``, planted on its
    identity comb."""
    return planted(_identity_for(spec.factor_sizes), out_fn)


def test_flipped_pair_breaks_unique_sinks():
    comb = build_comb(2, 3, Random(31))
    lowest = comb.ranks.index(1) + 1
    highest = comb.ranks.index(3) + 1
    mutated = planted(comb, flip_top_pair_out(comb, lowest, highest))
    spec = grid_spec(comb)
    assert unique_sink_violations(spec, mutated)
    assert not has_topological_order(spec, mutated)


@pytest.mark.parametrize("a, b", [(0, 5), (4, 9), (1, 7), (-1, 2), (3, 3)])
def test_flip_rejects_values_outside_the_top_factor(a, b):
    comb = build_comb(2, 6, Random(32))
    with pytest.raises(ValueError, match="two distinct values of the top factor"):
        flip_top_pair_out(comb, a, b)


def test_flip_rejects_the_zero_dimensional_comb():
    with pytest.raises(ValueError, match="two distinct values of the top factor"):
        flip_top_pair_out(LEAF, 1, 2)


def test_subgrid_check_cap(monkeypatch):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "3")
    comb = identity_comb(2, 4)

    def never(comb, index):
        raise AssertionError(f"vertex {index} read before the state cap")

    # the cap trips before any arc is read
    monkeypatch.setattr(grid_uso, "_moves", never)
    for check in (unique_sink_violations, has_topological_order):
        with pytest.raises(InstanceTooLargeError):
            check(grid_spec(comb), comb)
    assert not comb._vertex_moves


def test_subgrid_cap_guards_only_the_sweep(monkeypatch):
    """(2,4) has 16 vertices, 48 edges and 225 subgrids: under a cap of 100
    a valid comb is decided by the count, reading each vertex once, and a
    flipped one, which needs the sweep, is refused on its subgrids."""
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "100")
    comb = build_comb(2, 4, Random(33))
    spec = grid_spec(comb)
    moves = comb.__dict__["_vertex_moves"] = CountedMoves()
    assert unique_sink_violations(spec, comb) == []
    assert moves.reads == Counter(range(spec.vertex_count))
    pair = comb.ranks.index(1) + 1, comb.ranks.index(4) + 1
    flipped = planted(comb, flip_top_pair_out(comb, *pair))
    with pytest.raises(InstanceTooLargeError, match="225 subgrids exceed the cap of 100"):
        unique_sink_violations(spec, flipped)


def faults(comb):
    """A fresh copy of ``comb`` and, when it has arcs, two faulted
    orientations planted on copies: the top factor's values 1 and ``m``
    flipped, and the arc from the last vertex to value 1 along the first
    axis of 3 or more values reversed, which closes a directed triangle."""
    fresh = CombOrientation(comb.ranks, comb.children)
    sizes = comb.sizes
    if math.prod(sizes) < 2:
        return [fresh]
    d = next(d for d, s in enumerate(sizes) if s >= 3)
    v = sizes
    w = v[:d] + (1,) + v[d + 1 :]
    reversed_arc = reverse_arc(partial(out_neighbors, comb), v, w)
    return [fresh, planted(comb, flip_top_pair_out(comb, 1, comb.m)), planted(comb, reversed_arc)]


class CountedMoves(dict):
    """A comb's kept id changes that count how often each vertex's are read
    and written."""

    def __init__(self, moves=()):
        super().__init__(moves)
        self.reads = Counter()
        self.writes = Counter()

    def get(self, i, default=None):
        self.reads[i] += 1
        return super().get(i, default)

    def __setitem__(self, i, moves):
        self.writes[i] += 1
        super().__setitem__(i, moves)


@pytest.mark.parametrize("check", [unique_sink_violations, has_topological_order])
@pytest.mark.parametrize("sizes", [(), (1,), (4,), (3, 2), (2, 3, 2)])
def test_checks_read_each_vertex_once(check, sizes):
    """On the identity comb and its faults (:func:`faults`), whose
    violations the sweep names."""
    comb = _identity_for(sizes)
    spec = grid_spec(comb)
    for source in faults(comb):
        moves = source.__dict__["_vertex_moves"] = CountedMoves(source._vertex_moves)
        check(spec, source)
        assert moves.reads == Counter(range(spec.vertex_count))


def test_every_reader_shares_the_changes_built_once():
    """A walk, :func:`out_neighbors` and both checks read one tuple per
    vertex, which :func:`_moves` builds once and the comb keeps: the arc
    table holds the very tuples the comb keeps after every later read."""
    comb = build_comb(3, 4, Random(12))
    spec = grid_spec(comb)
    moves = comb.__dict__["_vertex_moves"] = CountedMoves()
    for i in range(10):
        walk(comb, AugmentedConfig(1), "uniform", Random(i))
    table, acyclic = grid_uso._checked(spec, comb)
    for v in spec.vertices():
        assert out_neighbors(comb, v) == tuple(recursive_out_targets(comb, v))
    assert acyclic and not unique_sink_violations(spec, comb)
    assert moves.writes == Counter(range(spec.vertex_count))
    assert all(kept is moves[i] for i, (kept, _) in enumerate(table))


@pytest.mark.parametrize("sizes", [(), (1,), (4,), (3, 2), (2, 3, 2)])
def test_both_checks_read_and_check_each_vertex_once_between_them(monkeypatch, sizes):
    """On one comb, as ``uso verify`` runs them, the two checks read each
    vertex's id changes once between them, and Kahn's algorithm runs once:
    on the identity comb, whose changes the read makes, and on its faults
    planted as kept changes."""
    comb = _identity_for(sizes)
    spec = grid_spec(comb)
    plain = [(has_topological_order(spec, f), unique_sink_violations(spec, f)) for f in faults(comb)]
    assert plain[0] == (True, [])
    assert all(usv for _, usv in plain[2:])  # a reversed arc enters the sweep
    kahn = Counter()
    read_arcs = grid_uso._read_arcs

    def counted_read(source):
        kahn["runs"] += 1
        return read_arcs(source)

    monkeypatch.setattr(grid_uso, "_read_arcs", counted_read)
    # fresh copies: LEAF is one shared comb, which keeps its table once read
    for source, want in zip(faults(comb), plain):
        moves = source.__dict__["_vertex_moves"] = CountedMoves(source._vertex_moves)
        kahn.clear()
        assert (has_topological_order(spec, source), unique_sink_violations(spec, source)) == want
        assert moves.reads == Counter(range(spec.vertex_count))
        assert kahn["runs"] == 1


@pytest.mark.parametrize("seed", range(4))
def test_checked_arcs_give_each_check_its_own_result(seed):
    """On valid and flipped combs, either check order, the table a comb
    keeps gives what the oracles give on its targets; a comb of another
    grid is refused."""
    comb = build_comb(2, 4, Random(f"checked:{seed}"))
    spec = grid_spec(comb)
    for out_fn in [partial(out_neighbors, comb), flip_top_pair_out(comb, 1, 3)]:
        want = (topological_oracle(spec, out_fn), list_unique_sink_violations(spec, out_fn))
        source = planted(comb, out_fn)
        assert (has_topological_order(spec, source), unique_sink_violations(spec, source)) == want
        source = planted(comb, out_fn)
        usv = unique_sink_violations(spec, source)
        assert (has_topological_order(spec, source), usv) == want
    line = _identity_for((4,))
    assert has_topological_order(grid_spec(line), line)
    for check in [unique_sink_violations, has_topological_order]:
        with pytest.raises(ValueError, match=re.escape("a comb of grid (4,) read as grid (4, 4)")):
            check(spec, line)
        with pytest.raises(ValueError, match=re.escape("a comb of grid (4, 4) read as grid (4,)")):
            check(GridSpec((4,)), comb)


# ---------------------------------------------------------------------------
# unique_sink_violations against the brute-force oracle
# ---------------------------------------------------------------------------


def value_subsets(spec):
    """Per axis, its nonempty value subsets in bitmask order."""
    return [
        [tuple(c for c in range(1, s + 1) if mask & (1 << (c - 1))) for mask in range(1, 2**s)]
        for s in spec.factor_sizes
    ]


def scalar_unique_sink_violations(spec, out_fn, max_report=5):
    """Oracle: walk every subgrid in ``product`` order, and test every vertex
    of it against all its arcs.  Arcs are a pure function of the vertex, so
    each vertex's are read once and cached."""
    out_fn = cache(out_fn)
    bad = []
    for subsets in product(*value_subsets(spec)):
        member = [set(s) for s in subsets]
        sinks = 0
        for v in product(*subsets):
            if not any(
                all(w[i] in member[i] for i in range(len(w))) for w in out_fn(v)
            ):
                sinks += 1
                if sinks > 1:
                    break
        if sinks != 1:
            bad.append(subsets)
            if len(bad) >= max_report:
                break
    return bad


def reverse_arc(out_fn, v, w):
    """Adjacency with the single arc ``v -> w`` turned into ``w -> v``."""

    def out(u):
        arcs = out_fn(u)
        if u == v:
            return tuple(x for x in arcs if x != w)
        if u == w:
            return arcs + (v,)
        return arcs

    return out


@settings(max_examples=50, deadline=None)
@given(
    r=st.sampled_from(range(4)),
    m=st.sampled_from(range(1, 5)),
    seed=st.integers(0, 10**6),
    fault=st.sampled_from(["none", "flip", "reverse"]),
    data=st.data(),
)
def test_unique_sink_violations_matches_scalar_oracle(r, m, seed, fault, data):
    comb = build_comb(r, m, Random(seed))
    if r >= 2 and data.draw(st.booleans(), label="padded"):
        comb = embed_padded(comb, r * m + data.draw(st.integers(1, r - 1), label="extra"))
    spec, out_fn = grid_spec(comb), partial(out_neighbors, comb)
    if fault == "flip" and comb.m >= 2:
        pairs = list(combinations(range(1, comb.m + 1), 2))
        out_fn = flip_top_pair_out(comb, *data.draw(st.sampled_from(pairs), label="pair"))
    arcs = [(v, w) for v in spec.vertices() for w in out_fn(v)]
    if fault == "reverse" and arcs:
        out_fn = reverse_arc(out_fn, *data.draw(st.sampled_from(arcs), label="arc"))
    want = scalar_unique_sink_violations(spec, out_fn)
    assert unique_sink_violations(spec, planted(comb, out_fn)) == want


def out_masks(spec, v, targets):
    """Oracle: one bitmask per axis of ``v``'s arcs, read target by target:
    bit ``c-1`` of axis ``d`` is set when an arc changes coordinate ``d`` to
    ``c``.  An arc that does not join the grid vertex ``v`` to a grid
    neighbour raises ``ValueError``."""
    masks = [0] * spec.dimension
    for w in targets:
        changed = list(map(ne, v, w))
        # v is in the grid: so is w if it differs from v in one coordinate, in range
        d = changed.index(True) if len(w) == len(v) and changed.count(True) == 1 else -1
        if d < 0 or not 1 <= w[d] <= spec.factor_sizes[d]:
            raise ValueError(f"arc {v} -> {w} does not join two grid neighbours")
        masks[d] |= 1 << (w[d] - 1)
    return masks


def list_unique_sink_violations(spec, out_fn):
    """Oracle: the per-axis sweep that carries the surviving vertices as a
    list of ``(position bits, out-masks)`` entries."""
    choices = value_subsets(spec)
    last = spec.dimension - 1
    entries = [
        ([1 << (c - 1) for c in v], out_masks(spec, v, out_fn(v)))
        for v in spec.vertices()
    ]
    bad = []

    def sweep(d, prefix, alive):
        for mask, values in enumerate(choices[d], 1):
            kept = [e for e in alive if e[0][d] & mask and not e[1][d] & mask]
            if d < last:
                if sweep(d + 1, prefix + (values,), kept):
                    return True
            elif len(kept) != 1:
                bad.append(prefix + (values,))
                if len(bad) >= 5:
                    return True
        return False

    if last >= 0:
        sweep(0, (), entries)
    return bad


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(0, 3),
    m=st.integers(1, 5),
    seed=st.integers(0, 10**6),
    fault=st.sampled_from(["none", "flip", "reverse"]),
    data=st.data(),
)
def test_unique_sink_violations_matches_list_sweep(r, m, seed, fault, data):
    comb = build_comb(r, m, Random(seed))
    spec, out_fn = grid_spec(comb), partial(out_neighbors, comb)
    if fault == "flip" and r >= 1 and m >= 2:
        pairs = list(combinations(range(1, m + 1), 2))
        out_fn = flip_top_pair_out(comb, *data.draw(st.sampled_from(pairs), label="pair"))
    arcs = [(v, w) for v in spec.vertices() for w in out_fn(v)]
    if fault == "reverse" and arcs:
        out_fn = reverse_arc(out_fn, *data.draw(st.sampled_from(arcs), label="arc"))
    want = list_unique_sink_violations(spec, out_fn)
    assert unique_sink_violations(spec, planted(comb, out_fn)) == want


def test_a_subgrid_with_two_sinks_is_a_violation():
    # every arc of the 2x2 grid points into (1, 1) or (2, 2): each edge has
    # one sink, the whole grid two
    arcs = {(1, 2): ((1, 1), (2, 2)), (2, 1): ((1, 1), (2, 2)), (1, 1): (), (2, 2): ()}
    spec = GridSpec((2, 2))
    want = [((1, 2), (1, 2))]
    assert scalar_unique_sink_violations(spec, arcs.get) == want
    assert unique_sink_violations(spec, oriented(spec, arcs.get)) == want


@pytest.mark.parametrize("r, m", [(1, 4), (2, 4), (3, 3)])
def test_every_flipped_pair_matches_scalar_oracle(r, m):
    comb = build_comb(r, m, Random(f"flip{r}:{m}"))
    spec = grid_spec(comb)
    for a, b in combinations(range(1, m + 1), 2):
        out_fn = flip_top_pair_out(comb, a, b)
        assert unique_sink_violations(spec, planted(comb, out_fn)) == (
            scalar_unique_sink_violations(spec, out_fn)
        ), (a, b)


def test_only_the_first_five_violations_are_reported():
    comb = build_comb(3, 3, Random("flip3:3"))
    spec, out_fn = grid_spec(comb), flip_top_pair_out(comb, 1, 3)
    every = scalar_unique_sink_violations(spec, out_fn, max_report=10**6)
    assert len(every) == 49
    assert unique_sink_violations(spec, planted(comb, out_fn)) == every[:5]


def test_zero_dimensional_grid_has_no_violation():
    assert unique_sink_violations(GridSpec(()), oriented(GridSpec(()), lambda v: ())) == []
    comb = build_comb(0, 3, Random(7))
    assert unique_sink_violations(grid_spec(comb), comb) == []


# ---------------------------------------------------------------------------
# the sink count decides, and the sweep names
# ---------------------------------------------------------------------------

CUBE = GridSpec((2, 2, 2))


def cube_orientations():
    """Every orientation of the 12 edges of the 2x2x2 grid, as arc dicts."""
    vertices = list(CUBE.vertices())
    edges = [(v, v[:d] + (2,) + v[d + 1 :]) for v in vertices for d in range(3) if v[d] == 1]
    for bits in range(2 ** len(edges)):
        out = {v: () for v in vertices}
        for i, (a, b) in enumerate(edges):
            if bits >> i & 1:
                a, b = b, a
            out[a] += (b,)
        yield out


def sink_count(spec, arcs):
    """How many (subgrid, sink) pairs the orientation has:
    ``prod_d 2**(s_d - 1 - |out_d(v)|)`` summed over its vertices."""
    return sum(
        math.prod(
            2 ** (s - 1 - sum(w[d] != v[d] for w in ws))
            for d, s in enumerate(spec.factor_sizes)
        )
        for v, ws in arcs.items()
    )


# a directed 6-cycle through every vertex but (1, 1, 1) and (2, 2, 2), yet
# every subgrid has exactly one sink
CYCLIC_USO = {
    (1, 1, 1): ((2, 1, 1), (1, 2, 1), (1, 1, 2)),
    (1, 1, 2): ((1, 2, 2),),
    (1, 2, 1): ((2, 2, 1),),
    (1, 2, 2): ((1, 2, 1), (2, 2, 2)),
    (2, 1, 1): ((2, 1, 2),),
    (2, 1, 2): ((1, 1, 2), (2, 2, 2)),
    (2, 2, 1): ((2, 1, 1), (2, 2, 2)),
    (2, 2, 2): (),
}
# 27 sinks over the 27 subgrids, but the subgrid ((1,), (1, 2), (1, 2)) has
# two and ((1, 2), (1,), (1, 2)) none
COUNT_27 = {
    (1, 1, 1): ((2, 1, 1),),
    (1, 1, 2): ((1, 1, 1), (1, 2, 2)),
    (1, 2, 1): ((1, 1, 1), (2, 2, 1), (1, 2, 2)),
    (1, 2, 2): ((2, 2, 2),),
    (2, 1, 1): ((2, 2, 1), (2, 1, 2)),
    (2, 1, 2): ((1, 1, 2), (2, 2, 2)),
    (2, 2, 1): ((2, 2, 2),),
    (2, 2, 2): (),
}


def test_every_cube_orientation_matches_scalar_oracle():
    """Over all 4,096 orientations of the 2x2x2 grid, 16 are cyclic with a
    unique sink in every subgrid, and in 624 the sink count equals the 27
    subgrids while some subgrid has none: the count decides only with
    acyclicity."""
    cyclic_usos = count_27_bad = 0
    for arcs in cube_orientations():
        want = scalar_unique_sink_violations(CUBE, arcs.get)
        comb = oriented(CUBE, arcs.get)
        assert unique_sink_violations(CUBE, comb) == want
        cyclic_usos += not want and not has_topological_order(CUBE, comb)
        count_27_bad += bool(want) and sink_count(CUBE, arcs) == 27
    assert (cyclic_usos, count_27_bad) == (16, 624)


@pytest.mark.parametrize(
    "arcs, want",
    [(CYCLIC_USO, []), (COUNT_27, [((1,), (1, 2), (1, 2)), ((1, 2), (1,), (1, 2))])],
    ids=["cyclic-uso", "count-27-violations"],
)
def test_the_sweep_decides_a_cyclic_orientation(monkeypatch, arcs, want):
    """Both cube orientations are cyclic and count 27 sinks over the 27
    subgrids, the first with one sink in every subgrid and the second with
    two in one and none in another: the sweep decides them, with the
    oracle's answer."""
    comb = oriented(CUBE, arcs.get)
    assert scalar_unique_sink_violations(CUBE, arcs.get) == want
    assert not has_topological_order(CUBE, comb)
    assert sink_count(CUBE, arcs) == 27
    sweeps = Counter()
    sweep = grid_uso._sweep_violations

    def counted(spec, read):
        sweeps["runs"] += 1
        return sweep(spec, read)

    monkeypatch.setattr(grid_uso, "_sweep_violations", counted)
    assert unique_sink_violations(CUBE, comb) == want
    assert sweeps["runs"] == 1


@pytest.mark.parametrize("r, m", [(0, 3), (1, 5), (2, 4), (3, 3), (2, 6)])
def test_a_valid_comb_never_enters_the_sweep(monkeypatch, r, m):
    def never(spec, arcs):
        raise AssertionError("a valid comb entered the sweep")

    monkeypatch.setattr(grid_uso, "_sweep_violations", never)
    for seed in range(3):
        comb = build_comb(r, m, Random(f"count{seed}"))
        assert unique_sink_violations(grid_spec(comb), comb) == []
    comb = embed_padded(build_comb(2, 3, Random(1)), 7) if r == 2 else identity_comb(r, m)
    assert unique_sink_violations(grid_spec(comb), comb) == []


BAD_ARCS = [
    ((2, 1), (2, 1)),  # self-loop
    ((2, 1), (1, 2)),  # two coordinates change
    ((2, 1), (2, 4)),  # target outside the grid
    ((2, 1), (2, 0)),  # target outside the grid, below it
]


@pytest.mark.parametrize(
    "check, v, w",
    [
        # the unique-sink cases keep the ids "v<i>-w<i>"
        pytest.param(check, v, w, id=f"{prefix}v{i}-w{i}")
        for prefix, check in [("", unique_sink_violations), ("topo-", has_topological_order)]
        for i, (v, w) in enumerate(BAD_ARCS)
    ],
)
def test_non_neighbour_target_is_rejected(check, v, w):
    comb = identity_comb(2, 3)
    out_fn = partial(out_neighbors, comb)

    def bad(u):
        return out_fn(u) + ((w,) if u == v else ())

    with pytest.raises(
        ValueError, match=re.escape(f"arc {v} -> {w} does not join two grid neighbours")
    ):
        check(grid_spec(comb), planted(comb, bad))


# ---------------------------------------------------------------------------
# the arc table read from a comb's id changes
# ---------------------------------------------------------------------------


def topological_oracle(spec, out_fn):
    """Oracle: whether the standard library's sorter orders the arcs."""
    try:
        tuple(TopologicalSorter({v: out_fn(v) for v in spec.vertices()}).static_order())
    except CycleError:
        return False
    return True


def read_oracle(spec, out_fn):
    """Oracle: by vertex id, each vertex's target ids and :func:`out_masks`,
    read vertex by vertex in ``spec.vertices()`` order, and whether the
    standard library's sorter orders the arcs."""
    table = [None] * spec.vertex_count
    for v in spec.vertices():
        targets = out_fn(v)
        masks = out_masks(spec, v, targets)
        table[_vertex_id(spec, v)] = (tuple(_vertex_id(spec, w) for w in targets), masks)
    return table, topological_oracle(spec, out_fn)


def target_ids(table):
    """An arc table's id changes as target ids, beside the out-masks."""
    return [(tuple(i + move for move in moves), masks) for i, (moves, masks) in enumerate(table)]


def assert_comb_read_matches_decoded_read(comb, fault=None):
    """The table a comb keeps equals the oracle's read of its decoded
    targets (:func:`read_oracle`), ids, masks and acyclicity, and still
    holds the very change tuples the comb keeps once :func:`out_neighbors`
    has decoded them.  ``fault``, a function from a vertex to the targets
    of a faulted orientation, is planted on a copy of ``comb`` as its id
    changes first, and where the subgrids are few its unique-sink answer
    then matches the oracle's."""
    spec = grid_spec(comb)
    decoded = partial(out_neighbors, comb)
    if fault is not None:
        comb, decoded = planted(comb, fault), fault
    table, acyclic = grid_uso._checked(spec, comb)
    assert (target_ids(table), acyclic) == read_oracle(spec, decoded)
    assert all(out_neighbors(comb, v) == decoded(v) for v in spec.vertices())
    assert all(moves is comb._vertex_moves[i] for i, (moves, _) in enumerate(table))
    answers = (has_topological_order(spec, comb), unique_sink_violations(spec, comb))
    if fault is None:
        assert answers == (True, [])
    elif math.prod(2**s - 1 for s in spec.factor_sizes) <= 5000:
        assert answers == (acyclic, list_unique_sink_violations(spec, decoded))


def table_combs(r, m, seed):
    """A seeded comb, the identity comb and, for r >= 2, a seeded comb padded
    by one value on its first axis, so that its factor sizes, and so its
    strides, differ."""
    combs = [build_comb(r, m, Random(f"table:{seed}")), identity_comb(r, m)]
    if r >= 2:
        combs.append(embed_padded(build_comb(r, m, Random(f"padded:{seed}")), r * m + 1))
    return combs


def first_arc(comb):
    spec = grid_spec(comb)
    return next(((v, ws[0]) for v in spec.vertices() if (ws := out_neighbors(comb, v))), None)


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("m", range(1, 7))
def test_comb_read_table_matches_decoded_read(r, m):
    """On seeded, identity and padded combs, and on each with one arc
    reversed; flipped top pairs give the oracles' answers."""
    for comb in table_combs(r, m, f"{r}:{m}"):
        assert_comb_read_matches_decoded_read(comb)
        if (arc := first_arc(comb)) is not None:
            assert_comb_read_matches_decoded_read(comb, reverse_arc(partial(out_neighbors, comb), *arc))
        spec = grid_spec(comb)
        if comb.m >= 2 and math.prod(2**s - 1 for s in spec.factor_sizes) <= 5000:
            pair = comb.ranks.index(1) + 1, comb.ranks.index(comb.m) + 1
            assert_comb_read_matches_decoded_read(comb, flip_top_pair_out(comb, *pair))


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(0, 3),
    m=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["seeded", "identity", "padded"]),
    data=st.data(),
)
def test_comb_read_table_matches_decoded_read_on_drawn_combs(r, m, seed, kind, data):
    comb = identity_comb(r, m) if kind == "identity" else build_comb(r, m, Random(seed))
    if kind == "padded" and r >= 2:
        comb = embed_padded(comb, r * m + data.draw(st.integers(1, r - 1), label="extra"))
    assert_comb_read_matches_decoded_read(comb)
    spec = grid_spec(comb)
    arcs = [(v, w) for v in spec.vertices() for w in out_neighbors(comb, v)]
    # a reversed arc may need the sweep, which both reads refuse beyond the
    # cap: padded (3,6) grids of shape (7, 7, 6) have 1,016,127 subgrids
    if arcs and math.prod(2**s - 1 for s in spec.factor_sizes) <= chain.state_cap():
        arc = data.draw(st.sampled_from(arcs), label="arc")
        assert_comb_read_matches_decoded_read(comb, reverse_arc(partial(out_neighbors, comb), *arc))


@pytest.mark.parametrize("check", [unique_sink_violations, has_topological_order])
@pytest.mark.parametrize(
    "move, w",
    [
        (-8, (1, 1)),  # two coordinates change
        (3, (3, 4)),  # the last coordinate leaves the grid
        (1, (1, 4)),  # the first coordinate leaves the grid, carrying into the last
        (0, (3, 3)),  # no change
    ],
)
def test_a_bad_id_change_kept_on_the_comb_is_rejected(check, move, w):
    """The comb's read checks each kept id change in integers: one planted
    on the top vertex of the identity 3x3 comb raises before any answer."""
    comb = identity_comb(2, 3)
    spec = grid_spec(comb)
    comb._vertex_moves[8] = _moves(comb, 8) + (move,)
    with pytest.raises(
        ValueError, match=re.escape(f"arc (3, 3) -> {w} does not join two grid neighbours")
    ):
        check(spec, comb)


@pytest.mark.parametrize("check", [unique_sink_violations, has_topological_order])
def test_a_change_kept_on_the_0_axis_comb_is_named_as_a_change(check):
    """The 0-axis grid has one vertex and no coordinate: a change kept on
    it is refused by its value, not by an invented target."""
    comb = with_changes(_identity_for(()), {(): [0]})
    with pytest.raises(
        ValueError,
        match=re.escape("arc () by id change 0 does not join two grid neighbours"),
    ):
        check(grid_spec(comb), comb)


def vertex_of(sizes, u):
    """Oracle: the vertex numbered ``u``, first coordinate fastest, with an
    unbounded last coordinate, so an id outside the grid names the value
    that leaves it; the inverse of :func:`unchecked_id`."""
    coords = []
    for s in sizes[:-1]:
        u, c = divmod(u, s)
        coords.append(c + 1)
    return tuple(coords) + (u + 1,)


def change_target(sizes, v, change):
    """Oracle: the grid neighbour of ``v`` whose id is ``v``'s changed by
    ``change``, or ``None`` if that id names no vertex of the grid that
    differs from ``v`` in exactly one coordinate."""
    u = unchecked_id(sizes, v) + change
    if not 0 <= u < math.prod(sizes):
        return None
    w = vertex_of(sizes, u)
    return w if sum(map(ne, v, w)) == 1 else None


def bad_changes(v, sizes):
    """Id changes that take ``v`` to no grid neighbour (:func:`change_target`):
    the changes 0 and ``+-1`` (on the 0-axis grid every change), multiples
    ``k * stride_d`` with ``|k| >= s_d``, steps of one coordinate out of
    range and changes of two coordinates.  A multiple that equals a step
    along a later axis is left out."""
    strides = [math.prod(sizes[:d]) for d in range(len(sizes))]
    changes = {0, 1, -1}
    changes |= {k * st for st, s in zip(strides, sizes) for k in (s, s + 1, -s, -s - 1)}
    changes |= {(c - x) * st for x, st, s in zip(v, strides, sizes) for c in (0, s + 1, -3)}
    changes |= {
        (v[d] % sizes[d] + 1 - v[d]) * strides[d] + (v[e] % sizes[e] + 1 - v[e]) * strides[e]
        for d, e in combinations(range(len(sizes)), 2)
        if sizes[d] >= 2 and sizes[e] >= 2
    }
    return sorted(change for change in changes if change_target(sizes, v, change) is None)


@st.composite
def change_lists(draw):
    """A grid of 0-3 axes and each vertex's id changes: random lists of
    steps to its grid neighbours, with up to three bad changes put in."""
    spec = GridSpec(tuple(draw(st.lists(st.integers(1, 4), max_size=3), label="sizes")))
    sizes = spec.factor_sizes
    changes = {}
    for v in spec.vertices():
        steps = [
            (c - v[d]) * math.prod(sizes[:d])
            for d, s in enumerate(sizes)
            for c in range(1, s + 1)
            if c != v[d]
        ]
        changes[v] = draw(st.lists(st.sampled_from(steps), max_size=4)) if steps else []
    vertices = list(changes)
    for _ in range(draw(st.integers(0, 3), label="bad changes")):
        v = draw(st.sampled_from(vertices))
        change = draw(st.sampled_from(bad_changes(v, sizes)))
        changes[v].insert(draw(st.integers(0, len(changes[v]))), change)
    return spec, changes


def change_read_oracle(spec, changes):
    """Oracle: :func:`read_oracle` of the targets of ``changes``, once every
    change is checked vertex by vertex in ``spec.vertices()`` order; the
    first that takes its vertex to no grid neighbour raises ``ValueError``,
    naming its target as :func:`vertex_of` decodes it, or on the 0-axis
    grid, which has no coordinate, the change itself."""
    sizes = spec.factor_sizes
    targets = {}
    for v in spec.vertices():
        targets[v] = tuple(change_target(sizes, v, change) for change in changes[v])
        if None in targets[v]:
            change = changes[v][targets[v].index(None)]
            w = vertex_of(sizes, unchecked_id(sizes, v) + change)
            named = f"-> {w}" if sizes else f"by id change {change}"
            raise ValueError(f"arc {v} {named} does not join two grid neighbours")
    return read_oracle(spec, targets.get)


@settings(max_examples=150, deadline=None)
@given(case=change_lists())
def test_arc_read_matches_its_oracle(case):
    """The id changes kept on a comb are read as the oracle reads them:
    target ids and masks equal the oracle's, and so does the answer of
    Kahn's algorithm; a refused change raises the oracle's ``ValueError``,
    naming the target of the first bad change in the oracle's order."""
    spec, changes = case
    comb = with_changes(_identity_for(spec.factor_sizes), changes)
    try:
        want = change_read_oracle(spec, changes)
    except ValueError as error:
        with pytest.raises(ValueError) as refused:
            grid_uso._checked(spec, comb)
        assert str(refused.value) == str(error)
        return
    table, acyclic = grid_uso._checked(spec, comb)
    assert (target_ids(table), acyclic) == want
