"""Tests for the exact point construction and its exact predicates."""

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import ceil, log2
from typing import Iterable

import pytest
from hypothesis import assume, given, settings, strategies as st

from pivotlab.errors import DegeneracyError, GeneralPositionError
from pivotlab.geometry import (
    _eliminate,
    PointId,
    PointSet,
    Side,
    Transversal,
    below_set,
    gen_point,
    gen_point_set,
    hyperplane_coefficients,
    is_pierced_subset,
    make_transversal,
    pierced_heads,
    pivot_generic,
    project_deep,
    side_of,
    solve_exact,
    transversals,
)


# ---------------------------------------------------------------------------
# rational references: the Fraction RREF, and the solve and Caratheodory test
# built on it, which the fraction-free kernel replaced in the module
# ---------------------------------------------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    a = [row[:] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivot_cols: list[int] = []
    pr = 0
    for c in range(ncols):
        pivot = next((i for i in range(pr, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[pr], a[pivot] = a[pivot], a[pr]
        inv = a[pr][c]
        a[pr] = [x / inv for x in a[pr]]
        for i in range(nrows):
            if i != pr and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivot_cols.append(c)
        pr += 1
        if pr == nrows:
            break
    return a, pivot_cols


def eliminate_first(rows, width: int):
    """The steps of :func:`_eliminate` pivoting in the first ``width``
    columns only, the columns right of them carried along: the fresh
    elimination of one head that :func:`pierced_heads` carries from head to
    head."""
    a = [list(row) for row in rows]
    d = 1
    pivots = []
    for c in range(width):
        k = len(pivots)
        pivot = next((i for i in range(k, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        p = top[c]
        for i in range(len(a)):
            if i != k:
                f = a[i][c]
                a[i] = [(p * x - f * y) // d for x, y in zip(a[i], top)]
        d = p
        pivots.append(c)
    return d, pivots, a


def rref_solve(a, b) -> tuple[str, list[Fraction] | None]:
    """Reference for :func:`solve_exact`, by one rational RREF."""
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    if not rows:
        return ("unique", []) if all(x == 0 for x in rhs) else ("inconsistent", None)
    ncols = len(rows[0])
    aug = [row + [v] for row, v in zip(rows, rhs)]
    red, piv = _rref(aug)
    if ncols in piv:
        return ("inconsistent", None)
    if len(piv) < ncols:
        return ("underdetermined", None)
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        x[c] = red[i][ncols]
    return ("unique", x)


def rref_is_pierced_subset(points, r: int) -> bool:
    """Reference for :func:`is_pierced_subset`: the same Caratheodory
    search, each candidate one rational RREF solve."""
    pts = list(points)
    if not pts:
        return False
    if r == 1:
        return True
    proj = [tuple(x[t] - x[t + 1] for t in range(r - 1)) for x in pts]
    dim = r - 1
    for size in range(1, min(len(proj), dim + 1) + 1):
        for subset in combinations(proj, size):
            rows = [[Fraction(q[t]) for q in subset] for t in range(dim)]
            rows.append([Fraction(1)] * size)
            rhs = [Fraction(0)] * dim + [Fraction(1)]
            status, lam = rref_solve(rows, rhs)
            if status == "unique" and all(l >= 0 for l in lam):
                return True
    return False


def rref_is_pierced_simplex(points) -> bool:
    """Reference for the piercing test of :func:`pierced_extensions`: the
    barycentric weights of the origin in exactly these projected points, by
    one rational RREF solve."""
    dim = len(points[0]) - 1
    proj = [tuple(x[t] - x[t + 1] for t in range(dim)) for x in points]
    rows = [[Fraction(q[t]) for q in proj] for t in range(dim)]
    rows.append([Fraction(1)] * len(proj))
    status, lam = rref_solve(rows, [Fraction(0)] * dim + [Fraction(1)])
    return status == "unique" and all(l >= 0 for l in lam)


def barycentric_axis_values(ps: PointSet, simplex: Transversal) -> tuple:
    """Independent oracle for axis intersections: per axis, solve the
    barycentric system (member columns, weights summing to one, target on the
    axis) and insist the weights are nonnegative."""
    r = ps.r
    cols = [ps.coords(p) for p in simplex.members]
    values = []
    for axis in range(r):
        rows = []
        for coord in range(r):
            rows.append(
                [Fraction(cols[j][coord]) for j in range(r)]
                + [Fraction(-1 if coord == axis else 0)]
            )
        rows.append([Fraction(1)] * r + [Fraction(0)])
        status, sol = rref_solve(rows, [0] * r + [1])
        assert status == "unique"
        weights, t = sol[:r], sol[r]
        assert all(w >= 0 for w in weights)
        assert t > 0
        values.append(t)
    return tuple(values)


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------


def test_solve_exact_unique():
    status, x = solve_exact([[2, 0], [1, 1]], [4, 5])
    assert status == "unique" and x == [2, 3]


def test_solve_exact_inconsistent_and_underdetermined():
    assert solve_exact([[1, 1], [1, 1]], [1, 2])[0] == "inconsistent"
    assert solve_exact([[1, 1]], [1])[0] == "underdetermined"


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_solve_exact_solutions_satisfy_system(a, b):
    status, x = solve_exact(a, b)
    if status == "unique":
        for row, rhs in zip(a, b):
            assert sum(Fraction(c) * v for c, v in zip(row, x)) == rhs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_exact_matches_rref_on_fractions(data):
    """Rational input is scaled to integer rows; the status and the solution
    are those of the rational RREF."""
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = st.one_of(
        st.builds(Fraction, st.integers(-4, 4), st.integers(2, 6)), st.integers(-3, 3)
    )
    a = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    b = data.draw(st.lists(entry, min_size=nrows, max_size=nrows))
    got = solve_exact(a, b)
    assert got == rref_solve(a, b)
    assert got[1] is None or all(type(x) is Fraction for x in got[1])


# ---------------------------------------------------------------------------
# point generation
# ---------------------------------------------------------------------------


def test_gen_point_on_axis():
    assert gen_point(3, 4, PointId(1, 3, 2)) == (2, 0, 0)


def test_gen_point_inner_layers():
    assert gen_point(3, 4, PointId(1, 1, 1)) == (1097, -1024, -64)
    assert gen_point(2, 2, PointId(1, 1, 2)) == (12, -8)


def test_gen_point_adversary_needs_alpha():
    assert gen_point(2, 3, PointId(1, 2, 4), alpha=5) == (5, 0)
    with pytest.raises(ValueError, match="alpha"):
        gen_point(2, 3, PointId(1, 2, 4))
    with pytest.raises(ValueError, match="outermost"):
        gen_point(3, 3, PointId(1, 1, 4), alpha=5)


def test_gen_point_validates_ranges():
    with pytest.raises(ValueError):
        gen_point(2, 3, PointId(1, 3, 1))
    with pytest.raises(ValueError):
        gen_point(2, 3, PointId(1, 2, 5))
    with pytest.raises(ValueError):
        PointId(2, 1, 1)


def test_point_id_repr_and_error_text():
    assert repr(PointId(1, 5, 2)) == "PointId(color=1, layer=5, phase=2)"
    for bad in ((0, 1, 1), (2, 1, 1), (1, 1, 0)):
        want = "invalid point id PointId(color={}, layer={}, phase={})".format(*bad)
        with pytest.raises(ValueError, match=re.escape(want) + "$"):
            PointId(*bad)


def test_point_ids_sort_by_color_then_layer_then_phase():
    ids = [PointId(2, 2, 1), PointId(1, 2, 1), PointId(1, 1, 3), PointId(1, 2, 1)]
    assert sorted(ids) == [PointId(1, 1, 3), PointId(1, 2, 1), PointId(1, 2, 1), PointId(2, 2, 1)]


def test_point_id_equals_the_plain_tuple_of_its_fields():
    pid = PointId(1, 3, 2)
    assert pid == (1, 3, 2) and hash(pid) == hash((1, 3, 2))
    assert list(pid) == [1, 3, 2]


def test_side_of_reads_a_plain_tuple_as_a_point_id():
    # (1, 3, 2) names the point at (2, 0, 0), below the simplex; the
    # coordinate vector (1, 3, 2) would lie above it
    ps = gen_point_set(3, 4)
    S = make_transversal(ps, [PointId(i, 3, 3) for i in (1, 2, 3)])
    assert ps.coords(PointId(1, 3, 2)) == (2, 0, 0)
    assert side_of(ps, S, PointId(1, 3, 2)) is Side.BELOW
    assert side_of(ps, S, (1, 3, 2)) is side_of(ps, S, PointId(1, 3, 2))


@settings(max_examples=120)
@given(st.data())
def test_sign_structure(data):
    r = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    i = data.draw(st.integers(1, r))
    j = data.draw(st.integers(i, r))
    k = data.draw(st.integers(1, m))
    coords = gen_point(r, m, PointId(i, j, k))
    assert sum(coords) > 0
    assert coords[i - 1] > 0
    assert all(c <= 0 for t, c in enumerate(coords) if t != i - 1)


def test_point_set_cardinality_and_plane():
    ps = gen_point_set(3, 4)
    assert len(ps) == 24  # binom(4, 2) * 4
    assert all(ps.coords(p)[2] == -64 for p in ps if p.layer <= 2)


def test_point_set_r1_is_the_axis_prefix():
    ps = gen_point_set(1, 5)
    assert sorted(ps.coords(p) for p in ps) == [(k,) for k in range(1, 6)]


def test_point_set_rejects_coincident_points():
    with pytest.raises(ValueError, match="coincide"):
        PointSet(1, 2, {PointId(1, 1, 1): (1,), PointId(1, 1, 2): (1,)})


def test_augment_defaults_and_validation():
    ps = gen_point_set(2, 2)
    aug = ps.augmented()
    assert aug.alphas == (3, 3)
    assert len(aug) == len(ps) + 2
    assert aug.coords(PointId(1, 2, 3)) == (3, 0)
    # one rule: every alpha at most m is refused, naming the least usable m + 1
    for alphas, low in [([1, 3], 1), ([2, 3], 2), ([1, 2], 1), ([3, 2], 2)]:
        with pytest.raises(ValueError, match=f"^adversary alpha {low} below the minimum 3$"):
            ps.augmented(alphas)
    assert ps.augmented([4, 3]).alphas == (4, 3)
    # gen_point keeps its own check for direct callers
    with pytest.raises(ValueError, match="^adversary alpha 1 below the minimum 2$"):
        gen_point(2, 2, PointId(1, 2, 3), alpha=1)
    with pytest.raises(ValueError, match="already augmented"):
        aug.augmented()


# ---------------------------------------------------------------------------
# piercedness
# ---------------------------------------------------------------------------


def test_unit_transversal_is_pierced():
    for r in (1, 2, 3, 4):
        pts = [tuple(1 if t == i else 0 for t in range(r)) for i in range(r)]
        assert is_pierced_subset(pts, r)


def test_single_color_pair_is_not_pierced():
    assert not is_pierced_subset([(1, 0), (2, 0)], 2)


def test_every_transversal_of_small_family_is_pierced():
    ps = gen_point_set(2, 3)
    for S in transversals(ps):
        assert is_pierced_subset([ps.coords(p) for p in S.members], 2)


@pytest.mark.parametrize("r,m", [(2, 3), (3, 2)])
def test_pierced_iff_full_colors_exhaustive(r, m):
    ps = gen_point_set(r, m)
    ids = ps.ids()
    for size in range(1, r + 1):
        for subset in combinations(ids, size):
            pierced = is_pierced_subset([ps.coords(p) for p in subset], r)
            full = sorted(p.color for p in subset) == list(range(1, r + 1))
            assert pierced == full, subset


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pierced_iff_full_colors_on_larger_subsets(data):
    # the equivalence holds at any size, not just size <= r
    ps = gen_point_set(2, 4)
    ids = list(ps.ids())
    size = data.draw(st.integers(1, 4))
    subset = data.draw(st.permutations(ids)) [:size]
    pierced = is_pierced_subset([ps.coords(p) for p in subset], 2)
    full = {p.color for p in subset} == {1, 2}
    assert pierced == full


def negative_d_candidates(points, r: int) -> int:
    """How many Caratheodory candidates of ``points`` have a unique
    barycentric solution whose elimination ends with ``d < 0``, so that
    :func:`is_pierced_subset` reads each weight's sign through ``d``."""
    proj = [tuple(x[t] - x[t + 1] for t in range(r - 1)) for x in points]
    count = 0
    for size in range(1, min(len(proj), r) + 1):
        for subset in combinations(proj, size):
            d, pivots, _ = _eliminate([*([*col, 0] for col in zip(*subset)), [1] * (size + 1)])
            count += pivots == list(range(size)) and d < 0
    return count


def test_is_pierced_subset_matches_rational_body():
    negative = []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        r = data.draw(st.integers(1, 4))
        bound = data.draw(st.sampled_from([2, 10**20]))
        points = data.draw(
            st.lists(st.tuples(*[st.integers(-bound, bound)] * r), max_size=5)
        )
        assert is_pierced_subset(points, r) == rref_is_pierced_subset(points, r)
        if r > 1 and negative_d_candidates(points, r):
            negative.append(points)

    check()
    assert negative, "no draw ended an elimination with d < 0"


def pierced_extensions(head, candidates) -> list[bool]:
    """Oracle for :func:`pierced_heads`: its verdicts for one head, by one
    fresh fraction-free elimination (:func:`_eliminate`) of the head's
    columns, the right-hand side and every candidate's column, pivoting in
    the head's columns only.  A head with dependent columns pierces with no
    candidate; otherwise each candidate is decided from its residual column
    below the head's pivot rows."""
    if not candidates:
        return []
    k, n = len(head), len(head) + len(candidates)
    rows = [
        [u[t] - u[t + 1] for u in head] + [0] + [u[t] - u[t + 1] for u in candidates]
        for t in range(len(candidates[0]) - 1)
    ]
    rows.append([1] * (n + 1))
    d, pivots, a = eliminate_first(rows, k)
    if len(pivots) < k:
        return [False] * len(candidates)
    top, bottom = a[:k], a[k:]
    rhs = [row[k] for row in bottom]
    out = []
    for c in range(k + 1, n + 1):
        col = [row[c] for row in bottom]
        i = next((i for i, g in enumerate(col) if g), None)
        if i is None:
            out.append(False)
            continue
        g, b = col[i], rhs[i]
        gd = g * d
        out.append(
            b * g >= 0
            and all(y * g == b * x for x, y in zip(col, rhs))
            and all((g * row[k] - b * row[c]) * gd >= 0 for row in top)
        )
    return out


def test_is_pierced_simplex_matches_rational_solve():
    """The one-elimination test of exactly the given points, all but the
    last as the head and the last as the one candidate, agrees with a
    rational RREF solve, on small and on 20-digit coordinates, up to one
    point more than the dimension."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        r = data.draw(st.integers(1, 4))
        bound = data.draw(st.sampled_from([2, 10**20]))
        points = data.draw(
            st.lists(st.tuples(*[st.integers(-bound, bound)] * r), min_size=1, max_size=r + 1)
        )
        (got,) = pierced_extensions(points[:-1], points[-1:])
        assert got == rref_is_pierced_simplex(points)
        seen.add(got)

    check()
    assert seen == {True, False}


def test_pierced_extensions_match_one_elimination_per_subset():
    """The per-head test agrees with the rational RREF solve of every
    ``head + [p]``, on small coordinates, so heads are often dependent and
    residual columns zero."""
    seen = Counter()

    # about 3% of runs of 400 examples drew no dependent head
    @settings(max_examples=800, deadline=None)
    @given(st.data())
    def check(data):
        r = data.draw(st.integers(1, 4))
        points = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=7)
        )
        k = data.draw(st.integers(0, min(r, len(points)) - 1))
        head, candidates = points[:k], points[k:]
        got = pierced_extensions(head, candidates)
        assert got == [rref_is_pierced_simplex([*head, p]) for p in candidates]
        seen.update(got)
        # the head's projected points, each with its weight's 1, as rows
        lifted = [[*(u[t] - u[t + 1] for t in range(r - 1)), 1] for u in head]
        seen["dependent head"] += k > 0 and len(_eliminate(lifted)[1]) < k

    check()
    assert seen[True] and seen[False] and seen["dependent head"]


def pivot_needs_row_swap(head) -> bool:
    """Whether the elimination of ``head``'s lifted columns (the projected
    points over a row of ones), pivoting column by column, meets a column
    whose next pivot row is zero while a later row is not."""
    rows = [[u[t] - u[t + 1] for u in head] for t in range(len(head[0]) - 1)]
    rows.append([1] * len(head))
    for j in range(len(head)):
        _, pivots, a = eliminate_first(rows, j)
        if len(pivots) < j:
            return False
        if not a[j][j] and any(row[j] for row in a[j + 1 :]):
            return True
    return False


def test_pierced_heads_match_one_elimination_per_head():
    """The carried kernel yields every head of each size, in
    ``combinations`` order, with the verdicts a fresh elimination per head
    gives, on small coordinates: heads are often dependent, need a row swap
    to pivot, or (on no points) have no candidate."""
    seen = Counter()

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def check(data):
        r = data.draw(st.integers(1, 4))
        points = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r), max_size=7))
        for size in range(1, r + 1):
            got = list(pierced_heads(points, size))
            want = [
                (head, pierced_extensions([points[i] for i in head], points[start:]))
                for head in combinations(range(len(points) - 1), size - 1)
                for start in [head[-1] + 1 if head else 0]
            ]
            assert got == want
            for head, flags in got:
                seen.update(flags)
                seen["no candidates"] += not flags
                chosen = [points[i] for i in head]
                lifted = [[*(u[t] - u[t + 1] for t in range(r - 1)), 1] for u in chosen]
                seen["dependent head"] += len(_eliminate(lifted)[1]) < len(head)
                seen["row swap"] += bool(head) and pivot_needs_row_swap(chosen)

    check()
    kinds = (True, False, "no candidates", "dependent head", "row swap")
    assert all(seen[kind] for kind in kinds), seen


def test_pierced_rejects_wrong_arity():
    with pytest.raises(ValueError):
        is_pierced_subset([(1, 2, 3)], 2)
    assert not is_pierced_subset([], 3)


# ---------------------------------------------------------------------------
# axis intersections / sides
# ---------------------------------------------------------------------------


def axis_intersections(point_set: PointSet, simplex: Transversal) -> tuple[Fraction, ...]:
    """The values ``t_1..t_r`` where the simplex's hull meets each coordinate
    axis: ``t_i = d / n_i`` for the integer hyperplane ``n . x = d`` of
    :meth:`PointSet.normal`."""
    n, d = point_set.normal(simplex.members)
    return tuple(Fraction(d, x) for x in n)


def test_axis_points_intersect_at_their_phases():
    ps = gen_point_set(3, 4)
    S = make_transversal(ps, [PointId(i, 3, 4) for i in (1, 2, 3)])
    assert axis_intersections(ps, S) == (4, 4, 4)


def test_axis_intersections_worked_example():
    ps = gen_point_set(2, 2)
    S = make_transversal(ps, [PointId(1, 1, 1), PointId(2, 2, 1)])
    assert ps.coords(PointId(1, 1, 1)) == (11, -8)
    assert axis_intersections(ps, S) == (Fraction(11, 9), Fraction(1))
    # the minimizing axis value is contributed by a member on that axis
    assert ps.coords(S.members[1]) == (0, 1)


@pytest.mark.parametrize("r,m", [(2, 3), (3, 2)])
def test_axis_intersections_match_barycentric_oracle(r, m):
    ps = gen_point_set(r, m)
    for S in transversals(ps):
        assert axis_intersections(ps, S) == barycentric_axis_values(ps, S)


def test_side_of_examples():
    ps = gen_point_set(2, 2)
    S = make_transversal(ps, [PointId(1, 2, 2), PointId(2, 2, 2)])
    for pid, coords, side in [
        (PointId(1, 2, 1), (1, 0), Side.BELOW),
        (PointId(1, 2, 2), (2, 0), Side.ON),  # a member
        (PointId(1, 1, 1), (11, -8), Side.ABOVE),
    ]:
        assert ps.coords(pid) == coords
        assert side_of(ps, S, pid) is side


def test_normal_is_sign_normalised():
    # the spanning matrix [[1, 3], [2, 1]] has determinant -5; c = (2/5, 1/5)
    below, on, above = PointId(1, 1, 1), PointId(1, 1, 2), PointId(1, 1, 3)
    ps = PointSet(
        2,
        1,
        {
            PointId(1, 2, 1): (1, 3),
            PointId(2, 2, 1): (2, 1),
            below: (1, 1),
            on: (0, 5),
            above: (3, 1),
        },
    )
    S = Transversal((PointId(1, 2, 1), PointId(2, 2, 1)))
    n, d = ps.normal(S.members)
    assert d > 0 and (Fraction(n[0], d), Fraction(n[1], d)) == (Fraction(2, 5), Fraction(1, 5))
    assert side_of(ps, S, below) is Side.BELOW
    assert side_of(ps, S, on) is Side.ON
    assert side_of(ps, S, above) is Side.ABOVE


def test_below_set_examples():
    ps = gen_point_set(2, 2)
    S = make_transversal(ps, [PointId(1, 2, 2), PointId(2, 2, 2)])
    assert below_set(ps, S) == (PointId(1, 2, 1), PointId(2, 2, 1))
    ps14 = gen_point_set(1, 4)
    S14 = make_transversal(ps14, [PointId(1, 1, 3)])
    assert below_set(ps14, S14) == (PointId(1, 1, 1), PointId(1, 1, 2))


def test_below_set_flags_on_point():
    # a custom point on the hyperplane of {2e1, 2e2} (coordinate sum 2)
    ps = gen_point_set(2, 2)
    points = {p: ps.coords(p) for p in ps.ids()}
    points[PointId(1, 1, 2)] = (3, -1)
    broken = PointSet(2, 2, points)
    S = make_transversal(broken, [PointId(1, 2, 2), PointId(2, 2, 2)])
    with pytest.raises(GeneralPositionError, match="lies on the hyperplane"):
        below_set(broken, S)


def test_below_set_is_cached_on_the_set(monkeypatch):
    ps = gen_point_set(3, 3)
    S = make_transversal(ps, [PointId(1, 3, 3), PointId(2, 3, 3), PointId(3, 3, 3)])
    first = below_set(ps, S)
    assert first
    calls = []
    monkeypatch.setattr("pivotlab.geometry.side_of", lambda *args: calls.append(args))
    assert below_set(ps, S) is first
    assert not calls


def test_below_set_raise_is_not_cached():
    ps = gen_point_set(5, 2)
    S = make_transversal(
        ps, [PointId(*x) for x in [(1, 1, 2), (2, 5, 2), (3, 5, 2), (4, 5, 2), (5, 5, 1)]]
    )
    for _ in range(2):
        with pytest.raises(GeneralPositionError, match="lies on the hyperplane"):
            below_set(ps, S)
    assert S.members not in ps._below


def test_copies_start_with_empty_caches():
    ps = gen_point_set(2, 3)
    for S in transversals(ps):
        below_set(ps, S)
    assert ps._below and ps._normals
    for copy in (ps.augmented(), flip_tail_sign(ps, PointId(1, 1, 1), 1)):
        assert copy._below == {} == copy._normals
        fresh = PointSet(copy.r, copy.m, {p: copy.coords(p) for p in copy.ids()}, copy.alphas)
        for S in transversals(copy):
            assert kernel_outcome(below_set, copy, S) == kernel_outcome(below_set, fresh, S)


@pytest.mark.parametrize(
    "r,members,normal,on_point",
    [
        # (1,1,2) = (690, -512, -128, -32, -8) with 690 = 2 (1 + 256 + 64 + 16 + 8),
        # so the hyperplane (1/2, 1/2, 1/2, 1/2, 1) . x == 1 holds 2 e_1
        (
            5,
            [(1, 1, 2), (2, 5, 2), (3, 5, 2), (4, 5, 2), (5, 5, 1)],
            ((2760, 2760, 2760, 2760, 5520), 5520),
            PointId(1, 5, 2),
        ),
        (
            6,
            [(1, 1, 1), (2, 6, 2), (3, 6, 2), (4, 6, 2), (5, 6, 2), (6, 6, 1)],
            ((21904, 21912, 21912, 21912, 21912, 43824), 43824),
            PointId(2, 2, 2),
        ),
    ],
)
def test_standard_family_is_not_in_general_position_at_m_2(r, members, normal, on_point):
    # two known coincidences of the standard family: a non-member on the
    # hyperplane of a transversal
    ps = gen_point_set(r, 2)
    S = make_transversal(ps, [PointId(*x) for x in members])
    assert ps.normal(S.members) == normal
    assert side_of(ps, S, on_point) is Side.ON
    with pytest.raises(GeneralPositionError, match="^" + re.escape(f"{on_point!r} lies on the hyperplane")):
        below_set(ps, S)


def test_augmented_default_start_has_on_points_tolerated():
    # with equal alphas = m+1 the start hyperplane passes exactly through the
    # phase-1 inner-layer points; they are neither below nor above
    ps = gen_point_set(2, 6).augmented()
    start = make_transversal(ps, [PointId(1, 2, 7), PointId(2, 2, 7)])
    assert side_of(ps, start, PointId(1, 1, 1)) is Side.ON
    assert PointId(1, 1, 1) not in below_set(ps, start)


def test_degenerate_simplex_raises():
    # a hyperplane through the origin cannot be written as c.x == 1
    ps = PointSet(1, 2, {PointId(1, 1, 1): (2,), PointId(1, 1, 2): (0,)})
    with pytest.raises(DegeneracyError):
        hyperplane_coefficients(ps, Transversal((PointId(1, 1, 2),)))
    # the line -x + y == 1 meets the first axis at -1: rejected
    ps2 = PointSet(2, 2, {PointId(1, 1, 1): (0, 1), PointId(2, 2, 1): (1, 2)})
    with pytest.raises(DegeneracyError, match="negative side"):
        hyperplane_coefficients(
            ps2, Transversal((PointId(1, 1, 1), PointId(2, 2, 1)))
        )
    # the line y == 1 never meets the first axis: rejected as parallel
    ps3 = PointSet(2, 2, {PointId(1, 1, 1): (0, 1), PointId(2, 2, 1): (5, 1)})
    with pytest.raises(DegeneracyError, match="parallel"):
        hyperplane_coefficients(
            ps3, Transversal((PointId(1, 1, 1), PointId(2, 2, 1)))
        )


# ---------------------------------------------------------------------------
# below sets by bisection against the per-point scan they replaced
# ---------------------------------------------------------------------------


def scan_below_set(ps: PointSet, simplex: Transversal) -> tuple[PointId, ...]:
    """Reference for :func:`below_set`: one :func:`side_of` per non-member,
    in id order, raising at the first point on the hyperplane of an
    unaugmented set."""
    members = set(simplex.members)
    below = []
    for pid in ps.ids():
        if pid in members:
            continue
        side = side_of(ps, simplex, pid)
        if side is Side.BELOW:
            below.append(pid)
        elif side is Side.ON and not ps.is_augmented:
            raise GeneralPositionError(f"{pid} lies on the hyperplane of {simplex.members}")
    return tuple(below)


def below_outcome(fn, ps: PointSet, simplex: Transversal):
    """The below tuple, or the type and message of the error raised."""
    try:
        return fn(ps, simplex)
    except (DegeneracyError, GeneralPositionError) as exc:
        return (type(exc), str(exc))


def assert_below_matches_scan(
    ps: PointSet, simplices: Iterable[Transversal] | None = None
) -> Counter:
    """:func:`below_set` equals the scan on every transversal of ``ps`` (or
    on ``simplices``): the same tuple, or the same error type and message.
    Returns how many of each outcome kind were seen."""
    kinds = Counter()
    for S in transversals(ps) if simplices is None else simplices:
        want = below_outcome(scan_below_set, ps, S)
        assert below_outcome(below_set, ps, S) == want, S.members
        kinds[want[0].__name__ if want and isinstance(want[0], type) else "below"] += 1
    return kinds


def class_runs(ps: PointSet) -> list[tuple[PointId, ...]]:
    """The (color, layer) classes of a family set, in id order."""
    return [
        tuple(p for p in ps.ids() if (p.color, p.layer) == (i, j))
        for i in range(1, ps.r + 1)
        for j in range(i, ps.r + 1)
    ]


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_point_set(1, 5),
        lambda: gen_point_set(2, 8),
        lambda: gen_point_set(3, 4),
        lambda: gen_point_set(4, 3),
        lambda: gen_point_set(2, 6).augmented(),
        lambda: gen_point_set(3, 3).augmented([4, 6, 5]),
        lambda: project_deep(4, 3, 2),
        lambda: project_deep(5, 3, 3),
        lambda: gen_point_set(5, 2),
    ],
    ids=["1-5", "2-8", "3-4", "4-3", "2-6-aug", "3-3-aug", "deep-4-3-2", "deep-5-3-3", "5-2"],
)
def test_below_set_matches_scan_on_families(make):
    ps = make()
    # a run per (color, layer) class; an adversary point joins its outer class
    assert ps._runs == class_runs(ps)
    kinds = assert_below_matches_scan(ps)
    assert kinds["below"] > 0
    assert ("GeneralPositionError" in kinds) == ((ps.r, ps.m) == (5, 2))


def test_below_set_matches_scan_at_6_2():
    # every transversal through the known coincidence's first two members
    ps = gen_point_set(6, 2)
    fixed = (PointId(1, 1, 1), PointId(2, 6, 2))
    simplices = [S for S in transversals(ps) if S.members[:2] == fixed]
    assert len(simplices) == 8 * 6 * 4 * 2
    assert assert_below_matches_scan(ps, simplices)["GeneralPositionError"] > 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_below_set_matches_scan_on_augmented_sets(data):
    r = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 4 if r < 3 else 2))
    alphas = [data.draw(st.integers(m + 1, 3 * m + 3)) for _ in range(r)]
    ps = gen_point_set(r, m).augmented(alphas)
    assert ps._runs == class_runs(ps)
    assert_below_matches_scan(ps)


@st.composite
def coordinate_mutants(draw) -> PointSet:
    """A small family set with one to three coordinates moved, each by a
    step of one or two or by a sign flip; a move onto another point's
    coordinates is skipped.  Runs break and merge, and some hyperplanes
    degenerate or pass through a point."""
    r = draw(st.integers(2, 3))
    m = draw(st.integers(2, 4 if r == 2 else 3))
    base = gen_point_set(r, m)
    points = {p: base.coords(p) for p in base.ids()}
    for _ in range(draw(st.integers(1, 3))):
        pid = draw(st.sampled_from(base.ids()))
        t = draw(st.integers(0, r - 1))
        xs = list(points[pid])
        xs[t] = draw(st.sampled_from([-xs[t], xs[t] - 2, xs[t] - 1, xs[t] + 1, xs[t] + 2]))
        if tuple(xs) not in points.values():
            points[pid] = tuple(xs)
    return PointSet(r, m, points)


@settings(max_examples=60, deadline=None)
@given(coordinate_mutants())
def test_below_set_matches_scan_on_coordinate_mutants(ps):
    assert_below_matches_scan(ps)


def counting_side_of(monkeypatch) -> list[PointId]:
    """Route :func:`below_set`'s side tests through a recorder; returns the
    list of points it tests."""
    tested = []

    def counting(point_set, simplex, x):
        tested.append(x)
        return side_of(point_set, simplex, x)

    monkeypatch.setattr("pivotlab.geometry.side_of", counting)
    return tested


def test_flipped_point_is_its_own_run_and_side_tested_alone(monkeypatch):
    # a flipped tail entry breaks the (1, 1) class into three one-point runs
    pid = PointId(1, 1, 2)
    ps = flip_tail_sign(gen_point_set(3, 3), pid, 2)
    cls = class_runs(ps)[0]
    assert cls == (PointId(1, 1, 1), pid, PointId(1, 1, 3))
    assert ps._runs[:3] == [(p,) for p in cls]
    tested = counting_side_of(monkeypatch)
    checked = 0
    for S in transversals(ps):
        tested.clear()
        got = below_outcome(below_set, ps, S)
        assert got == below_outcome(scan_below_set, ps, S)
        if pid not in S.members and not (got and isinstance(got[0], type)):
            assert tested.count(pid) == 1
            checked += 1
    assert checked


def test_below_set_side_tests_a_logarithm_per_run(monkeypatch):
    r, m = 2, 40
    ps = gen_point_set(r, m)
    budget = r * (r + 1) // 2 * ceil(log2(m + 2))
    tested = counting_side_of(monkeypatch)
    worst = 0
    for S in transversals(ps):
        tested.clear()
        below_set(ps, S)
        worst = max(worst, len(tested))
    # the per-point scan made 3m - r = 118 per transversal
    assert 0 < worst <= budget == 18


# ---------------------------------------------------------------------------
# the fraction-free kernel against the rational reference
# ---------------------------------------------------------------------------


def rref_hyperplane(ps: PointSet, simplex: Transversal) -> tuple[Fraction, ...]:
    """Reference for :meth:`PointSet.normal`: ``c`` with ``c . x == 1``
    from one rational RREF solve, under the same three degeneracy checks."""
    rows = [ps.coords(pid) for pid in simplex.members]
    status, c = rref_solve(rows, [1] * len(rows))
    if status != "unique":
        raise DegeneracyError(f"spanning system is {status}; the simplex is degenerate")
    if any(ci == 0 for ci in c):
        raise DegeneracyError("hyperplane is parallel to a coordinate axis")
    if any(ci < 0 for ci in c):
        raise DegeneracyError("hyperplane meets an axis on the negative side")
    return tuple(c)


def fraction_side_of(c: tuple[Fraction, ...], coords) -> Side:
    """Reference side test: the sign of the ``Fraction`` value ``c . x - 1``
    for the reference coefficients ``c``."""
    value = sum((ci * xi for ci, xi in zip(c, coords)), Fraction(0)) - 1
    return Side.ABOVE if value > 0 else Side.BELOW if value < 0 else Side.ON


DEGENERACY_KINDS = ("degenerate", "parallel", "negative side")


def outcome(fn, *args):
    """The value of ``fn(*args)``, or which degeneracy it raised."""
    try:
        return fn(*args)
    except DegeneracyError as exc:
        kinds = [kind for kind in DEGENERACY_KINDS if kind in str(exc)]
        assert len(kinds) == 1, str(exc)
        return ("raises", kinds[0])


def assert_matches_reference(ps: PointSet, simplex: Transversal, points) -> bool:
    """Coefficients, axis intersections and sides agree with the rational
    reference (or both raise the same kind of error); returns whether the
    simplex has a valid hyperplane."""
    want = outcome(rref_hyperplane, ps, simplex)
    assert outcome(hyperplane_coefficients, ps, simplex) == want
    if want[0] == "raises":
        assert outcome(axis_intersections, ps, simplex) == want
        assert outcome(side_of, ps, simplex, points[0]) == want
        return False
    assert axis_intersections(ps, simplex) == tuple(1 / c for c in want)
    n, d = ps.normal(simplex.members)
    assert d > 0 and all(type(x) is int for x in (*n, d))
    for x in points:
        assert side_of(ps, simplex, x) is fraction_side_of(want, ps.coords(x))
    return True


@st.composite
def square_systems(draw):
    """An n x n matrix with small entries (often singular) and one or two
    right-hand sides with huge ones, n in 1..5."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    column = st.lists(st.integers(-(10**20), 10**20), min_size=n, max_size=n)
    return rows, draw(st.lists(column, min_size=1, max_size=2))


def cofactor_det(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_bareiss_matches_rational_solve(system):
    """A square system beside its right-hand sides, the way
    :meth:`PointSet.normal` and :func:`pivot_generic` call the kernel: it is
    nonsingular iff the pivots are its first ``n`` columns, ``d`` is then
    the determinant up to sign, and each right-hand column over ``d`` is the
    rational solution."""
    rows, rhs_columns = system
    n = len(rows)
    d, pivots, a = _eliminate(
        [[*row, *(col[i] for col in rhs_columns)] for i, row in enumerate(rows)]
    )
    if pivots != list(range(n)):
        assert cofactor_det(rows) == 0
        assert all(rref_solve(rows, b)[0] != "unique" for b in rhs_columns)
        return
    assert abs(d) == abs(cofactor_det(rows))
    for k, b in enumerate(rhs_columns):
        assert ("unique", [Fraction(row[n + k], d) for row in a]) == rref_solve(rows, b)


@st.composite
def integer_matrices(draw) -> list[list[int]]:
    """1-5 rows by 1-6 columns with entries past ``10**20`` or in
    ``-3..3``; some rows are small combinations of others and one column
    may be zero, so the rank is often deficient and columns get skipped."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    bound = draw(st.sampled_from([3, 10**20]))
    row = st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=nrows))
    while len(rows) < nrows:
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        f, g = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([f * u + g * v for u, v in zip(x, y)])
    zero = draw(st.none() | st.integers(0, ncols - 1))
    if zero is not None:
        rows = [[0 if c == zero else x for c, x in enumerate(r)] for r in rows]
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_eliminate_matches_rref(rows):
    d, pivots, a = _eliminate(rows)
    assert eliminate_first(rows, len(rows[0])) == (d, pivots, a)
    red, want_pivots = _rref([[Fraction(x) for x in row] for row in rows])
    assert pivots == want_pivots
    assert all(a[i][c] == d for i, c in enumerate(pivots))
    assert all(type(x) is int for row in a for x in row)
    assert [[Fraction(x, d) for x in row] for row in a] == red


@st.composite
def integer_point_sets(draw) -> PointSet:
    """1-3 points per color with distinct integer coordinates, r in 1..4;
    small ranges hit every degeneracy, huge ones overflow any fixed width."""
    r = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([4, 10**6, 10**30]))
    sizes = [draw(st.integers(1, 3)) for _ in range(r)]
    coords = draw(
        st.lists(
            st.tuples(*[st.integers(-bound, bound)] * r),
            min_size=sum(sizes),
            max_size=sum(sizes),
            unique=True,
        )
    )
    it = iter(coords)
    points = {
        PointId(i, r, k): next(it)
        for i, size in enumerate(sizes, start=1)
        for k in range(1, size + 1)
    }
    return PointSet(r, 3, points)


@settings(max_examples=200, deadline=None)
@given(integer_point_sets(), st.data())
def test_integer_kernel_matches_reference_on_random_sets(ps, data):
    # one more small point, under a fresh id (phases run to 3), probes every
    # transversal of the drawn set
    extra = data.draw(st.tuples(*[st.integers(-9, 9)] * ps.r))
    points = {p: ps.coords(p) for p in ps.ids()}
    assume(extra not in points.values())
    probed = PointSet(ps.r, ps.m, {**points, PointId(1, ps.r, 4): extra})
    for S in transversals(ps):
        assert_matches_reference(probed, S, list(probed.ids()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_kernel_matches_reference_on_augmented_sets(data):
    r = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 2 if r == 4 else 3))
    equal = data.draw(st.booleans())
    alphas = (
        (m + 1,) * r
        if equal
        else tuple(data.draw(st.integers(m + 1, m + 4)) for _ in range(r))
    )
    ps = gen_point_set(r, m).augmented(alphas)
    starts = [make_transversal(ps, [PointId(i, r, m + 1) for i in range(1, r + 1)])]
    for _ in range(4):
        starts.append(
            make_transversal(
                ps, [data.draw(st.sampled_from(ps.color_class(i))) for i in range(1, r + 1)]
            )
        )
    for S in starts:
        assert assert_matches_reference(ps, S, list(ps.ids()))
    if equal and r >= 2:
        # the start hyperplane is coordinate sum m + 1, and a point of layer j
        # and phase k has sum (r - j) m + k: phase-1 points of layer r - 1 lie on it
        on = [p for p in ps.ids() if p.layer == r - 1 and p.phase == 1]
        assert on and all(side_of(ps, starts[0], p) is Side.ON for p in on)


def test_integer_kernel_beyond_64_bits():
    """Coordinates near 700**7 > 2**63: nothing may narrow to a fixed width."""
    ps = gen_point_set(4, 700)
    assert max(abs(x) for p in ps for x in ps.coords(p)) > 2**63
    for members in [
        [PointId(1, 1, 1), PointId(2, 2, 5), PointId(3, 3, 700), PointId(4, 4, 350)],
        [PointId(1, 2, 9), PointId(2, 3, 123), PointId(3, 4, 2), PointId(4, 4, 699)],
        [PointId(1, 1, 700), PointId(2, 2, 1), PointId(3, 3, 1), PointId(4, 4, 1)],
    ]:
        S = make_transversal(ps, members)
        assert assert_matches_reference(ps, S, list(ps.ids()))
        n, d = ps.normal(S.members)
        assert d > 2**63 and max(n) > 2**63
        below = below_set(ps, S)
        assert pivot_generic(ps, S) == [(p, None) for p in below]
        for p in below[:: max(1, len(below) // 5)]:
            assert per_pair_pivot(ps, S, p) == S.replace(p)


# ---------------------------------------------------------------------------
# normals by back-substitution against a fresh elimination (two of the tests
# keep the names they had when they checked a sub-line fill, since removed)
# ---------------------------------------------------------------------------


def normal_outcome(ps: PointSet, members: tuple[PointId, ...]):
    try:
        return ps.normal(members)
    except DegeneracyError as exc:
        return ("raises", str(exc))


def check_normals(ps: PointSet, extra: Iterable[tuple[PointId, ...]] = ()) -> list:
    """Ask :meth:`normal` for every transversal of ``ps``, then for each
    ``extra`` tuple: each answer, pair or error, must be what one fresh
    elimination gives on a copy that never back-substitutes.  Returns the
    answers."""
    fresh = PointSet(ps.r, ps.m, {p: ps.coords(p) for p in ps.ids()}, alphas=ps.alphas)
    fresh._triangular = None
    outcomes = []
    for members in [*(S.members for S in transversals(ps)), *extra]:
        got = normal_outcome(ps, members)
        assert got == normal_outcome(fresh, members), members
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_point_set(1, 4),
        lambda: gen_point_set(2, 3),
        lambda: gen_point_set(2, 8).augmented(),
        lambda: gen_point_set(3, 4),
        lambda: gen_point_set(3, 4).augmented([5, 7, 6]),
        lambda: gen_point_set(4, 3),
        lambda: gen_point_set(4, 3).augmented(),
        lambda: gen_point_set(3, 8),
        lambda: gen_point_set(2, 40),
        lambda: gen_point_set(5, 3),
        lambda: project_deep(4, 3, 2),
        lambda: project_deep(5, 3, 3),
    ],
    ids=[
        "1-4", "2-3", "2-8-aug", "3-4", "3-4-aug", "4-3", "4-3-aug", "3-8", "2-40",
        "5-3", "deep-4-3-2", "deep-5-3-3",
    ],
)
def test_fill_normals_matches_fresh_elimination(make):
    ps = make()
    assert ps._triangular == list(range(1, ps.r + 1))
    assert all(isinstance(got[0], tuple) and got[1] > 0 for got in check_normals(ps))


@pytest.mark.parametrize(
    "pid, coord",
    [(PointId(1, 1, 2), 1), (PointId(2, 2, 3), 2), (PointId(3, 3, 2), 2)],
    ids=["inner", "inner-tail", "last-color"],
)
def test_fill_normals_on_flipped_sets(pid, coord):
    # a flipped tail entry, or (last-color) a negative diagonal -2 e_3: the
    # set stays triangular, and the flipped point's transversals may raise
    ps = flip_tail_sign(gen_point_set(3, 3), pid, coord)
    assert ps._triangular
    check_normals(ps)


def test_normal_raises_on_degenerate_siblings():
    # head (5, 2): with p = t e_2 the pair is ((t - 2, 5), 5 t), so t = 1
    # meets the first axis on the negative side, t = 2 is parallel to it,
    # and only t = 3 spans a hyperplane; the head (0, 7) makes every p singular
    good, flat = PointId(1, 2, 1), PointId(1, 2, 2)
    line = [PointId(2, 2, k) for k in (1, 2, 3)]
    ps = PointSet(2, 3, {good: (5, 2), flat: (0, 7), **{p: (0, p.phase) for p in line}})
    assert ps.normal((good, line[2])) == ((1, 5), 15)
    with pytest.raises(DegeneracyError, match="negative side"):
        ps.normal((good, line[0]))
    with pytest.raises(DegeneracyError, match="parallel"):
        ps.normal((good, line[1]))
    with pytest.raises(DegeneracyError, match="singular"):
        ps.normal((flat, line[0]))
    assert list(ps._normals) == [(good, line[2])]
    check_normals(ps)


@st.composite
def axis_line_sets(draw) -> tuple[PointSet, list[tuple[PointId, ...]]]:
    """Either random heads, small or huge, beside a last color of points on
    the last axis (either side) and a few off it; or a random triangular
    set, every point zero before its color, with diagonal entries of any
    sign or zero.  Beside the set, a few of its transversals with their
    members out of color order."""
    r = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([4, 10**6, 10**30]))
    if draw(st.booleans()):
        heads = draw(
            st.lists(
                st.tuples(*[st.integers(-bound, bound)] * r),
                min_size=2 * (r - 1),
                max_size=2 * (r - 1),
                unique=True,
            )
        )
        ts = draw(
            st.lists(st.integers(-bound, bound).filter(bool), min_size=1, max_size=5, unique=True)
        )
        line = [(0,) * (r - 1) + (t,) for t in ts]
        line += draw(st.lists(st.tuples(*[st.integers(-4, 4)] * r), max_size=2))
        assume(len(set(heads + line)) == len(heads) + len(line))
        points = {
            PointId(i, r, k): heads[2 * (i - 1) + k - 1] for i in range(1, r) for k in (1, 2)
        }
        points.update({PointId(r, r, k): x for k, x in enumerate(line, start=1)})
    else:
        entry = st.sampled_from([0, 1, -1]) | st.integers(-bound, bound)
        points = {}
        for i in range(1, r + 1):
            for k in range(1, draw(st.integers(1, 3)) + 1):
                points[PointId(i, r, k)] = (0,) * (i - 1) + draw(st.tuples(*[entry] * (r - i + 1)))
        assume(len(set(points.values())) == len(points))
    ps = PointSet(r, 3, points)
    members = [S.members for S in transversals(ps)]
    shuffled = [
        tuple(draw(st.permutations(draw(st.sampled_from(members)))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return ps, [t for t in shuffled if [p.color for p in t] != list(range(1, r + 1))]


def test_normal_matches_fresh_elimination_on_random_sets():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(axis_line_sets())
    def check(case):
        ps, shuffled = case
        outcomes = check_normals(ps, shuffled)
        seen.add("triangular" if ps._triangular else "eliminated")
        seen.add("shuffled" if shuffled else "in order")
        for got in outcomes:
            seen.add("pair" if isinstance(got[0], tuple) else got[1].split()[-1])

    check()
    want = {"triangular", "eliminated", "shuffled", "pair", "degenerate", "side"}
    assert want <= seen, seen


# ---------------------------------------------------------------------------
# pivoting
# ---------------------------------------------------------------------------


def per_pair_pivot(point_set: PointSet, simplex: Transversal, p: PointId) -> Transversal:
    """Oracle for :func:`pivot_generic`: its former body, one elimination of
    ``[[Q, -1 | 0, p], [1 ... 1, 0 | 1, 1]]`` per below point, which returns
    the color swap ``S.replace(p)`` or raises the degeneracy that the batched
    kernel names."""
    if p in simplex.members:
        raise ValueError(f"pivot point {p} is already a member")
    if side_of(point_set, simplex, p) is not Side.BELOW:
        raise ValueError(f"pivot point {p} is not strictly below the simplex")
    r = point_set.r
    q = [point_set.coords(x) for x in simplex.members]
    rows = [[*(x[t] for x in q), -1, 0, y] for t, y in enumerate(point_set.coords(p))]
    rows.append([1] * r + [0, 1, 1])
    d, _, a = _eliminate(rows)
    lam, mu = [row[r + 1] for row in a], [row[r + 2] for row in a]
    if d < 0:
        lam, mu = [-x for x in lam], [-x for x in mu]
    if any(x <= 0 for x in lam[:r]):
        raise DegeneracyError(f"the diagonal misses the interior of {simplex.members}")
    best, tied = None, False
    for j in range(r):
        if mu[j] > 0:
            if best is None:
                best = j
                continue
            diff = lam[j] * mu[best] - lam[best] * mu[j]
            if diff < 0:
                best, tied = j, False
            elif diff == 0:
                tied = True
    if tied:
        raise DegeneracyError(f"pivot of {simplex.members} with {p}: tied ratio test")
    leaving = simplex.members[best]
    if leaving.color != p.color:
        raise DegeneracyError(
            f"pivot of {simplex.members} with {p}: the exit facet drops {leaving} "
            "and lacks a color"
        )
    return simplex.replace(p)


def per_pair_outcomes(ps: PointSet, simplex: Transversal) -> list[tuple[PointId, str | None]]:
    """What :func:`pivot_generic` returns, from :func:`per_pair_pivot` on each
    point of the below set in turn."""
    outcomes = []
    for p in below_set(ps, simplex):
        try:
            assert per_pair_pivot(ps, simplex, p) == simplex.replace(p)
        except DegeneracyError as exc:
            outcomes.append((p, str(exc)))
        else:
            outcomes.append((p, None))
    return outcomes


def kernel_outcome(kernel, ps: PointSet, simplex: Transversal):
    """``kernel(ps, simplex)``, or the error the below set raised."""
    try:
        return kernel(ps, simplex)
    except (DegeneracyError, GeneralPositionError) as exc:
        return ("raises", type(exc).__name__, str(exc))


def fault_kind(fault: str | None) -> str:
    if fault is None:
        return "swap"
    return next(k for k in ("misses", "tied", "lacks a color") if k in fault)


def assert_batched_matches_per_pair(ps: PointSet) -> set[str]:
    """The batched outcomes of every transversal equal the per-pair ones,
    messages included; returns the outcome kinds met."""
    kinds = set()
    for S in transversals(ps):
        want = kernel_outcome(per_pair_outcomes, ps, S)
        assert kernel_outcome(pivot_generic, ps, S) == want, S.members
        if want and want[0] == "raises":
            kinds.add(want[1])
        else:
            kinds.update(fault_kind(fault) for _, fault in want)
    return kinds


@pytest.mark.parametrize("r,m", [(2, 4), (3, 2)])
def test_batched_pivot_matches_per_pair_on_mutants(r, m):
    """Every single-coordinate sign flip of the family: the same outcomes,
    or the same error from the below set."""
    base = gen_point_set(r, m)
    kinds = set()
    for pid in base.ids():
        for index, x in enumerate(base.coords(pid)):
            if x:
                kinds |= assert_batched_matches_per_pair(flip_tail_sign(base, pid, index))
    assert {"swap", "lacks a color"} <= kinds, kinds


def test_batched_pivot_matches_per_pair_on_random_sets():
    kinds = set()

    @settings(max_examples=300, deadline=None)
    @given(small_colored_sets())
    def check(ps):
        kinds.update(assert_batched_matches_per_pair(ps))

    check()
    assert {"swap", "misses", "lacks a color"} <= kinds, kinds


def test_one_elimination_per_transversal_with_points_below(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "pivotlab.geometry._eliminate", lambda rows: calls.append(rows) or _eliminate(rows)
    )
    ps = gen_point_set(2, 4)
    for S in transversals(ps):
        ps.normal(S.members)  # the hyperplane's own elimination, cached first
    for S in transversals(ps):
        before = len(calls)
        outcomes = pivot_generic(ps, S)
        assert len(calls) - before == (1 if below_set(ps, S) else 0)
        assert len(outcomes) == len(below_set(ps, S))
    assert any(not below_set(ps, S) for S in transversals(ps))


def facet_search_pivot(ps: PointSet, simplex: Transversal, p: PointId) -> Transversal:
    """Oracle for :func:`pivot_generic` with ``p`` strictly below the
    simplex: among the facets of the extended simplex that contain ``p``,
    insist that exactly one is pierced (each decided by the Caratheodory
    test) and return it."""
    pierced_facets = []
    for removed in simplex.members:
        facet = [pid for pid in simplex.members if pid != removed] + [p]
        if is_pierced_subset([ps.coords(pid) for pid in facet], ps.r):
            pierced_facets.append(facet)
    if len(pierced_facets) != 1:
        raise DegeneracyError(f"found {len(pierced_facets)} pierced facets")
    facet = pierced_facets[0]
    if sorted(pid.color for pid in facet) != list(range(1, ps.r + 1)):
        raise DegeneracyError(f"pierced facet {facet} lacks a color")
    return Transversal(tuple(sorted(facet)))


def fraction_ratio_pivot(ps: PointSet, simplex: Transversal, p: PointId) -> Transversal:
    """Reference for :func:`pivot_generic` with ``p`` strictly below the
    simplex: the same elimination, with the ratio test sorting the
    ``Fraction`` ratios ``lambda_j / mu_j``."""
    r = ps.r
    q = [ps.coords(x) for x in simplex.members]
    rows = [[*(x[t] for x in q), -1, 0, y] for t, y in enumerate(ps.coords(p))]
    rows.append([1] * r + [0, 1, 1])
    d, _, a = _eliminate(rows)
    lam, mu = [row[r + 1] for row in a], [row[r + 2] for row in a]
    if d < 0:
        lam, mu = [-x for x in lam], [-x for x in mu]
    if any(x <= 0 for x in lam[:r]):
        raise DegeneracyError(f"the diagonal misses the interior of {simplex.members}")
    ratios = sorted((Fraction(lam[j], mu[j]), j) for j in range(r) if mu[j] > 0)
    if len(ratios) > 1 and ratios[0][0] == ratios[1][0]:
        raise DegeneracyError(f"pivot of {simplex.members} with {p}: tied ratio test")
    leaving = simplex.members[ratios[0][1]]
    if leaving.color != p.color:
        raise DegeneracyError(
            f"pivot of {simplex.members} with {p}: the exit facet drops {leaving} "
            "and lacks a color"
        )
    return simplex.replace(p)


def pivot_outcome(pivot, ps, simplex, p):
    try:
        return pivot(ps, simplex, p)
    except DegeneracyError as exc:
        return ("raises", str(exc))


def swap_outcome(ps, simplex, p):
    """The batched kernel's verdict on ``p`` in :func:`pivot_outcome`'s form."""
    fault = dict(pivot_generic(ps, simplex))[p]
    return simplex.replace(p) if fault is None else ("raises", fault)


def test_pivot_color_swap_examples():
    ps = gen_point_set(2, 2)
    S = make_transversal(ps, [PointId(1, 2, 2), PointId(2, 2, 2)])
    for p, want in [
        (PointId(1, 2, 1), (PointId(1, 2, 1), PointId(2, 2, 2))),
        (PointId(2, 2, 1), (PointId(1, 2, 2), PointId(2, 2, 1))),
    ]:
        assert S.replace(p).members == want
        assert swap_outcome(ps, S, p).members == want


def test_pivot_monotonicity_witness():
    ps = gen_point_set(2, 2)
    S = make_transversal(ps, [PointId(1, 2, 2), PointId(2, 2, 2)])
    after = swap_outcome(ps, S, PointId(2, 2, 1))
    assert axis_intersections(ps, S) == (2, 2)
    assert axis_intersections(ps, after) == (2, 1)


def test_pivot_outcomes_list_the_below_set_in_order():
    """The kernel takes no point: it answers for exactly the points strictly
    below, in id order, and for no member or point above."""
    ps = gen_point_set(2, 3)
    for S in transversals(ps):
        below = below_set(ps, S)
        assert [p for p, _ in pivot_generic(ps, S)] == list(below)
        assert list(below) == sorted(below)
        assert all(side_of(ps, S, p) is Side.BELOW for p in below)
    # the inner layer sits above the outer simplex: members and points above
    # are left out
    S = make_transversal(ps, [PointId(1, 2, 3), PointId(2, 2, 3)])
    assert [p for p, _ in pivot_generic(ps, S)] == [
        PointId(1, 2, 1), PointId(1, 2, 2), PointId(2, 2, 1), PointId(2, 2, 2),
    ]
    sink = make_transversal(ps, [PointId(1, 2, 1), PointId(2, 2, 1)])
    assert pivot_generic(ps, sink) == [] == list(below_set(ps, sink))


@pytest.mark.parametrize(
    "r,m,augment",
    [
        pytest.param(r, m, augment, id=f"{r}-{m}" + ("-augmented" if augment else ""))
        for r, m in [(1, 4), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3)]
        for augment in (False, True)
    ],
)
def test_pivot_generic_agrees_with_swap_exhaustive(r, m, augment):
    """On the family, plain and augmented, every pivot is the color swap, as
    the batched kernel and the per-pair oracle both find."""
    ps = gen_point_set(r, m)
    assert assert_batched_matches_per_pair(ps.augmented() if augment else ps) == {"swap"}


@st.composite
def small_colored_sets(draw) -> PointSet:
    """1-3 points per color with distinct coordinates in [-4, 6], r in {2, 3}."""
    r = draw(st.sampled_from([2, 3]))
    sizes = [draw(st.integers(1, 3)) for _ in range(r)]
    coords = draw(
        st.lists(
            st.tuples(*[st.integers(-4, 6)] * r),
            min_size=sum(sizes),
            max_size=sum(sizes),
            unique=True,
        )
    )
    it = iter(coords)
    points = {
        PointId(i, r, k): next(it)
        for i, size in enumerate(sizes, start=1)
        for k in range(1, size + 1)
    }
    return PointSet(r, 3, points)


def test_pivot_generic_matches_facet_search_oracle():
    """On every simplex with a valid hyperplane and no pierced proper
    subset, and every point below it, the ratio test and the facet search
    return the same transversal or both find a degeneracy."""
    returned = []

    @settings(max_examples=300, deadline=None)
    @given(small_colored_sets())
    def check(ps):
        for S in transversals(ps):
            try:
                hyperplane_coefficients(ps, S)
            except DegeneracyError:
                continue
            coords = [ps.coords(q) for q in S.members]
            if any(
                is_pierced_subset(sub, ps.r)
                for size in range(1, ps.r)
                for sub in combinations(coords, size)
            ):
                continue
            try:
                outcomes = pivot_generic(ps, S)
            except GeneralPositionError:
                continue
            for p, fault in outcomes:
                try:
                    want = facet_search_pivot(ps, S, p)
                except DegeneracyError:
                    assert fault is not None
                    continue
                assert fault is None and S.replace(p) == want
                returned.append(want)

    check()
    assert returned, "no draw reached a well-defined pivot"


def test_pivot_generic_matches_fraction_ratio_test():
    """On every simplex with a valid hyperplane and every point below it,
    the cross-multiplied ratio test returns what the ``Fraction`` sort
    returned, or names the same fault."""
    outcomes = set()

    @settings(max_examples=200, deadline=None)
    @given(small_colored_sets())
    def check(ps):
        for S in transversals(ps):
            try:
                hyperplane_coefficients(ps, S)
            except DegeneracyError:
                continue
            try:
                faults = pivot_generic(ps, S)
            except GeneralPositionError:
                continue
            for p, fault in faults:
                want = pivot_outcome(fraction_ratio_pivot, ps, S, p)
                assert (S.replace(p) if fault is None else ("raises", fault)) == want
                outcomes.add(want[0] if isinstance(want, tuple) else "pivot")

    check()
    assert "pivot" in outcomes and "raises" in outcomes, outcomes


def test_pivot_generic_tied_ratio_raises():
    # p sits on the diagonal below the simplex, so the point of aff(S) on the
    # diagonal through p is where the diagonal crosses S: lambda == mu and
    # both members tie at ratio 1
    ps = PointSet(2, 3, {
        PointId(1, 2, 1): (2, 0),
        PointId(1, 2, 2): (0, 0),
        PointId(2, 2, 1): (0, 2),
    })
    S = make_transversal(ps, [PointId(1, 2, 1), PointId(2, 2, 1)])
    p = PointId(1, 2, 2)
    assert side_of(ps, S, p) is Side.BELOW
    (outcome,) = pivot_generic(ps, S)
    assert outcome == (p, f"pivot of {S.members} with {p}: tied ratio test")
    for pivot in (per_pair_pivot, fraction_ratio_pivot):
        with pytest.raises(DegeneracyError, match="tied ratio test"):
            pivot(ps, S, p)


# ---------------------------------------------------------------------------
# transversal plumbing
# ---------------------------------------------------------------------------


def test_make_transversal_validation():
    ps = gen_point_set(2, 2)
    with pytest.raises(ValueError, match="one point per color"):
        make_transversal(ps, [PointId(1, 1, 1), PointId(1, 2, 1)])
    with pytest.raises(ValueError, match="exactly 2"):
        make_transversal(ps, [PointId(1, 1, 1)])
    with pytest.raises(ValueError, match="not a member"):
        make_transversal(ps, [PointId(1, 1, 1), PointId(2, 2, 9)])


def test_transversal_count_matches_enumeration():
    for r, m in [(2, 3), (3, 2)]:
        ps = gen_point_set(r, m)
        assert ps.transversal_count() == len(list(transversals(ps)))


# ---------------------------------------------------------------------------
# deep projection & mutation
# ---------------------------------------------------------------------------


def test_project_deep_small_example():
    B = project_deep(2, 3, 1)
    assert sorted(B.coords(p)[0] for p in B) == [31, 32, 33]
    assert {p.layer for p in B} == {1}


def test_project_deep_cardinality_and_labels():
    B = project_deep(3, 3, 2)
    A = gen_point_set(2, 3)
    assert len(B) == len(A)
    assert B.ids() == A.ids()


def test_project_deep_validation():
    with pytest.raises(ValueError):
        project_deep(2, 3, 2)
    with pytest.raises(ValueError):
        project_deep(3, 2, 2)


def flip_tail_sign(point_set: PointSet, pid: PointId, coord_index: int) -> PointSet:
    """Copy of the set with one coordinate's sign flipped on one point.

    Deliberate fault injection: used to confirm the verification suite
    actually rejects broken sets.
    """
    coords = point_set.coords(pid)
    if not 0 <= coord_index < len(coords):
        raise ValueError("coordinate index out of range")
    if coords[coord_index] == 0:
        raise ValueError("flipping a zero coordinate changes nothing")
    mutated = list(coords)
    mutated[coord_index] = -mutated[coord_index]
    points = {q: point_set.coords(q) for q in point_set.ids()}
    points[pid] = tuple(mutated)
    return PointSet(point_set.r, point_set.m, points, alphas=point_set.alphas)


def test_flip_tail_sign():
    ps = gen_point_set(2, 4)
    pid = PointId(1, 1, 1)
    mutated = flip_tail_sign(ps, pid, 1)
    assert mutated.coords(pid)[1] == -ps.coords(pid)[1]
    with pytest.raises(ValueError, match="zero coordinate"):
        flip_tail_sign(ps, PointId(1, 2, 1), 1)


def test_serialization_shapes():
    ps = gen_point_set(2, 2).augmented([4, 3])
    blob = ps.to_json_dict()
    assert blob["alphas"] == [4, 3]
    assert all(isinstance(p["coords"][0], str) for p in blob["points"])
    rows = ps.to_csv_rows()
    assert rows[0] == ["i", "j", "k", "x1", "x2"]
    assert len(rows) == len(ps) + 1
