"""Exact-integer point families around one requirement line, with exact
geometric predicates.

The construction lives in ``Z^r``: every point has exactly one positive
coordinate (its *color* index), carries a *layer* index ``j`` that fixes its
trailing tail of negative powers of ``m``, and a *phase* index ``k``.  Points
of the outermost layer ``j == r`` sit on the coordinate axes as ``k * e_i``.
The requirement line is the diagonal ``R * (1, ..., 1)``; a subset is
*pierced* when its convex hull meets that line, and a pierced set with one
point per color is a *transversal* (a pierced simplex).

Every predicate here is decided exactly, in Python ints: coordinates reach
``m**(2r-1)`` and determinants multiply ``r`` of them, so nothing is ever
narrowed to a fixed width.  A family point is zero before its color, so a
transversal's rows, in color order, are upper triangular and its spanning
hyperplane follows by back-substitution (:meth:`PointSet.normal`).  Every
other linear solve runs on the fraction-free elimination
:func:`_eliminate`: the hyperplane of any other member tuple is one
elimination, a transversal's ratio-test pivot one more, of its members
beside the identity, for every point below it, and the piercing tests
carry one elimination from each head to its extensions, one pivot step
per head (:func:`pierced_heads`).  The side test, the pivot and the
piercing test are integer sign tests on those results, and a point set
caches each transversal's hyperplane and below set.  A point set splits
into runs, each of one color ``c`` and rising along ``e_c`` (on the
families, a color and layer class), and every hyperplane here rises along
each axis, so :func:`below_set` bisects each run with the side test: the
points below are a prefix, and the one point that could lie on the
hyperplane is the first past it, which the bisection always probes.  The
Caratheodory test of a subset is the piercing test on each of its subsets
of at most ``r`` points.  ``Fraction`` appears only in the values handed
back (hyperplane coefficients and solutions).  Floats never participate in
a geometric decision.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegeneracyError, GeneralPositionError

__all__ = [
    "Coords",
    "PointId",
    "PointSet",
    "Side",
    "Transversal",
    "below_set",
    "gen_point",
    "gen_point_set",
    "hyperplane_coefficients",
    "is_pierced_subset",
    "make_transversal",
    "pierced_heads",
    "pivot_generic",
    "project_deep",
    "side_of",
    "solve_exact",
    "transversals",
]

Coords = tuple[int, ...]


# ---------------------------------------------------------------------------
# small exact linear algebra (dense, tiny systems)
# ---------------------------------------------------------------------------


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix of any
    shape.

    Returns ``(d, pivots, a)``: ``a / d`` is the reduced row echelon form,
    ``pivots`` lists its pivot columns (a column without a pivot is skipped)
    and every pivot row has ``a[i][pivots[i]] == d``.  ``d`` is the last
    pivot (1 if there is none), so for a nonsingular square ``A`` it is
    ``det(A)`` up to sign (row swaps flip it).  Every division is exact by
    Sylvester's identity (Bareiss, Math. Comp. 22, 1968), so all entries
    stay Python ints bounded by minors of the input.
    """
    a = [list(row) for row in rows]
    d = 1
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
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


def _integer_row(row: Iterable[int | Fraction]) -> list[int]:
    """``row`` scaled by the lcm of its denominators: the same equation in
    Python ints."""
    row = list(row)
    scale = lcm(*(x.denominator for x in row))
    return [int(x * scale) for x in row]


def solve_exact(
    a: Iterable[Iterable[int | Fraction]], b: Iterable[int | Fraction]
) -> tuple[str, list[Fraction] | None]:
    """Solve ``A x = b`` exactly.

    Returns ``("unique", x)``, ``("inconsistent", None)`` or
    ``("underdetermined", None)``.  Handles any shape; tiny systems only.
    """
    rows = [list(row) for row in a]
    rhs = list(b)
    if not rows:
        return ("unique", []) if all(x == 0 for x in rhs) else ("inconsistent", None)
    ncols = len(rows[0])
    d, pivots, red = _eliminate([_integer_row([*row, v]) for row, v in zip(rows, rhs)])
    if ncols in pivots:
        return ("inconsistent", None)
    if len(pivots) < ncols:
        return ("underdetermined", None)
    return ("unique", [Fraction(row[ncols], d) for row in red[:ncols]])


# ---------------------------------------------------------------------------
# point identities and the coordinate formula
# ---------------------------------------------------------------------------


class PointId(namedtuple("PointId", "color layer phase")):
    """Label of a point: color ``i``, layer ``j`` (``i <= j``), phase ``k``.

    Adversary points use phase ``m + 1`` and always sit in the outermost
    layer; that contextual rule is enforced where ``m`` is known.

    A named tuple, so hashing, equality and the ``(color, layer, phase)``
    order run in C on every cache lookup; a ``PointId`` therefore equals
    (and hashes as) the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, color: int, layer: int, phase: int) -> "PointId":
        if color < 1 or layer < color or phase < 1:
            raise ValueError(
                f"invalid point id PointId(color={color!r}, layer={layer!r}, phase={phase!r})"
            )
        return super().__new__(cls, color, layer, phase)


def gen_point(r: int, m: int, pid: PointId, alpha: int | None = None) -> Coords:
    """Exact coordinates of the point labelled ``pid`` in the ``(r, m)``
    family.

    Layer ``r`` points are ``k * e_i``; any other layer ``j`` has positive
    entry ``(m**3 + m**5 + ... + m**(2(r-j)+1)) + (r-j)*m + k`` at the color
    index followed by the tail ``-m**(2(r-j)+1), ..., -m**5, -m**3``.
    Adversary points (phase ``m + 1``) need an explicit ``alpha``.
    """
    i, j, k = pid.color, pid.layer, pid.phase
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    if not (1 <= i <= j <= r):
        raise ValueError(f"point id {pid} out of range for dimension {r}")
    if k == m + 1:
        if j != r:
            raise ValueError("adversary points live in the outermost layer")
        if alpha is None:
            raise ValueError(f"adversary point {pid} needs a configured alpha")
        if alpha < m:
            raise ValueError(f"adversary alpha {alpha} below the minimum {m}")
        return tuple(alpha if t == i else 0 for t in range(1, r + 1))
    if not 1 <= k <= m:
        raise ValueError(f"phase {k} out of range for m={m}")
    if j == r:
        return tuple(k if t == i else 0 for t in range(1, r + 1))
    tail_exponents = [2 * (r - j) + 1 - 2 * s for s in range(r - j)]
    positive = sum(m**e for e in tail_exponents) + (r - j) * m + k
    coords = [0] * r
    coords[i - 1] = positive
    for pos, e in zip(range(j, r), tail_exponents):
        coords[pos] = -(m**e)
    return tuple(coords)


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------


class PointSet:
    """An immutable labelled point set in ``Z^r``.

    Usually built by :func:`gen_point_set` (the standard family) or
    :func:`project_deep`; arbitrary labelled sets are accepted for fault
    injection, but no general-position repair is attempted.

    The sorted ids split once into maximal *runs* of consecutive ids that
    have one color ``c``, agree in every coordinate but ``c`` and strictly
    rise in it, which :func:`below_set` bisects.  On the families a run is
    a (color, layer) class, and an adversary point joins its outer class
    (``alpha > m``); a point that breaks a class, such as a mutant's, is a
    run of its own and costs one side test.  Every hyperplane that
    :meth:`normal` accepts rises along every run, so a run holds at most
    one point on it, the first past the run's below prefix, which the
    bisection always probes: general position is still decided.
    """

    def __init__(
        self,
        r: int,
        m: int,
        points: Mapping[PointId, Coords],
        alphas: tuple[int, ...] | None = None,
    ) -> None:
        if r < 1 or m < 1:
            raise ValueError("need r >= 1 and m >= 1")
        self.r = r
        self.m = m
        self.alphas = alphas
        self._points: dict[PointId, Coords] = dict(points)
        self._ids = tuple(sorted(self._points))
        seen: dict[Coords, PointId] = {}
        # the colors of a tuple whose rows are upper triangular, for normal()
        # to back-substitute; None once some point is nonzero before its color
        self._triangular: list[int] | None = list(range(1, r + 1))
        for pid, xs in self._points.items():
            if len(xs) != r:
                raise ValueError(f"point {pid} has {len(xs)} coordinates, want {r}")
            if xs in seen:
                raise ValueError(f"points {seen[xs]} and {pid} coincide at {xs}")
            seen[xs] = pid
            if any(xs[: pid.color - 1]):
                self._triangular = None
        self._colors: dict[int, tuple[PointId, ...]] = {
            i: tuple(p for p in self._ids if p.color == i) for i in range(1, r + 1)
        }
        # maximal runs of consecutive ids of one color c that agree off
        # coordinate c and strictly rise in it, for below_set to bisect, and
        # each id's (run, place)
        runs: list[list[PointId]] = []
        for pid in self._ids:
            xs, c = self._points[pid], pid.color - 1
            if runs and runs[-1][-1].color == pid.color:
                ys = self._points[runs[-1][-1]]
                if ys[c] < xs[c] and ys[:c] == xs[:c] and ys[c + 1 :] == xs[c + 1 :]:
                    runs[-1].append(pid)
                    continue
            runs.append([pid])
        self._runs = [tuple(run) for run in runs]
        self._run_at = {p: (k, i) for k, run in enumerate(self._runs) for i, p in enumerate(run)}
        self._normals: dict[tuple[PointId, ...], tuple[Coords, int]] = {}
        self._below: dict[tuple[PointId, ...], tuple[PointId, ...]] = {}

    # -- construction ------------------------------------------------------

    def augmented(self, alphas: Iterable[int] | None = None) -> "PointSet":
        """Add one adversary point per axis (phase ``m + 1``).

        Defaults to ``alpha_i = m + 1`` everywhere: values below ``m`` are
        invalid, and ``alpha_i == m`` would coincide with the on-axis point of
        phase ``m``, so every ``alpha_i`` must be at least ``m + 1``.
        """
        if self.alphas is not None:
            raise ValueError("point set is already augmented")
        chosen = tuple(alphas) if alphas is not None else (self.m + 1,) * self.r
        if len(chosen) != self.r:
            raise ValueError(f"need {self.r} alphas, got {len(chosen)}")
        if (low := min(chosen)) <= self.m:
            raise ValueError(f"adversary alpha {low} below the minimum {self.m + 1}")
        points = dict(self._points)
        for i in range(1, self.r + 1):
            pid = PointId(i, self.r, self.m + 1)
            points[pid] = gen_point(self.r, self.m, pid, alpha=chosen[i - 1])
        return PointSet(self.r, self.m, points, alphas=chosen)

    # -- access ------------------------------------------------------------

    @property
    def is_augmented(self) -> bool:
        return self.alphas is not None

    def ids(self) -> tuple[PointId, ...]:
        return self._ids

    def coords(self, pid: PointId) -> Coords:
        return self._points[pid]

    def color_class(self, i: int) -> tuple[PointId, ...]:
        return self._colors[i]

    def normal(self, members: tuple[PointId, ...]) -> tuple[Coords, int]:
        """Integer pair ``(n, d)`` of the hyperplane ``n . x == d`` spanned
        by ``members`` (one per color), with ``d > 0`` and every ``n_i > 0``.

        Cached on the set: ``c = n / d``.  When the member in position ``c``
        has color ``c`` and every point of the set is zero before its color,
        the rows ``A`` are upper triangular with diagonal ``P``, so ``d =
        det A = prod P_c`` and ``n_c = (d - sum_{j > c} a_cj n_j) / P_c``,
        each division exact by Cramer's rule (``n = adj(A) 1``); any other
        tuple takes one fraction-free elimination of ``[A | 1]``.  A
        singular system, a coefficient of zero, or a nonpositive axis
        intersection all violate general position and raise
        :class:`DegeneracyError`; on the standard families this indicates a
        construction bug.
        """
        cached = self._normals.get(members)
        if cached is not None:
            return cached
        if [p.color for p in members] == self._triangular:
            span = self._back_substituted(members)
        else:
            span = self._span(members)
        if span is None:
            raise DegeneracyError(
                f"spanning system of {members} is singular; the simplex is degenerate"
            )
        n, d = span
        if 0 in n:
            raise DegeneracyError(f"hyperplane of {members} is parallel to a coordinate axis")
        if any(x < 0 for x in n):
            raise DegeneracyError(
                f"hyperplane of {members} meets an axis on the negative side"
            )
        pair = (tuple(n), d)
        self._normals[members] = pair
        return pair

    def _back_substituted(self, members: tuple[PointId, ...]) -> tuple[list[int], int] | None:
        """:meth:`_span` of upper-triangular rows, by back-substitution."""
        rows = [self._points[p] for p in members]
        d = 1
        for c, row in enumerate(rows):
            d *= row[c]
        if not d:
            return None
        n: list[int] = []
        for c in range(len(rows) - 1, -1, -1):
            row = rows[c]
            n.insert(0, (d - sum(map(mul, row[c + 1 :], n))) // row[c])
        return (n, d) if d > 0 else ([-x for x in n], -d)

    def _span(self, members: tuple[PointId, ...]) -> tuple[list[int], int] | None:
        """``(n, d)`` with ``d > 0`` from one fraction-free elimination of
        ``[A | 1]``, unchecked; ``None`` when ``A`` is singular."""
        d, pivots, a = _eliminate([[*self._points[p], 1] for p in members])
        if pivots != list(range(len(members))):
            return None
        n = [row[-1] for row in a]
        return (n, d) if d > 0 else ([-x for x in n], -d)

    def layer_members(self, j: int) -> tuple[PointId, ...]:
        return tuple(p for p in self.ids() if p.layer == j)

    def transversal_count(self) -> int:
        count = 1
        for i in range(1, self.r + 1):
            count *= len(self._colors[i])
        return count

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, pid: PointId) -> bool:
        return pid in self._points

    def __iter__(self) -> Iterator[PointId]:
        return iter(self.ids())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f", alphas={self.alphas}" if self.is_augmented else ""
        return f"PointSet(r={self.r}, m={self.m}, n={len(self)}{tag})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "m": self.m,
            "alphas": list(self.alphas) if self.alphas else None,
            "points": [
                {
                    "i": pid.color,
                    "j": pid.layer,
                    "k": pid.phase,
                    "coords": [str(c) for c in self.coords(pid)],
                }
                for pid in self.ids()
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        header = ["i", "j", "k"] + [f"x{t}" for t in range(1, self.r + 1)]
        rows = [header]
        for pid in self.ids():
            rows.append(
                [str(pid.color), str(pid.layer), str(pid.phase)]
                + [str(c) for c in self.coords(pid)]
            )
        return rows


def _family_ids(r: int, m: int) -> Iterator[PointId]:
    """The labels of the ``(r, m)`` family: color ``i <= j <= r`` (layer
    ``j``) and phase ``k <= m``."""
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            for k in range(1, m + 1):
                yield PointId(i, j, k)


def gen_point_set(r: int, m: int) -> PointSet:
    """The standard ``(r, m)`` family: point ``(i, j, k)`` for every color
    ``i <= j <= r`` (layer ``j``) and phase ``k <= m``, at :func:`gen_point`.

    Not in general position at ``(5, 2)``, where (1,5,2) lies on the hyperplane
    of (1,1,2), (2,5,2), ..., (5,5,1), nor at ``(6, 2)``, where (2,2,2) lies on
    that of (1,1,1), (2,6,2), ..., (6,6,1).  A passing ``verify lemmas --r R
    --m M`` proves, exhaustively at that size, what :func:`below_set` enforces
    here: no point lies on the hyperplane of a transversal it is not in.
    Bisection still decides that: a run, a (color, layer) class here, holds
    at most one point on a hyperplane, the first past its below prefix, and
    the bisection always probes that point."""
    return PointSet(r, m, {pid: gen_point(r, m, pid) for pid in _family_ids(r, m)})


def project_deep(R: int, m: int, r: int) -> PointSet:
    """Drop the outer layers of the ``(R, m)`` family and truncate to the
    first ``r`` coordinates, keeping the original labels.

    The result behaves like the ``(r, m)`` family with all phases shifted by
    a common offset; the verification suite runs on it unchanged.
    """
    if not (R > r >= 1):
        raise ValueError("need R > r >= 1")
    if m < 3:
        raise ValueError("the projection argument needs m >= 3")
    return PointSet(r, m, {pid: gen_point(R, m, pid)[:r] for pid in _family_ids(r, m)})


# ---------------------------------------------------------------------------
# transversals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Transversal:
    """One point per color, ordered by color.  Identity is the member tuple;
    axis intersections are derived from the hyperplane cached on the owning
    point set (:meth:`PointSet.normal`).  Slotted: the exact compile keeps
    one per state while it runs."""

    members: tuple[PointId, ...]

    def replace(self, point: PointId) -> "Transversal":
        members = list(self.members)
        members[point.color - 1] = point
        return Transversal(tuple(members))


def make_transversal(point_set: PointSet, ids: Iterable[PointId]) -> Transversal:
    chosen = sorted(ids)
    if len(chosen) != point_set.r:
        raise ValueError(f"a transversal needs exactly {point_set.r} points")
    for color, pid in enumerate(chosen, start=1):
        if pid not in point_set:
            raise ValueError(f"{pid} is not a member of the point set")
        if pid.color != color:
            raise ValueError("a transversal needs exactly one point per color")
    return Transversal(tuple(chosen))


def transversals(point_set: PointSet) -> Iterator[Transversal]:
    """All transversals, in deterministic (color-sorted member) order."""
    classes = [point_set.color_class(i) for i in range(1, point_set.r + 1)]
    for members in product(*classes):
        yield Transversal(members)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


class Side(IntEnum):
    BELOW = -1
    ON = 0
    ABOVE = 1


# side_of and below_set read these globals: on Python 3.11 reading a member off
# the enum class takes about 0.2 us, ten times a global read
_BELOW, _ON, _ABOVE = Side.BELOW, Side.ON, Side.ABOVE


def pierced_heads(
    points: Sequence[Coords], size: int
) -> Iterator[tuple[tuple[int, ...], list[bool]]]:
    """For every head of ``size - 1`` indices into ``points``, in
    ``combinations(range(len(points) - 1), size - 1)`` order, the head and,
    for each later point ``p``, whether the diagonal line meets the hull of
    exactly the points ``[*head, p]`` with unique, nonnegative barycentric
    weights: whether the integer system ``[P | 0], [1 ... 1 | 1]`` in those
    points projected along the diagonal (consecutive coordinate
    differences) has a unique, nonnegative solution.

    The heads are walked depth first, and the fraction-free elimination of
    a head (the steps of :func:`_eliminate`, pivoting in the head's columns
    in order) is its parent's with one more pivot step, kept only on the
    right-hand side and the later points' columns: each step is exact by
    Sylvester's identity, so every kept entry is the one a fresh
    elimination of the head would give.  A head whose new column has no
    pivot is dependent, and so is every head extending it: they pierce
    with no candidate.  Otherwise, below the head's pivot rows, ``[*head,
    p]`` has a unique solution when ``p``'s residual column ``g`` is
    nonzero and the right-hand side's residual ``b`` is ``x`` times it, ``x
    = b_i / g_i`` being ``p``'s weight; a head row with right-hand side
    ``y`` and ``p``'s entry ``c`` then gives the weight ``(g_i y - b_i c) /
    (g_i d)``.  So each candidate takes ``O(r)`` integer steps.
    """
    k, n = size - 1, len(points)

    def walk(a: list[list[int]], d: int, head: tuple[int, ...]):
        # a holds the right-hand side, then the points from `first` on
        depth, first = len(head), head[-1] + 1 if head else 0
        if depth == k:
            yield head, _simplex_flags(a, d, k)
            return
        for i in range(first, n - k + depth):
            c = i - first + 1
            col = [row[c] for row in a]
            pivot = next((j for j in range(depth, len(a)) if col[j]), None)
            if pivot is None:
                for rest in combinations(range(i + 1, n - 1), k - depth - 1):
                    full = (*head, i, *rest)
                    yield full, [False] * (n - 1 - full[-1])
                continue
            kept = [[row[0], *row[c + 1 :]] for row in a]
            kept[depth], kept[pivot] = kept[pivot], kept[depth]
            col[depth], col[pivot] = col[pivot], col[depth]
            top, p = kept[depth], col[depth]
            for j, f in enumerate(col):
                if j != depth:
                    kept[j] = [(p * x - f * y) // d for x, y in zip(kept[j], top)]
            yield from walk(kept, p, (*head, i))

    dim = len(points[0]) - 1 if points else 0
    rows = [[0, *(u[t] - u[t + 1] for u in points)] for t in range(dim)]
    rows.append([1] * (n + 1))
    yield from walk(rows, 1, ())


def _simplex_flags(a: list[list[int]], d: int, k: int) -> list[bool]:
    """The candidates' verdicts of :func:`pierced_heads` from a head's
    reduced matrix ``a`` (``k`` pivot rows, last pivot ``d``), whose first
    column is the right-hand side and each later one a candidate's."""
    rhs, *cols = zip(*a)
    top_rhs, rhs = rhs[:k], rhs[k:]
    out = []
    for col in cols:
        bottom = col[k:]
        i = next((i for i, g in enumerate(bottom) if g), None)
        if i is None:
            out.append(False)
            continue
        g, b = bottom[i], rhs[i]
        gd = g * d
        out.append(
            b * g >= 0
            and all(y * g == b * x for x, y in zip(bottom, rhs))
            and all((g * y - b * x) * gd >= 0 for y, x in zip(top_rhs, col))
        )
    return out


def is_pierced_subset(points: Iterable[Coords], r: int) -> bool:
    """Exact test of whether the convex hull meets the diagonal line: by
    Caratheodory, whether some subset of at most ``r`` points is a pierced
    simplex.  The subsets of each size are met head by head, a head being
    all but the last point, through the carried eliminations of
    :func:`pierced_heads`."""
    pts = list(points)
    if any(len(x) != r for x in pts):
        raise ValueError(f"points must have {r} coordinates")
    return any(
        any(flags)
        for size in range(1, min(len(pts), r) + 1)
        for _, flags in pierced_heads(pts, size)
    )


def hyperplane_coefficients(
    point_set: PointSet, simplex: Transversal
) -> tuple[Fraction, ...]:
    """Coefficients ``c = n / d`` of the spanning hyperplane ``c . x == 1``,
    from the cached integer pair of :meth:`PointSet.normal` (which raises
    :class:`DegeneracyError` off general position)."""
    n, d = point_set.normal(simplex.members)
    return tuple(Fraction(x, d) for x in n)


def side_of(point_set: PointSet, simplex: Transversal, x: PointId) -> Side:
    """Exact side of the point labelled ``x`` relative to the simplex's
    spanning hyperplane, oriented so the diagonal direction points to
    ``ABOVE``: the sign of ``n . x - d`` for the integer pair of
    :meth:`PointSet.normal`, whose ``d > 0`` fixes the orientation."""
    members = simplex.members
    n, d = point_set._normals.get(members) or point_set.normal(members)
    value = sum(map(mul, n, point_set._points[x])) - d
    if value > 0:
        return _ABOVE
    if value < 0:
        return _BELOW
    return _ON


def below_set(point_set: PointSet, simplex: Transversal) -> tuple[PointId, ...]:
    """All points strictly below the simplex, in id order; members are never
    included.  Cached on the set, so each transversal's side tests run
    once; a raise is not cached, and is raised again on the next call.

    Found run by run (:class:`PointSet`).  :meth:`PointSet.normal` refuses
    any ``n_c <= 0``, so ``n . x - d`` strictly rises along a run of color
    ``c``: its points below are a prefix, and only the first point past
    that prefix can lie on the hyperplane.  A run holding a member, the
    run's zero, gives the ids before it with no side test.  Any other run
    is bisected with :func:`side_of`, whose probes always include that
    first point past the prefix, so every point on the hyperplane is still
    found.  A run of ``k`` points costs ``ceil(log2(k + 1))`` side tests.

    On an unaugmented set a non-member lying exactly on the hyperplane
    raises, the first in id order: on the standard families that cannot
    happen, so it signals a broken set.  An augmented set tolerates such
    points, because an adversary hyperplane may pass exactly through
    inner-layer points (equal ``alpha_i = m + 1`` gives the start
    hyperplane coordinate-sum ``m + 1``, which phase-1 inner points hit);
    they are simply not below, which is all the pivot draw ever asks.
    """
    members = simplex.members
    cached = point_set._below.get(members)
    if cached is not None:
        return cached
    if len(point_set) > len(members):
        point_set.normal(members)  # every n_c > 0, or a DegeneracyError
    strict = not point_set.is_augmented
    # the run of each member and its place there
    tops = dict(map(point_set._run_at.__getitem__, members))
    below: list[PointId] = []
    for k, run in enumerate(point_set._runs):
        top = tops.get(k)
        if top is None:
            # the first point of the run not below, and its side
            top, hi, side = 0, len(run), _ABOVE
            while top < hi:
                mid = (top + hi) // 2
                probe = side_of(point_set, simplex, run[mid])
                if probe is _BELOW:
                    top = mid + 1
                else:
                    hi, side = mid, probe
            if side is _ON and strict:
                raise GeneralPositionError(f"{run[top]} lies on the hyperplane of {members}")
        below += run[:top]
    point_set._below[members] = result = tuple(below)
    return result


# ---------------------------------------------------------------------------
# pivoting
# ---------------------------------------------------------------------------


def pivot_generic(
    point_set: PointSet, simplex: Transversal
) -> list[tuple[PointId, str | None]]:
    """Pivot by the ratio test of the extended simplex ``S + p`` for every
    point ``p`` of :func:`below_set`, in its order.  Each ``p`` comes with
    ``None`` when the exit is the process's color swap ``S.replace(p)``, or
    else with the degeneracy that makes the two disagree.

    ``lambda`` are the weights of the point where the diagonal crosses
    ``S``, and ``mu`` those of the point of ``aff(S)`` on the diagonal
    through ``p``.  With the members ``q_1..q_r`` as columns of ``Q``, one
    fraction-free elimination (:func:`_eliminate`) of ``[Q | I]`` gives
    ``adj(Q)`` up to sign; with the hyperplane ``n . x == d`` that
    :func:`below_set` read, ``u = adj(Q) 1``, ``N = sum(n)`` and ``M = N
    adj(Q) - u n^T``, ``lambda`` is ``d u`` and ``mu`` is ``M p + d u``, as
    integer numerators over one positive denominator ``N |det(Q)|``.  Signs are
    read off the numerators, and ratios are compared by cross-multiplying
    them, so the test builds no ``Fraction``.  Sliding the crossing down
    the diagonal toward ``p`` moves the weights along ``-mu``, so the
    member with the least ``lambda_j / mu_j`` over ``mu_j > 0`` (some
    ``mu_j`` is, as they sum to one) reaches zero first and leaves.

    A weight ``lambda_j <= 0`` (the line misses the open simplex, whatever
    ``p``), a tied least ratio (it leaves through a lower face) or a
    leaving member of another color than ``p`` (the ratio test disagrees
    with the swap) is a degeneracy.
    """
    below = below_set(point_set, simplex)
    if not below:
        return []
    # the side test found n.x == d with d > 0 and every n_i > 0: the members are
    # linearly independent, so [Q | I] reduces to [e I | e Q^-1] with e = +-det Q
    r = point_set.r
    n, d = point_set.normal(simplex.members)
    q = [point_set.coords(x) for x in simplex.members]
    rows = [[*(x[t] for x in q), *(int(t == s) for s in range(r))] for t in range(r)]
    e, _, a = _eliminate(rows)
    # scaled by sign(e), the numerators keep the signs of lambda_j and mu_j,
    # and lambda_j / mu_j == lam[j] / mu[j]
    sign = 1 if e > 0 else -1
    u = [sum(row[r:]) for row in a]
    lam = [sign * d * x for x in u]
    if any(x <= 0 for x in lam):
        return [(p, f"the diagonal misses the interior of {simplex.members}") for p in below]
    total = sum(n)
    slope = [[sign * (total * w - x * c) for w, c in zip(row[r:], n)] for row, x in zip(a, u)]
    outcomes = []
    for p in below:
        y = point_set.coords(p)
        mu = [sum(map(mul, row, y)) + x for row, x in zip(slope, lam)]
        # the least lam[j] / mu[j] over mu[j] > 0, compared by cross-multiplying
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
            fault = "tied ratio test"
        elif simplex.members[best].color != p.color:
            fault = f"the exit facet drops {simplex.members[best]} and lacks a color"
        else:
            fault = None
        outcomes.append((p, fault and f"pivot of {simplex.members} with {p}: {fault}"))
    return outcomes
