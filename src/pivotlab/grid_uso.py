"""Comb orientations of grid graphs and their directed random walks.

A grid is the Cartesian product of complete graphs ``K_{m_1} x ... x K_{m_r}``:
vertices are coordinate tuples (1-based entries), and two vertices are adjacent
iff they differ in exactly one coordinate.  The *comb orientation* assigns the
values of the last factor a permutation of ranks, directs every edge between
two hyperplanes toward the endpoint whose last coordinate has the smaller
rank, and recurses independently inside each hyperplane.  Every orientation
built this way is acyclic and has a unique sink in every subgrid.

The orientation can be augmented with a terminal vertex reachable through
``delta`` parallel escape edges from every grid vertex (one edge from each
sink if ``delta`` is zero), turning the walk into an absorbing chain whose
expected absorption time this module computes exactly over the rationals.
The escape edges are counted by :func:`chain.escape_weight`, never listed,
and a walk records an escape as ``None``.

A vertex's out-arcs are changes of its id (mixed radix, first coordinate
fastest: the number a uniform start draws).  Along each axis, last first,
they are ``(w - c) * stride`` for each value ``w`` ranked below the vertex's
coordinate ``c`` at its comb node, ascending, ``stride`` being the vertex
count of one hyperplane of that node.  :func:`_moves` builds them from the
ranks on a vertex's first visit and keeps them on the comb, its one arc
cache; every later read returns the kept tuple.  :func:`walk` steps by
adding the drawn change to the id and decodes coordinates only to record
them; :func:`out_neighbors` decodes the same changes into target tuples.
So a walk draws exactly as it would over :func:`out_neighbors`, and a fresh
comb per trial fills only what its one walk visits.  The exact solve
compiles the comb once into a :class:`chain.Chain` over the same vertex
ids, kept on the comb.  Beside it the comb keeps the arc table both
structural checks read (:func:`_read_arcs`): every vertex's kept changes,
checked in integers, with one out-mask per axis, and whether Kahn's
algorithm orders them.  Both checks take a comb and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from operator import and_
from typing import Iterator

from . import chain
from .errors import InternalInvariantError
from .seeding import Stream

__all__ = [
    "AugmentedConfig",
    "CombOrientation",
    "GridSpec",
    "Vertex",
    "WalkOutcome",
    "build_comb",
    "comb_to_dict",
    "embed_padded",
    "expected_duration_exact",
    "grid_spec",
    "has_topological_order",
    "identity_comb",
    "out_neighbors",
    "unique_sink_violations",
    "uso_lemma_bound",
    "uso_theorem_bound",
    "walk",
]

Vertex = tuple[int, ...]


# ---------------------------------------------------------------------------
# grid & orientation data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Shape of a grid: one complete-graph factor per coordinate."""

    factor_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.factor_sizes):
            raise ValueError("every factor size must be >= 1")

    @property
    def dimension(self) -> int:
        return len(self.factor_sizes)

    @property
    def vertex_count(self) -> int:
        return math.prod(self.factor_sizes)

    def vertices(self) -> Iterator[Vertex]:
        return product(*(range(1, s + 1) for s in self.factor_sizes))

    def contains(self, v: Vertex) -> bool:
        return len(v) == self.dimension and all(
            1 <= c <= s for c, s in zip(v, self.factor_sizes)
        )


@dataclass(frozen=True)
class AugmentedConfig:
    """Escape-edge multiplicity toward the terminal vertex.

    ``delta >= 1`` attaches ``delta`` parallel terminal edges to every vertex;
    ``delta == 0`` attaches a single terminal edge to each sink only, so the
    terminal is the one global sink either way.
    """

    delta: int = 0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be >= 0")


@dataclass(frozen=True)
class CombOrientation:
    """Recursive comb orientation.

    ``ranks[v-1]`` is the rank given to value ``v`` of the last factor
    (rank 1 sits at the sink end); ``children[v-1]`` orients the hyperplane
    with last coordinate ``v``.  A zero-dimensional comb is the leaf with
    empty ``ranks`` and ``children``.
    """

    ranks: tuple[int, ...]
    children: tuple["CombOrientation", ...]

    def __post_init__(self) -> None:
        if len(self.ranks) != len(self.children):
            raise ValueError("need exactly one child orientation per value")
        if self.ranks and sorted(self.ranks) != list(range(1, len(self.ranks) + 1)):
            raise ValueError("ranks must be a permutation of 1..m")
        child_sizes = {c.sizes for c in self.children}
        if len(child_sizes) > 1:
            raise ValueError("all children must orient grids of the same shape")

    @property
    def dimension(self) -> int:
        return len(self.sizes)

    @property
    def m(self) -> int:
        """Size of the last factor."""
        return len(self.ranks)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        # cached in the instance dict, outside the fields, so eq, hash and
        # repr ignore it: every out-arc query reads the grid shape
        if not self.ranks:
            return ()
        return self.children[0].sizes + (len(self.ranks),)

    @cached_property
    def _vertex_moves(self) -> dict[int, tuple[int, ...]]:
        # kept like sizes: the out-arc moves of each vertex read so far,
        # filled by _moves()
        return {}

    @cached_property
    def _chain(self) -> chain.Chain:
        # kept like sizes: the plain and escape solves of one comb share
        # one compiled chain
        return _compile(self)

    @cached_property
    def _arcs(self) -> tuple[ArcTable, bool]:
        # kept like sizes: both structural checks of one comb share one
        # read of its arcs and one run of Kahn's algorithm
        return _read_arcs(self)


LEAF = CombOrientation((), ())


def grid_spec(comb: CombOrientation) -> GridSpec:
    return GridSpec(comb.sizes)


def build_comb(r: int, m: int, rng: Stream) -> CombOrientation:
    """Build a random comb: uniform rank permutation at the top level,
    independent recursive children below.

    The draw order is fixed (top permutation first, then children in value
    order) so a seeded stream reproduces the structure bit for bit.  A bad
    shape or a grid over the cap (:func:`chain.state_cap`) is refused first."""
    _check_shape(r, m)
    chain.check_power_count(m, r, "vertices", "a random comb")
    return _random_comb(r, m, rng)


def _random_comb(r: int, m: int, rng: Stream) -> CombOrientation:
    if r == 0:
        return LEAF
    ranks = tuple(rng.sample(range(1, m + 1), m))
    children = tuple(_random_comb(r - 1, m, rng) for _ in range(m))
    return CombOrientation(ranks, children)


def _check_shape(r: int, m: int) -> None:
    if r < 0:
        raise ValueError("dimension must be >= 0")
    if m < 1:
        raise ValueError("factor size must be >= 1")


def identity_comb(r: int, m: int) -> CombOrientation:
    """The deterministic comb whose every permutation is the identity: shape
    checked as in :func:`build_comb`, uncapped (its levels share one child)."""
    _check_shape(r, m)
    return _identity_for((m,) * r)


def _identity_for(sizes: tuple[int, ...]) -> CombOrientation:
    if not sizes:
        return LEAF
    m = sizes[-1]
    child = _identity_for(sizes[:-1])
    return CombOrientation(tuple(range(1, m + 1)), (child,) * m)


# ---------------------------------------------------------------------------
# orientation queries
# ---------------------------------------------------------------------------


def out_neighbors(comb: CombOrientation, v: Vertex) -> tuple[Vertex, ...]:
    """The targets of ``v``'s grid arcs, the id changes of :func:`_moves`
    decoded in their order.  Escape edges are not listed:
    :func:`chain.escape_weight` counts them.  A vertex outside the grid
    raises ``ValueError``."""
    index = _vertex_id(grid_spec(comb), v)
    sizes = comb.sizes
    return tuple([_vertex(sizes, index + move) for move in _moves(comb, index)])


# ---------------------------------------------------------------------------
# walks and exact expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkOutcome:
    """Result of one walk: the step count and (optionally) the vertex
    sequence, whose last entry is the final sink or ``None`` for an
    escape."""

    steps: int
    visited: tuple[Vertex | None, ...] | None = None


def _vertex_id(spec: GridSpec, v: Vertex) -> int:
    """The mixed-radix number of ``v``, first coordinate fastest.  Every query
    that takes a grid vertex reads it here, so a vertex outside the grid
    (:meth:`GridSpec.contains`) raises ``ValueError`` here only."""
    if not spec.contains(v):
        raise ValueError(f"vertex {v} not in grid {spec.factor_sizes}")
    index = 0
    for c, s in zip(reversed(v), reversed(spec.factor_sizes)):
        index = index * s + c - 1
    return index


def _vertex(sizes: tuple[int, ...], index: int) -> Vertex:
    """The vertex numbered ``index``; inverse of :func:`_vertex_id`."""
    coords = []
    for s in sizes:
        index, c = divmod(index, s)
        coords.append(c + 1)
    return tuple(coords)


def _moves(comb: CombOrientation, index: int) -> tuple[int, ...]:
    """The out-arcs of vertex ``index`` as id changes, the tuple the comb
    keeps from the first call on: along each axis, last first, ``(w - c) *
    stride`` for each value ``w`` ranked below the vertex's coordinate ``c``
    at its node, ascending, ``stride`` being the vertex count of one hyperplane."""
    if (moves := comb._vertex_moves.get(index)) is not None:
        return moves
    stride = math.prod(comb.sizes)
    node = comb
    rest = index
    out: list[int] = []
    while ranks := node.ranks:
        # the vertex's coordinate at this node, less one, is its digit here
        stride //= len(ranks)
        c, rest = divmod(rest, stride)
        rank = ranks[c]
        out += [(w - c) * stride for w, q in enumerate(ranks) if q < rank]
        node = node.children[c]
    moves = comb._vertex_moves[index] = tuple(out)
    return moves


def walk(
    comb: CombOrientation,
    cfg: AugmentedConfig | None,
    start: Vertex | str,
    rng: Stream,
    record: bool = True,
) -> WalkOutcome:
    """Run one directed random walk.

    Each step draws uniformly over the out-edge multiset, so the terminal is
    chosen with probability ``delta / (outdeg + delta)``.  The walk stops at a
    sink (plain grid) or at the terminal (augmented).  ``start`` may be a
    vertex or ``"uniform"``.  The walk steps over vertex ids
    (:func:`_vertex_id`), adding the drawn one of the vertex's id changes
    kept on the comb (:func:`_moves`), and decodes coordinates only to
    record them.
    """
    sizes = comb.sizes
    count = math.prod(sizes)
    if start == "uniform":
        v = rng.randrange(count)
    else:
        v = _vertex_id(grid_spec(comb), start)  # type: ignore[arg-type]
    delta = None if cfg is None else cfg.delta
    budget = count + 1
    known = comb._vertex_moves
    path = [v]
    steps = 0
    while True:
        out = known.get(v)
        if out is None:
            out = _moves(comb, v)
        n_succ = len(out)
        escape = chain.escape_weight(delta, n_succ)
        if not n_succ and not escape:
            break  # sink of the plain grid
        i = chain.draw(rng, n_succ, escape)
        steps += 1
        if steps > budget:
            raise InternalInvariantError(
                "walk exceeded its step budget; the orientation is not acyclic"
            )
        if i is None:
            break
        v += out[i]
        path.append(v)
    if not record:
        return WalkOutcome(steps)
    visited: list[Vertex | None] = [_vertex(sizes, u) for u in path]
    if steps == len(path):  # the last step escaped
        visited.append(None)
    return WalkOutcome(steps, tuple(visited))


def _ranked(
    node: CombOrientation, strides: tuple[int, ...]
) -> tuple[list[int], list[int]]:
    """The indices and out-arc counts of the vertices of ``node``'s grid in
    ascending rank order: the values of the last factor by rank, each
    followed by its hyperplane's vertices in their own order.  A line is
    its values by rank, so the recursion makes no call per vertex."""
    if not node.ranks:
        return [0], [0]
    order = sorted(zip(node.ranks, range(node.m)))
    if len(strides) == 1:
        return [c for _, c in order], [q - 1 for q, _ in order]
    stride = strides[-1]
    index: list[int] = []
    n_succ: list[int] = []
    for q, c in order:
        sub_index, sub_n = _ranked(node.children[c], strides[:-1])
        base = c * stride
        index += [base + i for i in sub_index]
        n_succ += [q - 1 + n for n in sub_n]
    return index, n_succ


def _strides(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """How much a vertex id changes per unit of each coordinate."""
    return tuple(math.prod(sizes[:d]) for d in range(len(sizes)))


def _compile(comb: CombOrientation) -> chain.Chain:
    """The comb as a chain over its vertex indices, in ascending rank order."""
    sizes = comb.sizes
    index, n_succ = _ranked(comb, _strides(sizes))
    columns = chain.fiber_groups(index, sizes)
    fibers = list(zip(*columns)) if columns else [()]  # r = 0: one vertex, no fiber
    return chain.Chain(index, n_succ, fibers, fibers, len(sizes) * len(index))


def expected_duration_exact(
    comb: CombOrientation,
    cfg: AugmentedConfig | None,
    start: Vertex | str = "uniform",
) -> Fraction:
    """Exact expected walk duration, as a rational.

    Every edge strictly decreases the vertex's rank tuple lexicographically,
    so one back-substitution pass in ascending rank order solves the whole
    chain.  A vertex's successors along one factor are the lower-ranked
    vertices of its fiber (its line along that factor), which that order
    visits first; a running sum per fiber therefore holds their values, and
    :func:`chain.solve` reads and writes each vertex's fibers over plain
    integers.  The comb is compiled once into a :class:`chain.Chain`, kept
    on it, so every solve of one comb shares it.  ``start == "uniform"``
    averages over all grid vertices.
    """
    spec = grid_spec(comb)
    chain.check_state_count(spec.vertex_count, "vertices", "exact mode")
    index = None if start == "uniform" else _vertex_id(spec, start)  # type: ignore[arg-type]
    scaled, d = chain.solve(comb._chain, None if cfg is None else cfg.delta)
    if index is None:
        return Fraction(sum(scaled), d * len(scaled))
    return Fraction(scaled[index], d)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def uso_lemma_bound(r: int, m: int, delta: int = 0) -> float:
    """Duration lower bound for the augmented walk from a uniform start,
    in expectation over the randomized construction:
    ``(ln(m+delta+1) - ln(delta+1))**r / r!``."""
    if r < 0 or m < 1 or delta < 0:
        raise ValueError("need r >= 0, m >= 1, delta >= 0")
    return (math.log(m + delta + 1) - math.log(delta + 1)) ** r / math.factorial(r)


def uso_theorem_bound(r: int, m: int) -> float:
    """Companion bound for the plain (unaugmented) walk: the augmented bound
    at ``delta == 0`` minus the one final terminal step."""
    return uso_lemma_bound(r, m, 0) - 1.0


# ---------------------------------------------------------------------------
# padding to grids of arbitrary size
# ---------------------------------------------------------------------------


def embed_padded(comb: CombOrientation, n: int) -> CombOrientation:
    """Embed a comb on ``r`` equal factors of size ``m = floor(n/r)`` into a
    grid of size ``n`` (sum of factor sizes).

    Padded values of every factor receive ranks above all original values, in
    index order, and padded hyperplanes carry identity combs; hence every edge
    between the original subgrid and the new vertices points into the subgrid,
    and the result is again an acyclic unique sink orientation (checked
    computationally on small cases rather than assumed).
    """
    r = comb.dimension
    if r < 1:
        raise ValueError("cannot pad a zero-dimensional orientation")
    sizes = comb.sizes
    if len(set(sizes)) != 1:
        raise ValueError("padding expects equal factor sizes")
    m = sizes[-1]
    if n <= r:
        raise ValueError(f"no valid grid: size {n} must exceed dimension {r}")
    if n // r != m:
        raise ValueError(
            f"target size {n} is incompatible with factor size {m}: "
            f"expected floor(n/r) == {m}"
        )
    if n == r * m:
        return comb
    extra = n - r * m
    target = tuple(m + 1 if i < extra else m for i in range(r))
    return _pad(comb, target)


def _pad(node: CombOrientation, sizes: tuple[int, ...]) -> CombOrientation:
    if node.dimension == 0:
        return node
    m = node.m
    top = sizes[-1]
    ranks = node.ranks + tuple(range(m + 1, top + 1))
    children = tuple(_pad(c, sizes[:-1]) for c in node.children)
    children += tuple(_identity_for(sizes[:-1]) for _ in range(top - m))
    return CombOrientation(ranks, children)


# ---------------------------------------------------------------------------
# structural checks (acyclicity, unique sinks per subgrid)
# ---------------------------------------------------------------------------

# indexed by vertex id: each vertex's arcs as id changes, and its out-masks
ArcTable = list[tuple[tuple[int, ...], list[int]]]


def _numbered(spec: GridSpec) -> Iterator[tuple[Vertex, int]]:
    """The grid's vertices in ``spec.vertices()`` order, each with its id."""
    steps = (range(0, s * st, st) for s, st in zip(spec.factor_sizes, _strides(spec.factor_sizes)))
    return zip(spec.vertices(), map(sum, product(*steps)))


def _unwrapped(sizes: tuple[int, ...], index: int) -> Vertex:
    """The vertex numbered ``index`` as :func:`_vertex` decodes it, but with
    an unbounded last coordinate, so an id outside the grid names the value
    that leaves it.  ``sizes`` has at least one axis."""
    head = sizes[:-1]
    return _vertex(head, index) + (index // math.prod(head) + 1,)


def _read_arcs(comb: CombOrientation) -> tuple[ArcTable, bool]:
    """The arc table of ``comb`` and whether Kahn's algorithm orders its arcs.

    Each vertex is read once, in ``spec.vertices()`` order, through
    :func:`_moves`: its id changes, the very tuple the comb keeps.  Each
    change must be a nonzero multiple ``k * stride_d`` with ``|k| < s_d``
    taking the vertex's coordinate ``c`` to ``c + k`` in ``1..s_d``, which
    by the uniqueness of the mixed-radix form is exactly a step to a grid
    neighbour; any other change raises ``ValueError`` naming its target as
    :func:`_unwrapped` decodes it, or on the 0-axis grid the change itself.
    Beside its changes the table keeps each vertex's out-masks: one bitmask
    per axis, bit ``c-1`` of axis ``d`` set when an arc changes coordinate
    ``d`` to ``c``.  The grid's vertex count,
    and then its edge count ``V * sum_d (s_d - 1) / 2``, are checked against
    the cap before the first read."""
    spec = grid_spec(comb)
    sizes = spec.factor_sizes
    chain.check_state_count(spec.vertex_count, "vertices", "the acyclicity check")
    edges = spec.vertex_count * sum(s - 1 for s in sizes) // 2
    chain.check_state_count(edges, "grid edges", "the acyclicity check")
    # (axis, k) of each id change k * stride that stays on one axis
    axis_of = {
        k * st: (d, k)
        for d, (st, s) in enumerate(zip(_strides(sizes), sizes))
        for k in range(1 - s, s)
        if k
    }
    table: list = [None] * spec.vertex_count
    for v, i in _numbered(spec):
        moves = _moves(comb, i)
        masks = [0] * len(sizes)
        for move in moves:
            d, k = axis_of.get(move, (-1, 0))
            if d < 0 or not 1 <= v[d] + k <= sizes[d]:
                # the 0-axis grid has no coordinate to name a target by
                w = f"-> {_unwrapped(sizes, i + move)}" if sizes else f"by id change {move}"
                raise ValueError(f"arc {v} {w} does not join two grid neighbours")
            masks[d] |= 1 << (v[d] + k - 1)
        table[i] = (moves, masks)
    indeg = [0] * len(table)
    for i, (moves, _) in enumerate(table):
        for move in moves:
            indeg[i + move] += 1
    # the vertices with no arc left into them, in the order they are freed
    order = [i for i, n in enumerate(indeg) if not n]
    for i in order:
        for move in table[i][0]:
            indeg[i + move] -= 1
            if not indeg[i + move]:
                order.append(i + move)
    return table, len(order) == len(table)


def _checked(spec: GridSpec, comb: CombOrientation) -> tuple[ArcTable, bool]:
    """The arc table ``comb`` keeps (:func:`_read_arcs`).  A comb of a grid
    other than ``spec`` raises ``ValueError``."""
    if comb.sizes != spec.factor_sizes:
        raise ValueError(f"a comb of grid {comb.sizes} read as grid {spec.factor_sizes}")
    return comb._arcs


def unique_sink_violations(
    spec: GridSpec, comb: CombOrientation
) -> list[tuple[tuple[int, ...], ...]]:
    """Check every subgrid for a unique sink; returns the offending subgrids
    (as tuples of per-factor value subsets, in ``product`` order, at most
    five of them), empty if the orientation is a unique sink orientation.

    ``comb`` orients the grid ``spec``; an arc of it that does not join two
    grid neighbours raises ``ValueError``.  Its arcs are read once into the
    arc table of :func:`_read_arcs`, which the comb keeps, so both checks of
    one comb share one read.  A subgrid (one value subset per axis) has ``v``
    as a sink when each subset holds ``v``'s coordinate and none of the
    values its arcs along that axis lead to, so ``v`` is the sink of
    ``prod_d 2**(s_d - 1 - |out_d(v)|)`` subgrids, counted from its
    out-masks.  Every subgrid of an acyclic orientation has a sink, so when
    these counts sum to the number of subgrids and Kahn's algorithm orders
    the arcs, every subgrid has exactly one, and the answer is decided in
    time linear in the vertex count.  Otherwise :func:`_sweep_violations`
    finds and names the violations, once the subgrid count is within the
    cap.
    """
    table, acyclic = _checked(spec, comb)
    count = math.prod(2**s - 1 for s in spec.factor_sizes)
    free = sum(spec.factor_sizes) - spec.dimension
    sinks = sum(1 << (free - sum(map(int.bit_count, masks))) for _, masks in table)
    if sinks == count and acyclic:
        return []
    chain.check_state_count(count, "subgrids", "the exhaustive check")
    return _sweep_violations(spec, table)


def _sweep_violations(spec: GridSpec, table: ArcTable) -> list[tuple[tuple[int, ...], ...]]:
    """The first five subgrids without a unique sink, in ``product`` order,
    by sweeping every subgrid; the bit of a vertex is its id.

    For each axis ``d`` and value subset (a bitmask, bit ``c-1`` for value
    ``c``), one int bitset holds the vertices whose coordinate ``d`` lies in
    the subset and that have no arc along ``d`` into it.  The ``&`` of one
    such set per axis holds a subgrid's sinks, and a subgrid is good when it
    has one bit.  Only a reported subgrid's masks are decoded into values.
    The one-vertex grid of dimension 0 has no arc, so the count always
    decides it and it never comes here.
    """
    # groups[d][(position bit, out-mask)]: bitset of the vertices with that
    # coordinate and those arcs along axis d
    groups: list[dict[tuple[int, int], int]] = [{} for _ in range(spec.dimension)]
    for v, i in _numbered(spec):
        for group, c, out in zip(groups, v, table[i][1]):
            key = (1 << (c - 1), out)
            group[key] = group.get(key, 0) | 1 << i
    # keep[d][mask - 1] for each value subset mask of axis d; the groups of
    # one axis are disjoint, so their sum is their union
    keep = [
        [
            sum(vs for (pos, out), vs in group.items() if pos & mask and not out & mask)
            for mask in range(1, 2**s)
        ]
        for group, s in zip(groups, spec.factor_sizes)
    ]
    bad: list[tuple[tuple[int, ...], ...]] = []
    for subgrid in product(*(range(1, 2**s) for s in spec.factor_sizes)):
        kept = reduce(and_, (sets[mask - 1] for sets, mask in zip(keep, subgrid)))
        if not kept or kept & (kept - 1):
            bad.append(tuple(
                tuple(c for c in range(1, bits.bit_length() + 1) if bits >> (c - 1) & 1)
                for bits in subgrid
            ))
            if len(bad) == 5:
                break
    return bad


def has_topological_order(spec: GridSpec, comb: CombOrientation) -> bool:
    """Kahn's algorithm over the full edge set of ``comb``, a comb of the
    grid ``spec``, run once by :func:`_read_arcs`; an arc that does not
    join two grid neighbours raises ``ValueError``, as in the unique-sink
    check."""
    return _checked(spec, comb)[1]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def comb_to_dict(comb: CombOrientation) -> dict:
    """The nested JSON form of ``comb``, as large as its grid, so capped."""
    chain.check_state_count(math.prod(comb.sizes), "vertices", "the comb JSON")
    return _comb_dict(comb)


def _comb_dict(comb: CombOrientation) -> dict:
    return {
        "r": comb.dimension,
        "m": comb.m,
        "perm": list(comb.ranks),
        "children": [_comb_dict(c) for c in comb.children],
    }
