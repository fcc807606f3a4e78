"""The pivoting process on a labelled point set, with phase bookkeeping.

From a transversal the process draws a pivot from the strictly-below points
plus a formal escape symbol weighted ``delta``, swaps the pivot in, and
repeats until it escapes to the terminal position.  With ``delta == 0`` the
escape fires only once no point is left below, which reproduces the plain
process up to the single final escape hop; traces therefore expose both step
counts (``pivot_count`` and ``total_steps = pivot_count + 1``).

Transversal positions form a finite acyclic chain: every pivot strictly
lowers the sum of axis intersections, which both guarantees termination and
gives the back-substitution order for exact expected durations.  Each
:class:`ProcessConfig` holds that chain as one state graph: a state per
transversal, interned by an integer id (the mixed-radix number of its
members' places in their color classes, so ids run in the order of
:func:`geometry.transversals`), whose successors are direct references to
other states.  The config makes the start state; any other state is made
when first reached, and each edge when first taken.  A pivot changes one
digit of the id, so an edge finds its successor from the points' offsets
and builds a member tuple only for a state not seen before.  Each edge
:func:`run` takes is checked against the axis-sum order once, when it is
made, on the sum held as an exact integer pair, read off the
back-substituted hyperplane of :meth:`geometry.PointSet.normal`.
:func:`exact_expected_steps` makes no edge: the ids are the vertices of
the grid of the color classes, and it reads each state's swaps of one
color as that grid's fiber through it, checking every swap against the
order by its place in it.  :func:`run`, :func:`good_phases` and
:func:`exact_expected_steps` all read the same states.  A :class:`Trace` is
the states a run visited and the index drawn at each, so a step allocates
nothing beyond two list slots; its pivots, its phase changes and its jsonl
dump are read off those states.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterator

from . import chain, geometry
from .errors import InternalInvariantError
from .geometry import PointId, PointSet, Transversal
from .seeding import Stream

__all__ = [
    "ProcessConfig",
    "Trace",
    "adversaries",
    "adversary_start",
    "exact_expected_steps",
    "good_phases",
    "main_start",
    "phase_of",
    "run",
    "trace_to_jsonl",
    "worst_case_expected_steps",
]

# ---------------------------------------------------------------------------
# configuration and starts
# ---------------------------------------------------------------------------


def main_start(point_set: PointSet) -> Transversal:
    """The all-axes start of maximal construction phase: ``{m e_1, ..., m e_r}``."""
    r, m = point_set.r, point_set.m
    return geometry.make_transversal(
        point_set, [PointId(i, r, m) for i in range(1, r + 1)]
    )


def adversary_start(point_set: PointSet) -> Transversal:
    """The augmented start ``{alpha_1 e_1, ..., alpha_r e_r}``."""
    if not point_set.is_augmented:
        raise ValueError("adversary start needs an augmented point set")
    r, m = point_set.r, point_set.m
    return geometry.make_transversal(
        point_set, [PointId(i, r, m + 1) for i in range(1, r + 1)]
    )


class ProcessConfig:
    """One process instance: point set, escape weight, start position, and
    which of the two step counts the exact solver reports.

    ``count_terminal_step=False`` reports pivots only (the plain-process
    convention); ``True`` also counts the final escape hop (the augmented
    convention).  Simulated traces always carry both counts.  Left out,
    ``start`` is the adversary start of an augmented set and the main start
    otherwise, and the escape hop is counted exactly when the set is
    augmented or ``delta > 0``.  A start without a valid hyperplane is
    refused here, with the :class:`~pivotlab.errors.DegeneracyError` of
    :func:`geometry.hyperplane_coefficients`.
    """

    def __init__(
        self,
        point_set: PointSet,
        start: Transversal | None = None,
        delta: int = 0,
        count_terminal_step: bool | None = None,
    ) -> None:
        if delta < 0:
            raise ValueError("delta must be >= 0")
        if start is None:
            start = (
                adversary_start(point_set)
                if point_set.is_augmented
                else main_start(point_set)
            )
        if count_terminal_step is None:
            count_terminal_step = point_set.is_augmented or delta > 0
        # re-validation also confirms membership of every start point
        geometry.make_transversal(point_set, start.members)
        self.point_set = point_set
        self.start = start
        self.delta = delta
        self.count_terminal_step = count_terminal_step
        # state ids: the place of each member in its color class, as digits
        # of a mixed-radix number whose last color varies fastest; a point's
        # offset is its place times its color's stride
        self._offset: dict[PointId, int] = {}
        stride = 1
        for i in range(point_set.r, 0, -1):
            cls = point_set.color_class(i)
            self._offset.update((p, k * stride) for k, p in enumerate(cls))
            stride *= len(cls)
        self._states: dict[int, _State] = {}
        # what every run of this config starts from: the step budget and
        # the start state, which also refuses a start without a hyperplane
        self._budget = point_set.transversal_count() + 1
        self._start_state = _state(self, start.members)
        # the second-outermost layer, read by good_phases
        self._layer_rm1 = frozenset(point_set.layer_members(point_set.r - 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessConfig(r={self.point_set.r}, m={self.point_set.m}, "
            f"delta={self.delta}, start={[tuple(p) for p in self.start.members]})"
        )


# the entry verdict of a state holding a second-outermost-layer point
_NEVER = "never"


@dataclass(slots=True, eq=False, repr=False)
class _State:
    """One transversal of the state graph: its id, members, phase, and its
    axis-intersection sum as the exact integer pair ``t_num / t_den`` with
    ``t_den > 0``; ``<`` compares those sums exactly.  ``below`` (the
    strictly-below points) stays ``None`` until :func:`_below` expands the
    state, which also sets ``escape``, its :func:`chain.escape_weight`;
    ``succ[i]``, the color-swap successor for ``below[i]``, stays ``None``
    until :func:`_edge` first takes that edge.  ``entry``, the state's
    verdict as the entry of a good phase, stays ``None`` until
    :func:`good_phases` first needs it: ``_NEVER`` when the state holds a
    second-outermost-layer point, else whether all of that layer is below
    it."""

    sid: int
    members: tuple[PointId, ...]
    t_num: int
    t_den: int
    phase: int
    below: tuple[PointId, ...] | None = None
    succ: list[_State | None] | None = None
    escape: int = 0
    entry: bool | str | None = None

    def __lt__(self, other: _State) -> bool:
        return self.t_num * other.t_den < other.t_num * self.t_den


def _new_state(cfg: ProcessConfig, position: Transversal, sid: int) -> _State:
    """Build and intern the state ``sid`` at this position."""
    ps = cfg.point_set
    # t_i = 1 / c_i, summed over the product of the numerators of the c_i
    t_num, t_den = 0, 1
    for c in geometry.hyperplane_coefficients(ps, position):
        t_num, t_den = t_num * c.numerator + c.denominator * t_den, t_den * c.numerator
    st = cfg._states[sid] = _State(sid, position.members, t_num, t_den, phase_of(ps, position))
    return st


def _state(cfg: ProcessConfig, members: tuple[PointId, ...]) -> _State:
    sid = sum(map(cfg._offset.__getitem__, members))
    st = cfg._states.get(sid)
    return _new_state(cfg, Transversal(members), sid) if st is None else st


def _below(cfg: ProcessConfig, st: _State) -> tuple[PointId, ...]:
    """The strictly-below points of ``st``, computed on first use with the
    state's escape weight."""
    if st.below is None:
        st.below = below = geometry.below_set(cfg.point_set, Transversal(st.members))
        st.succ = [None] * len(below)
        st.escape = chain.escape_weight(cfg.delta, len(below))
    return st.below


def _edge(cfg: ProcessConfig, st: _State, i: int) -> _State:
    """The successor of ``st`` for pivot ``below[i]``.  An edge is built only
    when first taken, so a trace through new states pays for the states it
    visits, not for every point below them; each edge is checked once, when
    built, to strictly lower the axis-intersection sum."""
    nxt = st.succ[i]
    if nxt is None:
        p = st.below[i]
        c = p.color - 1
        offset = cfg._offset
        sid = st.sid + offset[p] - offset[st.members[c]]
        nxt = cfg._states.get(sid)
        if nxt is None:
            members = list(st.members)
            members[c] = p
            nxt = _new_state(cfg, Transversal(tuple(members)), sid)
        if nxt.t_num * st.t_den >= st.t_num * nxt.t_den:
            raise _not_lower(st, nxt)
        st.succ[i] = nxt
    return nxt


def _not_lower(st: _State, nxt: _State) -> InternalInvariantError:
    return InternalInvariantError(
        f"pivot from {st.members} to {nxt.members} does not lower "
        "the axis-intersection sum; monotonicity is broken"
    )


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def phase_of(point_set: PointSet, position: Transversal) -> int:
    """Phase of a position: the smallest phase among its outermost-layer
    members."""
    phases = [p.phase for p in position.members if p.layer == point_set.r]
    if not phases:
        raise InternalInvariantError(
            f"transversal {position.members} has no outermost-layer point"
        )
    return min(phases)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False, repr=False)
class Trace:
    """One run: ``states[t]``, the state visited at step ``t``, and
    ``picks[t]``, the index into its ``below`` drawn there (``None`` for
    the final escape hop).  :meth:`phase_changes` is built from them on
    first read."""

    states: list[_State]
    picks: list[int | None]
    _changes: list[tuple[int, int]] | None = None

    def pivot(self, t: int) -> PointId | None:
        """The point pivoted in at step ``t``, ``None`` for the escape."""
        i = self.picks[t]
        return None if i is None else self.states[t].below[i]

    @property
    def pivot_count(self) -> int:
        return len(self.states) - 1

    @property
    def total_steps(self) -> int:
        """Pivot count plus the final escape hop."""
        return len(self.states)

    def steps(self, count_terminal_step: bool) -> int:
        return self.total_steps if count_terminal_step else self.pivot_count

    def phase_changes(self) -> list[tuple[int, int]]:
        """Times and values of phase changes, including the final change to
        phase 0 at the escape hop."""
        if self._changes is None:
            changes = []
            prev = self.states[0].phase
            for t, st in enumerate(self.states):
                if st.phase != prev:
                    prev = st.phase
                    changes.append((t, prev))
            changes.append((len(self.states), 0))
            self._changes = changes
        return self._changes


def trace_to_jsonl(trace: Trace) -> str:
    lines = []
    for t, st in enumerate(trace.states):
        pivot = trace.pivot(t)
        lines.append(
            json.dumps(
                {
                    "t": t,
                    "S": [list(p) for p in st.members],
                    "pivot": "inf" if pivot is None else list(pivot),
                    "below": len(st.below),
                    "phase": st.phase,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def run(cfg: ProcessConfig, rng: Stream) -> Trace:
    """Run to the terminal position, keeping every visited state.

    Each pivot is drawn by :func:`chain.draw` over the below points and the
    state's escape edges, both kept on the state since it was expanded;
    with nothing below the escape is forced without consuming randomness."""
    budget = cfg._budget
    st = cfg._start_state
    states = [st]
    picks = []
    while True:
        below = st.below or _below(cfg, st)
        i = chain.draw(rng, len(below), st.escape)
        picks.append(i)
        # a second safeguard: it cannot fire while _edge checks every edge
        if len(picks) > budget:
            raise InternalInvariantError(
                "process exceeded its step budget; positions must not repeat"
            )
        if i is None:
            return Trace(states, picks)
        st = st.succ[i] or _edge(cfg, st, i)
        states.append(st)


# ---------------------------------------------------------------------------
# good phases
# ---------------------------------------------------------------------------


def good_phases(cfg: ProcessConfig, trace: Trace) -> dict[int, bool]:
    """The good phases of one trace, each mapped to whether every
    second-outermost-layer point was strictly below its entry position.

    A visited phase is good when it was entered by pivoting a point of the
    last color and the entry position avoids the second-outermost layer;
    all of that layer below the entry is the expected consequence.  Both
    facts about an entry are judged once per state and kept as its
    ``entry`` verdict.  Empty below dimension 2, where the notion is not
    defined.
    """
    r = cfg.point_set.r
    if r < 2:
        return {}
    states, picks = trace.states, trace.picks
    good: dict[int, bool] = {}
    changes = trace.phase_changes()
    # the last change is the escape to phase 0, after every state; every
    # earlier one is entered by a point pivot
    for sigma, phi in islice(changes, len(changes) - 1):
        if states[sigma - 1].below[picks[sigma - 1]].color != r:
            continue
        entry = states[sigma]
        verdict = entry.entry
        if verdict is None:
            verdict = entry.entry = (
                _NEVER
                if any(p.layer == r - 1 for p in entry.members)
                else cfg._layer_rm1.issubset(_below(cfg, entry))
            )
        if verdict is not _NEVER:
            good[phi] = verdict
    return good


# ---------------------------------------------------------------------------
# exact expected durations
# ---------------------------------------------------------------------------


def _solve_order(st: _State) -> tuple[float, _State]:
    """Sort key of increasing axis-intersection sum.  Int / int true
    division is correctly rounded, hence monotone: distinct floats already
    give the exact order, and only float ties fall through to the exact
    cross-multiplied :meth:`_State.__lt__`."""
    return st.t_num / st.t_den, st


def exact_expected_steps(cfg: ProcessConfig) -> Fraction:
    """Exact expected step count from ``cfg.start``, per the config's
    counting convention.

    Every transversal is a state of the :func:`_compile` chain.  A state
    reads each color's swaps as one running sum, that of its grid fiber,
    where the guard holds, and one by one where it fails, so a plain set
    costs ``r`` reads per state.  :func:`chain.solve` back-substitutes the
    chain over plain integers; the start's value is read by its id."""
    chain.check_state_count(cfg.point_set.transversal_count(), "transversals", "exact mode")
    scaled, d = chain.solve(_compile(cfg), cfg.delta)
    x = scaled[cfg._start_state.sid]
    return Fraction(x if cfg.count_terminal_step else x - d, d)


def _compile(cfg: ProcessConfig) -> chain.Chain:
    """Every transversal as a state of one fiber :class:`chain.Chain`.

    Enumerates all transversals, the k-th as state id k, and orders them
    by increasing axis-intersection sum.  The ids number the vertices of
    the grid of the color classes, so a state's color-c swaps lie on its
    fiber of that axis (:func:`chain.fiber_groups`).  One pass in that
    order places each state as it reaches it; each swap's state must be
    placed before the first state of this state's sum, or monotonicity is
    broken, so it is solved first.  Per color, the guard: when the swaps
    number as many as the fiber's states solved so far, they are those
    states, and the state reads and writes the fiber's running sum.  Else
    it reads them one by one, and the fiber is read and written no more:
    every later state on it reads that color one by one.  A successor read
    one by one gets a group of its own, which it writes, when its first
    reader meets it.
    """
    ps = cfg.point_set
    r = ps.r
    known = cfg._states
    positions = list(geometry.transversals(ps))
    states = [known.get(sid) or _new_state(cfg, s, sid) for sid, s in enumerate(positions)]
    states.sort(key=_solve_order)
    order = [st.sid for st in states]
    count = len(order)
    # ids run last color fastest, so color c is the grid's axis r - 1 - c
    sizes = [len(ps.color_class(c)) for c in range(r, 0, -1)]
    fibers = list(zip(*chain.fiber_groups(order, sizes)[::-1]))
    offset = cfg._offset
    ends = [(c + 2,) for c in range(r)]  # sorts between colors c + 1 and c + 2
    written = [0] * (r * count)  # states on each fiber; -1 once it failed
    place = [count] * count  # each state's position in solve order, once reached
    own = {}  # the group of each state some state reads one by one
    n_succ, reads, writes = [], [], []
    first, prev = 0, states[0]
    for i, st in enumerate(states):
        if prev < st:
            first = i
        prev = st
        sid = st.sid
        place[sid] = i
        # from the set's cache, not kept on the state: a run keeps below
        # sets beside their edges only for the states it visits
        below = geometry.below_set(ps, positions[sid])
        # the state of each swap: a color-c pivot changes digit c of the id
        base = [0] + [sid - offset[q] for q in st.members]
        succ = [base[p[0]] + offset[p] for p in below]
        if succ and max(map(place.__getitem__, succ)) >= first:
            raise _not_lower(st, known[next(k for k in succ if place[k] >= first)])
        groups = fibers[i]
        failed, loose, lo = False, [], 0
        for g, end in zip(groups, ends):
            hi = bisect_left(below, end, lo)
            if written[g] == hi - lo:  # the guard
                written[g] += 1
            else:
                written[g] = -1
                failed = True
                loose += succ[lo:hi]
            lo = hi
        if failed:  # keep the fibers that passed
            groups = tuple(g for g in groups if written[g] > 0)
        for k in loose:
            if k not in own:
                own[k] = r * count + len(own)
                writes[place[k]] += (own[k],)
        n_succ.append(len(below))
        reads.append(groups + tuple(map(own.__getitem__, loose)) if loose else groups)
        writes.append(groups)
    return chain.Chain(order, n_succ, reads, writes, r * count + len(own))


def adversaries(
    r: int, m: int, delta: int, width: int
) -> Iterator[tuple[tuple[int, ...], ProcessConfig]]:
    """The adversary's augmented starts of the ``(r, m)`` family, each
    ``alpha_i`` in ``{m+1, ..., m+width}``: ``(alphas, config)`` in
    ``product`` order, each config counting the escape hop."""
    if width < 1:
        raise ValueError("no alpha choices supplied")
    base = geometry.gen_point_set(r, m)
    for alphas in product(range(m + 1, m + 1 + width), repeat=r):
        yield alphas, ProcessConfig(base.augmented(alphas), delta=delta)


def worst_case_expected_steps(
    r: int, m: int, delta: int, width: int
) -> tuple[Fraction, tuple[int, ...]]:
    """Adversary sweep: the least exact expected duration, escape hop
    included, over the :func:`adversaries` of sweep ``width``, with its
    alphas; ties go to the first tuple in ``product`` order."""
    sweep = adversaries(r, m, delta, width)
    return min(((exact_expected_steps(cfg), alphas) for alphas, cfg in sweep),
               key=lambda pair: pair[0])
