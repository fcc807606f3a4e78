"""The rules shared by both models' absorbing chains.

The directed walk on a comb-oriented grid and the pivoting process are the
same object: a finite, acyclic chain whose states each have ``n_succ``
successors, drawn uniformly, plus ``escape`` parallel edges toward one
absorbing terminal state.  A draw names that escape ``None``, as both
models' records do.  Each model compiles itself into a :class:`Chain`
under its own state numbers, and :func:`solve` gives the exact expected
duration of every state by that number, with plain integer arithmetic.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterable, NoReturn, Sequence

from .errors import InstanceTooLargeError, InternalInvariantError
from .seeding import Stream

__all__ = [
    "Chain",
    "check_power_count",
    "check_state_count",
    "draw",
    "escape_weight",
    "fiber_groups",
    "solve",
    "state_cap",
]

STATE_CAP_ENV = "PIVOTLAB_STATE_CAP"


def escape_weight(delta: int | None, n_succ: int) -> int:
    """Escape edges of a state with ``n_succ`` successors: ``delta`` from
    every state; when ``delta == 0``, one from each state without successors,
    so the terminal is the one global sink either way; ``None`` means there
    is no terminal at all."""
    if delta is None:
        return 0
    if delta > 0:
        return delta
    return 0 if n_succ else 1


def draw(rng: Stream, n_succ: int, escape: int) -> int | None:
    """One uniform draw over ``n_succ + escape`` edges: an index below
    ``n_succ`` picks that successor, any other the terminal, returned as
    ``None``.  A state without successors gives ``None`` without a draw,
    so a dead end may be drawn at: ``process.run`` and an escaping walk
    rely on that to end without consuming randomness."""
    if n_succ == 0:
        return None
    i = rng.randrange(n_succ + escape)
    return i if i < n_succ else None


@dataclass(frozen=True)
class Chain:
    """A model compiled for :func:`solve`, one entry per state in solve
    order, successors first.  ``order[i]`` is the model's own number of the
    state at position ``i``, and the numbers are ``0 .. len(order) - 1``.
    That state has ``n_succ[i]`` successors, whose values sum to the sum of
    the groups ``reads[i]``; once solved its own value joins the groups
    ``writes[i]``: groups it reads, or groups no earlier state wrote.  There
    are ``n_groups`` groups.

    Both models number their states as the vertices of a grid and read
    through its fibers (:func:`fiber_groups`): a state's successors along
    one axis are the states of its fiber solved before it, so one running
    sum per fiber holds their values.  A process state whose successors
    along an axis are not all of those reads them one by one instead, each
    from a group of that successor's own."""

    order: Sequence[int]
    n_succ: Sequence[int]
    reads: Sequence[Sequence[int]]
    writes: Sequence[Sequence[int]]
    n_groups: int


def fiber_groups(order: Sequence[int], sizes: Sequence[int]) -> list[list[int]]:
    """The fiber group of every state, one column per axis: ``columns[d][i]``
    numbers the fiber of axis ``d`` through the state ``order[i]``, a vertex
    id of the grid of these ``sizes`` (mixed radix, first coordinate
    fastest).  It is the id with coordinate ``d`` zeroed, offset by ``d``
    times the vertex count, so the groups of all axes are distinct and
    below ``len(sizes)`` times that count."""
    count = math.prod(sizes)
    columns = []
    stride = 1
    for d, s in enumerate(sizes):
        columns.append([d * count + i - i // stride % s * stride for i in order])
        stride *= s
    return columns


def solve(ch: Chain, delta: int | None) -> tuple[list[int], int]:
    """Expected steps to absorption of every state of an acyclic chain, as
    integers over one common denominator.

    A state with ``n_succ`` successors has out-weight ``n_succ + escape``,
    the escape counted by :func:`escape_weight` from ``delta``.  Its
    expected step count is 0 when the weight is 0, else ``1 + S /
    weight`` for the sum ``S`` of its successors' values (Kemeny and Snell,
    *Finite Markov Chains*, ch. III).

    Returns ``(scaled, D)``: the value of the state numbered ``k`` is
    ``scaled[k] / D``, where ``D`` from :func:`_denominator` is a multiple
    of every value's denominator.  Each value is then ``D + S // weight``
    over Python ints.  A division that leaves a remainder means ``D`` is not
    such a multiple and raises :class:`InternalInvariantError`, so a wrong
    bound can never yield a wrong value.
    """
    # the escape count depends only on whether a state has successors
    dead, live = escape_weight(delta, 0), escape_weight(delta, 1)
    weights = [n + live if n else dead for n in ch.n_succ]
    d = _denominator(weights, ch.reads, ch.writes, ch.n_groups)
    sums = [0] * ch.n_groups
    scaled = [0] * len(ch.order)  # a state of weight 0 has value 0
    for k, t, rd, wr in zip(ch.order, weights, ch.reads, ch.writes):
        if t:
            q, rem = divmod(sum(map(sums.__getitem__, rd)), t)
            if rem:
                raise InternalInvariantError(
                    f"the common denominator does not clear state {k} of "
                    f"weight {t}; its exponent bound is wrong"
                )
            x = scaled[k] = d + q
            for g in wr:
                sums[g] += x
    return scaled, d


def _denominator(
    weights: Sequence[int],
    reads: Sequence[Sequence[int]],
    writes: Sequence[Sequence[int]],
    n_groups: int,
) -> int:
    """A multiple of the denominator of every value :func:`solve` finds.

    The value of a state of weight ``T > 0`` is ``1 + S / T``, so for each
    prime ``p`` its denominator holds at most ``e_p = v_p(T) + max e_p`` of
    the groups it reads.  A group's ``e_p`` is the largest among the states
    that write to it, which is the last writer's: it reads the group, so
    its own ``e_p`` is at least as large, unless the group was empty.  A
    state of weight 0 has value 0.  The result is the product of ``p **
    e_p`` over the largest ``e_p`` of any state, which is the largest over
    the final groups and the states that write no group.

    The exponents are kept per element ``b`` of :func:`_coprime_base` rather
    than per prime: for a prime ``p`` dividing ``b``, ``e_p = v_p(b) * e_b``
    at every state, so the product of ``b ** e_b`` is the same number.  The
    exponents of all elements travel packed in one int, a field each with a
    guard bit on top, laid out by :func:`_packing`.  Along a path an
    exponent grows by less than ``weight.bit_length()`` per state, so a
    field wide enough for the state count times that never carries into its
    neighbour, and the guard bits give a componentwise max in a few integer
    operations.  One loop takes that max inline over the groups each state
    reads, starting from the first nonzero one and skipping a group that is
    0 or equal to the max so far: neither can change it.
    """
    width = (len(weights) * max(weights, default=0).bit_length()).bit_length() + 1
    shift = width - 1
    field, guard, own = _packing(frozenset(weights), width)

    groups = [0] * n_groups
    loose = []  # the exponents of states that write no group
    for t, rd, wr in zip(weights, reads, writes):
        if not t:
            continue  # value 0, denominator 1
        e = 0
        for g in rd:  # e = the componentwise max of the groups read
            x = groups[g]
            if x == e or not x:
                continue
            if not e:
                e = x
                continue
            ge = ((e | guard) - x) & guard  # guard bits of the fields where e >= x
            if ge != guard:
                ge -= ge >> shift  # those fields' value bits
                e = x ^ ((e ^ x) & ge)
        e += own[t]
        if wr:
            for g in wr:
                groups[g] = e
        else:
            loose.append(e)
    top = 0  # the componentwise max of every final group and loose state
    for x in set(groups).union(loose):
        ge = ((top | guard) - x) & guard
        if ge != guard:
            ge -= ge >> shift
            top = x ^ ((top ^ x) & ge)
    d = 1
    for b, offset in field:
        d *= b ** ((top >> offset) & ((1 << shift) - 1))
    return d


@functools.lru_cache(maxsize=32)
def _packing(
    weights: frozenset[int], width: int
) -> tuple[tuple[tuple[int, int], ...], int, dict[int, int]]:
    """The field layout of :func:`_denominator` for a set of weights and a
    field width: each :func:`_coprime_base` element with its field's offset,
    the mask of every field's guard bit, and each weight's packed exponents
    ``v_b(weight)``, shared by every caller and so read only.  Every comb
    of one shape and one ``delta`` has the same weights, so a run of them
    packs once."""
    shift = width - 1
    field = tuple((b, k * width) for k, b in enumerate(_coprime_base(weights)))
    guard = sum(1 << (offset + shift) for _, offset in field)
    own = {}
    for t in weights:
        packed, rest = 0, t
        for b, offset in field:
            while rest and rest % b == 0:
                rest //= b
                packed += 1 << offset
        own[t] = packed
    return field, guard, own


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime integers above 1 such that every positive number in
    ``numbers`` is a product of their powers: a prime factorization's role,
    found with gcds alone, so any weight size stays cheap."""
    base: list[int] = []
    # smallest first: a larger number then mostly just divides out the base
    todo = sorted((n for n in numbers if n > 1), reverse=True)
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            while g == b:  # divide out what the base already holds
                x //= b
                g = math.gcd(x, b)
            if g > 1:
                # split both at their common part; the product shrinks by g
                del base[i]
                todo.extend(y for y in (b // g, g, x // g) if y > 1)
                break
        else:
            if x > 1:
                base.append(x)
    return base


def state_cap() -> int:
    """Cap on the state counts of exact solves, exhaustive checks, random
    combs and comb JSON, from ``PIVOTLAB_STATE_CAP`` (default 1000000)."""
    raw = os.environ.get(STATE_CAP_ENV, "1000000")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{STATE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def check_state_count(count: int, states: str, purpose: str) -> None:
    """Raise :class:`InstanceTooLargeError` when ``count`` exceeds the cap.
    A count of more than 40 digits is written as a power of ten: Python
    refuses to write an int of more than 4300 digits in decimal."""
    cap = state_cap()
    if count > cap:
        shown = count if count < 10**40 else f"about 10^{math.log10(count):.1f}"
        _refuse(shown, states, purpose, cap)


def check_power_count(base: int, exponent: int, states: str, purpose: str) -> None:
    """:func:`check_state_count` for ``base ** exponent`` states, ``base >=
    1``.  A power whose logarithm puts it past 40 digits and past the cap is
    refused from that logarithm alone: at a million digits, computing the
    power takes seconds."""
    cap = state_cap()
    digits = exponent * math.log10(base)
    # one digit of margin covers the float error of the logarithm
    if digits > max(40, len(str(cap))) + 1:
        _refuse(f"about 10^{digits:.1f}", states, purpose, cap)
    check_state_count(base**exponent, states, purpose)


def _refuse(shown: int | str, states: str, purpose: str, cap: int) -> NoReturn:
    raise InstanceTooLargeError(
        f"instance too large for {purpose}: {shown} {states} exceed the cap of {cap}"
    )
