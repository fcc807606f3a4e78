"""The rules shared by both models' absorbing chains.

The directed walk on a comb-oriented grid and the pivoting process are the
same object: a finite, acyclic chain whose states each have ``n_succ``
successors, drawn uniformly, plus ``escape`` parallel edges toward one
absorbing terminal state.
"""

from __future__ import annotations

import os
from fractions import Fraction
from random import Random

from .errors import InstanceTooLargeError

__all__ = [
    "TERMINAL",
    "Terminal",
    "check_state_count",
    "draw",
    "escape_weight",
    "expected_steps",
    "state_cap",
]

STATE_CAP_ENV = "PIVOTLAB_STATE_CAP"


class Terminal:
    """Type of the terminal state; :data:`TERMINAL` is its one instance."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TERMINAL"


TERMINAL = Terminal()


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


def expected_steps(succ_sum: Fraction, n_succ: int, escape: int) -> Fraction:
    """Expected steps to absorption of a state whose successors' values sum
    to ``succ_sum``: 0 at a dead end, else ``1 + succ_sum / (n_succ +
    escape)``."""
    total = n_succ + escape
    return Fraction(0) if total == 0 else 1 + succ_sum / total


def draw(rng: Random, n_succ: int, escape: int) -> int | Terminal:
    """One uniform draw over ``n_succ + escape`` edges: an index below
    ``n_succ`` picks that successor, any other the terminal.  A state without
    successors escapes without a draw; callers stop at a dead end first."""
    if n_succ == 0:
        return TERMINAL
    i = rng.randrange(n_succ + escape)
    return i if i < n_succ else TERMINAL


def state_cap() -> int:
    """Cap on the state counts of exact solves and exhaustive checks, from
    ``PIVOTLAB_STATE_CAP`` (default 1000000)."""
    raw = os.environ.get(STATE_CAP_ENV, "1000000")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{STATE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def check_state_count(count: int, states: str, purpose: str) -> None:
    """Raise :class:`InstanceTooLargeError` when ``count`` exceeds the cap."""
    cap = state_cap()
    if count > cap:
        raise InstanceTooLargeError(
            f"instance too large for {purpose}: {count} {states} exceed the "
            f"cap of {cap}"
        )
