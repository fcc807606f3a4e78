"""pivotlab: a laboratory for lower-bound constructions against random-edge
pivoting, in two equivalent models.

- :mod:`pivotlab.chain` holds the absorbing-chain rules both models share:
  the escape and draw rules (a draw names the escape ``None``), the
  compiled ``Chain`` both exact solves hand to one integer kernel, and
  the state cap (``PIVOTLAB_STATE_CAP``) on exact solves, exhaustive
  checks, random combs and comb JSON.
- :mod:`pivotlab.grid_uso` builds recursive comb orientations of grid graphs
  (acyclic, unique sink in every subgrid), simulates the directed random walk
  and solves its expected duration exactly; a comb keeps each visited
  vertex's arcs as vertex-id changes, which ``out_neighbors`` decodes into
  targets, and beside its compiled chain the checked arc table that both
  structural checks read.
- :mod:`pivotlab.geometry` constructs the exact-integer point families around
  the diagonal requirement line and decides every predicate exactly, the
  side test and pivot by integer signs from one fraction-free elimination.
- :mod:`pivotlab.process` runs the pivoting process on those point sets,
  tracks phases, and solves the finite chain exactly; a trace is the states
  it visited and the index drawn at each.
- :mod:`pivotlab.analysis` evaluates the closed-form duration bounds,
  estimates expectations by seeded Monte Carlo, and verifies the structural
  and statistical laws the constructions are supposed to obey.
- :mod:`pivotlab.cli` exposes everything as the ``pivotlab`` command.
"""

from . import analysis, chain, cli, geometry, grid_uso, process, seeding
from .errors import (
    DegeneracyError,
    GeneralPositionError,
    InstanceTooLargeError,
    InternalInvariantError,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "chain",
    "cli",
    "geometry",
    "grid_uso",
    "process",
    "seeding",
    "DegeneracyError",
    "GeneralPositionError",
    "InstanceTooLargeError",
    "InternalInvariantError",
    "__version__",
]
