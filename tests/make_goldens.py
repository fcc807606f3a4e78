"""Regenerate the committed goldens of the seeded and exact CLI runs.

    python3 tests/make_goldens.py

``goldens/<name>.txt`` holds the stdout of ``pivotlab <argv>`` for every
``RERUN_CASES`` entry of ``test_cli.py``; ``goldens/sim-mc-shapes.json``
holds ``test_analysis.sim_mc_shapes_json()`` and
``goldens/verify-lemmas-mutations.json`` holds
``test_analysis.verify_lemmas_mutations_json()``.  Regenerate only when a change
is meant to move seeded outputs, such as a change of the random streams, and
say so: no exact value may move with them.
"""

from __future__ import annotations

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_analysis  # noqa: E402
import test_cli  # noqa: E402


def main() -> None:
    for name, argv in test_cli.RERUN_CASES.items():
        code, out, err = test_cli.run_cli(argv)
        if code != 0:
            raise SystemExit(f"pivotlab {' '.join(argv)} exited {code}: {err}")
        (test_cli.GOLDENS / f"{name}.txt").write_bytes(out.encode())
    shapes = test_analysis.sim_mc_shapes_json()
    (test_cli.GOLDENS / "sim-mc-shapes.json").write_bytes(shapes.encode())
    mutations = test_analysis.verify_lemmas_mutations_json()
    (test_cli.GOLDENS / "verify-lemmas-mutations.json").write_bytes(mutations.encode())


if __name__ == "__main__":
    main()
