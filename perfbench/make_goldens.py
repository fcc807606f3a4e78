"""Regenerate the committed goldens of the exact workloads.

    python3 perfbench/make_goldens.py

``goldens/process_exact.json`` holds every exact expected step count of the
``process_exact`` job list as ``numerator/denominator``;
``goldens/verify_cli.json`` holds the per-lemma case counts of every
``verify lemmas`` job.  Neither depends on a seed.  Regenerate only when a
change is meant to move these values, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def write(name: str, values: dict) -> None:
    path = workloads.GOLDENS / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"values": values}, indent=1, sort_keys=True) + "\n")


def main() -> None:
    process_values = {}
    for spec in dict.fromkeys(workloads.process_specs()):
        value = workloads.solve_process(spec)
        process_values[workloads.process_key(spec)] = f"{value.numerator}/{value.denominator}"
    write("process_exact", process_values)

    lemma_cases = {}
    for argv in workloads.LEMMA_ARGVS:
        code, payload = workloads.run_cli(argv)
        if code != 0 or not payload["ok"]:
            raise SystemExit(f"{' '.join(argv)} failed; not writing a golden")
        lemma_cases[" ".join(argv)] = {c["lemma"]: c["cases"] for c in payload["checks"]}
    write("verify_cli", lemma_cases)


if __name__ == "__main__":
    main()
