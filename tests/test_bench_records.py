"""Every committed benchmark record at the repository root parses and
carries what a reader needs to rerun and compare it: the machine, the
parent commit, the command, and per workload its seeds with the parent's
and the change's figures."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_carries_its_provenance(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    assert {"python", "nproc"} <= machine.keys()
    assert isinstance(record["parent_commit"], str) and record["parent_commit"]
    assert isinstance(record["command"], str) and record["command"]
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        missing = {"seeds", "parent", "change"} - workload.keys()
        assert not missing, f"{name} lacks {sorted(missing)}"
