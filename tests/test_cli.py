"""Tests for the command-line surface: formats, exit codes, reproducibility."""

import argparse
import csv
import importlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pivotlab import analysis, chain, cli, grid_uso, process
from pivotlab.analysis import LemmaCheck, LemmaReport
from pivotlab.errors import DegeneracyError, InstanceTooLargeError

GOLDENS = Path(__file__).parent / "goldens"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# individual commands
# ---------------------------------------------------------------------------


def test_points_dump_json():
    code, out, _ = run_cli(["points", "dump", "--r", "3", "--m", "4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 24
    assert all(
        p["coords"][2] == "-64" for p in payload["points"] if p["j"] <= 2
    )
    # coordinates travel as decimal strings
    assert isinstance(payload["points"][0]["coords"][0], str)


def test_points_dump_csv():
    code, out, _ = run_cli(["points", "dump", "--r", "2", "--m", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "j", "k", "x1", "x2"]
    assert len(rows) == 7


def test_process_expect_exact_value():
    code, out, _ = run_cli(["process", "expect", "--r", "1", "--m", "4"])
    assert code == 0
    assert json.loads(out)["value"] == "11/6"


def test_process_expect_alpha_sweep():
    code, out, _ = run_cli(
        ["process", "expect", "--r", "1", "--m", "3", "--delta", "1", "--alpha-sweep", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count_terminal_step"] is True
    assert len(payload["worst_alphas"]) == 1


@pytest.mark.parametrize("width", ["0", "-2"])
def test_process_expect_empty_alpha_sweep_is_an_error(width):
    code, out, err = run_cli(
        ["process", "expect", "--r", "1", "--m", "3", "--alpha-sweep", width]
    )
    assert code == 1
    assert out == ""
    assert err == "error: no alpha choices supplied\n"


def test_process_expect_alpha_sweep_excludes_alphas():
    code, out, err = run_cli(
        ["process", "expect", "--r", "2", "--m", "3", "--alpha-sweep", "2", "--alphas", "9,9"]
    )
    assert code == 1 and out == ""
    assert "argument --alphas: not allowed with argument --alpha-sweep" in err


def test_uso_expect_identity():
    code, out, _ = run_cli(
        ["uso", "expect", "--r", "1", "--m", "3", "--identity"]
    )
    assert code == 0
    assert json.loads(out)["value"] == "5/6"


def test_uso_verify_passes_on_real_comb():
    code, out, _ = run_cli(["uso", "verify", "--r", "2", "--m", "3", "--seed", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["acyclic"] and payload["unique_sinks"]


def test_uso_verify_reads_each_vertex_once(monkeypatch):
    """Both checks share one read of the comb's id changes, one
    ``_moves`` call per vertex, and never decode targets into tuples."""
    reads = Counter()
    moves = grid_uso._moves

    def counted(comb, index):
        reads[index] += 1
        return moves(comb, index)

    def never(comb, v):
        raise AssertionError(f"out_neighbors({v}) called by uso verify")

    monkeypatch.setattr(grid_uso, "_moves", counted)
    monkeypatch.setattr(grid_uso, "out_neighbors", never)
    code, _, _ = run_cli(["uso", "verify", "--r", "2", "--m", "3", "--seed", "1"])
    assert code == 0
    assert reads == Counter(range(9))


def test_uso_verify_decides_a_grid_of_more_subgrids_than_the_cap(monkeypatch):
    """(2,12) has 144 vertices and (2**12 - 1)**2 subgrids, over the default
    cap: the count decides it, and the subgrid cap guards only the sweep."""
    monkeypatch.delenv("PIVOTLAB_STATE_CAP", raising=False)
    code, out, err = run_cli(["uso", "verify", "--r", "2", "--m", "12", "--seed", "1"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["acyclic"] and payload["unique_sinks"]


def test_uso_verify_caps_the_grid_edges_before_reading_an_arc(monkeypatch):
    """The identity (2,10) grid has 100 vertices and 100 * 18 / 2 = 900
    edges: under a cap of 100 it is refused on its edges, with no arc read."""

    def never(comb, index):
        raise AssertionError(f"the moves of vertex {index} read before the edge cap")

    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "100")
    monkeypatch.setattr(grid_uso, "_moves", never)
    code, out, err = run_cli(["uso", "verify", "--identity", "--r", "2", "--m", "10"])
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: instance too large for the acyclicity check: "
        "900 grid edges exceed the cap of 100\n"
    )


def test_points_dump_names_the_least_usable_alpha():
    for alphas in ["2,5", "3,5"]:
        code, out, err = run_cli(["points", "dump", "--r", "2", "--m", "3", "--alphas", alphas])
        low = alphas.split(",")[0]
        assert (code, out, err) == (1, "", f"error: adversary alpha {low} below the minimum 4\n")


def test_uso_verify_zero_dimensional_grid():
    code, out, _ = run_cli(["uso", "verify", "--r", "0", "--m", "3", "--seed", "7"])
    assert code == 0
    assert json.loads(out) == {
        "acyclic": True,
        "m": 3,
        "r": 0,
        "seed": 7,
        "unique_sinks": True,
        "violations": [],
    }


def test_verify_lemmas_all_pass():
    code, out, _ = run_cli(["verify", "lemmas", "--r", "2", "--m", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True and payload["ok"] is True


def test_verify_lemmas_case_counts_match_the_benchmark_golden(monkeypatch):
    """The benchmark's ``verify_cli`` lemma jobs fail when a case count
    differs from its golden; this finds such a change in the fast suite."""
    root = Path(__file__).parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    golden = json.loads((root / "goldens" / "verify_cli.json").read_text())["values"]
    for argv in workloads.LEMMA_ARGVS:
        code, out, _ = run_cli(argv)
        assert code == 0, argv
        cases = {c["lemma"]: c["cases"] for c in json.loads(out)["checks"]}
        assert cases == golden[" ".join(argv)], argv


def test_verify_lemmas_failure_exit_code(monkeypatch):
    failing = LemmaReport(
        2, 4, [LemmaCheck("colors", False, 3, "broken")]
    )
    monkeypatch.setattr(analysis, "verify_lemmas", lambda *a, **k: failing)
    code, out, _ = run_cli(["verify", "lemmas", "--r", "2", "--m", "4"])
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_negative_phase_trials_is_a_usage_error():
    code, out, err = run_cli(
        ["verify", "lemmas", "--r", "2", "--m", "3", "--phase-trials", "-5", "--seed", "1"]
    )
    assert code == 1 and out == ""
    assert err == "error: need at least 1 trace for the phase laws, got -5\n"


def test_negative_phase_trials_is_rejected_before_the_suite_runs(monkeypatch):
    def suite(*args, **kwargs):
        raise AssertionError("the lemma suite ran before the count was checked")

    monkeypatch.setattr(analysis, "verify_lemmas", suite)
    code, out, err = run_cli(
        ["verify", "lemmas", "--r", "3", "--m", "7", "--phase-trials", "-5", "--seed", "1"]
    )
    assert (code, out) == (1, "")
    assert err == "error: need at least 1 trace for the phase laws, got -5\n"


def test_negative_phase_delta_is_rejected_before_the_suite_runs(monkeypatch):
    def suite(*args, **kwargs):
        raise AssertionError("the lemma suite ran before the deltas were checked")

    monkeypatch.setattr(analysis, "verify_lemmas", suite)
    code, out, err = run_cli(
        ["verify", "lemmas", "--r", "3", "--m", "5", "--phase-trials", "5",
         "--phase-deltas", "-1", "--seed", "1"]
    )
    assert (code, out, err) == (1, "", "error: delta must be >= 0\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["uso", "expect", "--r", "2", "--m", "3", "--seed", "1", "--start", "1,,2"], "1,,2"),
        (["uso", "walk", "--r", "2", "--m", "3", "--seed", "1", "--start", "1,2,"], "1,2,"),
        (["process", "expect", "--r", "2", "--m", "3", "--alphas", "4,,5"], "4,,5"),
        (["verify", "lemmas", "--r", "2", "--m", "3", "--phase-trials", "1",
          "--phase-deltas", ",2"], ",2"),
        (["bench", "bounds", "--r-list", "1,,2", "--seed", "1"], "1,,2"),
        (["bench", "bounds", "--m-list", "2, ,3", "--seed", "1"], "2, ,3"),
        (["bench", "bounds", "--families", "uso_lemma", "--delta-list", "0,", "--seed", "1"], "0,"),
    ],
    ids=["start", "start-trailing", "alphas", "phase-deltas", "r-list", "m-list", "delta-list"],
)
def test_empty_list_field_is_a_usage_error(argv, text):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (1, "", f"error: empty field in the list {text!r}\n")


@pytest.mark.parametrize(
    "argv, field, text",
    [
        (["points", "dump", "--r", "2", "--m", "3", "--alphas", "4,x"], "x", "4,x"),
        (["process", "expect", "--r", "2", "--m", "3", "--alphas", "4,5.5"], "5.5", "4,5.5"),
        (["uso", "walk", "--r", "2", "--m", "3", "--seed", "1", "--start", "1,a"], "a", "1,a"),
        (["verify", "lemmas", "--r", "2", "--m", "3", "--phase-trials", "1",
          "--phase-deltas", "0,two"], "two", "0,two"),
        (["bench", "bounds", "--r-list", "1,b", "--seed", "1"], "b", "1,b"),
    ],
    ids=["alphas", "alphas-float", "start", "phase-deltas", "r-list"],
)
def test_non_integer_list_field_is_a_usage_error(argv, field, text):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (1, "", f"error: not an integer {field!r} in the list {text!r}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["uso", "expect", "--r", "-1", "--m", "3"], "dimension must be >= 0"),
        (["uso", "verify", "--r", "-1", "--m", "3"], "dimension must be >= 0"),
        (["uso", "build", "--r", "2", "--m", "0"], "factor size must be >= 1"),
        (["uso", "expect", "--r", "2", "--m", "0"], "factor size must be >= 1"),
        (["uso", "walk", "--r", "2", "--m", "0", "--trials", "3", "--seed", "1"],
         "factor size must be >= 1"),
    ],
    ids=["expect-r", "verify-r", "build-m", "expect-m", "walk-m"],
)
def test_identity_comb_shape_is_a_usage_error(argv, message):
    code, out, err = run_cli(argv + ["--identity"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_start_vertex_outside_the_grid_is_a_usage_error():
    code, out, err = run_cli(
        ["uso", "walk", "--r", "2", "--m", "3", "--start", "4,1", "--seed", "1"]
    )
    assert (code, out, err) == (1, "", "error: vertex (4, 1) not in grid (3, 3)\n")


# the point family is not in general position at (5, 2): point (1,5,2) lies
# on the hyperplane of (1,1,2) and on-axis points of the other colours
GENERAL_POSITION_FAILURES = {
    "process-expect": ["process", "expect", "--r", "5", "--m", "2"],
    "process-run": [
        "process", "run", "--r", "5", "--m", "2", "--seed", "1", "--trials", "5", "--format", "json"
    ],
}


@pytest.mark.parametrize("argv", GENERAL_POSITION_FAILURES.values(), ids=list(GENERAL_POSITION_FAILURES))
def test_general_position_failure_is_one_error_line(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: (r, m) = (5, 2): PointId(")
    assert "lies on the hyperplane of" in err


def test_general_position_error_prints_point_id_reprs():
    code, _, err = run_cli(GENERAL_POSITION_FAILURES["process-expect"])
    members = ", ".join(
        f"PointId(color={i}, layer={j}, phase={k})"
        for i, j, k in ((1, 1, 2), (2, 5, 2), (3, 5, 2), (4, 5, 2), (5, 5, 1))
    )
    assert (code, err) == (
        1,
        f"error: (r, m) = (5, 2): PointId(color=1, layer=5, phase=2) lies on the "
        f"hyperplane of ({members})\n",
    )


def test_bench_bounds_names_the_size_that_left_general_position():
    code, out, err = run_cli(
        ["bench", "bounds", "--families", "main_theorem", "--r-list", "5", "--m-list", "2",
         "--seed", "1"]
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: main_theorem at (r, m) = (5, 2): PointId(")


def test_degenerate_simplex_is_one_error_line(monkeypatch):
    def degenerate(cfg):
        raise DegeneracyError("spanning system is singular")

    monkeypatch.setattr(process, "exact_expected_steps", degenerate)
    code, out, err = run_cli(["process", "expect", "--r", "2", "--m", "3"])
    assert (code, out) == (1, "")
    assert err == "error: (r, m) = (2, 3): spanning system is singular\n"


def test_phase_trials_without_deltas_is_a_usage_error():
    code, out, err = run_cli(
        ["verify", "lemmas", "--r", "2", "--m", "3", "--phase-trials", "50",
         "--phase-deltas", "", "--seed", "1"]
    )
    assert (code, out, err) == (
        1, "", "error: --phase-trials needs at least one delta in --phase-deltas\n"
    )


def test_usage_error_exit_code():
    code, _, _ = run_cli(["no-such-group"])
    assert code == 1
    code, _, _ = run_cli(["uso", "expect", "--r", "2"])  # missing --m
    assert code == 1


SEEDED_COMMANDS = {
    "uso build", "uso walk", "uso expect", "uso verify",
    "process run", "verify lemmas", "bench bounds",
}


def _commands(parser, prefix=()):
    """Every leaf command of ``parser`` by its words, with its parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, prefix + (name,))


def test_seed_is_offered_only_where_a_seed_is_drawn_or_embedded():
    commands = dict(_commands(cli.build_parser()))
    assert {"points dump", "process expect"} < commands.keys()
    seeded = {name for name, p in commands.items() if "--seed" in p._option_string_actions}
    assert seeded == SEEDED_COMMANDS


@pytest.mark.parametrize(
    "argv",
    [
        ["uso", "build", "--r", "1", "--m", "3", "--identity", "--seed", "1"],
        ["uso", "expect", "--r", "1", "--m", "3", "--seed", "1", "--identity"],
        ["uso", "verify", "--r", "1", "--m", "3", "--identity", "--seed", "1"],
    ],
    ids=["build", "expect", "verify"],
)
def test_identity_comb_refuses_seed(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: pivotlab uso ")
    assert "not allowed with argument" in err


def test_verify_lemmas_refuses_seed_without_phase_trials(monkeypatch):
    def suite(*args, **kwargs):
        raise AssertionError("the lemma suite ran before its flags were checked")

    monkeypatch.setattr(analysis, "verify_lemmas", suite)
    # --phase-deltas, like --seed, only serves the phase laws
    for flag, value in [("--seed", "1"), ("--phase-deltas", "0,2"), ("--phase-deltas", "")]:
        code, out, err = run_cli(["verify", "lemmas", "--r", "2", "--m", "3", flag, value])
        assert (code, out) == (1, "")
        assert err == f"error: {flag} needs --phase-trials: the lemma suite draws nothing\n"


@pytest.mark.parametrize("command", ["build", "expect", "verify"])
def test_identity_comb_announces_no_seed(command):
    code, out, err = run_cli(["uso", command, "--r", "1", "--m", "3", "--identity"])
    assert (code, err) == (0, "")
    assert json.loads(out)["seed"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["uso", "build", "--r", "1", "--m", "3"],
        ["uso", "expect", "--r", "1", "--m", "3"],
        ["uso", "verify", "--r", "1", "--m", "3"],
        ["uso", "walk", "--r", "1", "--m", "3", "--identity", "--trials", "3"],
        ["process", "run", "--r", "1", "--m", "3", "--trials", "3", "--format", "json"],
        ["verify", "lemmas", "--r", "2", "--m", "3", "--phase-trials", "50"],
        ["bench", "bounds", "--families", "uso_lemma", "--r-list", "1", "--m-list", "3",
         "--orientations", "2", "--format", "json"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_commands_that_draw_take_seed(argv):
    code, out, err = run_cli(argv + ["--seed", "5"])
    assert code in (0, 2) and err == ""
    payload = json.loads(out)
    seeds = {row["seed"] for row in payload} if isinstance(payload, list) else {payload["seed"]}
    assert seeds == {5}


def test_points_dump_refuses_seed():
    code, out, err = run_cli(["points", "dump", "--r", "2", "--m", "3", "--seed", "1"])
    assert (code, out) == (1, "")
    assert "error: unrecognized arguments: --seed 1" in err


def test_unknown_bench_family_is_one_error_line():
    code, out, err = run_cli(["bench", "bounds", "--families", "nope", "--seed", "1"])
    assert (code, out, err) == (1, "", "error: unknown bound family 'nope'\n")


def test_help_exits_zero():
    code, _, _ = run_cli(["--help"])
    assert code == 0


def test_readme_commands_parse_and_every_help_exits_zero(monkeypatch):
    """Every ``pivotlab`` line of the README's CLI block parses, so the docs
    show no refused combination, and each command renders its ``--help``.
    The ``bench bounds`` and ``verify lemmas`` lines also pass their
    handlers' own checks, with the measurements stubbed out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line.split("#", 1)[0].split(">", 1)[0])
        if words[:1] == ["pivotlab"]:
            commands.append(words[1:])
    assert commands
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README shows a refused command: pivotlab {shlex.join(argv)}")

    def report(params, mode, **counts):
        return analysis.ExpectationReport(1.0, mode, bound=0.0, satisfied=True)

    monkeypatch.setattr(analysis, "compare_to_bound", report)
    monkeypatch.setattr(analysis, "verify_lemmas", lambda r, m, **kw: LemmaReport(r, m, []))
    handled = [argv for argv in commands if argv[:1] in (["bench"], ["verify"])]
    assert len(handled) == 2
    for argv in handled:
        code, _, err = run_cli(argv)
        refused = f"the README shows a refused command: pivotlab {shlex.join(argv)}"
        assert (code, err) == (0, ""), refused
    for name, _ in _commands(cli.build_parser()):
        assert run_cli(name.split() + ["--help"])[0] == 0, name


def test_every_option_of_every_command_has_help():
    undocumented = [
        f"{name} {action.option_strings[-1]}"
        for name, p in _commands(cli.build_parser())
        for action in p._actions
        if action.option_strings and not (action.help or "").strip()
    ]
    assert not undocumented


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_dispatch_reuses_one_parser():
    assert cli.build_parser() is cli.build_parser()


def test_deep_does_not_carry_over_to_the_next_call():
    base = ["verify", "lemmas", "--r", "2", "--m", "3"]
    code, out, _ = run_cli([*base, "--deep", "3"])
    assert code == 0
    assert any("@deep" in c["lemma"] for c in json.loads(out)["checks"])
    code, out, _ = run_cli(base)
    assert code == 0
    assert not any("@deep" in c["lemma"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize(
    "first, first_code",
    [(["uso", "expect", "--r", "2"], 1), (["--help"], 0), (["uso", "verify", "--help"], 0)],
)
def test_usage_error_or_help_leaves_the_parser_usable(first, first_code):
    argv = ["uso", "verify", "--r", "2", "--m", "4", "--seed", "11"]
    cli.build_parser.cache_clear()
    fresh = run_cli(argv)
    assert run_cli(first)[0] == first_code
    assert run_cli(argv) == fresh
    assert fresh[0] == 0


def test_handlers_look_up_the_library_at_call_time(monkeypatch):
    run_cli(["uso", "verify", "--r", "1", "--m", "2", "--seed", "1"])
    calls = []
    failing = LemmaReport(2, 3, [LemmaCheck("colors", False, 1, "patched")])

    def patched(*args, **kwargs):
        calls.append(args)
        return failing

    monkeypatch.setattr(analysis, "verify_lemmas", patched)
    code, out, _ = run_cli(["verify", "lemmas", "--r", "2", "--m", "3"])
    assert (code, len(calls)) == (2, 1)
    assert json.loads(out)["checks"][0]["counterexample"] == "patched"


def test_exact_mode_cap_suggests_monte_carlo(monkeypatch):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "4")
    code, _, err = run_cli(["process", "expect", "--r", "2", "--m", "3"])
    assert code == 1
    assert "too large for exact mode" in err
    assert "Monte Carlo" in err


def test_uso_verify_cap_hint_offers_no_monte_carlo(monkeypatch):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "3")
    code, _, err = run_cli(["uso", "verify", "--r", "2", "--m", "3", "--seed", "1"])
    assert code == 1
    assert "cap of 3" in err and "PIVOTLAB_STATE_CAP" in err
    assert "Monte Carlo" not in err


@pytest.mark.parametrize("command", ["build", "walk", "expect", "verify"])
@pytest.mark.parametrize("r, m", [(6, 12), (7, 9)])
def test_oversized_grid_is_refused_before_the_comb_is_built(monkeypatch, command, r, m):
    def random_comb(*args):
        raise AssertionError("the comb was drawn")

    monkeypatch.delenv("PIVOTLAB_STATE_CAP", raising=False)
    monkeypatch.setattr(grid_uso, "_random_comb", random_comb)
    code, out, err = run_cli(["uso", command, "--r", str(r), "--m", str(m), "--seed", "1"])
    assert (code, out, err) == (
        1,
        "",
        f"error: instance too large for a random comb: {m**r} vertices exceed the cap of 1000000\n"
        "hint: raise PIVOTLAB_STATE_CAP\n",
    )


@pytest.mark.parametrize("command, r, count", [
    ("expect", 20000, "about 10^6020.6"),
    ("verify", 14000, "about 10^4214.4"),
])
def test_huge_count_is_written_as_a_power_of_ten(monkeypatch, command, r, count):
    """Past r = 14,284, ``2**r`` has more digits than Python writes in
    decimal; at r = 14,000 the message held all 4,215 of them."""
    monkeypatch.delenv("PIVOTLAB_STATE_CAP", raising=False)
    code, out, err = run_cli(["uso", command, "--r", str(r), "--m", "2", "--seed", "1"])
    assert (code, out, err) == (
        1,
        "",
        f"error: instance too large for a random comb: {count} vertices exceed the cap of 1000000\n"
        "hint: raise PIVOTLAB_STATE_CAP\n",
    )


_CAP_HINT = "hint: raise PIVOTLAB_STATE_CAP"
_MC_HINT = "hint: use Monte Carlo mode, or raise PIVOTLAB_STATE_CAP"
_TOO_LARGE = "instance too large for"


REFUSALS = [
    (["process", "expect"], f"{_TOO_LARGE} exact mode: 18 transversals", _MC_HINT),
    (["uso", "expect"], f"{_TOO_LARGE} a random comb: 9 vertices", _CAP_HINT),
    (["uso", "expect", "--identity"], f"{_TOO_LARGE} exact mode: 9 vertices", _MC_HINT),
    (["uso", "verify"], f"{_TOO_LARGE} a random comb: 9 vertices", _CAP_HINT),
    (["uso", "verify", "--identity"], f"{_TOO_LARGE} the acyclicity check: 9 vertices",
     _CAP_HINT),
    (["uso", "walk"], f"{_TOO_LARGE} a random comb: 9 vertices", _CAP_HINT),
    (["uso", "build"], f"{_TOO_LARGE} a random comb: 9 vertices", _CAP_HINT),
    (["uso", "build", "--identity"], f"{_TOO_LARGE} the comb JSON: 9 vertices", _CAP_HINT),
    (["bench", "bounds", "--families", "uso_lemma"],
     f"uso_lemma at (r, m) = (2, 3): {_TOO_LARGE} a random comb: 9 vertices", _CAP_HINT),
    (["bench", "bounds", "--families", "uso_lemma", "--mc"],
     f"uso_lemma at (r, m) = (2, 3): {_TOO_LARGE} a random comb: 9 vertices", _CAP_HINT),
    (["bench", "bounds", "--families", "main_theorem"],
     f"main_theorem at (r, m) = (2, 3): {_TOO_LARGE} exact mode: 18 transversals", _MC_HINT),
]


@pytest.mark.parametrize(
    "argv, error, hint", REFUSALS, ids=[" ".join(argv) for argv, _, _ in REFUSALS]
)
def test_every_size_refusal_prints_its_error_and_hint(monkeypatch, argv, error, hint):
    """One row per way a command can meet the state cap, at (r, m) = (2, 3)
    under a cap of 8.  Only an exact solve has a Monte Carlo counterpart:
    sampling draws the same comb that a comb refusal refuses."""
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", "8")
    shape = {
        "bench": ["--r-list", "2", "--m-list", "3", "--seed", "1"],
        # an identity comb draws nothing, so it takes no seed
        "uso": ["--r", "2", "--m", "3"] + ([] if "--identity" in argv else ["--seed", "1"]),
        "process": ["--r", "2", "--m", "3"],
    }
    code, out, err = run_cli(argv + shape[argv[0]])
    assert (code, out, err) == (1, "", f"error: {error} exceed the cap of 8\n{hint}\n")


def test_identity_walk_needs_no_cap():
    """An identity comb shares one child per level: walking a 2**60-vertex
    grid builds 60 nodes and is never refused."""
    code, out, err = run_cli(
        ["uso", "walk", "--identity", "--r", "60", "--m", "2", "--seed", "1", "--trials", "1000"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 30.126


def test_cap_message_writes_forty_digits_in_full(monkeypatch):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", str(10**39))
    with pytest.raises(InstanceTooLargeError, match=f": {10**40 - 1} vertices exceed"):
        chain.check_state_count(10**40 - 1, "vertices", "exact mode")
    with pytest.raises(InstanceTooLargeError, match=r": about 10\^40\.0 vertices exceed"):
        chain.check_state_count(10**40, "vertices", "exact mode")


def test_absurd_comb_is_refused_from_the_logarithm_of_its_size(monkeypatch):
    """``3**r`` at r = 10**9 has half a billion digits: computing it would
    not finish, so the refusal must come from ``r * log10(m)``."""
    monkeypatch.delenv("PIVOTLAB_STATE_CAP", raising=False)
    code, out, err = run_cli(["uso", "build", "--r", "1000000000", "--m", "3", "--seed", "1"])
    assert (code, out, err) == (
        1,
        "",
        "error: instance too large for a random comb: about 10^477121254.7 vertices "
        "exceed the cap of 1000000\nhint: raise PIVOTLAB_STATE_CAP\n",
    )


def test_power_count_is_exact_next_to_a_long_cap(monkeypatch):
    """Within a digit of the cap's length the power is computed, so a cap of
    48 digits still decides 3**100 and 3**101 exactly."""
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", str(3**100))
    chain.check_power_count(3, 100, "vertices", "exact mode")
    with pytest.raises(InstanceTooLargeError, match=r": about 10\^48\.2 vertices exceed"):
        chain.check_power_count(3, 101, "vertices", "exact mode")


def test_comb_deeper_than_the_recursion_limit_is_one_error_line():
    code, out, err = run_cli(["uso", "build", "--r", "500", "--m", "1", "--seed", "1"])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: (r, m) = (500, 1): maximum recursion depth exceeded")


def test_cli_import_loads_no_scipy_or_numpy():
    """Runs in a fresh interpreter: this test session itself imports scipy
    as the oracle for the chi-square tails."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import pivotlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-5"])
def test_malformed_state_cap_is_a_one_line_usage_error(monkeypatch, raw):
    monkeypatch.setenv("PIVOTLAB_STATE_CAP", raw)
    code, out, err = run_cli(["uso", "expect", "--r", "2", "--m", "3", "--seed", "1"])
    assert code == 1 and out == ""
    assert err == f"error: PIVOTLAB_STATE_CAP must be a positive integer, got {raw!r}\n"


def test_seed_generated_and_reported_when_missing():
    code, out, err = run_cli(["uso", "build", "--r", "1", "--m", "3"])
    assert code == 0
    assert "generated seed:" in err
    assert json.loads(out)["seed"] is not None


def test_process_run_jsonl():
    code, out, _ = run_cli(
        ["process", "run", "--r", "2", "--m", "3", "--seed", "5", "--trials", "2"]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert all(set(l) == {"t", "S", "pivot", "below", "phase"} for l in lines)
    assert sum(1 for l in lines if l["pivot"] == "inf") == 2


@pytest.mark.parametrize("trials", ["0", "-2"])
@pytest.mark.parametrize(
    "command",
    [
        ["process", "run", "--r", "2", "--m", "3"],
        ["uso", "walk", "--r", "1", "--m", "3", "--format", "jsonl"],
    ],
    ids=["process-run", "uso-walk"],
)
def test_jsonl_dump_needs_a_trial(command, trials):
    code, out, err = run_cli(command + ["--seed", "1", "--trials", trials])
    assert code == 1 and out == ""
    assert err == f"error: need at least 1 trial for a jsonl trace dump, got {trials}\n"


@pytest.mark.parametrize(
    "command",
    [["uso", "walk", "--r", "2", "--m", "3"], ["process", "run", "--r", "2", "--m", "3"]],
    ids=["uso-walk", "process-run"],
)
def test_sampling_commands_default_their_trials(monkeypatch, command):
    """A jsonl dump is one run by default; a json summary hands
    :func:`analysis.mc_estimate` 100000 trials."""
    dump = command + ["--seed", "1", "--format", "jsonl"]
    assert run_cli(dump) == run_cli(dump + ["--trials", "1"])
    counts = []
    estimate = analysis.mc_estimate

    def record(sample, trials, seed):
        counts.append(trials)
        return estimate(sample, 2, seed)

    monkeypatch.setattr(analysis, "mc_estimate", record)
    code, out, _ = run_cli(command + ["--seed", "1", "--format", "json"])
    assert (code, counts, json.loads(out)["seed"]) == (0, [100_000], 1)


def test_uso_walk_summary_json():
    code, out, _ = run_cli(
        ["uso", "walk", "--r", "1", "--m", "3", "--seed", "9", "--trials", "4000"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 4000
    assert payload["ci_low"] <= 5 / 6 <= payload["ci_high"]


def test_uso_walk_jsonl_one_vertex_per_line():
    code, out, _ = run_cli(
        [
            "uso", "walk", "--r", "1", "--m", "3", "--seed", "2",
            "--trials", "3", "--delta", "1", "--format", "jsonl",
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert all(line == "inf" or isinstance(line, list) for line in lines)
    # three augmented walks, each ending with a terminal hop
    assert sum(1 for line in lines if line == "inf") == 3
    assert lines[-1] == "inf"


def test_bench_bounds_csv_sorted_and_satisfied():
    code, out, _ = run_cli(
        [
            "bench", "bounds", "--families", "main_theorem,augmented_theorem",
            "--r-list", "1,2", "--m-list", "2..4", "--delta-list", "0,1",
            "--seed", "3",
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    keys = [(r["family"], int(r["r"]), int(r["m"]), int(r["delta"])) for r in rows]
    assert keys == sorted(keys)
    assert all(r["satisfied"] == "true" for r in rows)
    assert all(r["seed"] == "3" for r in rows)


@pytest.mark.parametrize(
    "mode", [["--orientations", "5"], ["--mc", "--trials", "200"]], ids=["exact", "mc"]
)
@pytest.mark.parametrize("family", analysis.FAMILIES)
def test_bench_bounds_measures_every_family_in_both_modes(family, mode):
    m = "5" if family == "corollary" else "3"  # the m column is n for corollary
    if family not in analysis.COMB_FAMILIES and "--mc" not in mode:
        mode = []  # a process family is solved once: --orientations is refused
    if family in analysis.DELTA_FAMILIES:
        mode = ["--delta-list", "1", *mode]  # the other families refuse it
    code, out, err = run_cli(
        [
            "bench", "bounds", "--families", family, "--r-list", "2", "--m-list", m,
            "--seed", "4", *mode,
        ]
    )
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["family"], row["r"], row["m"]) for row in rows] == [(family, "2", m)]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", "200"], "--trials needs --mc: exact mode samples no runs"),
        (
            ["--mc", "--orientations", "5"],
            "--orientations needs exact mode: --mc draws a fresh comb per run",
        ),
        (
            ["--families", "main_theorem", "--orientations", "5"],
            "--orientations needs a comb family: a process family is solved once",
        ),
        (
            ["--families", "augmented_theorem, main_theorem", "--orientations", "5"],
            "--orientations needs a comb family: a process family is solved once",
        ),
    ],
    ids=["trials-exact", "orientations-mc", "orientations-process", "orientations-processes"],
)
def test_bench_bounds_refuses_a_count_its_mode_does_not_read(monkeypatch, flags, message):
    def measure(*args, **kwargs):
        raise AssertionError("the sweep ran before its flags were checked")

    monkeypatch.setattr(analysis, "compare_to_bound", measure)
    code, out, err = run_cli(["bench", "bounds", "--r-list", "1", "--m-list", "2", *flags])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bench_bounds_mixed_families_keep_orientations():
    """A list with one comb family keeps ``--orientations``: its comb rows
    read it, and the process rows are solved exactly as without it."""
    argv = ["bench", "bounds", "--r-list", "1", "--m-list", "3", "--seed", "1"]
    mixed = ["--families", "main_theorem,uso_theorem_eq1"]
    code, out, err = run_cli([*argv, *mixed, "--orientations", "3"])
    assert (code, err) == (0, "")
    rows = {row["family"]: row for row in csv.DictReader(io.StringIO(out))}
    _, alone, _ = run_cli([*argv, "--families", "main_theorem"])
    assert rows["main_theorem"] == next(csv.DictReader(io.StringIO(alone)))
    _, default, _ = run_cli([*argv, *mixed])
    assert rows["uso_theorem_eq1"] != {
        row["family"]: row for row in csv.DictReader(io.StringIO(default))
    }["uso_theorem_eq1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "bounds", "--families", "main_theorem,typo"],
         "unknown bound family 'typo'"),
        (["bench", "bounds", "--families", "main_theorem", "--delta-list", "1,2"],
         "--delta-list needs a delta family: uso_lemma or augmented_theorem"),
        (["bench", "bounds", "--families", "uso_lemma", "--r-list", "1,-1"],
         "need r >= 0 and delta >= 0"),
        (["bench", "bounds", "--families", "uso_lemma,main_theorem", "--r-list", "1,0",
          "--m-list", "2", "--seed", "1"],
         "main_theorem needs r >= 1: the point family has no r = 0"),
        (["bench", "bounds", "--families", "augmented_theorem", "--r-list", "0"],
         "augmented_theorem needs r >= 1: the point family has no r = 0"),
        (["verify", "lemmas", "--r", "2", "--m", "3", "--deep", "2", "--phase-trials", "10"],
         "--deep 2: need R > r >= 1"),
        (["verify", "lemmas", "--r", "2", "--m", "2", "--deep", "3", "--phase-trials", "10"],
         "--deep 3: the projection argument needs m >= 3"),
    ],
    ids=[
        "unknown-family", "delta-list-unread", "negative-r", "process-r-zero",
        "augmented-r-zero", "deep-not-above-r", "deep-small-m",
    ],
)
def test_a_bad_point_is_refused_before_a_seed_is_drawn(monkeypatch, argv, message):
    """Every point of a sweep, and every ``--deep`` projection, is checked
    before anything is measured or a seed is announced."""
    def measure(*args, **kwargs):
        raise AssertionError("measured before every point was checked")

    for name in ("compare_to_bound", "phase_law_report", "verify_lemmas"):
        monkeypatch.setattr(analysis, name, measure)
    assert run_cli(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("orientations", ["0", "1"])
def test_bench_bounds_needs_two_orientations(orientations):
    code, out, err = run_cli(
        [
            "bench", "bounds", "--r-list", "1", "--m-list", "2",
            "--orientations", orientations, "--seed", "1",
        ]
    )
    assert code == 1
    assert out == ""
    assert err == "error: need at least 2 orientations for a standard error\n"


@pytest.mark.parametrize(
    "counts, message",
    [
        (["--orientations", "1"], "need at least 2 orientations for a standard error"),
        (["--mc", "--trials", "1"], "need at least 2 trials for a standard error"),
    ],
    ids=["orientations", "mc-trials"],
)
def test_bench_bounds_refuses_a_count_below_two_up_front(monkeypatch, counts, message):
    """A count too small for a standard error is refused before a seed is
    generated and announced, and before the process family listed first is
    measured."""
    def measure(*args, **kwargs):
        raise AssertionError("measured before the counts were checked")

    monkeypatch.setattr(analysis, "compare_to_bound", measure)
    argv = ["bench", "bounds", "--families", "main_theorem,uso_lemma",
            "--r-list", "1", "--m-list", "2", *counts]
    assert run_cli(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "sweep, message",
    [
        (["--m-list", "5..2"], "error: empty range '5..2'\n"),
        (
            ["--families", "corollary", "--r-list", "2", "--m-list", "2"],
            "error: empty sweep: nothing to measure (the corollary family needs m > r)\n",
        ),
    ],
    ids=["reversed-range", "corollary-n-at-most-r"],
)
def test_bench_bounds_empty_sweep_is_an_error(sweep, message):
    code, out, err = run_cli(["bench", "bounds", *sweep, "--seed", "1"])
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("flag", ["--r-list", "--m-list"])
@pytest.mark.parametrize("text", ["1..2..3", "2..", "..5", "a..3"])
def test_malformed_range_is_a_usage_error(flag, text):
    code, out, err = run_cli(["bench", "bounds", flag, text, "--seed", "1"])
    message = f"error: malformed range {text!r}: expected LO..HI with integer bounds\n"
    assert (code, out, err) == (1, "", message)


def test_parse_range_accepts_ranges_and_lists():
    assert cli._parse_range("2..8") == [2, 3, 4, 5, 6, 7, 8]
    assert cli._parse_range("3..3") == [3]
    assert cli._parse_range("2,3,5") == [2, 3, 5]
    with pytest.raises(ValueError, match="empty range '5..2'"):
        cli._parse_range("5..2")


def test_benchmark_tracer_names_exist():
    """The benchmark's tracer patches these names by ``getattr``; a rename in
    ``src/`` would break every traced benchmark run."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, fn) for mod, fns in tracer.TRACED.items() for fn in fns]
    names.append(("geometry", "transversals"))
    for mod, fn in names:
        module = importlib.import_module(f"pivotlab.{mod}")
        assert callable(getattr(module, fn, None)), f"pivotlab.{mod}.{fn}"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pivotlab", "points", "dump", "--r", "2", "--m", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode() == (GOLDENS / "points-dump.txt").read_bytes()


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "points.json"
    code, out, _ = run_cli(
        ["points", "dump", "--r", "2", "--m", "2", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["m"] == 2


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


RERUN_CASES = {
    "uso-build": ["uso", "build", "--r", "2", "--m", "3", "--seed", "11"],
    "points-dump": ["points", "dump", "--r", "2", "--m", "3"],
    "process-run": ["process", "run", "--r", "2", "--m", "3", "--seed", "11", "--trials", "3"],
    "bench-bounds": [
        "bench", "bounds", "--families", "main_theorem", "--r-list", "1",
        "--m-list", "2..4", "--seed", "11",
    ],
    "verify-lemmas": ["verify", "lemmas", "--r", "2", "--m", "3"],
    # heads of three points: the piercing kernel's pivot steps past the first
    "verify-lemmas-r4-m3": ["verify", "lemmas", "--r", "4", "--m", "3"],
    # the sink's forced escape is the last draw of each walk
    "uso-walk-delta0-jsonl": [
        "uso", "walk", "--r", "2", "--m", "3", "--seed", "7", "--trials", "4",
        "--delta", "0", "--format", "jsonl",
    ],
    # no terminal: every walk ends at the sink, so no "inf" appears
    "uso-walk-plain-jsonl": [
        "uso", "walk", "--r", "2", "--m", "3", "--seed", "7", "--trials", "4",
        "--format", "jsonl",
    ],
    # delta 1: walks escape mid-walk, each escape printed as "inf"
    "uso-walk-delta1-jsonl": [
        "uso", "walk", "--r", "2", "--m", "3", "--seed", "7", "--trials", "4",
        "--delta", "1", "--format", "jsonl",
    ],
    "uso-walk-delta1-json": [
        "uso", "walk", "--r", "2", "--m", "4", "--seed", "7", "--trials", "200",
        "--delta", "1",
    ],
    "uso-expect-delta1": ["uso", "expect", "--r", "2", "--m", "4", "--seed", "7", "--delta", "1"],
    "uso-verify": ["uso", "verify", "--r", "3", "--m", "3", "--seed", "7"],
    "process-run-alphas-delta2": [
        "process", "run", "--r", "2", "--m", "3", "--alphas", "5,5", "--delta", "2",
        "--seed", "7", "--trials", "3",
    ],
    # delta 0: every trace ends in a forced escape that draws nothing
    "process-run-json-delta0": [
        "process", "run", "--r", "2", "--m", "3", "--format", "json", "--trials", "500",
        "--seed", "7",
    ],
    "process-expect-alphas-delta1": [
        "process", "expect", "--r", "2", "--m", "3", "--alphas", "5,6", "--delta", "1",
    ],
    # the fiber compile where D has about 9,600 bits, and at r = 4
    "process-expect-r2-m40": ["process", "expect", "--r", "2", "--m", "40"],
    "process-expect-r4-m3": ["process", "expect", "--r", "4", "--m", "3"],
    # phase_law_report: transition and pivot-color tests, good phases
    "verify-lemmas-phase-laws": [
        "verify", "lemmas", "--r", "2", "--m", "6", "--phase-trials", "2000", "--seed", "7",
    ],
    # a fresh comb per trial; the corollary walks a padded grid at n=5
    "bench-bounds-mc-padded": [
        "bench", "bounds", "--families", "uso_lemma,corollary", "--r-list", "2",
        "--m-list", "4,5", "--mc", "--trials", "300", "--seed", "11",
    ],
}


@pytest.mark.parametrize("name", list(RERUN_CASES))
def test_byte_identical_reruns(name):
    """Seeded output reruns byte for byte and matches its golden, the stdout
    of ``pivotlab <argv>`` kept in ``tests/goldens/<name>.txt``."""
    argv = RERUN_CASES[name]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert first[1].encode() == (GOLDENS / f"{name}.txt").read_bytes()
