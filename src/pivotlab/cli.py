"""Command-line surface.

A command takes ``--seed`` only where it draws: an identity comb takes
none (``"seed": null``) unless walked, and ``verify lemmas`` takes one only
with ``--phase-trials``.  Without one a fresh seed is generated and
announced on stderr, and either way the seed is embedded in the output, so
any report can be reproduced byte for byte.  Reports go to stdout (or
``--out``), logs to stderr.  Exit codes: 0 success, 2 verification
failure, 1 usage or internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import analysis, geometry, grid_uso, process
from .errors import DegeneracyError, GeneralPositionError, InstanceTooLargeError
from .seeding import derive_rng, fresh_seed

EPILOG = """environment overrides:
  PIVOTLAB_STATE_CAP    cap on the state counts of exact solves, exhaustive
                        checks, random combs and comb JSON (default 1000000)
"""


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated ints; a blank text is ``()``, an empty field or one
    that is not an integer an error naming the list."""
    if not text.strip():
        return ()
    values = []
    for field in text.split(","):
        if not field.strip():
            raise ValueError(f"empty field in the list {text!r}")
        try:
            values.append(int(field))
        except ValueError:
            raise ValueError(f"not an integer {field.strip()!r} in the list {text!r}") from None
    return tuple(values)


def _parse_range(text: str) -> list[int]:
    """Accept ``2..8`` or ``2,3,5``; an empty range is an error."""
    if ".." in text:
        try:
            lo, hi = map(int, text.split(".."))
        except ValueError:
            raise ValueError(
                f"malformed range {text!r}: expected LO..HI with integer bounds"
            ) from None
        values = list(range(lo, hi + 1))
    else:
        values = list(_parse_ints(text))
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _seed_of(args) -> int:
    if args.seed is None:
        seed = fresh_seed()
        print(f"generated seed: {seed}", file=sys.stderr)
        return seed
    return args.seed


def _comb_for(args) -> tuple[int | None, grid_uso.CombOrientation]:
    """A ``uso`` command's seed and comb: an identity comb draws nothing, so
    its seed is ``None`` unless the command samples runs (has ``--trials``)."""
    seed = None if args.identity and "trials" not in args else _seed_of(args)
    if args.identity:
        return seed, grid_uso.identity_comb(args.r, args.m)
    return seed, grid_uso.build_comb(args.r, args.m, derive_rng(seed, "comb"))


def _aug_cfg(args) -> grid_uso.AugmentedConfig | None:
    return None if args.delta is None else grid_uso.AugmentedConfig(args.delta)


def _exact_value(value: Fraction) -> dict:
    """An exact result as ``"p/q"`` and as a rounded float."""
    return {
        "value": analysis.format_number(value),
        "value_float": analysis.format_number(float(value)),
    }


def _sample(args, seed: int, stream: str, dump, steps, fields: dict) -> int:
    """The sampling commands' output.  ``--format jsonl`` concatenates
    ``dump(rng)`` of ``--trials`` runs (default 1) on the streams ``(seed,
    stream, i)``; json summarises ``steps(rng)`` of ``--trials`` runs
    (default 100000) by :func:`analysis.mc_estimate`, with ``fields``."""
    if args.format == "jsonl":
        trials = 1 if args.trials is None else args.trials
        if trials < 1:
            raise ValueError(f"need at least 1 trial for a jsonl trace dump, got {trials}")
        _emit("".join(dump(derive_rng(seed, stream, i)) for i in range(trials)), args.out)
    else:
        trials = 100_000 if args.trials is None else args.trials
        report = analysis.mc_estimate(steps, trials, seed)
        _emit_json(report.to_dict() | fields | {"seed": seed}, args.out)
    return 0


# ---------------------------------------------------------------------------
# uso commands
# ---------------------------------------------------------------------------


def _cmd_uso_build(args) -> int:
    seed, comb = _comb_for(args)
    payload = {"seed": seed, "comb": grid_uso.comb_to_dict(comb)}
    _emit_json(payload, args.out)
    return 0


def _cmd_uso_walk(args) -> int:
    seed, comb = _comb_for(args)
    cfg = _aug_cfg(args)
    start = tuple(_parse_ints(args.start)) if args.start else "uniform"

    def dump(rng) -> str:
        # one vertex tuple per line, the terminal hop as "inf"
        visited = grid_uso.walk(comb, cfg, start, rng).visited
        return "".join(json.dumps("inf" if v is None else list(v)) + "\n" for v in visited)

    return _sample(
        args, seed, "walk", dump,
        lambda rng: grid_uso.walk(comb, cfg, start, rng, record=False).steps,
        {"r": args.r, "m": args.m, "delta": args.delta},
    )


def _cmd_uso_expect(args) -> int:
    seed, comb = _comb_for(args)
    start = tuple(_parse_ints(args.start)) if args.start else "uniform"
    value = grid_uso.expected_duration_exact(comb, _aug_cfg(args), start)
    payload = {
        "r": args.r,
        "m": args.m,
        "delta": args.delta,
        "identity": bool(args.identity),
        "seed": seed,
        **_exact_value(value),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_uso_verify(args) -> int:
    seed, comb = _comb_for(args)
    spec = grid_uso.grid_spec(comb)
    acyclic = grid_uso.has_topological_order(spec, comb)
    violations = grid_uso.unique_sink_violations(spec, comb)
    payload = {
        "r": args.r,
        "m": args.m,
        "seed": seed,
        "acyclic": acyclic,
        "unique_sinks": not violations,
        "violations": [[list(s) for s in sub] for sub in violations],
    }
    _emit_json(payload, args.out)
    return 0 if acyclic and not violations else 2


# ---------------------------------------------------------------------------
# points / process commands
# ---------------------------------------------------------------------------


def _point_set_for(args) -> geometry.PointSet:
    ps = geometry.gen_point_set(args.r, args.m)
    if getattr(args, "alphas", None):
        ps = ps.augmented(_parse_ints(args.alphas))
    return ps


def _cmd_points_dump(args) -> int:
    ps = _point_set_for(args)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(ps.to_csv_rows())
        _emit(buf.getvalue(), args.out)
    else:
        _emit_json(ps.to_json_dict(), args.out)
    return 0


def _cmd_process_run(args) -> int:
    seed = _seed_of(args)
    ps = _point_set_for(args)
    cfg = process.ProcessConfig(ps, delta=args.delta or 0)
    return _sample(
        args, seed, "trace",
        lambda rng: process.trace_to_jsonl(process.run(cfg, rng)),
        lambda rng: process.run(cfg, rng).steps(cfg.count_terminal_step),
        {
            "r": args.r,
            "m": args.m,
            "delta": cfg.delta,
            "alphas": list(ps.alphas) if ps.alphas else None,
            "count_terminal_step": cfg.count_terminal_step,
        },
    )


def _cmd_process_expect(args) -> int:
    delta = args.delta or 0
    payload = {"r": args.r, "m": args.m, "delta": delta}
    if args.alpha_sweep is not None:
        value, alphas = process.worst_case_expected_steps(args.r, args.m, delta, args.alpha_sweep)
        payload.update(
            alpha_sweep=args.alpha_sweep,
            worst_alphas=list(alphas),
            count_terminal_step=True,
        )
    else:
        ps = _point_set_for(args)
        cfg = process.ProcessConfig(ps, delta=delta)
        value = process.exact_expected_steps(cfg)
        payload.update(
            alphas=list(ps.alphas) if ps.alphas else None,
            count_terminal_step=cfg.count_terminal_step,
        )
    _emit_json(payload | _exact_value(value), args.out)
    return 0


# ---------------------------------------------------------------------------
# verification and sweeps
# ---------------------------------------------------------------------------


def _cmd_verify_lemmas(args) -> int:
    """The lemma suite, after the phase laws (if ``--phase-trials``) at each
    delta.  The deltas, as a list, and each ``--deep R``, by building its
    projection, are checked before either runs."""
    for flag, value in (("--seed", args.seed), ("--phase-deltas", args.phase_deltas)):
        if value is not None and not args.phase_trials:
            raise ValueError(f"{flag} needs --phase-trials: the lemma suite draws nothing")
    deltas = _parse_ints("0,2" if args.phase_deltas is None else args.phase_deltas)
    if any(delta < 0 for delta in deltas):
        raise ValueError("delta must be >= 0")
    if args.phase_trials and not deltas:
        raise ValueError("--phase-trials needs at least one delta in --phase-deltas")
    for R in args.deep or ():
        try:
            geometry.project_deep(R, args.m, args.r)
        except ValueError as exc:
            raise ValueError(f"--deep {R}: {exc}") from None
    laws = []
    if args.phase_trials:
        seed = _seed_of(args)
        laws = [analysis.phase_law_report(args.r, args.m, d, args.phase_trials, seed)
                for d in deltas]
    report = analysis.verify_lemmas(args.r, args.m, deep_from=tuple(args.deep or ()))
    payload = report.to_dict()
    if laws:
        payload.update(phase_laws=[law.to_dict() for law in laws], seed=seed)
    ok = report.all_passed and all(law.all_ok() for law in laws)
    payload["ok"] = ok
    _emit_json(payload, args.out)
    return 0 if ok else 2


_BENCH_COLUMNS = [
    "family", "r", "m", "delta", "value", "ci_low", "ci_high",
    "bound", "satisfied", "seed", "trials",
]


def _bench_row(args, params: analysis.BoundParams, seed: int) -> dict:
    """One measured point of ``bench bounds`` as a row; the m column carries
    the grid size n for the corollary family."""
    m = params.m if params.n is None else params.n
    try:
        report = analysis.compare_to_bound(
            params, "mc" if args.mc else "exact",
            orientations=args.orientations, trials=args.trials, seed=seed,
        )
    except (GeneralPositionError, DegeneracyError, InstanceTooLargeError) as exc:
        raise type(exc)(f"{params.family} at (r, m) = ({params.r}, {m}): {exc}") from exc
    # the measured columns come from the report's own JSON
    blob = report.to_dict()
    row = {k: blob.get(k) for k in _BENCH_COLUMNS}
    row.update(family=params.family, r=params.r, m=m, delta=params.delta)
    row["satisfied"] = (
        "inconclusive" if report.inconclusive else ("true" if report.satisfied else "false")
    )
    return row


def _cmd_bench_bounds(args) -> int:
    """The sweep, read once into a list of points, each checked by
    :func:`analysis.bound` before the seed is drawn; a count or list that no
    listed family reads in this mode is refused first, and then a count too
    small for a standard error (:func:`analysis.need_two`)."""
    families = [family.strip() for family in args.families.split(",")]
    if args.mc and args.orientations is not None:
        raise ValueError("--orientations needs exact mode: --mc draws a fresh comb per run")
    if args.orientations is not None and set(families).isdisjoint(analysis.COMB_FAMILIES):
        raise ValueError("--orientations needs a comb family: a process family is solved once")
    if args.delta_list is not None and set(families).isdisjoint(analysis.DELTA_FAMILIES):
        raise ValueError("--delta-list needs a delta family: uso_lemma or augmented_theorem")
    if not args.mc and args.trials is not None:
        raise ValueError("--trials needs --mc: exact mode samples no runs")
    # what is left is read: --orientations by a comb family, --trials by every point
    for count, what in [(args.orientations, "orientations"), (args.trials, "trials")]:
        if count is not None:
            analysis.need_two(count, what)
    rs, ms = _parse_range(args.r_list), _parse_range(args.m_list)
    deltas = [0] if args.delta_list is None else _parse_range(args.delta_list)
    points = [
        analysis.BoundParams(family, r, n=m)
        if family == "corollary"
        else analysis.BoundParams(family, r, m, delta)
        for family in families
        for r in rs
        for m in ms
        if family != "corollary" or m > r
        for delta in (deltas if family in analysis.DELTA_FAMILIES else [0])
    ]
    if not points:
        raise ValueError("empty sweep: nothing to measure (the corollary family needs m > r)")
    for params in points:
        analysis.bound(params)
    seed = _seed_of(args)
    rows = [_bench_row(args, params, seed) for params in points]
    rows.sort(key=lambda row: (row["family"], row["r"], row["m"], row["delta"]))
    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_BENCH_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in _BENCH_COLUMNS})
        _emit(buf.getvalue(), args.out)
    return 2 if any(row["satisfied"] == "false" for row in rows) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(
    p: argparse.ArgumentParser, *, seed: bool = True, identity: bool = False, trials: bool = False
) -> None:
    p.add_argument("--r", type=int, required=True, help="dimension")
    p.add_argument("--m", type=int, required=True, help="per-factor size / phases")
    # a comb command that samples no runs draws only its comb, so there an
    # identity comb leaves nothing to seed
    seeds = p.add_mutually_exclusive_group() if identity and not trials else p
    if seed:
        seeds.add_argument("--seed", type=int, help="master seed (generated and printed if omitted)")
    if identity:
        seeds.add_argument("--identity", action="store_true",
                           help="the all-identity comb, built without a draw")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    if trials:
        p.add_argument("--trials", type=int, default=None,
                       help="default: 1 for jsonl trace dumps, 100000 for json summaries")


USO_DELTA_HELP = "escape multiplicity (omit for the plain grid)"
PROCESS_DELTA_HELP = "escape multiplicity (omit for 0: a trace ends only where no point is below)"
ALPHAS_HELP = 'adversary values "a1,a2,..." (omit for the plain point set)'


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pivotlab`` parser, built on the first call and shared by every
    later one: parsing leaves it unchanged, and no action has a mutable
    default."""
    parser = argparse.ArgumentParser(
        prog="pivotlab",
        description="Grid-walk and pivoting-process lower-bound laboratory",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top = parser.add_subparsers(dest="group", required=True)

    uso = top.add_parser("uso", help="comb orientations of grids").add_subparsers(
        dest="command", required=True
    )
    p = uso.add_parser("build", help="build a comb and print its JSON form")
    _add_common(p, identity=True)
    p.set_defaults(handler=_cmd_uso_build)

    p = uso.add_parser("walk", help="sample random walks")
    _add_common(p, identity=True, trials=True)
    p.add_argument("--delta", type=int, default=None, help=USO_DELTA_HELP)
    p.add_argument("--start", default=None, help='start vertex "c1,c2,..." (default uniform)')
    p.add_argument("--format", choices=("json", "jsonl"), default="json",
                   help="json: a Monte Carlo summary (default); jsonl: each walk's vertices")
    p.set_defaults(handler=_cmd_uso_walk)

    p = uso.add_parser("expect", help="exact expected walk duration")
    _add_common(p, identity=True)
    p.add_argument("--delta", type=int, default=None, help=USO_DELTA_HELP)
    p.add_argument("--start", default=None,
                   help='start vertex "c1,c2,..." (default: the mean over a uniform start)')
    p.set_defaults(handler=_cmd_uso_expect)

    p = uso.add_parser("verify", help="acyclicity and unique-sink checks")
    _add_common(p, identity=True)
    p.set_defaults(handler=_cmd_uso_verify)

    points = top.add_parser("points", help="point-set construction").add_subparsers(
        dest="command", required=True
    )
    p = points.add_parser("dump", help="dump the point set")
    _add_common(p, seed=False)
    p.add_argument("--alphas", default=None, help=ALPHAS_HELP)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    p.set_defaults(handler=_cmd_points_dump)

    proc = top.add_parser("process", help="the pivoting process").add_subparsers(
        dest="command", required=True
    )
    p = proc.add_parser("run", help="sample traces")
    _add_common(p, trials=True)
    p.add_argument("--delta", type=int, default=None, help=PROCESS_DELTA_HELP)
    p.add_argument("--alphas", default=None, help=ALPHAS_HELP)
    p.add_argument("--format", choices=("json", "jsonl"), default="jsonl",
                   help="jsonl: each trace's pivots (default); json: a Monte Carlo summary")
    p.set_defaults(handler=_cmd_process_run)

    p = proc.add_parser("expect", help="exact expected step count")
    _add_common(p, seed=False)
    p.add_argument("--delta", type=int, default=None, help=PROCESS_DELTA_HELP)
    adversary = p.add_mutually_exclusive_group()
    adversary.add_argument("--alphas", default=None, help=ALPHAS_HELP)
    adversary.add_argument("--alpha-sweep", type=int, default=None, dest="alpha_sweep",
                           help="sweep width W >= 1: the minimum over alpha_i in {m+1..m+W}")
    p.set_defaults(handler=_cmd_process_expect)

    verify = top.add_parser("verify", help="verification suites").add_subparsers(
        dest="command", required=True
    )
    p = verify.add_parser("lemmas", help="structural verification suite")
    _add_common(p)
    p.add_argument("--deep", type=int, action="append", default=None,
                   help="also verify the projection from this ambient dimension (repeatable)")
    p.add_argument("--phase-trials", type=int, default=0, dest="phase_trials",
                   help="also run the statistical phase-law checks with this many traces")
    p.add_argument("--phase-deltas", default=None, dest="phase_deltas",
                   help="the deltas of the phase laws (default 0,2); needs --phase-trials")
    p.set_defaults(handler=_cmd_verify_lemmas)

    bench = top.add_parser("bench", help="bound sweeps").add_subparsers(
        dest="command", required=True
    )
    p = bench.add_parser("bounds", help="sweep measured values against bounds")
    p.add_argument("--families", default=",".join(analysis.FAMILIES),
                   help="comma-separated families to sweep (default: every family)")
    p.add_argument("--r-list", default="1,2", dest="r_list",
                   help='r values, "LO..HI" or "a,b,..." (default %(default)s)')
    p.add_argument("--m-list", default="2..6", dest="m_list",
                   help="m values, as --r-list; grid size n for the corollary family "
                   "(default %(default)s)")
    p.add_argument("--delta-list", default=None, dest="delta_list",
                   help="deltas of uso_lemma and augmented_theorem (default 0)")
    p.add_argument("--orientations", type=int, default=None,
                   help="combs solved per comb-family point in exact mode (default 200)")
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of exact")
    p.add_argument("--trials", type=int, default=None,
                   help="runs sampled per point; needs --mc (default 100000)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (generated and printed if omitted)")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.set_defaults(handler=_cmd_bench_bounds)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code.  The parser is built
    by the first call and reused by every later one in the process."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # only an exact solve has a Monte Carlo counterpart: sampling draws the same comb
        alternative = "use Monte Carlo mode, or " if "exact mode" in str(exc) else ""
        print(f"hint: {alternative}raise PIVOTLAB_STATE_CAP", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GeneralPositionError, DegeneracyError, RecursionError) as exc:
        # the point family is not in general position at this size, or a comb,
        # built by one recursion per dimension, is deeper than Python allows
        where = f"(r, m) = ({args.r}, {args.m}): " if hasattr(args, "r") else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(dispatch())


if __name__ == "__main__":  # pragma: no cover
    main()
