"""Bound formulas, Monte Carlo estimation, and the verification suite.

Closed-form lower bounds come in five families (see :data:`FAMILIES`), and
each family names the construction it bounds: :func:`compare_to_bound`
measures that construction, exactly or by Monte Carlo, from the bound's
parameters alone and reports whether it clears its bound.  Statistical
acceptance uses one-sided 3-standard-error margins and pooled chi-square
tests at significance 1e-3, whose upper tails are computed in closed form
(:func:`_chi2_sf`); exact comparisons carry no tolerance at all.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations
from statistics import fmean
from typing import Callable, Iterable, Iterator, Sequence

from . import geometry, grid_uso, process
from .errors import DegeneracyError, GeneralPositionError
from .geometry import PointId, PointSet, Side, Transversal
from .process import ProcessConfig
from .seeding import derive_rng

__all__ = [
    "ALPHA_SWEEP",
    "COMB_FAMILIES",
    "DELTA_FAMILIES",
    "FAMILIES",
    "BoundParams",
    "ChiSquare",
    "ExpectationReport",
    "GoodPhase",
    "LemmaCheck",
    "LemmaReport",
    "PhaseLawReport",
    "bound",
    "compare_to_bound",
    "format_number",
    "mc_estimate",
    "need_two",
    "phase_law_report",
    "pivot_agreement_violations",
    "verify_lemmas",
]

FAMILIES = (
    "uso_lemma",
    "uso_theorem_eq1",
    "corollary",
    "augmented_theorem",
    "main_theorem",
)

#: the families whose bound and construction depend on ``delta``
DELTA_FAMILIES = ("uso_lemma", "augmented_theorem")

#: the families measured on comb ensembles, whose exact mode reads ``orientations``
COMB_FAMILIES = ("uso_lemma", "uso_theorem_eq1", "corollary")

#: adversary sweep width: ``augmented_theorem`` takes the adversary's best
#: over ``alpha_i in {m+1, ..., m+ALPHA_SWEEP}``
ALPHA_SWEEP = 3

#: z-quantile for the two-sided 99% normal confidence interval
Z99 = 2.5758293035489004

CHI2_SIGNIFICANCE = 1e-3


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    """Parameters of one closed-form bound.  ``n`` is only used by the
    ``corollary`` family (grid size, in place of ``m``); ``delta`` only by
    :data:`DELTA_FAMILIES`."""

    family: str
    r: int
    m: int | None = None
    delta: int = 0
    n: int | None = None


def bound(params: BoundParams) -> float:
    """Evaluate the chosen lower-bound formula (natural logs throughout)."""
    f, r, m, delta = params.family, params.r, params.m, params.delta
    if f not in FAMILIES:
        raise ValueError(f"unknown bound family {f!r}")
    if r < 0 or delta < 0:
        raise ValueError("need r >= 0 and delta >= 0")
    if f == "corollary":
        if params.n is None or params.n <= params.r or r < 1:
            raise ValueError("corollary bound needs n > r >= 1")
        return math.log(params.n / r) ** r / math.factorial(r) - 1.0
    if m is None or m < 1:
        raise ValueError("bound needs m >= 1")
    if f == "uso_lemma":
        return grid_uso.uso_lemma_bound(r, m, delta)
    if f == "uso_theorem_eq1":
        return grid_uso.uso_theorem_bound(r, m)
    if r < 1:
        raise ValueError(f"{f} needs r >= 1: the point family has no r = 0")
    # the two pivoting-process bounds share one formula; the main theorem is
    # the augmented one pinned at delta == 0
    if f == "main_theorem":
        delta = 0
    c2 = r * (r - 1) // 2
    log_gap = math.log(m + c2 + delta) - math.log(1 + c2 + delta)
    return log_gap**r / math.factorial(r) ** 3


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def format_number(x):
    """JSON form of a result: a ``Fraction`` as ``"p/q"``, a float rounded
    to 12 significant digits, anything else unchanged."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


@dataclass
class ExpectationReport:
    """An expected duration paired (optionally) with a bound and verdict.

    Exact reports carry a rational ``value`` and no confidence interval;
    Monte Carlo reports carry the trial count, standard error, and a normal
    99% interval.  ``satisfied`` means the value clears the bound with its
    full statistical margin; ``inconclusive`` flags straddling intervals.
    """

    value: Fraction | float
    method: str  # "exact" | "monte_carlo"
    trials: int | None = None
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    bound: float | None = None
    satisfied: bool | None = None
    inconclusive: bool = False
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field through :func:`format_number`; ``extras`` only when
        it is non-empty."""
        out = {k: format_number(v) for k, v in vars(self).items() if k != "extras"}
        if self.extras:
            out["extras"] = {k: format_number(v) for k, v in self.extras.items()}
        return out


def need_two(count: int, what: str) -> None:
    """Refuse a sample of fewer than 2 ``what``: a standard error needs 2."""
    if count < 2:
        raise ValueError(f"need at least 2 {what} for a standard error")


def mc_estimate(
    sample: Callable[..., float],
    trials: int,
    seed: int,
) -> ExpectationReport:
    """Estimate an expectation by independent seeded trials.

    ``sample`` receives one derived :class:`~pivotlab.seeding.Stream` per
    trial, so the estimate is reproducible from ``(sample, trials, seed)``
    alone.
    """
    need_two(trials, "trials")
    values = [float(sample(derive_rng(seed, "trial", i))) for i in range(trials)]
    return _sample_report(values, seed)


def _sample_report(values: Sequence[float], seed: int) -> ExpectationReport:
    """Sample mean with its standard error and normal 99% interval."""
    n = len(values)
    mean = fmean(values)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    se = math.sqrt(var / n)
    return ExpectationReport(
        value=mean,
        method="monte_carlo",
        trials=n,
        se=se,
        ci_low=mean - Z99 * se,
        ci_high=mean + Z99 * se,
        seed=seed,
    )


def _apply_verdict(report: ExpectationReport, b: float) -> ExpectationReport:
    """Set the one-sided 3-SE verdict of a sampled ``report`` against bound
    ``b``: satisfied when the whole margin clears it, inconclusive when only
    the margin straddles it."""
    assert report.se is not None
    report.bound = b
    report.satisfied = report.value - 3 * report.se >= b
    report.inconclusive = (not report.satisfied) and (
        report.value + 3 * report.se >= b
    )
    return report


# ---------------------------------------------------------------------------
# bound comparisons
# ---------------------------------------------------------------------------


def compare_to_bound(
    params: BoundParams,
    mode: str = "exact",
    *,
    orientations: int | None = None,
    trials: int | None = None,
    seed: int = 0,
) -> ExpectationReport:
    """Measure the construction behind ``params.family`` and compare it
    against its bound.

    - ``uso_lemma``: the walk on combs augmented with ``delta`` escapes;
    - ``uso_theorem_eq1``: the walk on plain combs;
    - ``corollary``: the walk on plain combs built at ``n // r`` and padded
      to grid size ``n``;
    - ``main_theorem``: the plain process from the main start, counting
      pivots;
    - ``augmented_theorem``: the adversary's best over
      ``process.adversaries(r, m, delta, ALPHA_SWEEP)``, counting the escape hop.

    Exact process values are compared with no tolerance.  Comb ensembles
    are intrinsically statistical (the bound holds for the randomized
    construction in expectation), so even their "exact" mode reports the
    mean over ``orientations`` (at least 2, default 200) exactly-solved combs
    with a 3-SE verdict, alongside the min/max witnesses.  In ``"mc"`` mode
    every family is sampled by ``trials`` seeded runs (default 100000); the
    adversary's best is then the alpha tuple with the least 3-SE margin, so
    the verdict holds only when every adversary clears the bound.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    orientations = 200 if orientations is None else orientations
    trials = 100_000 if trials is None else trials
    b = bound(params)
    family, r, m, delta = params.family, params.r, params.m, params.delta
    if family == "augmented_theorem":
        if mode == "exact":
            value, worst = process.worst_case_expected_steps(r, m, delta, ALPHA_SWEEP)
            return _exact_report(value, b, seed, worst_alphas=list(worst))
        reports = {
            alphas: _process_estimate(cfg, trials, seed)
            for alphas, cfg in process.adversaries(r, m, delta, ALPHA_SWEEP)
        }
        worst = min(reports, key=lambda a: reports[a].value - 3 * reports[a].se)
        report = _apply_verdict(reports[worst], b)
        report.extras = {"worst_alphas": list(worst)}
        return report
    if family == "main_theorem":
        cfg = ProcessConfig(geometry.gen_point_set(r, m))
        if mode == "exact":
            return _exact_report(process.exact_expected_steps(cfg), b, seed)
        return _apply_verdict(_process_estimate(cfg, trials, seed), b)

    walk_cfg = grid_uso.AugmentedConfig(delta) if family == "uso_lemma" else None

    def comb(rng) -> grid_uso.CombOrientation:
        if family != "corollary":
            return grid_uso.build_comb(r, m, rng)
        n = params.n
        return grid_uso.embed_padded(grid_uso.build_comb(r, n // r, rng), n)

    if mode == "mc":
        def sample(rng):
            return grid_uso.walk(comb(rng), walk_cfg, "uniform", rng, record=False).steps

        return _apply_verdict(mc_estimate(sample, trials, seed), b)
    need_two(orientations, "orientations")
    values = [
        float(
            grid_uso.expected_duration_exact(
                comb(derive_rng(seed, "comb", i)), walk_cfg, "uniform"
            )
        )
        for i in range(orientations)
    ]
    report = _apply_verdict(_sample_report(values, seed), b)
    report.extras = {
        "ensemble": "orientations",
        "max": max(values),
        "min": min(values),
        "max_index": max(range(orientations), key=values.__getitem__),
    }
    return report


def _process_estimate(cfg: ProcessConfig, trials: int, seed: int) -> ExpectationReport:
    """Monte Carlo estimate of the step count of ``cfg``'s process."""
    return mc_estimate(
        lambda rng: process.run(cfg, rng).steps(cfg.count_terminal_step), trials, seed
    )


def _exact_report(value: Fraction, b: float, seed: int, **extras) -> ExpectationReport:
    """An exact value against bound ``b``, compared with no tolerance."""
    return ExpectationReport(
        value=value,
        method="exact",
        bound=b,
        satisfied=value >= Fraction(b),
        seed=seed,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# lemma verification suite
# ---------------------------------------------------------------------------


@dataclass
class LemmaCheck:
    lemma: str
    passed: bool
    cases: int
    counterexample: str | None = None


@dataclass
class LemmaReport:
    r: int
    m: int
    checks: list[LemmaCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return asdict(self) | {"all_passed": self.all_passed}


#: the faults of a broken point set, which the suite reports, never raises
_FAULTS = (DegeneracyError, GeneralPositionError, ValueError)


def _lemma(name: str, cases: Iterable[str | None]) -> LemmaCheck:
    """Run a check whose ``cases`` yield ``None`` per case that holds, or a
    counterexample: the count stops at the first counterexample, inclusive,
    and a check that raises is recorded as failed with 0 cases."""
    count = 0
    try:
        for count, bad in enumerate(cases, 1):
            if bad is not None:
                return LemmaCheck(name, False, count, bad)
    except _FAULTS as exc:
        return LemmaCheck(name, False, 0, f"raised: {exc}")
    return LemmaCheck(name, True, count)


def _colors_and_pierced(ps: PointSet, tag: str) -> tuple[list[LemmaCheck], set]:
    """Subsets of size <= r: pierced iff one point of every color; and every
    transversal meets every axis at a strictly positive value.  Both count
    every case and keep the first counterexample; neither can raise on a
    ``PointSet``, whose points all have ``r`` coordinates.  Also returns the
    pierced subsets of fewer than ``r`` points (id tuples), which a sound
    family has none of.

    By Caratheodory a subset ``S`` of at most ``r`` points is pierced when
    some subset of it is a pierced simplex.  The subsets of each size are
    met in ``combinations`` order, head by head, a head being all but the
    last point and each later point a candidate: :func:`geometry.pierced_heads`
    carries one elimination from each head to its extensions and decides
    whether each ``head + (p,)`` is itself a pierced simplex, and ``S`` is
    pierced when it is or when some ``S - p`` is among the pierced subsets
    found so far."""
    r = ps.r
    ids = ps.ids()
    coords = [ps.coords(p) for p in ids]
    colors_bad = pierced_bad = None
    cases = 0
    small_pierced = set()
    for size in range(1, r + 1):
        for head, simplices in geometry.pierced_heads(coords, size):
            start = head[-1] + 1 if head else 0
            head_ids = tuple(ids[i] for i in head)
            colors = {p.color for p in head_ids}
            # a full-color subset is a head of r - 1 colors and a point of the last
            needed = r * (r + 1) // 2 - sum(colors) if size == r == len(colors) + 1 else None
            for p, simplex in zip(ids[start:], simplices):
                subset = head_ids + (p,)
                cases += 1
                full_color = p.color == needed
                pierced = simplex or bool(small_pierced) and any(
                    sub in small_pierced for sub in combinations(subset, size - 1)
                )
                if pierced and size < r:
                    small_pierced.add(subset)
                if pierced and not full_color and colors_bad is None:
                    colors_bad = f"pierced subset missing a color: {subset}"
                if full_color and not pierced and pierced_bad is None:
                    pierced_bad = f"full-color subset not pierced: {subset}"
    for S in geometry.transversals(ps):
        try:
            ps.normal(S.members)
        except DegeneracyError as exc:
            if pierced_bad is None:
                pierced_bad = f"axis intersections failed on {S.members}: {exc}"
    return [
        LemmaCheck(f"colors{tag}", colors_bad is None, cases, colors_bad),
        LemmaCheck(
            f"pierced{tag}",
            pierced_bad is None,
            cases + ps.transversal_count(),
            pierced_bad,
        ),
    ], small_pierced


def _non_degenerate(ps: PointSet, small_pierced: set) -> Iterator[str | None]:
    """Per transversal: no pierced proper subset, looked up among the
    ``small_pierced`` of :func:`_colors_and_pierced`, and a spanning
    hyperplane with positive coefficients, whose solve in
    :meth:`PointSet.normal` also rejects an affinely dependent transversal."""
    r = ps.r
    for S in geometry.transversals(ps):
        proper = (sub for size in range(1, r) for sub in combinations(S.members, size))
        if sub := next((s for s in proper if s in small_pierced), None):
            yield f"pierced proper subset {tuple(map(ps.coords, sub))} of {S.members}"
        else:
            try:
                ps.normal(S.members)
            except DegeneracyError as exc:
                yield f"degenerate hyperplane on {S.members}: {exc}"
            else:
                yield None


def _monotone(ps: PointSet) -> Iterator[str | None]:
    """Per transversal and point below it: the color-swap pivot raises no
    axis value and lowers at least one."""
    for S in geometry.transversals(ps):
        n, d = ps.normal(S.members)
        for p in geometry.below_set(ps, S):
            n2, d2 = ps.normal(S.replace(p).members)
            # t_i = d / n_i with d and every n_i positive, so the pivot
            # lowers t_i when diff_i > 0 and raises it when diff_i < 0
            diffs = [d * b - d2 * a for a, b in zip(n, n2)]
            if any(x < 0 for x in diffs):
                yield f"axis value increased pivoting {p} at {S.members}"
            elif not any(diffs):
                yield f"no strict decrease pivoting {p} at {S.members}"
            else:
                yield None


def _layer_trichotomy(ps: PointSet) -> Iterator[str | None]:
    """Per transversal: colors with ``t_i <= t_r`` keep their second-layer
    points strictly above; colors with ``t_i >= t_r + 1`` keep them strictly
    below; the minimizing color keeps everything off the outermost layer
    strictly above and contributes its own axis point as a member.

    With ``t_i = d / n_i`` and ``d``, ``n_i`` positive, ``t_i <= t_r`` is
    ``n_r <= n_i``, ``t_i >= t_r + 1`` is ``d (n_r - n_i) >= n_i n_r``, and
    the least ``t_i`` is at the first largest ``n_i``."""
    r = ps.r
    if r < 2 or ps.m < 2:
        return
    colors = range(1, r + 1)
    second = {i: [p for p in ps.color_class(i) if p.layer == r - 1] for i in colors}
    inner = {i: [p for p in ps.color_class(i) if p.layer < r] for i in colors}

    def all_on(S: Transversal, points: list[PointId], side: Side) -> bool:
        return all(geometry.side_of(ps, S, p) is side for p in points if p not in S.members)

    for S in geometry.transversals(ps):
        n, d = ps.normal(S.members)
        n_r = n[-1]
        for i in colors:
            n_i = n[i - 1]
            if n_r <= n_i:
                yield None if all_on(S, second[i], Side.ABOVE) else (
                    f"(a) fails for color {i} at {S.members}"
                )
            if d * (n_r - n_i) >= n_i * n_r:
                yield None if all_on(S, second[i], Side.BELOW) else (
                    f"(b) fails for color {i} at {S.members}"
                )
        i_min = max(colors, key=lambda i: n[i - 1])
        member = S.members[i_min - 1]
        if not all_on(S, inner[i_min], Side.ABOVE):
            yield f"(c) fails: inner point of color {i_min} not above {S.members}"
        elif member.layer != r:
            yield f"(c) fails: minimizing member {member} off the outer layer"
        elif [x * n[i_min - 1] for x in ps.coords(member)] != [
            d if t == i_min else 0 for t in colors
        ]:
            yield f"(c) fails: member {member} is not the axis point at t_min"
        else:
            yield None


def _geometry_checks(ps: PointSet, tag: str = "") -> list[LemmaCheck]:
    checks, small_pierced = _colors_and_pierced(ps, tag)
    return [
        *checks,
        _lemma(f"non_degenerate{tag}", _non_degenerate(ps, small_pierced)),
        _lemma(f"monotone{tag}", _monotone(ps)),
        _lemma(f"layer_r_minus_1{tag}", _layer_trichotomy(ps)),
    ]


def verify_lemmas(
    r: int,
    m: int,
    *,
    point_set: PointSet | None = None,
    deep_from: Sequence[int] = (),
) -> LemmaReport:
    """Run the structural verification suite on the ``(r, m)`` family (or a
    supplied point set), optionally also on its deep projections from higher
    ambient dimensions.  All failures are report content, never exceptions.
    """
    ps = point_set if point_set is not None else geometry.gen_point_set(r, m)
    checks = _geometry_checks(ps)
    try:
        violations, cases = pivot_agreement_violations(ps)
    except _FAULTS as exc:
        violations, cases = [f"raised: {exc}"], 0
    first = violations[0] if violations else None
    checks.append(LemmaCheck("pivot_agreement", not violations, cases, first))
    for R in deep_from:
        try:
            deep = geometry.project_deep(R, m, r)
        except ValueError as exc:
            checks.append(LemmaCheck(f"deep[R={R}]", False, 0, str(exc)))
            continue
        checks.extend(_geometry_checks(deep, tag=f"@deep[R={R}]"))
    return LemmaReport(r, m, checks)


def pivot_agreement_violations(ps: PointSet) -> tuple[list[str], int]:
    """Run the ratio-test pivot on every (position, below-point) pair, one
    elimination per position.  Every fault it names (the first five are
    kept) is a pair where the ratio test and the process's color swap
    disagree."""
    violations: list[str] = []
    cases = 0
    for S in geometry.transversals(ps):
        for p, fault in geometry.pivot_generic(ps, S):
            cases += 1
            if fault is not None and len(violations) < 5:
                violations.append(f"{S.members} with {p}: {fault}")
    return violations, cases


# ---------------------------------------------------------------------------
# statistical phase-law verification
# ---------------------------------------------------------------------------


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail ``P(X >= x)`` of a chi-square variable with integer
    ``df >= 1`` degrees of freedom (Abramowitz & Stegun 26.4.4-26.4.5).

    With ``h = x / 2`` it is ``sum e^-h h^a / Gamma(a + 1)`` over
    ``a = 0, 1, ..., df/2 - 1`` for even ``df`` (a Poisson tail), and
    ``erfc(sqrt(h))`` plus the same sum over ``a = 1/2, 3/2, ..., df/2 - 1``
    for odd ``df``.  Each term is formed in log space, so large statistics
    underflow to 0 rather than overflow.
    """
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2
    log_h = math.log(h)
    odd = df % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    for k in range(df // 2):
        a = k + odd / 2
        total += math.exp(a * log_h - h - math.lgamma(a + 1))
    # near x = 0 the rounded terms can sum to a few ulps above 1
    return min(total, 1.0)


@dataclass(frozen=True)
class ChiSquare:
    """One chi-square test: statistic, degrees of freedom, upper-tail p."""

    stat: float
    df: int
    p: float


def _chi_square(stat: float, df: int) -> ChiSquare:
    # with no degrees of freedom there is nothing to test
    return ChiSquare(stat, df, _chi2_sf(stat, df) if df > 0 else 1.0)


@dataclass(frozen=True)
class GoodPhase:
    """Observed frequency ``p_hat`` (standard error ``se``) of phase ``k``
    being good, against its ``floor``; ``ok = (p_hat >= floor - 3 se)``."""

    k: int
    floor: float
    p_hat: float
    se: float
    ok: bool


@dataclass
class PhaseLawReport:
    """Empirical conformance of trace phases to their transition laws.

    ``transition``: pooled chi-square over all source phases of the jump
    distribution (uniform weight per lower phase, escape weight ``delta``).
    ``pivot_color``: chi-square of phase-change pivot colors against
    uniform.  ``good_phases``: one :class:`GoodPhase` per phase ``1..m-1``.
    ``entry_consequence_ok``: every good phase was entered with all the
    second-outermost-layer points strictly below.  The fields are the JSON
    shape.
    """

    r: int
    m: int
    delta: int
    trials: int
    seed: int
    transition: ChiSquare
    pivot_color: ChiSquare
    good_phases: list[GoodPhase]
    entry_consequence_ok: bool

    def all_ok(self) -> bool:
        return (
            self.transition.p >= CHI2_SIGNIFICANCE
            and self.pivot_color.p >= CHI2_SIGNIFICANCE
            and all(row.ok for row in self.good_phases)
            and self.entry_consequence_ok
        )

    def to_dict(self) -> dict:
        return asdict(self) | {"all_ok": self.all_ok()}


def _jump_law_chi2(jumps: list[list[int]], r: int, delta: int) -> tuple[float, int]:
    """Pooled chi-square of the phase jump law and its degrees of freedom.

    ``jumps[src][dst]`` counts the jumps from phase ``src`` to ``dst``, a
    square matrix over the phases; a row with no jumps is skipped.
    From phase ``src >= 1`` the process jumps to each lower positive phase
    with weight ``r`` and to 0 with weight ``delta``; at total weight 0
    (phase 1 at ``delta == 0``) the only jump is the forced escape to 0.
    Every row with two or more allowed outcomes adds a multinomial term; a
    jump to a target that is not allowed, from any row, makes the
    statistic infinite.
    """
    stat = 0.0
    df = 0
    for src, row in enumerate(jumps):
        if not any(row):
            continue
        weight_total = r * (src - 1) + delta
        if src < 1:
            outcomes = []  # nothing leaves the terminal phase
        elif weight_total == 0:
            outcomes = [0]
        else:
            outcomes = list(range(1, src)) + ([0] if delta > 0 else [])
        if any(n for dst, n in enumerate(row) if dst not in outcomes):
            stat = math.inf
        if len(outcomes) < 2:
            continue
        row_total = sum(row)
        for x in outcomes:
            expected = row_total * ((r if x > 0 else delta) / weight_total)
            stat += (row[x] - expected) ** 2 / expected
        df += len(outcomes) - 1
    return stat, df


def phase_law_report(
    r: int,
    m: int,
    delta: int,
    trials: int,
    seed: int,
) -> PhaseLawReport:
    """Stream ``trials`` traces from the adversary start of the augmented
    ``(r, m)`` family (every ``alpha_i = m + 1``) and test the phase laws:
    the jump law and the pivot colors by chi-square, and each phase's
    good-phase frequency against its floor."""
    if trials < 1:
        raise ValueError(f"need at least 1 trace for the phase laws, got {trials}")
    ps = geometry.gen_point_set(r, m).augmented()
    cfg = ProcessConfig(ps, delta=delta)
    # jumps[src][dst] over the phases 0..m+1
    jumps = [[0] * (m + 2) for _ in range(m + 2)]
    color_counts = [0] * r
    good_counts = [0] * (m + 1)  # index k
    consequence_ok = True

    for i in range(trials):
        trace = process.run(cfg, derive_rng(seed, "trace", i))
        states, picks = trace.states, trace.picks
        prev = states[0].phase
        for sigma, phi in trace.phase_changes():
            jumps[prev][phi] += 1
            prev = phi
            if phi > 0:
                pick = picks[sigma - 1]
                assert pick is not None  # a positive-phase change is a point pivot
                color_counts[states[sigma - 1].below[pick].color - 1] += 1
        good = process.good_phases(cfg, trace)
        for k in good:
            if 1 <= k <= m:
                good_counts[k] += 1
        consequence_ok = consequence_ok and all(good.values())

    color_total = sum(color_counts)
    # no positive-phase change at all is no evidence against uniform colors
    color_stat = (
        sum((c - color_total / r) ** 2 / (color_total / r) for c in color_counts)
        if color_total
        else 0.0
    )
    rows = []
    for k in range(1, m):
        floor = 1 / (r * (delta + k * r))
        p_hat = good_counts[k] / trials
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        rows.append(GoodPhase(k, floor, p_hat, se, p_hat >= floor - 3 * se))

    return PhaseLawReport(
        r=r,
        m=m,
        delta=delta,
        trials=trials,
        seed=seed,
        transition=_chi_square(*_jump_law_chi2(jumps, r, delta)),
        pivot_color=_chi_square(color_stat, r - 1),
        good_phases=rows,
        entry_consequence_ok=consequence_ok,
    )
