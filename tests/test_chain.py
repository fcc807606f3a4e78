"""Tests for the integer absorbing-chain kernel against a Fraction oracle."""

import math
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from pivotlab import chain, geometry, grid_uso, process
from pivotlab.errors import InternalInvariantError
from test_geometry import flip_tail_sign


def expected_steps(succ_sum: Fraction, n_succ: int, escape: int) -> Fraction:
    """Expected steps to absorption of a state whose successors' values sum
    to ``succ_sum``: 0 at a dead end, else ``1 + succ_sum / (n_succ +
    escape)``."""
    total = n_succ + escape
    return Fraction(0) if total == 0 else 1 + succ_sum / total


def fraction_solve(order, states, n_groups, delta):
    """Reference back-substitution over ``Fraction``s: ``states`` lists
    ``(n_succ, reads, writes)`` successors first, the state numbered
    ``order[i]`` at position ``i``; returns the values by state number."""
    sums = [Fraction(0)] * n_groups
    values = [None] * len(order)
    for k, (n_succ, reads, writes) in zip(order, states):
        escape = chain.escape_weight(delta, n_succ)
        x = expected_steps(sum((sums[g] for g in reads), Fraction(0)), n_succ, escape)
        for g in writes:
            sums[g] += x
        values[k] = x
    return values


def compile_chain(order, states, n_groups):
    n_succ = [n for n, _, _ in states]
    reads = [rd for _, rd, _ in states]
    writes = [wr for _, _, wr in states]
    return chain.Chain(order, n_succ, reads, writes, n_groups)


def writes_rule_breaker(ch):
    """The first state, by number, that writes a group it does not read
    after an earlier state wrote that group, breaking the rule
    :class:`chain.Chain` states and ``_denominator`` relies on; ``None``
    when every state keeps it."""
    written = set()
    for k, rd, wr in zip(ch.order, ch.reads, ch.writes):
        if any(g in written and g not in rd for g in wr):
            return k
        written.update(wr)
    return None


def test_writes_rule_breaker_names_the_first_breaking_state():
    # state 1 writes group 0 after state 2 wrote it without reading it
    ch = chain.Chain([2, 1, 0], [0, 1, 1], [(), (), (0,)], [(0,), (0,), (0,)], 1)
    assert writes_rule_breaker(ch) == 1
    ch = chain.Chain([2, 1, 0], [0, 1, 1], [(), (0,), (0,)], [(0,), (0,), (0,)], 1)
    assert writes_rule_breaker(ch) is None


def kernel_solve(order, states, n_groups, delta):
    scaled, d = chain.solve(compile_chain(order, states, n_groups), delta)
    return [Fraction(x, d) for x in scaled]


# successor counts rich in repeated prime powers, so exponents above 1 occur
SUCC_COUNTS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 27]


@st.composite
def shared_group_chains(draw):
    """Random acyclic chains whose groups several states read and write,
    their states numbered in a random order; dead ends read nothing, and
    escape as ``delta`` says.  A state writes groups it reads or groups no
    earlier state wrote, as :class:`chain.Chain` asks."""
    n_groups = draw(st.integers(1, 8))
    written = set()
    states = []
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.booleans()):
            n_succ, reads = 0, []
        else:
            n_succ = draw(st.sampled_from(SUCC_COUNTS))
            reads = draw(st.lists(st.integers(0, n_groups - 1), min_size=1, max_size=4))
        writable = sorted(set(reads) | (set(range(n_groups)) - written))
        writes = (
            draw(st.lists(st.sampled_from(writable), max_size=3, unique=True))
            if writable else []
        )
        written.update(writes)
        states.append((n_succ, reads, writes))
    order = draw(st.permutations(range(len(states))))
    return order, states, n_groups, draw(st.sampled_from([None, 0, 1, 2, 4]))


@st.composite
def long_paths(draw):
    """A path of up to 80 states, each reading the one before it, with
    weights drawn from the prime powers 4, 8, 9, 16 and 27 plus the escape."""
    length = draw(st.integers(1, 80))
    states = [(0, [], [0])]
    for k in range(1, length):
        n_succ = draw(st.sampled_from([4, 8, 9, 16, 27]))
        states.append((n_succ, [k - 1], [k]))
    return range(length), states, length, draw(st.sampled_from([None, 0, 4, 9]))


@settings(max_examples=200, deadline=None)
@given(chain_=st.one_of(shared_group_chains(), long_paths()))
def test_kernel_matches_fraction_back_substitution(chain_):
    assert kernel_solve(*chain_) == fraction_solve(*chain_)


def test_kernel_values_of_a_small_chain():
    # a dead end that escapes, then two states of weight 2 above it:
    # 1, 1 + 1/2 = 3/2 and 1 + 3/4 = 7/4, over D = 4
    states = [(0, [], [0]), (1, [0], [1]), (1, [1], [2])]
    assert chain.solve(compile_chain(range(3), states, 3), 1) == ([4, 6, 7], 4)
    # the same chain, its states numbered 2, 0, 1: values by state number
    assert chain.solve(compile_chain([2, 0, 1], states, 3), 1) == ([6, 7, 4], 4)
    assert chain.solve(compile_chain([], [], 0), 1) == ([], 1)
    # a dead end without escape stays at 0 and adds nothing to its groups;
    # the bound still counts the 3 of the weight above it
    states = [(0, [], [0]), (3, [0], [1])]
    assert chain.solve(compile_chain(range(2), states, 2), None) == ([0, 3], 3)


def oracle_denominator(weights, reads, writes, n_groups):
    """The exponent pass as it stood before it was inlined: a ``pmax``
    closure over a list per state, states that write no group kept aside,
    and one max over the groups and those at the end."""
    width = (len(weights) * max(weights, default=0).bit_length()).bit_length() + 1
    shift = width - 1
    field = {b: k * width for k, b in enumerate(chain._coprime_base(set(weights)))}
    guard = sum(1 << (offset + shift) for offset in field.values())
    own = {}
    for t in set(weights):
        packed, rest = 0, t
        for b, offset in field.items():
            while rest and rest % b == 0:
                rest //= b
                packed += 1 << offset
        own[t] = packed

    def pmax(exps):
        e = 0
        for b in exps:
            ge = ((e | guard) - b) & guard
            if ge != guard:
                ge -= ge >> shift
                e = b ^ ((e ^ b) & ge)
        return e

    groups = [0] * n_groups
    unwritten = []
    for t, rd, wr in zip(weights, reads, writes):
        if not t:
            continue
        e = pmax([groups[g] for g in rd]) + own[t]
        for g in wr:
            groups[g] = e
        if not wr:
            unwritten.append(e)
    top = pmax(groups + unwritten)
    d = 1
    for b, offset in field.items():
        d *= b ** ((top >> offset) & ((1 << shift) - 1))
    return d


# weights of 0, small prime powers, and two primes too large to factor
DENOMINATOR_WEIGHTS = [0, 0, 1, 2, 3, 4, 8, 9, 12, 27, 2**61 - 1, 10**18 + 9]


@st.composite
def weighted_chains(draw):
    """``(weights, reads, writes, n_groups)`` as :func:`chain.solve` takes
    them: groups shared by several states, states of weight 0, states that
    write no group, and huge prime weights."""
    n_groups = draw(st.integers(1, 8))
    written = set()
    weights, reads, writes = [], [], []
    for _ in range(draw(st.integers(1, 20))):
        rd = draw(st.lists(st.integers(0, n_groups - 1), max_size=4))
        writable = sorted(set(rd) | (set(range(n_groups)) - written))
        wr = (
            draw(st.lists(st.sampled_from(writable), max_size=3, unique=True))
            if writable else []
        )
        written.update(wr)
        weights.append(draw(st.sampled_from(DENOMINATOR_WEIGHTS)))
        reads.append(rd)
        writes.append(wr)
    return weights, reads, writes, n_groups


@settings(max_examples=150, deadline=None)
@given(chain_=weighted_chains())
def test_inlined_bound_pass_matches_its_oracle(chain_):
    assert chain._denominator(*chain_) == oracle_denominator(*chain_)


def test_bound_pass_counts_states_that_write_no_group():
    # the last state writes nothing: only the running max holds its 3 * 3
    weights, reads, writes = [3, 3, 2**61 - 1], [[], [0], [1]], [[0], [], [1]]
    assert chain._denominator(weights, reads, writes, 2) == 9 * (2**61 - 1)
    assert oracle_denominator(weights, reads, writes, 2) == 9 * (2**61 - 1)


@st.composite
def rereading_chains(draw):
    """``(weights, reads, writes, n_groups)`` over at most three groups,
    each state reading one group several times, with weights 0, 1, 2, 3 and
    4: so a read equal to the max so far, a read of an unwritten or
    all-zero group and a first nonzero read all occur, and many states
    share their exponents."""
    n_groups = draw(st.integers(1, 3))
    groups = st.integers(0, n_groups - 1)
    written = set()
    weights, reads, writes = [], [], []
    for _ in range(draw(st.integers(1, 25))):
        rd = [draw(groups)] * draw(st.integers(1, 3)) + draw(st.lists(groups, max_size=2))
        writable = sorted(set(rd) | (set(range(n_groups)) - written))
        wr = draw(st.lists(st.sampled_from(writable), max_size=2, unique=True))
        written.update(wr)
        weights.append(draw(st.sampled_from([0, 1, 1, 2, 2, 3, 4])))
        reads.append(draw(st.permutations(rd)))
        writes.append(wr)
    return weights, reads, writes, n_groups


@settings(max_examples=150, deadline=None)
@given(chain_=rereading_chains())
def test_bound_pass_skips_reads_that_cannot_change_the_max(chain_):
    assert chain._denominator(*chain_) == oracle_denominator(*chain_)


def _solved_chains(monkeypatch, solve):
    """``(weights, reads, writes, n_groups)`` of every chain that ``solve()``
    hands to :func:`chain.solve`, each weight from :func:`chain.escape_weight`
    state by state."""
    seen = []
    real = chain.solve

    def spy(ch, delta):
        weights = [n + chain.escape_weight(delta, n) for n in ch.n_succ]
        seen.append((weights, ch.reads, ch.writes, ch.n_groups))
        return real(ch, delta)

    with monkeypatch.context() as patched:
        patched.setattr(chain, "solve", spy)
        solve()
    return seen


def _comb_solves(r, m, seed, deltas):
    comb = grid_uso.build_comb(r, m, Random(seed))
    for delta in deltas:
        grid_uso.expected_duration_exact(
            comb, None if delta is None else grid_uso.AugmentedConfig(delta)
        )


def _process_solve(point_set, delta=0):
    process.exact_expected_steps(process.ProcessConfig(point_set, delta=delta))


@pytest.mark.parametrize(
    "solve, count, r, own",
    [
        *(
            (lambda r=r, m=m, seed=seed: _comb_solves(r, m, seed, [None, 0, 1, 2]), 4, r, 0)
            for r, m in [(2, 20), (3, 8)]
            for seed in (1, 2)
        ),
        (lambda: _process_solve(geometry.gen_point_set(2, 5).augmented(), 1), 1, 2, 10),
        (lambda: _process_solve(geometry.gen_point_set(3, 4)), 1, 3, 0),
        # fibers that fail the guard: their states read swaps one by one
        (lambda: _process_solve(geometry.gen_point_set(3, 3).augmented(), 2), 1, 3, 69),
        (
            lambda: _process_solve(
                flip_tail_sign(
                    geometry.gen_point_set(4, 2).augmented(), geometry.PointId(1, 1, 1), 3
                ),
                1,
            ),
            1,
            4,
            314,
        ),
    ],
    ids=[
        "comb-2-20-s1", "comb-2-20-s2", "comb-3-8-s1", "comb-3-8-s2",
        "process-2-5-augmented-delta1", "process-3-4",
        "process-3-3-augmented-delta2", "process-4-2-augmented-mutant-delta1",
    ],
)
def test_bound_pass_matches_its_oracle_on_model_chains(monkeypatch, solve, count, r, own):
    """``own`` counts the groups past the ``r`` fibers per state: the
    process states that some state reads one by one."""
    solved = _solved_chains(monkeypatch, solve)
    assert len(solved) == count
    for chain_ in solved:
        assert chain_[3] - r * len(chain_[0]) == own
        assert chain._denominator(*chain_) == oracle_denominator(*chain_)


@pytest.mark.parametrize("delta", [1, 2])
def test_bound_pass_matches_its_oracle_on_one_vertex_combs(monkeypatch, delta):
    # the r = 0 vertex escapes and writes no group, so only the states kept
    # aside carry its exponents; the m = 1 vertex alone reads and writes two
    # fibers
    (no_fiber,) = _solved_chains(monkeypatch, lambda: _comb_solves(0, 3, 1, [delta]))
    assert (no_fiber[0], list(no_fiber[2])) == ([delta], [()])
    (two_fibers,) = _solved_chains(monkeypatch, lambda: _comb_solves(2, 1, 1, [delta]))
    assert (two_fibers[0], list(two_fibers[1]), list(two_fibers[2])) == (
        [delta], [(0, 1)], [(0, 1)]
    )
    for chain_ in (no_fiber, two_fibers):
        assert chain._denominator(*chain_) == oracle_denominator(*chain_) == delta


def test_cold_and_warm_packing_give_one_solve():
    comb = grid_uso.build_comb(2, 20, Random(5))
    chain._packing.cache_clear()
    cold = chain.solve(comb._chain, 1)
    hits = chain._packing.cache_info().hits
    warm = chain.solve(comb._chain, 1)
    assert chain._packing.cache_info().hits == hits + 1
    assert cold == warm


def test_one_weight_set_at_two_widths_packs_twice():
    # weights {4, 9} on paths of 2 and 80 states: the long path's exponent
    # of 2 reaches 158, past the 4 value bits of the short path's fields
    def path(weights):
        n = len(weights)
        return weights, [[]] + [[k - 1] for k in range(1, n)], [[k] for k in range(n)], n

    short, long_ = path([4, 9]), path([4] * 79 + [9])
    chain._packing.cache_clear()
    for chain_ in (short, long_, short):
        assert chain._denominator(*chain_) == oracle_denominator(*chain_)
    assert chain._denominator(*long_) == 2**158 * 9
    assert chain._packing.cache_info().currsize == 2


@given(st.sets(st.integers(0, 10**6), max_size=8))
def test_coprime_base_factors_every_number(numbers):
    base = chain._coprime_base(numbers)
    assert all(b > 1 for b in base)
    assert all(math.gcd(a, b) == 1 for a, b in combinations(base, 2))
    for n in numbers - {0}:
        for b in base:
            while n % b == 0:
                n //= b
        assert n == 1


def test_kernel_takes_huge_weights_without_factoring():
    # weights p, q and p * q without a factor below 10**5, p escape edges
    # each: trial division would not finish
    p, q = 2**61 - 1, 10**18 + 9
    states = [(0, [], [0]), (q - p, [0], [1]), (p * q - p, [0, 1], [2])]
    assert kernel_solve(range(3), states, 3, p) == fraction_solve(range(3), states, 3, p)


def _short_by_one(monkeypatch, pick_prime):
    """Make ``chain._denominator`` return its bound with one factor of a
    prime taken out; ``pick_prime`` chooses the prime from the bound."""
    full = chain._denominator

    def short(*args):
        d = full(*args)
        return d // pick_prime(d)

    monkeypatch.setattr(chain, "_denominator", short)


def _largest_prime_factor(d: int) -> int:
    p, largest = 2, 1
    while d > 1:
        while d % p == 0:
            d //= p
            largest = p
        p += 1
    return largest


def test_short_denominator_raises_instead_of_a_wrong_value(monkeypatch):
    states = [(0, [], [0]), (1, [0], [1]), (1, [1], [2])]
    _short_by_one(monkeypatch, lambda d: 2)
    with pytest.raises(InternalInvariantError, match="does not clear"):
        kernel_solve(range(3), states, 3, 1)


@pytest.mark.parametrize(
    "solve",
    [
        lambda: grid_uso.expected_duration_exact(grid_uso.build_comb(2, 4, Random(3)), None),
        lambda: grid_uso.expected_duration_exact(
            grid_uso.build_comb(3, 3, Random(3)), grid_uso.AugmentedConfig(1)
        ),
        lambda: process.exact_expected_steps(
            process.ProcessConfig(geometry.gen_point_set(2, 3))
        ),
    ],
    ids=["comb-2-4", "comb-3-3-delta1", "process-2-3"],
)
def test_model_solves_raise_on_a_short_denominator(monkeypatch, solve):
    _short_by_one(monkeypatch, _largest_prime_factor)
    with pytest.raises(InternalInvariantError, match="does not clear"):
        solve()


@pytest.mark.parametrize(
    "delta, n_succ, want",
    [(None, 0, 0), (None, 3, 0), (0, 0, 1), (0, 3, 0), (2, 0, 2), (2, 3, 2)],
)
def test_escape_weight(delta, n_succ, want):
    # None: no terminal; 0: one edge from a dead end only; else delta everywhere
    assert chain.escape_weight(delta, n_succ) == want


def test_draw_names_an_escape_none():
    # over two successors and one escape edge, draw reads one randrange(3)
    for seed in range(50):
        i = Random(seed).randrange(3)
        assert chain.draw(Random(seed), 2, 1) == (i if i < 2 else None)
    # a dead end escapes without consuming randomness
    rng = Random(7)
    before = rng.getstate()
    assert chain.draw(rng, 0, 3) is None and chain.draw(rng, 0, 0) is None
    assert rng.getstate() == before
