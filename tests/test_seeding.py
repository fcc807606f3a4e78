"""Tests for the counter-based per-trial streams against an oracle built from
``hashlib`` and plain integer arithmetic."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pivotlab.analysis import CHI2_SIGNIFICANCE, _chi2_sf
from pivotlab.seeding import derive_rng

seeds = st.integers(-(2**70), 2**70)
paths = st.lists(st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6)), max_size=3)
# widths of one, two and four words, and the edges of each
bounds = st.one_of(
    st.integers(1, 100),
    st.integers(1, 2**64 + 2),
    st.integers(2**64 - 2, 2**130),
    st.sampled_from([2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128, 2**128 + 1, 2**200 + 3]),
)


def oracle_words(key: bytes):
    """Every 64-bit word of the stream with this key, in draw order."""
    for block in itertools.count():
        digest = hashlib.blake2b(key + block.to_bytes(8, "little"), digest_size=64).digest()
        for j in range(0, 64, 8):
            yield int.from_bytes(digest[j : j + 8], "little")


def oracle_randrange(words, n: int) -> tuple[int, int]:
    """``(draw, rejections)``: multiply a uniform ``w``-bit integer by ``n``,
    keep the top part, redraw while the low ``w`` bits are below ``2**w %
    n``.  ``w`` is the fewest whole words holding ``n - 1``, at least one."""
    width = 64 * max(1, -(-(n - 1).bit_length() // 64))
    rejections = 0
    while True:
        x = sum(next(words) << shift for shift in range(0, width, 64))
        if x * n % 2**width >= 2**width % n:
            return x * n // 2**width, rejections
        rejections += 1


@settings(max_examples=150, deadline=None)
@given(seeds, paths, st.lists(bounds, min_size=1, max_size=25))
def test_randrange_matches_the_oracle(seed, path, ns):
    stream = derive_rng(seed, *path)
    words = oracle_words(repr((seed, *path)).encode())
    assert [stream.randrange(n) for n in ns] == [oracle_randrange(words, n)[0] for n in ns]


@settings(max_examples=300, deadline=None)
@given(seeds, bounds)
@example(seed=0, n=1)
@example(seed=0, n=2**63 + 1)
@example(seed=0, n=2**64)
@example(seed=0, n=2**64 + 1)
def test_randrange_stays_in_range(seed, n):
    stream = derive_rng(seed, "range")
    assert all(0 <= stream.randrange(n) < n for _ in range(20))


def test_half_the_draws_below_2_63_plus_1_are_redrawn():
    """At ``n = 2**63 + 1`` the low half of a product falls below ``2**64 %
    n = 2**63 - 1`` about half the time, so the rejection branch runs."""
    n = 2**63 + 1
    stream, words = derive_rng(3, "reject"), oracle_words(repr((3, "reject")).encode())
    rejected = 0
    for _ in range(2000):
        draw, rejections = oracle_randrange(words, n)
        assert stream.randrange(n) == draw
        rejected += rejections > 0
    assert 900 <= rejected <= 1100


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_empty_range_is_a_value_error(n):
    with pytest.raises(ValueError, match="empty range"):
        derive_rng(1).randrange(n)


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(0, 30), st.integers(-3, 33))
def test_sample_draws_distinct_members_or_refuses_like_random(seed, size, k):
    population = range(100, 100 + size)
    stream = derive_rng(seed, "sample")
    if 0 <= k <= size:
        picked = stream.sample(population, k)
        assert len(picked) == len(set(picked)) == k
        assert set(picked) <= set(population)
    else:
        with pytest.raises(ValueError):
            random.Random(seed).sample(population, k)
        with pytest.raises(ValueError):
            stream.sample(population, k)


def test_full_sample_is_each_order_equally_often():
    counts = {}
    for i in range(6000):
        order = tuple(derive_rng(4, "perm", i).sample("abc", 3))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 6
    stat = sum((c - 1000) ** 2 / 1000 for c in counts.values())
    assert _chi2_sf(stat, 5) >= CHI2_SIGNIFICANCE


def test_first_draws_across_trial_indices_are_uniform():
    """The first draw of each trial's stream: the streams a batch derives
    from one seed behave as independent uniform draws."""
    trials, n = 20_000, 10
    counts = [0] * n
    for i in range(trials):
        counts[derive_rng(11, "trace", i).randrange(n)] += 1
    expected = trials / n
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert _chi2_sf(stat, n - 1) >= CHI2_SIGNIFICANCE


@pytest.mark.parametrize(
    "a, b",
    [
        ((1, "2:3"), (1, 2, 3)),
        (("comb", 1), ("comb", "1")),
        ((1,), ("1",)),
        (("ab", "c"), ("a", "bc")),
        ((12, 3), (1, 23)),
        ((), ("",)),
    ],
)
def test_distinct_paths_give_distinct_streams(a, b):
    """Pairs that a key joined with ``":"``, or concatenated with no
    separator, would merge into one stream."""
    first, second = derive_rng(7, *a), derive_rng(7, *b)
    assert [first.randrange(2**64) for _ in range(4)] != [
        second.randrange(2**64) for _ in range(4)
    ]


def test_importing_the_cli_loads_no_openssl():
    """``hashlib`` maps OpenSSL's libcrypto, 3.6 MiB of resident memory, a
    sixth of an exact workload's peak; the streams need only CPython's
    builtin BLAKE2b."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, pivotlab.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
