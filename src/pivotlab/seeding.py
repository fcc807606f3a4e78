"""Deterministic random-stream derivation.

All randomized entry points take an explicit stream. Batch runs derive one
independent :class:`Stream` per trial from ``(master seed, trial index)``, so
results are reproducible regardless of scheduling or trial order.

A stream is counter-based, in the manner of Salmon et al., *Parallel random
numbers: as easy as 1, 2, 3* (SC'11): its block ``b`` is the BLAKE2b digest
of the stream's key followed by ``b`` as 8 little-endian bytes, read as eight
little-endian 64-bit words.  The key is the ``repr`` of ``(master_seed,
*path)``, which ``ast.literal_eval`` inverts for ints and strings, so distinct
paths never share a stream.  Deriving a stream hashes its first block, so a
profile charges the hashing to the derivation rather than to the first draw.
BLAKE2b is stable across platforms and interpreter runs (unlike ``hash()``).
A ``random.Random`` serves wherever a stream does: the library calls only
``randrange`` and ``sample``.
"""

from __future__ import annotations

import random
import struct
from typing import Iterable, Iterator, TypeVar

# not hashlib: importing it also loads OpenSSL, 3.6 MiB of resident memory
from _blake2 import blake2b

__all__ = ["Stream", "derive_rng", "fresh_seed"]

T = TypeVar("T")

_BLOCK = struct.Struct("<8Q")


class Stream:
    """The 64-bit words of the blocks of one key, drawn in order; made by
    :func:`derive_rng`.  A block is BLAKE2b's default 64-byte digest, eight
    words; the stream hashes block 0 as it is made, and each later block
    when the words before it run out."""

    __slots__ = ("_key", "_block", "_words")

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._block = 1
        # block 0, hashed inline: its counter is eight zero bytes
        self._words = iter(_BLOCK.unpack(blake2b(key + bytes(8)).digest()))

    def _next_block(self) -> Iterator[int]:
        """Start the next block; return its words."""
        b = self._block
        self._block = b + 1
        digest = blake2b(self._key + b.to_bytes(8, "little")).digest()
        self._words = words = iter(_BLOCK.unpack(digest))
        return words

    def randrange(self, n: int) -> int:
        """A uniform int in ``[0, n)``.

        Lemire's multiply-shift (ACM TOMACS 2019): for a uniform ``w``-bit
        ``x``, ``x * n >> w`` is the draw unless the low ``w`` bits of the
        product fall below ``2**w mod n``; then ``x`` is redrawn.  ``w`` is
        one word for ``n <= 2**64``, else as many words as ``n - 1`` needs,
        taken low word first."""
        if 0 < n <= 1 << 64:
            x = next(self._words, None)
            if x is None:
                x = next(self._next_block())
            x *= n
            if x & 0xFFFF_FFFF_FFFF_FFFF < n:  # only then can it be below 2**64 mod n
                floor = ((1 << 64) - n) % n
                while x & 0xFFFF_FFFF_FFFF_FFFF < floor:
                    x = next(self._words, None)
                    if x is None:
                        x = next(self._next_block())
                    x *= n
            return x >> 64
        if n <= 0:
            raise ValueError(f"empty range for randrange({n})")
        width = -(-(n - 1).bit_length() // 64) * 64
        floor = (1 << width) % n
        while True:
            x = 0
            for shift in range(0, width, 64):
                word = next(self._words, None)
                x |= (next(self._next_block()) if word is None else word) << shift
            x *= n
            if x & ((1 << width) - 1) >= floor:
                return x >> width

    def sample(self, population: Iterable[T], k: int) -> list[T]:
        """``k`` distinct members of ``population`` in random order: a
        partial Fisher–Yates shuffle, one :meth:`randrange` per member."""
        pool = list(population)
        n = len(pool)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        randrange = self.randrange
        for i in range(k):
            j = i + randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def derive_rng(master_seed: int, *path: int | str) -> Stream:
    """Return an independent, reproducible stream for ``(master_seed, *path)``."""
    return Stream(repr((master_seed, *path)).encode())


def fresh_seed() -> int:
    """Generate a seed for commands invoked without one (always reported)."""
    return random.SystemRandom().randrange(2**63)
