"""The seed format every generator shares.

A seed of ``seed_bits`` bits is the little-endian byte string of its
integer value, so a batch of seeds is a (size, ceil(seed_bits/8)) uint8
array and one row is exactly what gets serialized.  Bits above
``seed_bits`` in the last byte are zero.

``random_seeds(rng, bits, size)`` consumes the generator's stream exactly
as ``size`` successive ``rng.bytes`` calls would: ``rng.bytes`` itself
draws whole uint32 words and drops the surplus bytes, so one uint32 draw
of shape (size, words) yields the same bytes and leaves the bit generator
in the same state.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np


def seed_bytes(seed_bits: int) -> int:
    return (seed_bits + 7) // 8


def random_seeds(rng: np.random.Generator, seed_bits: int, size: int) -> np.ndarray:
    """``size`` uniform seeds, the same ones ``size`` calls of random_seed give."""
    nbytes = seed_bytes(seed_bits)
    words = rng.integers(0, 1 << 32, size=(size, (nbytes + 3) // 4), dtype=np.uint32)
    seeds = np.ascontiguousarray(
        words.astype("<u4", copy=False).view(np.uint8)[:, :nbytes])
    if seed_bits % 8:
        seeds[:, -1] &= (1 << seed_bits % 8) - 1
    return seeds


def random_seed(rng: np.random.Generator, seed_bits: int) -> int:
    """One uniform seed as an integer."""
    return int.from_bytes(random_seeds(rng, seed_bits, 1).tobytes(), "little")


def seed_from_int(seed: int, seed_bits: int) -> np.ndarray:
    """The one-row seed array of an integer seed."""
    seed = operator.index(seed)
    if not 0 <= seed < (1 << seed_bits):
        raise ValueError(f"seed needs exactly {seed_bits} bits")
    raw = seed.to_bytes(seed_bytes(seed_bits), "little")
    return np.frombuffer(raw, dtype=np.uint8).reshape(1, -1)


def seed_range(start: int, stop: int, seed_bits: int) -> np.ndarray:
    """Seeds start, ..., stop - 1 in order (stop <= 2^64)."""
    low = np.arange(start, stop, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = np.zeros((len(low), seed_bytes(seed_bits)), dtype=np.uint8)
    width = min(8, out.shape[1])
    out[:, :width] = low[:, :width]
    return out


def check_seeds(seeds, seed_bits: int) -> np.ndarray:
    """A (size, seed_bytes) uint8 array with no bit set at or above seed_bits."""
    seeds = np.asarray(seeds)
    nbytes = seed_bytes(seed_bits)
    if seeds.dtype.type is not np.uint8 or seeds.shape[1:] != (nbytes,):
        raise ValueError(f"seeds must be a (size, {nbytes}) uint8 array, "
                         f"got {seeds.dtype} {seeds.shape}")
    rem = seed_bits % 8
    if rem and (seeds[:, -1] >> rem).any():
        raise ValueError(f"seed needs exactly {seed_bits} bits")
    return seeds


def seed_fields(seeds: np.ndarray, offset: int, width: int, count: int) -> np.ndarray:
    """``count`` consecutive ``width``-bit fields from bit ``offset``, (size, count) int64."""
    size = len(seeds)
    if width * count == 0:
        return np.zeros((size, count), dtype=np.int64)
    first, stop = offset // 8, offset + width * count
    bits = np.unpackbits(seeds[:, first:(stop + 7) // 8], axis=1, bitorder="little")
    bits = bits[:, offset - 8 * first:stop - 8 * first].reshape(size, count, width)
    return bits @ _place_values(width)


@lru_cache(maxsize=None)
def _place_values(width: int) -> np.ndarray:
    return np.int64(1) << np.arange(width, dtype=np.int64)
