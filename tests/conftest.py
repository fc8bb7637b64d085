"""Shared test helpers: reproducible RNGs, random program generators, the
brute-force monotonicity oracle, the bit-by-bit seed field reader and the
enumerations that the one-row references need (every label sequence,
every seed, every k-wise row)."""

import itertools
from functools import lru_cache

import numpy as np

from hsprg.robp import ROBP


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def random_monotone_robp(rng: np.random.Generator, T: int, max_width: int, D: int = 1) -> ROBP:
    """Random monotone program: per-label nondecreasing maps, up-set acceptance.

    Monotone state maps preserve the natural order layer by layer, and the
    final up-set makes the last layer an Acc chain, so the whole program is
    monotone by induction.
    """
    widths = [1] + [int(rng.integers(2, max_width + 1)) for _ in range(T)]
    n_labels = 1 << D
    trans = []
    for i in range(T):
        a, b = widths[i], widths[i + 1]
        layer = [[0] * n_labels for _ in range(a)]
        for z in range(n_labels):
            col = np.sort(rng.integers(0, b, size=a))
            for v in range(a):
                layer[v][z] = int(col[v])
        trans.append(layer)
    cutoff = int(rng.integers(0, widths[-1] + 1))
    accept = [int(v >= cutoff) for v in range(widths[-1])]
    return ROBP(trans, accept, D)


def random_robp(rng: np.random.Generator, T: int, max_width: int, D: int = 1) -> ROBP:
    widths = [1] + [int(rng.integers(2, max_width + 1)) for _ in range(T)]
    n_labels = 1 << D
    trans = [[[int(rng.integers(0, widths[i + 1])) for _ in range(n_labels)]
              for _ in range(widths[i])] for i in range(T)]
    accept = [int(rng.integers(0, 2)) for _ in range(widths[-1])]
    return ROBP(trans, accept, D)


def acc_bitsets(B: ROBP) -> list[list[int]]:
    """Accepting-suffix sets as bitsets; suffix index is label-lexicographic.

    The brute-force oracle for monotonicity; feasible for D*T up to ~20
    bits of suffix space.
    """
    out = [[int(b) for b in B.accept]]
    n_labels = 1 << B.D
    for i in reversed(range(B.T)):
        block = 1 << (B.D * (B.T - i - 1))
        nxt = out[0]
        layer = []
        for row in B.trans[i]:
            acc = 0
            for z in range(n_labels):
                acc |= nxt[row[z]] << (z * block)
            layer.append(acc)
        out.insert(0, layer)
    return out


def all_inputs(D: int, T: int):
    """Every label sequence, lexicographic; test-sized programs only."""
    return itertools.product(range(1 << D), repeat=T)


def all_seeds(gen) -> range:
    """Every integer seed of a generator or k-wise family (2^seed_bits of them)."""
    return range(1 << gen.seed_bits)


def kwise_seeds(fam):
    """Every seed of a k-wise family as its coefficient tuple, in integer order."""
    return map(fam.seed_from_int, all_seeds(fam))


def expand_all(fam, seed) -> list[int]:
    """The k-wise family's word at every position for one coefficient tuple."""
    return [fam.expand(seed, j) for j in range(fam.n)]


def unpacked_seed_fields(seeds: np.ndarray, offset: int, width: int, count: int) -> np.ndarray:
    """The oracle for ``seeds.seed_fields``: unpack the bits, then weigh them.

    ``count`` consecutive ``width``-bit fields from bit ``offset``, as a
    (size, count) int64 array.
    """
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
