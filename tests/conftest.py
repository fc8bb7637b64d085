"""Shared test helpers: reproducible RNGs, random program generators and the
brute-force monotonicity oracle."""

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
