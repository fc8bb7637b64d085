"""Regularity tests, the critical index, and the multi-output head set.

A collection of independent terms x_j (here: coordinate laws scaled by
weights) is delta-regular when no small group dominates:

    sum_j ||x_j||_4^4  <=  delta * (sum_j ||x_j||_2^2)^2.

The critical index is the first suffix of the sigma^2-sorted sequence that
is regular.  For d output dimensions the head set H0 is grown greedily,
one heaviest term at a time, until every dimension's surviving sequence is
regular (REG) or that dimension has exhausted its budget L (JUNTA).

Sums near the decision threshold go through math.fsum, and equality counts
as regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .harness import wilson_halfwidth

REG = "REG"
JUNTA = "JUNTA"


@dataclass(frozen=True)
class TermNorms:
    """Per-term ||x_j||_2^2 and ||x_j||_4^4 for one output dimension."""

    two_norm_sq: tuple[float, ...]
    four_norm_4: tuple[float, ...]

    def __post_init__(self):
        if len(self.two_norm_sq) != len(self.four_norm_4):
            raise ValueError("norm arrays must have equal length")
        if not all(map(math.isfinite, (*self.two_norm_sq, *self.four_norm_4))):
            raise ValueError("norms must be finite")
        if any(v < 0 for v in self.two_norm_sq) or any(v < 0 for v in self.four_norm_4):
            raise ValueError("norms must be nonnegative")
        for s2, f4 in zip(self.two_norm_sq, self.four_norm_4):
            if f4 < s2 * s2 - 1e-9 * max(1.0, s2 * s2):
                raise ValueError("||x||_4^4 < ||x||_2^4 violates Cauchy-Schwarz")

    def __len__(self) -> int:
        return len(self.two_norm_sq)

    @classmethod
    def from_weights(cls, weights: Sequence[float], m2: Sequence[float],
                     m4: Sequence[float]) -> "TermNorms":
        """Norms of the scaled terms w_j * x_j from raw coordinate moments."""
        w = np.asarray(weights, dtype=float)
        return cls(tuple(w * w * np.asarray(m2, dtype=float)),
                   tuple(w ** 4 * np.asarray(m4, dtype=float)))

    def sorted(self) -> tuple["TermNorms", tuple[int, ...]]:
        order = tuple(sorted(range(len(self)), key=lambda j: (-self.two_norm_sq[j], j)))
        return TermNorms(tuple(self.two_norm_sq[j] for j in order),
                         tuple(self.four_norm_4[j] for j in order)), order


def is_delta_regular(norms: TermNorms, delta: float,
                     indices: Sequence[int] | None = None) -> bool:
    """sum ||x_j||_4^4 <= delta * (sum ||x_j||_2^2)^2, ties regular."""
    if indices is None:
        indices = range(len(norms))
    elif not (indices := list(indices)):
        raise ValueError("index set must be nonempty")
    s4 = math.fsum(norms.four_norm_4[j] for j in indices)
    s2 = math.fsum(norms.two_norm_sq[j] for j in indices)
    return s4 <= delta * s2 * s2


def critical_index(norms: TermNorms, delta: float) -> tuple[int | float, tuple[int, ...]]:
    """Smallest ell with the tail {x_ell, ..., x_n} delta-regular, else inf.

    Returns (ell, order): the sequence is sorted by nonincreasing sigma^2
    first, and `order` maps sorted positions back to input indices
    (identity when the input is already sorted: ties go to the smaller index).
    """
    snorms, order = norms.sorted()
    n = len(snorms)
    for ell in range(n):
        if is_delta_regular(snorms, delta, range(ell, n)):
            return ell, order
    return math.inf, order


@dataclass(frozen=True)
class HeadSetResult:
    """H0 plus the REG/JUNTA classification of every output dimension."""

    H0: tuple[int, ...]               # in insertion order
    classification: tuple[str, ...]   # REG or JUNTA, one per dimension
    counters: tuple[int, ...]         # how many head picks each dimension used
    delta: float
    L: int

    @property
    def head_set(self) -> frozenset[int]:
        return frozenset(self.H0)

    def to_json(self) -> dict:
        return {"H0": list(self.H0), "classification": list(self.classification),
                "counters": list(self.counters), "delta": self.delta, "L": self.L}


def head_set_partition(W: np.ndarray, m2: Sequence[float], m4: Sequence[float],
                       delta: float, L: int) -> HeadSetResult:
    """Grow H0 until every dimension's surviving terms are regular or budgeted out.

    W has shape (n, d); column i gives the weights of output dimension i.
    Each step picks the lowest-index dimension i with counter < L whose
    surviving sequence {w_ji x_j : j not in H0} is not delta-regular, then
    moves the surviving j maximizing ||w_ji x_j||_2^2 (ties: smallest j)
    into H0.  On exit dimension i is REG iff its survivors are regular.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError("W must be an n x d matrix")
    n, d = W.shape
    if L < 0:
        raise ValueError("head budget L must be nonnegative")
    per_dim = [TermNorms.from_weights(W[:, i], m2, m4) for i in range(d)]
    surviving = list(range(n))
    H0: list[int] = []
    counters = [0] * d

    def dim_regular(i: int) -> bool:
        if not surviving:
            return True  # nothing left to dominate
        return is_delta_regular(per_dim[i], delta, surviving)

    while True:
        pick = next((i for i in range(d) if counters[i] < L and not dim_regular(i)), None)
        if pick is None:
            break
        j = max(surviving, key=lambda jj: (per_dim[pick].two_norm_sq[jj], -jj))
        surviving.remove(j)
        H0.append(j)
        counters[pick] += 1
        if len(H0) > d * L:
            raise AssertionError("head set exceeded d*L, process is broken")

    classification = tuple(REG if dim_regular(i) else JUNTA for i in range(d))
    return HeadSetResult(tuple(H0), classification, tuple(counters), delta, L)


def anticoncentration_probe(head_weights: Sequence[float], head_coords,
                            theta: float, s: float, tau_tail: float,
                            trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo Pr[|sum_head w_j x_j - theta| <= s * tau_tail] with 95% CI.

    Returns (estimate, half-width).  The bound from the critical-index
    theorem is eps + O(ln(1/eps)) / (eta^8 s^4) when the head has length L.
    """
    if trials <= 0:
        raise ValueError("zero trials")
    total = np.zeros(trials)
    for w, coord in zip(head_weights, head_coords, strict=True):
        total += w * coord.sample(rng, trials)
    hits = np.abs(total - theta) <= s * tau_tail
    p = float(np.mean(hits))
    return p, wilson_halfwidth(p, trials)
