"""Regularity tests, the critical index, and the multi-output head set.

A collection of independent terms x_j (here: coordinate laws scaled by
weights) is delta-regular when no small group dominates:

    sum_j ||x_j||_4^4  <=  delta * (sum_j ||x_j||_2^2)^2.

The critical index is the first suffix of the sigma^2-sorted sequence that
is regular.  For d output dimensions the head set H0 is grown greedily,
one heaviest term at a time, until every dimension's surviving sequence is
regular (REG) or that dimension has exhausted its budget L (JUNTA).

Every sum is correctly rounded (math.fsum), so no verdict depends on term
order; the comparison, where equality counts as regular, is made in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .harness import wilson_halfwidth

REG = "REG"
JUNTA = "JUNTA"


@dataclass(frozen=True, eq=False)
class TermNorms:
    """Per-term ||x_j||_2^2 and ||x_j||_4^4 for one output dimension, read-only."""

    two_norm_sq: np.ndarray
    four_norm_4: np.ndarray

    def __post_init__(self):
        two, four = (np.array(v, dtype=np.float64) for v in (self.two_norm_sq, self.four_norm_4))
        if two.ndim != 1 or two.shape != four.shape:
            raise ValueError("norm arrays must have equal length")
        if not (np.isfinite(two).all() and np.isfinite(four).all()):
            raise ValueError("norms must be finite")
        if (two < 0).any() or (four < 0).any():
            raise ValueError("norms must be nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):  # two^2 = inf: the finite four is below
            sq = two * two
            short = np.isinf(sq) | (four < sq - 1e-9 * np.maximum(1.0, sq))
        if short.any():
            raise ValueError("||x||_4^4 < ||x||_2^4 violates Cauchy-Schwarz")
        for name, arr in (("two_norm_sq", two), ("four_norm_4", four)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.two_norm_sq)

    @classmethod
    def from_weights(cls, weights: Sequence[float], m2: Sequence[float],
                     m4: Sequence[float]) -> "TermNorms":
        """Norms of the scaled terms w_j * x_j from raw coordinate moments."""
        w, m2, m4 = (np.asarray(v, dtype=float) for v in (weights, m2, m4))
        if w.ndim != 1 or not len(w):
            raise ValueError("weights must be a nonempty vector")
        if m2.shape != w.shape or m4.shape != w.shape:
            raise ValueError(f"need one m2 and one m4 per weight, {len(w)} weights")
        return cls(w * w * m2, w ** 4 * m4)

    def order(self) -> np.ndarray:
        """Term indices by nonincreasing sigma^2, ties to the smaller index."""
        return np.lexsort((np.arange(len(self)), -self.two_norm_sq))


def check_delta(delta: float) -> None:
    """Raise ValueError unless delta is finite and positive."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")


def is_delta_regular(norms: TermNorms, delta: float,
                     indices: Sequence[int] | None = None) -> bool:
    """sum ||x_j||_4^4 <= delta * (sum ||x_j||_2^2)^2 over indices, ties regular."""
    check_delta(delta)
    two, four = norms.two_norm_sq, norms.four_norm_4
    if indices is not None:
        idx = np.asarray(indices, dtype=np.intp)
        if not idx.size:
            raise ValueError("index set must be nonempty")
        two, four = two[idx], four[idx]
    s4, s2 = math.fsum(four.tolist()), math.fsum(two.tolist())
    return s4 <= delta * s2 * s2


def critical_index(norms: TermNorms, delta: float) -> tuple[int | float, tuple[int, ...]]:
    """Smallest ell with the tail {x_ell, ..., x_n} delta-regular, else inf.

    Returns (ell, order): the sequence is sorted by nonincreasing sigma^2
    first, and `order` maps sorted positions back to input indices
    (identity when the input is already sorted: ties go to the smaller index).
    """
    order = norms.order()
    ell = next((ell for ell in range(len(order))
                if is_delta_regular(norms, delta, order[ell:])), math.inf)
    return ell, tuple(order.tolist())


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
    alive = np.ones(n, dtype=bool)
    H0: list[int] = []
    counters = [0] * d

    def dim_regular(i: int) -> bool:
        survivors = np.flatnonzero(alive)  # none left: nothing to dominate
        return not survivors.size or is_delta_regular(per_dim[i], delta, survivors)

    while True:
        pick = next((i for i in range(d) if counters[i] < L and not dim_regular(i)), None)
        if pick is None:
            break
        j = int(np.argmax(np.where(alive, per_dim[pick].two_norm_sq, -1.0)))
        alive[j] = False
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
