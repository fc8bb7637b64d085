"""Collision-preserving and set-isolating hash families over GF(2^m).

A family maps positions [n] (n a power of 2, identified with GF(n)) to
buckets [t] (t a power of 2 dividing n) by taking a field product, adding
an offset in the affine variant, reading the result as an integer, and
reducing mod t.

The affine family h_{a,c}(x) = ((a*x + c) in GF(n)) mod t has size n^2 and
is pairwise independent, which makes both collision probabilities exactly
1/t.  The multiplicative family h_a(x) = (a*x) mod t with a != 0 is the
smaller textbook variant; it is kept behind a flag and must be certified
by ``collision_stats`` before use, since h_a(0) = 0 for every a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gf2 import field

AFFINE = "affine"
MULTIPLICATIVE = "multiplicative"


def is_power_of_two(v: int) -> bool:
    return v >= 1 and (v & (v - 1)) == 0


@dataclass(frozen=True)
class HashFunction:
    """One function from a family: x -> ((a*x ^ c) as integer) mod t."""

    a: int
    c: int
    m: int
    t: int

    def __post_init__(self):
        if not (0 <= self.a < 1 << self.m and 0 <= self.c < 1 << self.m):
            raise ValueError(f"a={self.a}, c={self.c}: both must lie in GF(2^{self.m})")
        if not is_power_of_two(self.t) or self.t > 1 << self.m:
            raise ValueError(f"t={self.t} is not a power of 2 at most 2^{self.m}")

    def __call__(self, x: int) -> int:
        f = field(self.m)
        return (f.mul(self.a, f.check(x)) ^ self.c) & (self.t - 1)


class HashFamily:
    """Enumerable hash family from [n_pow2] onto [t] buckets."""

    def __init__(self, n_pow2: int, t: int, variant: str = AFFINE):
        if not is_power_of_two(n_pow2) or not is_power_of_two(t):
            raise ValueError("n_pow2 and t must be powers of 2")
        if n_pow2 % t != 0:
            raise ValueError("t must divide n_pow2")
        if variant not in (AFFINE, MULTIPLICATIVE):
            raise ValueError(f"unknown variant {variant!r}")
        if n_pow2 == 1:
            raise ValueError("domain must have at least 2 positions")
        self.n_pow2 = n_pow2
        self.t = t
        self.variant = variant
        self.m = (n_pow2 - 1).bit_length()

    @property
    def size(self) -> int:
        a, c = self.factors()
        return len(a) * len(c)

    @property
    def index_bits(self) -> int:
        """Bits consumed to draw one function from a seed.

        The affine family indexes exactly with 2*log2(n) bits.  The
        multiplicative variant follows the size-2n accounting, log2(2n)
        bits, mapped onto the n-1 multipliers by modular reduction.
        """
        if self.variant == AFFINE:
            return 2 * self.m
        return self.m + 1

    def from_index(self, index: int) -> HashFunction:
        if not 0 <= index < (1 << self.index_bits):
            raise ValueError(f"index needs exactly {self.index_bits} bits")
        a, c = self.coefficients(index)
        return HashFunction(int(a), int(c), self.m, self.t)

    def coefficients(self, index: np.ndarray | int) -> tuple:
        """The (a, c) of the functions at an index, or at an int64 array of them."""
        if self.variant == AFFINE:
            return index >> self.m, index & (self.n_pow2 - 1)
        return index % (self.n_pow2 - 1) + 1, np.zeros_like(index)

    def functions(self) -> Iterator[HashFunction]:
        """Every function of the family, in index order."""
        return map(self.from_index, range(self.size))

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The multipliers and the offsets, as int64 arrays; the family is every (a, c) pair."""
        points = np.arange(self.n_pow2, dtype=np.int64)
        if self.variant == AFFINE:
            return points, points
        return points[1:], points[:1]  # a = 0 is the constant function, excluded

    @property
    def multiplier_count(self) -> int:
        """How many multipliers a `factors` lists, without listing them."""
        return self.n_pow2 - (self.variant == MULTIPLICATIVE)

    def multiplier_indices(self, lo: int = 0, hi: int | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Multipliers lo, ..., hi - 1 of `factors` (every one by default), each
        one's index with offset c = 0, and how many of the 2^index_bits
        indices pick it, as int64 arrays; only the slice asked for is built."""
        count = self.multiplier_count
        a = np.arange(lo, count if hi is None else min(hi, count), dtype=np.int64)
        if self.variant == AFFINE:
            return a, a << self.m, np.full(len(a), self.n_pow2)
        a += 1  # a = 0 is excluded
        per, extra = divmod(1 << self.index_bits, count)
        return a, a - 1, per + (a - 1 < extra)


def multiplier_buckets(m: int, t: int, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Buckets (a*x) mod t in GF(2^m): one row per multiplier of a, one column per x.

    h_{a,c}(x) is this bucket xor (c mod t), so the offset only relabels buckets.
    """
    return field(m).mul_array(a[:, None], x) & (t - 1)


def _checked_positions(family: HashFamily, positions: Iterable[int]) -> list[int]:
    """The positions as a list; ValueError names any outside [0, n_pow2)."""
    positions = list(positions)
    for x in positions:
        if not 0 <= x < family.n_pow2:
            raise ValueError(f"position {x} outside [0, {family.n_pow2})")
    return positions


@dataclass(frozen=True)
class CollisionStats:
    """Exact single-bucket and pairwise collision maxima over a family."""

    max_single_prob: Fraction
    max_pair_prob: Fraction
    b_certified: Fraction
    family_size: int

    def certifies(self) -> bool:
        """Whether the collision parameter b = 1 of the analysis holds."""
        return self.b_certified <= 1


def _pair_collisions(family: HashFamily, positions: list[int]) -> np.ndarray:
    """Whether each multiplier (row) collides the pairs at each difference (column).

    x and y share a bucket under (a, c) exactly when (a*(x xor y)) mod t = 0,
    whatever c is, so a pair of the positions is known by its difference.
    """
    a, _ = family.factors()
    pos = np.asarray(positions, dtype=np.int64)
    xors = np.bincount((pos[:, None] ^ pos).ravel(), minlength=family.n_pow2)
    return multiplier_buckets(family.m, family.t, a, np.flatnonzero(xors[1:]) + 1) == 0


def collision_stats(family: HashFamily, positions: Sequence[int] | None = None) -> CollisionStats:
    """Count over the family and certify b = t * max(collision probabilities).

    Positions must be distinct and lie in [0, n_pow2); all of them by default.
    The bucket histogram of x over the family is that of (a*x) mod t over the
    multipliers, xor-convolved with that of c mod t over the offsets.
    """
    if positions is None:
        positions = range(family.n_pow2)
    positions = _checked_positions(family, positions)
    if len(set(positions)) != len(positions):
        dup = next(x for i, x in enumerate(positions) if x in positions[:i])
        raise ValueError(f"position {dup} given twice")
    a, c = family.factors()
    t = family.t
    buckets = multiplier_buckets(family.m, t, a, np.asarray(positions, dtype=np.int64))
    hist = np.bincount((buckets + t * np.arange(len(positions))).ravel(),
                       minlength=len(positions) * t).reshape(len(positions), t)
    lanes = np.arange(t)
    # relabel[v, b]: the offsets that move multiplier bucket v to bucket b.  The product runs
    # in float64 (BLAS): each partial sum is an integer of at most size < 2^53, so exact.
    relabel = np.bincount(c & (t - 1), minlength=t)[lanes[:, None] ^ lanes]
    max_single = int((hist @ relabel.astype(float)).max(initial=0))
    max_pair = int(_pair_collisions(family, positions).sum(axis=0).max(initial=0)) * len(c)

    p_single = Fraction(max_single, family.size)
    p_pair = Fraction(max_pair, family.size)
    return CollisionStats(p_single, p_pair, t * max(p_single, p_pair), family.size)


def isolation_failure_prob(family: HashFamily, S: Iterable[int]) -> Fraction:
    """Exact probability that some pair of S lands in one bucket.

    Guaranteed at most b*|S|^2/(2t) for a b-collision-preserving family.
    Whether S is isolated depends on the multiplier alone.
    """
    S = _checked_positions(family, S)
    if len(S) == 0:
        raise ValueError("S must be nonempty")
    bad = _pair_collisions(family, S).any(axis=1)
    return Fraction(int(bad.sum()), len(bad))


def isolation_bound(b: Fraction | int, ell: int, t: int) -> Fraction:
    """The union-bound guarantee b*ell^2/(2t)."""
    return Fraction(b) * ell * ell / (2 * t)
