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
from itertools import combinations
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
        self._table: np.ndarray | None = None

    @property
    def size(self) -> int:
        if self.variant == AFFINE:
            return self.n_pow2 * self.n_pow2
        return self.n_pow2 - 1  # a = 0 is the constant function, excluded

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

    def _value_table(self) -> np.ndarray:
        """Bucket of every (function, position) pair, shape (size, n), read-only.

        Built once per family.  Buckets are stored in the narrowest unsigned
        type that holds t - 1.
        """
        if self._table is not None:
            return self._table
        n = self.n_pow2
        mask = self.t - 1
        dtype = np.min_scalar_type(mask)
        points = np.arange(n, dtype=np.int64)
        prod = (field(self.m).mul_array(points[:, None], points) & mask).astype(dtype)
        if self.variant == MULTIPLICATIVE:
            table = prod[1:]
        else:  # row a*n + c is x -> a*x ^ c; the mask commutes with the xor
            table = (prod[:, None, :] ^ (points & mask).astype(dtype)[None, :, None]
                     ).reshape(n * n, n)
        table.flags.writeable = False
        self._table = table
        return table


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


def collision_stats(family: HashFamily, positions: Sequence[int] | None = None) -> CollisionStats:
    """Enumerate the family and certify b = t * max(collision probabilities).

    Positions must be distinct and lie in [0, n_pow2); all of them by default.
    """
    if positions is None:
        positions = range(family.n_pow2)
    positions = _checked_positions(family, positions)
    if len(set(positions)) != len(positions):
        dup = next(x for i, x in enumerate(positions) if x in positions[:i])
        raise ValueError(f"position {dup} given twice")
    table = family._value_table()
    size = table.shape[0]
    rows = np.ascontiguousarray(table.T[positions])  # one row per position

    max_single = max((int(np.bincount(row, minlength=family.t).max()) for row in rows),
                     default=0)
    max_pair = 0
    for i in range(len(rows) - 1):
        max_pair = max(max_pair, int((rows[i + 1:] == rows[i]).sum(axis=1).max()))

    p_single = Fraction(max_single, size)
    p_pair = Fraction(max_pair, size) if len(positions) > 1 else Fraction(0)
    b_cert = family.t * max(p_single, p_pair)
    return CollisionStats(p_single, p_pair, b_cert, size)


def isolation_failure_prob(family: HashFamily, S: Iterable[int]) -> Fraction:
    """Exact probability that some pair of S lands in one bucket.

    Guaranteed at most b*|S|^2/(2t) for a b-collision-preserving family.
    """
    S = sorted(set(_checked_positions(family, S)))
    if len(S) == 0:
        raise ValueError("S must be nonempty")
    if len(S) == 1:
        return Fraction(0)
    table = family._value_table()
    cols = table[:, S]
    bad = np.zeros(table.shape[0], dtype=bool)
    for i, j in combinations(range(len(S)), 2):
        bad |= cols[:, i] == cols[:, j]
    return Fraction(int(bad.sum()), table.shape[0])


def isolation_bound(b: Fraction | int, ell: int, t: int) -> Fraction:
    """The union-bound guarantee b*ell^2/(2t)."""
    return Fraction(b) * ell * ell / (2 * t)
