"""GF(2^m) arithmetic and k-wise independent sample spaces.

Field elements are m-bit integers whose binary digits are polynomial
coefficients over GF(2); arithmetic is done modulo a pinned irreducible
polynomial of degree m.  A k-wise independent space over n positions is
the evaluation of a uniformly random degree-(k-1) polynomial at n fixed
distinct field points: any k evaluations are jointly uniform because the
k x k Vandermonde matrix is invertible.

The modulus table is pinned (one polynomial per m; for m >= 2 the
lexicographically smallest irreducible of that degree, for m = 1 x + 1)
so that seeds expand to identical outputs everywhere, bit for bit.  The
table is not re-checked at run time; a test-side Rabin irreducibility
test checks every entry, and that no smaller candidate is irreducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Lexicographically smallest irreducible polynomial of each degree m >= 2
# (and x + 1 for m = 1), encoded with bit i = coefficient of x^i.  m=8 is
# the familiar AES modulus x^8+x^4+x^3+x+1; m=16 is x^16+x^5+x^3+x+1.
IRREDUCIBLE = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
}

# Up to this width mul_array goes through log/exp tables.
_TABLE_WIDTH = 12


class FieldError(ValueError):
    """Invalid field construction or element."""


@lru_cache(maxsize=None)
def field(m: int) -> "GF2m":
    """Shared GF(2^m) instance with the pinned modulus."""
    return GF2m(m)


class GF2m:
    """The field GF(2^m) with the pinned modulus for this m.

    Elements are plain ints in [0, 2^m).  Addition is xor; ``mul`` is the
    shift-xor loop, and ``mul_array`` the same loop on whole arrays, or
    log/exp tables for m <= 12.
    """

    def __init__(self, m: int):
        if m < 1 or m > 32:
            raise FieldError(f"word width m={m} outside the pinned table [1, 32]")
        self.m = m
        self.order = 1 << m
        self.modulus = IRREDUCIBLE[m]
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        if m <= _TABLE_WIDTH:
            self._tables = self._log_exp()

    def _log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """log/exp as int64 arrays over the powers of the first primitive g.

        The powers come from ``mul_array``'s shift-xor, doubling: g^0..g^(L-1)
        times g^L gives g^L..g^(2L-1).  log 0 points past every sum of two
        logs into a zero tail of exp, so ``exp[log[a] + log[b]]`` is a * b for
        all elements, 0 included.
        """
        n1 = self.order - 1
        for g in range(min(2, n1), self.order):
            powers, step = np.ones(1, dtype=np.int64), np.int64(g)
            while len(powers) < n1:
                powers = np.concatenate([powers, self.mul_array(powers, step)])
                step = self.mul_array(step, step)
            powers = powers[:n1]
            if np.count_nonzero(powers == 1) == 1:  # g has order n1
                break
        log = np.empty(self.order, dtype=np.int64)
        log[powers] = np.arange(n1)
        log[0] = 2 * n1
        exp = np.zeros(4 * n1 + 1, dtype=np.int64)
        exp[:2 * n1] = np.tile(powers, 2)
        return log, exp

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise FieldError(f"0x{a:X} is not an element of GF(2^{self.m})")
        return a

    def mul(self, a: int, b: int) -> int:
        """a * b by shift-xor, reducing a by the modulus as it grows."""
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.modulus
        return r

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise product of two broadcastable int64 arrays of elements."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._tables is not None:
            log, exp = self._tables
            return exp[log[a] + log[b]]
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        for i in range(self.m):  # shift-xor, reducing a by the modulus as it grows
            out ^= a * ((b >> i) & 1)
            a = a << 1
            a ^= (a >> self.m) * self.modulus
        return out

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus=0x{self.modulus:X})"


class KWiseFamily:
    """k-wise independent words over n positions via polynomial evaluation.

    Position j is evaluated at the field element with word value j.  A seed
    is the tuple of the k coefficients of the degree-(k-1) seed polynomial,
    constant term first.
    """

    def __init__(self, m: int, k: int, n: int):
        if k < 1:
            raise ValueError("independence order k must be >= 1")
        if n < 1 or n > (1 << m):
            raise ValueError(f"n={n} positions do not fit in GF(2^{m})")
        self.field = field(m)
        self.m = m
        self.k = k
        self.n = n

    @property
    def seed_bits(self) -> int:
        return self.k * self.m

    def seed_from_int(self, value: int) -> tuple[int, ...]:
        if not 0 <= value < (1 << self.seed_bits):
            raise ValueError(f"seed integer needs exactly {self.seed_bits} bits")
        mask = (1 << self.m) - 1
        return tuple((value >> (i * self.m)) & mask for i in range(self.k))

    def expand(self, seed: tuple[int, ...], index: int) -> int:
        """p(alpha_index) for the seed polynomial p, an m-bit word."""
        if len(seed) != self.k:
            raise ValueError(f"seed has {len(seed)} coefficients, expected {self.k}")
        if not 0 <= index < self.n:
            raise IndexError(f"position {index} out of range [0, {self.n})")
        acc = 0
        for c in reversed(seed):  # Horner, highest degree first
            acc = self.field.mul(acc, index) ^ c
        return acc
