"""GF(2^m) arithmetic and k-wise independent sample spaces.

Field elements are m-bit integers whose binary digits are polynomial
coefficients over GF(2); arithmetic is done modulo a pinned irreducible
polynomial of degree m.  A k-wise independent space over n positions is
the evaluation of a uniformly random degree-(k-1) polynomial at n fixed
distinct field points: any k evaluations are jointly uniform because the
k x k Vandermonde matrix is invertible.

The modulus table is pinned (one polynomial per m, the lexicographically
smallest irreducible of that degree) so that seeds expand to identical
outputs everywhere, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Lexicographically smallest irreducible polynomial of each degree m,
# encoded with bit i = coefficient of x^i.  m=8 is the familiar AES
# modulus x^8+x^4+x^3+x+1; m=16 is x^16+x^5+x^3+x+1.
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

# Below this width multiplication goes through log/exp tables.
_TABLE_WIDTH = 12


def _polydivmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of carry-less polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _trial_division_irreducible(poly: int, m: int) -> bool:
    """Check irreducibility by dividing by every polynomial of degree <= m/2."""
    if m == 1:
        return poly in (0x2, 0x3)
    for d in range(1, m // 2 + 1):
        for low in range(1 << d):
            divisor = (1 << d) | low
            if _polydivmod(poly, divisor)[1] == 0:
                return False
    return True


class FieldError(ValueError):
    """Invalid field construction or element."""


@lru_cache(maxsize=None)
def field(m: int) -> "GF2m":
    """Shared GF(2^m) instance with the pinned modulus."""
    return GF2m(m)


class GF2m:
    """The field GF(2^m) with the pinned modulus for this m.

    Elements are plain ints in [0, 2^m).  Addition is xor; ``mul`` uses
    log/exp tables for small m and shift-xor reduction otherwise.
    """

    def __init__(self, m: int, modulus: int | None = None):
        if m < 1 or m > 32:
            raise FieldError(f"word width m={m} outside the pinned table [1, 32]")
        self.m = m
        self.order = 1 << m
        self.modulus = IRREDUCIBLE[m] if modulus is None else modulus
        if self.modulus.bit_length() != m + 1:
            raise FieldError(f"modulus 0x{self.modulus:X} does not have degree {m}")
        if m <= 16 and not _trial_division_irreducible(self.modulus, m):
            raise FieldError(f"modulus 0x{self.modulus:X} is reducible")
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._array_tables: tuple[np.ndarray, np.ndarray] | None = None
        if m <= _TABLE_WIDTH:
            self._build_tables()

    def _mul_raw(self, a: int, b: int) -> int:
        r = 0
        top = 1 << self.m
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.modulus
        return r

    def _build_tables(self) -> None:
        # The multiplicative group is cyclic; scan for a generator since
        # x itself need not be primitive for every pinned modulus.
        if self.order == 2:
            self._exp, self._log = [1, 1], [0, 0]
            return
        n1 = self.order - 1
        for g in range(2, self.order):
            exp = [0] * (2 * n1)
            log = [0] * self.order
            v = 1
            ok = True
            for i in range(n1):
                if i and v == 1:
                    ok = False
                    break
                exp[i] = v
                log[v] = i
                v = self._mul_raw(v, g)
            if ok and v == 1:
                for i in range(n1, 2 * n1):
                    exp[i] = exp[i - n1]
                self._exp, self._log = exp, log
                return
        raise FieldError("no multiplicative generator found (modulus reducible?)")

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise FieldError(f"0x{a:X} is not an element of GF(2^{self.m})")
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise product of two broadcastable int64 arrays of elements."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        tables = self._log_exp()
        if tables is not None:
            log, exp = tables
            return exp[log[a] + log[b]]
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        for i in range(self.m):  # shift-xor, reducing a by the modulus as it grows
            out ^= a * ((b >> i) & 1)
            a = a << 1
            a ^= (a >> self.m) * self.modulus
        return out

    def _log_exp(self) -> tuple[np.ndarray, np.ndarray] | None:
        """log/exp as int64 arrays when the field has tables (m <= 12), else None.

        log 0 points past every sum of two logs into a zero tail of exp, so
        ``exp[log[a] + log[b]]`` is a * b for all elements, 0 included.
        """
        if self._exp is None:
            return None
        if self._array_tables is None:
            n1 = self.order - 1
            log = np.array(self._log, dtype=np.int64)
            log[0] = 2 * n1
            exp = np.zeros(4 * n1 + 1, dtype=np.int64)
            exp[:2 * n1] = self._exp
            self._array_tables = (log, exp)
        return self._array_tables

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        # a^(2^m - 2) by square and multiply
        r, e, v = 1, self.order - 2, a
        while e:
            if e & 1:
                r = self._mul_raw(r, v)
            v = self._mul_raw(v, v)
            e >>= 1
        return r

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus=0x{self.modulus:X})"


@dataclass(frozen=True)
class KWiseSeed:
    """Coefficients of the degree-(k-1) seed polynomial, constant term first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("seed must have at least one coefficient")


class KWiseFamily:
    """k-wise independent words over n positions via polynomial evaluation.

    Position j is evaluated at the field element with word value j.
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

    def seed_from_int(self, value: int) -> KWiseSeed:
        if not 0 <= value < (1 << self.seed_bits):
            raise ValueError(f"seed integer needs exactly {self.seed_bits} bits")
        mask = (1 << self.m) - 1
        coeffs = tuple((value >> (i * self.m)) & mask for i in range(self.k))
        return KWiseSeed(coeffs)

    def expand(self, seed: KWiseSeed, index: int) -> int:
        """p(alpha_index) for the seed polynomial p, an m-bit word."""
        if len(seed.coefficients) != self.k:
            raise ValueError(f"seed has {len(seed.coefficients)} coefficients, expected {self.k}")
        if not 0 <= index < self.n:
            raise IndexError(f"position {index} out of range [0, {self.n})")
        acc = 0
        for c in reversed(seed.coefficients):  # Horner, highest degree first
            acc = self.field.mul(acc, index) ^ c
        return acc

    def expand_all(self, seed: KWiseSeed) -> list[int]:
        return [self.expand(seed, j) for j in range(self.n)]

    def all_seeds(self):
        """Iterate the full seed space (2^(k*m) seeds); test-sized use only."""
        for v in range(1 << self.seed_bits):
            yield self.seed_from_int(v)
