"""Field arithmetic and exact k-wise independence of the polynomial spaces."""

import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from conftest import expand_all, kwise_seeds
from hsprg.gf2 import IRREDUCIBLE, FieldError, GF2m, KWiseFamily, field


class TestFieldMul:
    def test_identity(self):
        for a in range(8):
            assert field(3).mul(a, 1) == a

    def test_x_times_x_no_reduction(self):
        # x * x = x^2, degree below 3
        assert field(3).mul(0b010, 0b010) == 0b100

    def test_reduction_x_cubed(self):
        # x^2 * x = x^3 = x + 1 modulo x^3 + x + 1
        assert field(3).mul(0b100, 0b010) == 0b011

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_field_axioms_exhaustive(self, m):
        f = field(m)
        els = range(f.order)
        for a, b in itertools.product(els, repeat=2):
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(els, repeat=3):
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        for a in range(1, f.order):
            assert [f.mul(a, b) for b in els].count(1) == 1  # one inverse each

    @pytest.mark.parametrize("m", range(1, 33))
    def test_mul_array_matches_scalar(self, m):
        # two algorithms: tables (m <= 12) or array shift-xor, against scalar shift-xor
        f = field(m)
        if m <= 8:
            a, b = np.array(list(itertools.product(range(f.order), repeat=2))).T
        else:
            rng = np.random.default_rng(m)
            a = rng.integers(0, f.order, size=1000)
            b = rng.integers(0, f.order, size=1000)
            a[:3], b[3:6], a[6:9], b[9:12] = 0, 0, f.order - 1, f.order - 1
        want = [f.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert f.mul_array(a, b).tolist() == want
        assert f.mul_array(a[:, None], b[None, :5]).tolist() == \
            [[f.mul(int(x), int(y)) for y in b[:5]] for x in a]

    def test_pinned_moduli_are_irreducible(self):
        # degrees 1..10: the checker finds exactly the known number of
        # irreducible polynomials (OEIS A001037), so it is an arbiter
        counts = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
        for m, want in enumerate(counts, start=1):
            assert sum(map(rabin_irreducible, range(1 << m, 2 << m))) == want
        assert sorted(IRREDUCIBLE) == list(range(1, 33))
        for m, poly in IRREDUCIBLE.items():
            assert poly.bit_length() == m + 1 and rabin_irreducible(poly)
            assert field(m).modulus == poly

    def test_reducible_modulus_rejected(self):
        assert not rabin_irreducible(0b10101)  # (x^2+x+1)^2
        # products of two irreducibles (x, x+1 included) of every degree up to 32
        rng = np.random.default_rng(0)
        for m in range(2, 33):
            d = int(rng.integers(1, m))
            f = _pmul(IRREDUCIBLE[d], IRREDUCIBLE[m - d])
            assert f.bit_length() == m + 1 and not rabin_irreducible(f)
            assert not rabin_irreducible(_pmul(0x2, (1 << (m - 1)) | 1))

    def test_pinned_moduli_are_smallest_irreducible(self):
        for m, poly in IRREDUCIBLE.items():
            if m >= 2:  # no smaller candidate of degree m; even ones have the factor x
                assert not any(map(rabin_irreducible, range((1 << m) | 1, poly, 2)))
        # m = 1 pins x + 1, not the smaller irreducible x
        assert IRREDUCIBLE[1] == 0x3 and rabin_irreducible(0x2)

    def test_width_outside_table_rejected(self):
        for m in (0, 33):
            with pytest.raises(FieldError):
                GF2m(m)


def _pmod(a: int, f: int) -> int:
    """a mod f, carry-less."""
    while a.bit_length() >= f.bit_length():
        a ^= f << (a.bit_length() - f.bit_length())
    return a


def _pmul(a: int, b: int) -> int:
    """a * b, carry-less, unreduced."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def _pmulmod(a: int, b: int, f: int) -> int:
    """a * b mod f, carry-less, for a and b already reduced mod f."""
    r, top = 0, f.bit_length() - 1
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> top & 1:
            a ^= f
    return r


def rabin_irreducible(f: int) -> bool:
    """Rabin's test (1980) over GF(2) for f of degree m >= 1.

    f is irreducible iff x^(2^m) = x mod f and, for every prime p dividing
    m, gcd(x^(2^(m/p)) - x, f) = 1.
    """
    m = f.bit_length() - 1
    x = _pmod(0b10, f)

    def frobenius(e: int) -> int:  # x^(2^e) mod f
        r = x
        for _ in range(e):
            r = _pmulmod(r, r, f)
        return r

    def gcd(a: int, b: int) -> int:
        while b:
            a, b = b, _pmod(a, b)
        return a

    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
    return frobenius(m) == x and all(gcd(frobenius(m // p) ^ x, f) == 1 for p in primes)


class TestKWiseExpand:
    def test_k1_constant(self):
        fam = KWiseFamily(m=3, k=1, n=8)
        for c in range(8):
            seed = fam.seed_from_int(c)
            assert seed == (c,)
            assert expand_all(fam, seed) == [c] * 8

    def test_m1_pairwise_uniform(self):
        fam = KWiseFamily(m=1, k=2, n=2)
        hist = Counter(tuple(expand_all(fam, s)) for s in kwise_seeds(fam))
        assert hist == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_gf4_every_pair_uniform(self):
        fam = KWiseFamily(m=2, k=2, n=3)
        outs = [expand_all(fam, s) for s in kwise_seeds(fam)]
        assert len(outs) == 16
        for i, j in itertools.combinations(range(3), 2):
            hist = Counter((o[i], o[j]) for o in outs)
            assert all(hist[p] == 1 for p in itertools.product(range(4), repeat=2))

    def test_index_out_of_range(self):
        fam = KWiseFamily(m=2, k=2, n=3)
        with pytest.raises(IndexError):
            fam.expand(fam.seed_from_int(0), 3)

    def test_deterministic_replay(self):
        fam = KWiseFamily(m=8, k=5, n=100)
        seed = fam.seed_from_int(0xDEADBEEF42)
        first = expand_all(fam, seed)
        assert expand_all(fam, fam.seed_from_int(0xDEADBEEF42)) == first


@functools.lru_cache(maxsize=1)
def seed_table(fam):
    """Every seed's output words, built once per family."""
    return [expand_all(fam, seed) for seed in kwise_seeds(fam)]


def marginal_is_exactly_uniform(fam, positions):
    """Exact check that the joint law on `positions` is uniform over all seeds."""
    hist = Counter(tuple(row[j] for j in positions) for row in seed_table(fam))
    want = (1 << fam.seed_bits) // (1 << (fam.m * len(positions)))
    return (len(hist) == 1 << (fam.m * len(positions))
            and all(v == want for v in hist.values()))


@pytest.mark.parametrize("m,n,k", [
    (1, 2, 2), (1, 2, 5),
    (2, 4, 2), (2, 3, 3), (2, 4, 4),
    (3, 8, 2), (3, 8, 3), (3, 6, 4), (3, 8, 5),
])
def test_exact_kwise_independence(m, n, k):
    fam = KWiseFamily(m=m, k=k, n=n)
    size = min(k, n)
    for positions in itertools.combinations(range(n), size):
        assert marginal_is_exactly_uniform(fam, positions)


def test_kwise_fails_beyond_k():
    # sanity that the check bites: (k+1)-marginals of a k-wise space are not uniform
    fam = KWiseFamily(m=2, k=2, n=4)
    assert not marginal_is_exactly_uniform(fam, (0, 1, 2))


class TestSeedBits:
    def test_values(self):
        assert KWiseFamily(m=4, k=5, n=16).seed_bits == 20
        assert KWiseFamily(m=1, k=1, n=2).seed_bits == 1

    def test_matches_k_log_max_accounting(self):
        # k=5 over 16 positions and a 16-letter alphabet: 5 * log2(16) bits
        n = 16
        omega = 16
        m = max(n - 1, omega - 1).bit_length()
        fam = KWiseFamily(m=m, k=5, n=n)
        assert fam.seed_bits == 5 * m == 20
