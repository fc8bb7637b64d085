"""Field arithmetic and exact k-wise independence of the polynomial spaces."""

import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            assert f.mul(a, f.inv(a)) == 1

    @given(st.integers(min_value=1, max_value=16), st.data())
    @settings(max_examples=80, deadline=None)
    def test_commutes_and_tables_match_raw(self, m, data):
        f = field(m)
        a = data.draw(st.integers(min_value=0, max_value=f.order - 1))
        b = data.draw(st.integers(min_value=0, max_value=f.order - 1))
        assert f.mul(a, b) == f.mul(b, a) == f._mul_raw(a, b)

    @pytest.mark.parametrize("m", [1, 2, 8, 12, 13, 20, 32])
    def test_mul_array_matches_scalar(self, m):
        # tables up to m = 12, shift-xor beyond
        f = field(m)
        rng = np.random.default_rng(m)
        a = rng.integers(0, f.order, size=300)
        b = rng.integers(0, f.order, size=300)
        a[:3], b[3:6] = 0, 0
        want = [f.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert f.mul_array(a, b).tolist() == want
        assert f.mul_array(a[:, None], b[None, :5]).tolist() == \
            [[f.mul(int(x), int(y)) for y in b[:5]] for x in a]

    def test_pinned_moduli_are_irreducible(self):
        # trial division is the arbiter up to m=16; the table is trusted above
        for m in range(1, 17):
            GF2m(m, IRREDUCIBLE[m])

    def test_reducible_modulus_rejected(self):
        with pytest.raises(FieldError):
            GF2m(4, 0b10101)  # (x^2+x+1)^2


class TestKWiseExpand:
    def test_k1_constant(self):
        fam = KWiseFamily(m=3, k=1, n=8)
        for c in range(8):
            seed = fam.seed_from_int(c)
            assert fam.expand_all(seed) == [c] * 8

    def test_m1_pairwise_uniform(self):
        fam = KWiseFamily(m=1, k=2, n=2)
        hist = Counter(tuple(fam.expand_all(s)) for s in fam.all_seeds())
        assert hist == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_gf4_every_pair_uniform(self):
        fam = KWiseFamily(m=2, k=2, n=3)
        outs = [fam.expand_all(s) for s in fam.all_seeds()]
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
        first = fam.expand_all(seed)
        assert fam.expand_all(fam.seed_from_int(0xDEADBEEF42)) == first


@functools.lru_cache(maxsize=1)
def seed_table(fam):
    """Every seed's output words, built once per family."""
    return [fam.expand_all(seed) for seed in fam.all_seeds()]


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
