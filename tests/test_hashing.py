"""Exact collision and isolation properties of the hash families."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from conftest import philox, recount
from hsprg.hashing import (
    AFFINE,
    MULTIPLICATIVE,
    HashFamily,
    HashFunction,
    collision_stats,
    isolation_bound,
    isolation_failure_prob,
    multiplier_buckets,
)


class TestHashEval:
    def test_identity_multiplier_is_mod_t(self):
        h = HashFunction(a=1, c=0, m=4, t=4)
        for x in range(16):
            assert h(x) == x % 4

    def test_t_equals_n_invertible_a_is_bijection(self):
        fam = HashFamily(16, 16, variant=MULTIPLICATIVE)
        for h in fam.functions():
            assert sorted(h(x) for x in range(16)) == list(range(16))

    def test_fixed_pair_collision_fraction_is_quarter(self):
        fam = HashFamily(16, 4, variant=AFFINE)
        for i, j in [(0, 1), (3, 7), (5, 13)]:
            coll = sum(1 for h in fam.functions() if h(i) == h(j))
            assert Fraction(coll, fam.size) == Fraction(1, 4)

    @pytest.mark.parametrize("a,c,m", [(9, 0, 3), (0, 8, 3), (-1, 0, 3), ((1 << 13) + 1, 0, 13)])
    def test_coefficients_outside_the_field_rejected(self, a, c, m):
        with pytest.raises(ValueError, match=rf"^a={a}, c={c}: both must lie in GF\(2\^{m}\)$"):
            HashFunction(a=a, c=c, m=m, t=2)

    @pytest.mark.parametrize("t", [0, 3, 6, 16])
    def test_bucket_count_must_be_power_of_two_in_range(self, t):
        with pytest.raises(ValueError, match=rf"^t={t} is not a power of 2 at most 2\^3$"):
            HashFunction(a=1, c=0, m=3, t=t)

    def test_total_and_deterministic(self):
        fam = HashFamily(64, 8, variant=AFFINE)
        h = fam.from_index(1234)
        vals = [h(x) for x in range(64)]
        assert all(0 <= v < 8 for v in vals)
        assert vals == [fam.from_index(1234)(x) for x in range(64)]


class TestCollisionStats:
    @pytest.mark.parametrize("n,t", [(16, 2), (16, 4), (16, 8), (64, 4)])
    def test_affine_family_achieves_b1(self, n, t):
        stats = collision_stats(HashFamily(n, t, variant=AFFINE))
        assert stats.max_single_prob == Fraction(1, t)
        assert stats.max_pair_prob == Fraction(1, t)
        assert stats.b_certified == 1

    def test_single_bucket_t1(self):
        stats = collision_stats(HashFamily(16, 1, variant=AFFINE))
        assert stats.max_single_prob == 1
        assert stats.b_certified == 1

    def test_multiplicative_family_fails_property_1_at_zero(self):
        # h_a(0) = 0 for every a, so the single-bucket bound cannot hold at x=0
        stats = collision_stats(HashFamily(16, 4, variant=MULTIPLICATIVE))
        assert stats.max_single_prob == 1
        assert not stats.certifies()

    def test_multiplicative_family_ok_away_from_zero(self):
        fam = HashFamily(16, 4, variant=MULTIPLICATIVE)
        stats = collision_stats(fam, positions=range(1, 16))
        # 15 functions, buckets of mass 4/15 or collisions 3/15: b slightly above 1
        assert stats.max_single_prob <= Fraction(2, fam.t)
        assert stats.max_pair_prob <= Fraction(2, fam.t)

    @pytest.mark.parametrize("variant", [AFFINE, MULTIPLICATIVE])
    @pytest.mark.parametrize("n,t", [(16, 4), (64, 8), (128, 16)])
    def test_matches_pairwise_recount(self, n, t, variant):
        fam = HashFamily(n, t, variant=variant)
        for positions in (range(n), range(1, n), [n - 1, 0, 5, n // 2, 3]):
            stats = collision_stats(fam, positions)
            single, pair = recount(fam, list(positions))
            assert (stats.max_single_prob, stats.max_pair_prob) == (single, pair)
            assert stats.b_certified == t * max(single, pair)
            assert stats.family_size == fam.size

    @pytest.mark.parametrize("variant", [AFFINE, MULTIPLICATIVE])
    def test_matches_recount_at_the_batch_generator_domain(self, variant):
        # 2^20 affine functions: the table of every function at every position is out of reach
        fam = HashFamily(1024, 64, variant=variant)
        positions = [0, *philox(24).choice(np.arange(1, 1024), 39, replace=False).tolist()]
        stats = collision_stats(fam, positions)
        assert (stats.max_single_prob, stats.max_pair_prob) == recount(fam, positions)

    def test_affine_family_certifies_b1_at_the_batch_generator_domain(self):
        stats = collision_stats(HashFamily(1024, 64))
        assert stats.max_single_prob == stats.max_pair_prob == Fraction(1, 64)
        assert stats.certifies()

    def test_a_fixed_to_one_breaks_pairwise(self):
        # x mod 4 collides i=0 with j=4 always; a single-function "family"
        h = HashFunction(a=1, c=0, m=4, t=4)
        assert h(0) == h(4)


class TestMultiplierBuckets:
    @pytest.mark.parametrize("variant", [AFFINE, MULTIPLICATIVE])
    @pytest.mark.parametrize("n,t", [(16, 4), (64, 8)])
    def test_matches_every_hash_function(self, n, t, variant):
        """h_{a,c}(x) is the multiplier bucket of (a, x) xor c mod t, for every (a, c) of
        the family's factors."""
        fam = HashFamily(n, t, variant=variant)
        a, c = fam.factors()
        buckets = dict(zip(a.tolist(), multiplier_buckets(fam.m, t, a, np.arange(n)).tolist()))
        functions = list(fam.functions())
        assert {(h.a, h.c) for h in functions} == set(product(a.tolist(), c.tolist()))
        assert len(functions) == len(a) * len(c) == fam.size
        for h in functions:
            assert [h(x) for x in range(n)] == [b ^ (h.c & (t - 1)) for b in buckets[h.a]]


class TestIsolation:
    def test_singleton_never_fails(self):
        fam = HashFamily(16, 4)
        assert isolation_failure_prob(fam, {3}) == 0

    def test_pair_exactly_one_over_t(self):
        fam = HashFamily(16, 4)
        p = isolation_failure_prob(fam, {2, 9})
        assert p == Fraction(1, 4)
        assert p <= isolation_bound(1, 2, 4)

    def test_three_of_eight_buckets_within_bound(self):
        fam = HashFamily(16, 8)
        p = isolation_failure_prob(fam, {1, 6, 11})
        assert p <= isolation_bound(1, 3, 8) == Fraction(9, 16)

    @pytest.mark.parametrize("n,t", [(16, 2), (16, 4), (16, 8), (64, 8)])
    def test_bound_holds_for_all_small_sets(self, n, t):
        fam = HashFamily(n, t)
        for size in (2, 3, 4):
            for S in combinations(range(0, min(n, 10)), size):
                assert isolation_failure_prob(fam, S) <= isolation_bound(1, size, t)


class TestPositionChecks:
    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_range_position_refused(self, bad):
        fam = HashFamily(16, 4)
        with pytest.raises(ValueError, match=f"position {bad} outside"):
            collision_stats(fam, [bad, 3])
        with pytest.raises(ValueError, match=f"position {bad} outside"):
            isolation_failure_prob(fam, [bad, 3])

    def test_duplicate_position_refused(self):
        # a position collides with itself, which used to report b = t
        with pytest.raises(ValueError, match="position 3 given twice"):
            collision_stats(HashFamily(16, 4), [3, 5, 3])


class TestFamilyIndexing:
    def test_affine_index_bits_round_trip(self):
        fam = HashFamily(16, 4, variant=AFFINE)
        assert fam.index_bits == 8
        seen = {(fam.from_index(i).a, fam.from_index(i).c) for i in range(fam.size)}
        assert len(seen) == 256

    def test_multiplicative_index_bits_match_2n_accounting(self):
        fam = HashFamily(16, 4, variant=MULTIPLICATIVE)
        assert fam.index_bits == 5  # log2(2n)
        for i in range(1 << fam.index_bits):
            assert fam.from_index(i).a != 0

    @pytest.mark.parametrize("variant", [AFFINE, MULTIPLICATIVE])
    def test_functions_and_from_index_follow_index_order(self, variant):
        fam = HashFamily(16, 4, variant=variant)
        if variant == AFFINE:  # a-major, then c
            want = [HashFunction(a, c, 4, 4) for a in range(16) for c in range(16)]
        else:  # the nonzero multipliers in order
            want = [HashFunction(a, 0, 4, 4) for a in range(1, 16)]
        assert list(fam.functions()) == want
        got = [fam.from_index(i) for i in range(fam.size)]
        assert got == want
        assert all(type(h.a) is int and type(h.c) is int for h in got)

    @pytest.mark.parametrize("n_pow2", [2, 4, 16])
    @pytest.mark.parametrize("variant", [AFFINE, MULTIPLICATIVE])
    def test_multiplier_indices_count_every_index(self, variant, n_pow2):
        fam = HashFamily(n_pow2, 2, variant=variant)
        a, c = fam.coefficients(np.arange(1 << fam.index_bits))
        mult, first, picks = fam.multiplier_indices()
        assert mult.tolist() == sorted(set(a.tolist())) and fam.multiplier_count == len(mult)
        assert picks.tolist() == [int((a == m).sum()) for m in mult.tolist()]
        assert fam.coefficients(first)[0].tolist() == mult.tolist()
        assert not fam.coefficients(first)[1].any()
        slices = [fam.multiplier_indices(lo, lo + 3) for lo in range(0, len(mult), 3)]
        for whole, parts in zip((mult, first, picks), zip(*slices)):
            assert np.concatenate(parts).tolist() == whole.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            HashFamily(12, 4)
        with pytest.raises(ValueError):
            HashFamily(16, 32)
