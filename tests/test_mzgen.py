"""Parameter schedule, seed accounting, and exact generator laws."""

import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_seeds, expand_all, philox
from hsprg import mzgen
from hsprg.gf2 import KWiseFamily, field
from hsprg.hashing import AFFINE, MULTIPLICATIVE, HashFunction
from hsprg.mzgen import MZGenerator, MZParams, NisanProductGenerator, _parity_masks, derive_params

ETA3 = 1 / math.sqrt(3)


class TestDeriveParams:
    def test_s_formula(self):
        p = derive_params(d=1, eps=0.1, eta=ETA3)
        assert p.s_param == pytest.approx(3 / math.sqrt(0.1))  # about 9.487

    def test_delta_formula(self):
        p = derive_params(d=1, eps=0.1, eta=ETA3)
        assert p.delta == pytest.approx((1 / 9) * 1e-8)

    def test_d_dependence(self):
        p = derive_params(d=2, eps=0.1, eta=ETA3)
        assert p.delta == pytest.approx((1 / 9) * 1e-8 / 2 ** 7)

    def test_L_blocks(self):
        p = derive_params(d=1, eps=0.1, eta=ETA3)
        assert p.b_blocks == math.ceil(18 * math.log(10))
        assert p.r_blocks == math.ceil(math.log(1 + 16 * p.s_param ** 2) / (p.eta ** 4 * p.delta))
        assert p.L == p.b_blocks * p.r_blocks

    def test_floor_case_well_defined(self):
        p = derive_params(d=1, eps=0.5, eta=ETA3)
        assert p.s_param > 0 and p.delta > 0 and p.L > 0
        assert p.t & (p.t - 1) == 0
        assert p.t >= (p.d * p.L) ** 2 / p.eps

    def test_overrides(self):
        p = derive_params(d=2, eps=0.1, eta=ETA3, t=64, k=4, L=10)
        assert (p.t, p.k, p.L) == (64, 4, 10)
        with pytest.raises(TypeError):
            derive_params(d=1, eps=0.1, eta=ETA3, bogus=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_params(d=0, eps=0.1, eta=ETA3)
        with pytest.raises(ValueError):
            derive_params(d=1, eps=0.1, eta=0.9)
        with pytest.raises(ValueError):
            MZParams(1, 0.1, ETA3, 1.0, 1.0, 1e-9, 1, 1, 1, t=3)


def omega16():
    return [list(np.linspace(-1.5, 1.5, 16))] * 16


class TestSeedBits:
    def test_paper_multiplicative_accounting(self):
        gen = MZGenerator(omega16(), t=4, k=5, hash_variant=MULTIPLICATIVE)
        assert gen.m_word == 4
        assert gen.seed_bits == 5 + 4 * 5 * 4  # log(2n) + t*k*log max(n, alphabet)
        rep = gen.seed_bits_report()
        assert rep["multiplicative_hash_total"] == 85
        assert rep["affine_hash_total"] == 88

    def test_trivial_partition_collapses_hash_bits(self):
        gen = MZGenerator(omega16(), t=1, k=5)
        assert gen.hash_bits == 0
        assert gen.seed_bits == 20

    def test_affine_costs_one_log_n_more(self):
        mult = MZGenerator(omega16(), t=4, k=5, hash_variant=MULTIPLICATIVE)
        aff = MZGenerator(omega16(), t=4, k=5)
        assert aff.seed_bits - mult.seed_bits == 3  # 2 log n - log 2n = log n - 1


class TestGenerate:
    def test_t1_matches_plain_kwise_expansion(self):
        alphabet = [-1.0, 1.0]
        gen = MZGenerator([alphabet] * 4, t=1, k=3)
        fam = KWiseFamily(gen.m_word, 3, 4)
        for seed in range(1 << gen.seed_bits):
            out = gen.generate(seed)
            words = expand_all(fam, fam.seed_from_int(seed))
            assert list(out) == [alphabet[w & 1] for w in words]

    def test_replay(self):
        gen = MZGenerator([[-1.0, 1.0]] * 12, t=4, k=5)
        seed = gen.random_seed(philox(2))
        assert np.array_equal(gen.generate(seed), gen.generate(seed))

    def test_wrong_seed_rejected(self):
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2)
        with pytest.raises(ValueError):
            gen.generate(1 << gen.seed_bits)

    @pytest.mark.parametrize("t", [1, 4])
    def test_fixed_hash_bucket_count_must_match(self, t):
        gen = MZGenerator([[-1.0, 1.0]] * 8, t=2, k=2)
        h = HashFunction(a=1, c=0, m=gen.hash_family.m, t=t)
        msg = f"fixed hash has {t} buckets, the generator t=2"
        with pytest.raises(ValueError, match=msg):
            gen.with_fixed_hash(h)
        with pytest.raises(ValueError, match=msg):
            MZGenerator([[-1.0, 1.0]] * 8, t=2, k=2, fixed_hash=h)

    @pytest.mark.parametrize("n,a,c", [(8, 9, 0), (8, 1, 8), (4097, (1 << 13) + 1, 0)])
    def test_fixed_hash_outside_the_field_rejected(self, n, a, c):
        # these used to fail in the first generate, or (m = 13) give a row
        gen = MZGenerator([[-1.0, 1.0]] * n, t=2, k=2)
        with pytest.raises(ValueError, match=rf"both must lie in GF\(2\^{gen.hash_family.m}\)$"):
            gen.with_fixed_hash(HashFunction(a=a, c=c, m=gen.hash_family.m, t=2))

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            MZGenerator([[-1.0, 1.0], [-1.0, 0.0, 1.0]], t=1)
        with pytest.raises(ValueError):
            MZGenerator([[-1.0, 0.0, 1.0]] * 2, t=1)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_fixed_hash_field_must_match(self, extra):
        gen = MZGenerator([[-1.0, 1.0]] * 8, t=2, k=2)
        h = HashFunction(a=1, c=0, m=gen.hash_family.m + extra, t=2)
        msg = rf"fixed hash works in GF\(2\^{h.m}\), the generator's hash family in GF\(2\^3\)"
        with pytest.raises(ValueError, match=msg):
            gen.with_fixed_hash(h)


@pytest.mark.parametrize("make", [lambda alphabets: MZGenerator(alphabets, t=1),
                                  lambda alphabets: NisanProductGenerator(alphabets, space=2)],
                         ids=["mz", "nisan"])
@pytest.mark.parametrize("alphabets,msg", [
    ([], "need at least one coordinate"),
    ([[-1.0, 1.0], [-1.0, 0.0, 1.0, 2.0]], "all alphabets must share one size"),
    ([[-1.0, 0.0, 1.0]] * 2, "alphabet size must be a power of 2"),
    ([[]] * 2, "alphabet size must be a power of 2"),
], ids=["empty", "mixed", "three", "zero"])
def test_both_generators_check_alphabets_alike(make, alphabets, msg):
    with pytest.raises(ValueError, match=msg):
        make(alphabets)


@pytest.mark.parametrize("make", [lambda alphabets: MZGenerator(alphabets, t=2, k=2),
                                  lambda alphabets: NisanProductGenerator(alphabets, space=2)],
                         ids=["mz", "nisan"])
def test_alphabets_are_one_sorted_read_only_array(make):
    # rows sorted as `sorted` sorts them: equal -0.0 and 0.0 keep their given order
    given = [[0.0, 2, -0.0, -1.0], [-0.0, 1.5, 0.0, -3], [3.0, 2.0, 1.0, 0.0]]
    gen = make(given)
    assert gen.alphabets.shape == (3, 4) and gen.alphabets.dtype == float
    assert gen.alphabets.tobytes() == np.array([sorted(a) for a in given], dtype=float).tobytes()
    assert [math.copysign(1, v) for v in gen.alphabets[:2, 1:3].ravel()] == [1, -1, -1, 1]
    with pytest.raises(ValueError, match="read-only"):
        gen.alphabets[0, 0] = 5.0


def fixed_hash_gen(n=4, t=2, k=2, alphabet=(-1.0, 1.0)):
    gen0 = MZGenerator([list(alphabet)] * n, t=t, k=k)
    h = HashFunction(a=1, c=0, m=gen0.hash_family.m, t=t)
    return gen0.with_fixed_hash(h)


def scalar_partition(gen, seed):
    """(bucket, within-bucket rank) per coordinate under the hash `seed` picks.

    The hash is the fixed one if any, else the family's function at the
    seed's low ``hash_bits`` (index 0 when t = 1, a single bucket).
    Buckets come from ``HashFunction.__call__``; ranks follow index order.
    """
    h = gen.fixed_hash
    if h is None:
        h = gen.hash_family.from_index(seed & ((1 << gen.hash_bits) - 1))
    buckets = [h(j) for j in range(gen.n)]
    counts = Counter()
    ranks = []
    for b in buckets:
        ranks.append(counts[b])
        counts[b] += 1
    return buckets, ranks


def joint_histogram(gen, positions):
    hist = Counter()
    for seed in all_seeds(gen):
        out = gen.generate(seed)
        hist[tuple(out[list(positions)])] += 1
    return hist, 1 << gen.seed_bits


def product_law(gen, positions):
    """Exact independent-product law of the multiset marginals."""
    laws = []
    for j in positions:
        vals = Counter(gen.alphabets[j])
        size = len(gen.alphabets[j])
        laws.append({v: Fraction(c, size) for v, c in vals.items()})
    out = {}
    for combo in itertools.product(*laws):
        p = Fraction(1)
        for law, v in zip(laws, combo):
            p *= law[v]
        out[combo] = p
    return out


class TestExactLaws:
    def test_within_bucket_subsets_match_product(self):
        gen = fixed_hash_gen(n=4, t=2, k=2)
        buckets, _ = scalar_partition(gen, 0)
        total_seeds = 1 << gen.seed_bits
        for b in range(gen.t):
            members = [j for j in range(gen.n) if buckets[j] == b]
            for size in (1, 2):
                for pos in itertools.combinations(members, size):
                    hist, total = joint_histogram(gen, pos)
                    want = product_law(gen, pos)
                    assert {k: Fraction(v, total) for k, v in hist.items()} == want

    def test_cross_bucket_pairs_fully_independent(self):
        gen = fixed_hash_gen(n=4, t=2, k=2)
        buckets, _ = scalar_partition(gen, 0)
        pairs = [(i, j) for i in range(4) for j in range(4)
                 if buckets[i] != buckets[j]]
        assert pairs
        for pos in pairs:
            hist, total = joint_histogram(gen, pos)
            assert {k: Fraction(v, total) for k, v in hist.items()} == product_law(gen, pos)

    def test_marginals_follow_multiset_with_multiplicity(self):
        alphabet = (-3.0, -1.0, -1.0, 5.0)
        gen = fixed_hash_gen(n=3, t=2, k=2, alphabet=alphabet)
        for j in range(gen.n):
            hist, total = joint_histogram(gen, (j,))
            law = {k: Fraction(v, total) for k, v in hist.items()}
            assert law == {(-3.0,): Fraction(1, 4), (-1.0,): Fraction(1, 2),
                           (5.0,): Fraction(1, 4)}

    def test_five_wise_bucket_segments(self):
        # alphabet of size 4 over n=4, t=2: each bucket's joint law over its
        # own seed segment is the full product (bucket size <= k = 5)
        alphabet = [-1.0, -0.5, 0.5, 1.0]
        gen = fixed_hash_gen(n=4, t=2, k=5, alphabet=alphabet)
        buckets, ranks = scalar_partition(gen, 0)
        counts = Counter(buckets)
        for b in range(gen.t):
            members = [j for j in range(gen.n) if buckets[j] == b]
            fam = KWiseFamily(gen.m_word, gen.k, counts[b])
            hist = Counter()
            segment_bits = gen.bucket_seed_bits
            for raw in range(1 << segment_bits):
                seed_obj = fam.seed_from_int(raw)
                vals = tuple(gen.alphabets[j][fam.expand(seed_obj, ranks[j]) & 3]
                             for j in members)
                hist[vals] += 1
            want = product_law(gen, members)
            assert {k: Fraction(v, 1 << segment_bits) for k, v in hist.items()} == want

    def test_four_matching_moments(self):
        gen = fixed_hash_gen(n=4, t=2, k=4)
        total = 1 << gen.seed_bits
        exponents = [e for e in itertools.product(range(5), repeat=4)
                     if 0 < sum(e) <= 4]
        samples = np.array([gen.generate(seed) for seed in all_seeds(gen)])
        sums = {}
        for exps in exponents:
            sums[exps] = float((samples ** np.array(exps)).prod(axis=1).sum())
        for exps, acc in sums.items():
            # +-1 coordinates: the independent product moment is 1 if all
            # exponents are even, else 0
            want = 1.0 if all(e % 2 == 0 for e in exps) else 0.0
            assert acc / total == pytest.approx(want, abs=1e-12)


class _StubRng:
    """Replays prescribed draws so the batch path can be compared bit-for-bit."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, lo, hi, size=None, dtype=np.int64):
        return np.asarray(self.draws.pop(0), dtype=dtype)


def packed_seed(gen, a, c, coeffs):
    """The wide-int seed whose hash is (a, c) and whose bucket seeds are coeffs."""
    seed = (a << gen.hash_family.m) | c
    for bucket in range(gen.t):
        raw = 0
        for i, coef in enumerate(coeffs[bucket]):
            raw |= int(coef) << (i * gen.m_word)
        seed |= raw << (gen.hash_bits + bucket * gen.bucket_seed_bits)
    return seed


def reference_row(gen, seed):
    """One row from ``scalar_partition`` and per-coordinate ``KWiseFamily.expand``."""
    buckets, ranks = scalar_partition(gen, seed)
    fam = KWiseFamily(gen.m_word, gen.k, gen.n)
    mask = (1 << gen.bucket_seed_bits) - 1
    row = []
    for j, (b, r) in enumerate(zip(buckets, ranks)):
        raw = (seed >> (gen.hash_bits + b * gen.bucket_seed_bits)) & mask
        word = fam.expand(fam.seed_from_int(raw), r)
        row.append(gen.alphabets[j][word & (gen.alphabet_size - 1)])
    return np.array(row)


def distinct_alphabets(n, size, seed):
    rng = philox(seed)
    return [sorted(rng.normal(size=size).tolist()) for _ in range(n)]


class TestExpandReference:
    """The expansion kernel against a scalar reference.

    The reference is ``KWiseFamily.expand``, Horner with scalar field
    multiplies, on the partition from ``HashFunction.__call__``.
    """

    CASES = {
        # (n, t, k, alphabet size, hash variant or "fixed", seeds)
        "affine": (20, 4, 3, 4, AFFINE, 40),
        "multiplicative": (20, 4, 5, 2, MULTIPLICATIVE, 40),
        "fixed": (12, 4, 4, 8, "fixed", 40),
        "t1": (9, 1, 3, 8, AFFINE, 40),
        # n_dom = 8192 gives m_word = 13: shift-xor multiplies, no log tables
        "wide-affine": (4097, 4, 3, 2, AFFINE, 3),
        "wide-multiplicative": (4097, 2, 2, 4, MULTIPLICATIVE, 2),
        "wide-fixed": (4097, 2, 3, 2, "fixed", 2),
        "wide-t1": (4097, 1, 2, 2, AFFINE, 2),
        # k * m_word = 65 bits: each bucket seed spans two words
        "wide-two-words": (4097, 2, 5, 2, AFFINE, 2),
        # 16 label bits in two seed words of 3 and 2 coefficients; 9 label bits in one
        "wide-labels": (5, 2, 5, 1 << 16, MULTIPLICATIVE, 6),
        "labels-9": (20, 4, 3, 1 << 9, AFFINE, 20),
        "one-letter": (9, 2, 3, 1, AFFINE, 20),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_partition_and_kwise(self, case):
        n, t, k, size, variant, count = self.CASES[case]
        alphabets = distinct_alphabets(n, size, n + t)
        if variant == "fixed":
            gen = MZGenerator(alphabets, t=t, k=k)
            gen = gen.with_fixed_hash(HashFunction(a=3, c=1, m=gen.hash_family.m, t=t))
        else:
            gen = MZGenerator(alphabets, t=t, k=k, hash_variant=variant)
        assert (gen.m_word > 12) == case.startswith("wide")
        assert (gen.bucket_seed_bits > 63) == (case in ("wide-two-words", "wide-labels"))
        seeds = gen.random_seeds(philox(n * t + k), count)
        got = gen.expand(seeds)
        for row, seed in zip(got, seeds):
            assert np.array_equal(row, reference_row(gen, int.from_bytes(seed.tobytes(), "little")))


@given(st.integers(1, 16), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_parity_masks_match_scalar_field(m, k, data):
    """Bit j of p(r) equals parity(C & M[j, :, r]), against scalar GF2m.mul."""
    f = field(m)
    r = data.draw(st.integers(0, min(f.order, 1 << 10) - 1), label="rank")
    coeffs = data.draw(st.lists(st.integers(0, f.order - 1), min_size=k, max_size=k),
                       label="coefficients")
    masks = _parity_masks(m, k, m, r + 1)  # every bit
    q = 63 // m
    words = [0] * masks.shape[1]
    for kk, coef in enumerate(coeffs):
        words[kk // q] |= coef << (kk % q * m)
    assert max(words) < 1 << 63
    value, power = 0, 1
    for coef in coeffs:
        value ^= f.mul(coef, power)
        power = f.mul(power, r)
    got = sum(sum(bin(w & int(masks[j, i, r])).count("1") for i, w in enumerate(words)) % 2 << j
              for j in range(m))
    assert got == value


def test_parity_masks_blocks_match_one_block(monkeypatch):
    """Masks built a few ranks per block equal those built in one block."""
    whole = _parity_masks(13, 5, 9, 300)
    assert 9 * 5 * 300 <= mzgen._MASK_BLOCK_CELLS
    monkeypatch.setattr(mzgen, "_MASK_BLOCK_CELLS", 9 * 5 * 7)  # 7 ranks per block
    assert np.array_equal(_parity_masks(13, 5, 9, 300), whole)


@pytest.mark.parametrize("table_cells,tier", [(1 << 21, "masks"), (100, "none")])
@pytest.mark.parametrize("variant", [AFFINE, MULTIPLICATIVE])
def test_table_tiers_match_reference(monkeypatch, table_cells, tier, variant):
    """Both forms, every multiplier's mask table and none, give the scalar reference's rows.

    n = 20 and 9 label bits give n_dom * n * 9 = 5760 mask cells, so the
    budget picks the table or per-row partitions.
    """
    monkeypatch.setattr(mzgen, "_TABLE_CELLS", table_cells)
    gen = MZGenerator(distinct_alphabets(20, 1 << 9, 12), t=4, k=5, hash_variant=variant)
    seeds = gen.random_seeds(philox(13), 20)
    got = gen.expand(seeds)
    bucket, masks = gen._tables
    assert tier == ("none" if bucket is None else "masks")
    assert masks.ndim == (3 if bucket is None else 4)
    for row, seed in zip(got, seeds):
        assert np.array_equal(row, reference_row(gen, int.from_bytes(seed.tobytes(), "little")))
    if variant == AFFINE:
        rng = philox(14)
        for _ in range(10):
            a, c = map(int, rng.integers(0, gen.n_dom, 2))
            coeffs = rng.integers(0, 1 << gen.m_word, (gen.t, gen.k))
            batch = gen.sample_batch(_StubRng([[a], [c], [coeffs]]), 1)
            assert np.array_equal(batch[0], reference_row(gen, packed_seed(gen, a, c, coeffs)))


@pytest.mark.parametrize("n, size, t, k, form", [
    (64, 16, 16, 5, "every multiplier"),  # mc_cli
    (1024, 2, 64, 5, "every multiplier"),  # mc_batch
    (16, 2, 1, 4, "one multiplier"),  # exact_enum
    (1500, 2, 8, 3, "per row"),
], ids=["mc_cli", "mc_batch", "exact_enum", "n-1500"])
def test_benchmark_shapes_read_their_form(n, size, t, k, form):
    """The benchmark's shapes read the table; only large n computes partitions per row."""
    gen = MZGenerator([[float(v) for v in range(size)]] * n, t=t, k=k)
    gen.expand(gen.random_seeds(philox(17), 2))
    bucket, masks = gen._tables
    rows = {"every multiplier": gen.n_dom, "one multiplier": 1}.get(form)
    assert (None if bucket is None else len(bucket)) == rows
    assert masks.shape == ((gen.label_bits, 1, n) if rows is None
                           else (gen.label_bits, 1, rows, n))


def test_generators_of_one_shape_share_read_only_tables():
    """A second generator of the same shape reuses the first one's tables."""
    alpha = distinct_alphabets(20, 1 << 4, 15)
    first, second = (MZGenerator(alpha, t=4, k=5) for _ in range(2))
    seeds = first.random_seeds(philox(15), 8)
    assert np.array_equal(first.expand(seeds), second.expand(seeds))
    assert all(a is b for a, b in zip(first._tables, second._tables, strict=True))
    assert not any(table.flags.writeable for table in first._tables)
    other = MZGenerator(alpha, t=4, k=4)
    other.expand(other.random_seeds(philox(16), 8))
    assert other._tables[1] is not first._tables[1]


def fixed_distinct(n, t, k, size, variant, a, c):
    gen = MZGenerator(distinct_alphabets(n, size, n + t), t=t, k=k, hash_variant=variant)
    return gen.with_fixed_hash(HashFunction(a=a, c=c, m=gen.hash_family.m, t=t))


class TestGoldenOutputs:
    """Digests of every output path, recorded before MZ and Nisan shared a base class.

    The over-table cases have n_dom * n > _TABLE_CELLS, so the hashed ones
    compute their partitions per row; a fixed hash or t = 1 reads its
    one-multiplier table.
    """

    GENERATORS = {
        "affine": lambda: MZGenerator(distinct_alphabets(20, 4, 1), t=4, k=5),
        "multiplicative": lambda: MZGenerator(distinct_alphabets(20, 2, 2), t=4, k=4,
                                              hash_variant=MULTIPLICATIVE),
        "fixed-affine": lambda: fixed_distinct(9, 4, 3, 4, AFFINE, 3, 5),
        "fixed-multiplicative": lambda: fixed_distinct(12, 2, 4, 8, MULTIPLICATIVE, 5, 1),
        "t1-affine": lambda: MZGenerator(distinct_alphabets(10, 2, 3), t=1, k=4),
        "t1-multiplicative": lambda: MZGenerator(distinct_alphabets(7, 8, 4), t=1, k=3,
                                                 hash_variant=MULTIPLICATIVE),
        "one-letter": lambda: MZGenerator(distinct_alphabets(5, 1, 5), t=2, k=3),
        "over-table-affine": lambda: MZGenerator(distinct_alphabets(1500, 2, 6), t=8, k=3),
        "over-table-multiplicative": lambda: MZGenerator(distinct_alphabets(1500, 4, 7), t=4,
                                                         k=2, hash_variant=MULTIPLICATIVE),
        "over-table-fixed": lambda: fixed_distinct(1500, 4, 2, 2, AFFINE, 7, 3),
        "over-table-t1": lambda: MZGenerator(distinct_alphabets(1500, 2, 8), t=1, k=3),
        "nisan-1": lambda: NisanProductGenerator(distinct_alphabets(6, 1, 9), space=3),
        "nisan-2": lambda: NisanProductGenerator(distinct_alphabets(11, 2, 10), space=5),
        "nisan-4": lambda: NisanProductGenerator(distinct_alphabets(9, 4, 11), space=4),
    }
    GOLDEN = {
        "affine": "e89468dab0830119",
        "multiplicative": "6b6b421e39188301",
        "fixed-affine": "fb93f6e2baaaa0db",
        "fixed-multiplicative": "acd005e36f8adb3d",
        "t1-affine": "293a253bccfb36c5",
        "t1-multiplicative": "af3b47a309a93b87",
        "one-letter": "63a88273f8e7523d",
        "over-table-affine": "5963d88b6a16a198",
        "over-table-multiplicative": "499cc58f1e3d1f13",
        "over-table-fixed": "d630eb8c1dbad669",
        "over-table-t1": "5be41418bafe63f2",
        "nisan-1": "573d5a7a921523c2",
        "nisan-2": "20f07aed4b70483e",
        "nisan-4": "5d4e13ef5fcacb51",
    }

    @staticmethod
    def digest(gen):
        """sha256 over random_seeds, expand, random_seed, generate, sample_batch,
        seed_bits_report and the final rng state, in that order."""
        h = hashlib.sha256()
        rng = philox(31)
        seeds = gen.random_seeds(rng, 48)
        h.update(seeds.tobytes())
        h.update(gen.expand(seeds).tobytes())
        ints = [gen.random_seed(rng) for _ in range(3)]
        h.update(repr(ints).encode())
        for seed in ints:
            h.update(gen.generate(seed).tobytes())
        if isinstance(gen, MZGenerator):
            h.update(gen.sample_batch(rng, 48).tobytes())
            h.update(json.dumps(gen.seed_bits_report(), sort_keys=True).encode())
        h.update(json.dumps(rng.bit_generator.state, default=np.ndarray.tolist,
                            sort_keys=True).encode())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("case", GENERATORS)
    def test_digest(self, case):
        assert self.digest(self.GENERATORS[case]()) == self.GOLDEN[case]


class TestSampleBatch:
    def test_matches_generate_for_packed_seed(self):
        gen = MZGenerator([[-1.0, 1.0]] * 5, t=2, k=3)
        cases = [(gen, 5, 3, [[1, 6, 2], [7, 0, 5]])]  # per bucket, constant term first
        # alphabet wider than the hash domain: m_word 4, hash field GF(4)
        wide = MZGenerator([list(range(16))] * 4, t=2, k=2)
        assert (wide.m_word, wide.hash_family.m) == (4, 2)
        rng = philox(41)
        for a in range(wide.n_dom):
            for c in range(wide.n_dom):
                cases.append((wide, a, c, rng.integers(0, 16, size=(2, 2)).tolist()))
        for g, a, c, coeffs in cases:
            batch = g.sample_batch(_StubRng([[a], [c], [coeffs]]), 1)
            assert np.array_equal(batch[0], g.generate(packed_seed(g, a, c, coeffs)))

    def test_batch_marginals_match_alphabet(self):
        gen = MZGenerator([[-3.0, -1.0, -1.0, 5.0]] * 6, t=2, k=4)
        rng = philox(8)
        X = gen.sample_batch(rng, 40_000)
        for j in range(6):
            freq = {v: float((X[:, j] == v).mean()) for v in (-3.0, -1.0, 5.0)}
            assert freq[-3.0] == pytest.approx(0.25, abs=0.02)
            assert freq[-1.0] == pytest.approx(0.5, abs=0.02)
            assert freq[5.0] == pytest.approx(0.25, abs=0.02)

    def test_batch_mean_tracks_exact(self):
        gen = MZGenerator([[-1.0, 1.0]] * 8, t=4, k=4)
        X = gen.sample_batch(philox(9), 60_000)
        f_mean = ((X.sum(axis=1)) >= 1).mean()
        # exact value under the product law: Pr[sum of 8 signs >= 2]
        want = sum(math.comb(8, i) for i in range(5, 9)) / 256
        assert f_mean == pytest.approx(want, abs=0.02)
