"""Exact enumeration: the integer-lattice blocks and the shared accumulator.

The reference below is the per-point Fraction product over
``itertools.product``; golden values were recorded with that reference
implementation in the harness, so float results must match bit for bit.
"""

import itertools
import math
import numbers
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_law
from hsprg import harness
from hsprg.distributions import DiscreteCoordinate, ProductDistribution, UniformMultisetCoordinate
from hsprg.halfspace import CombinerSpec, HalfspaceSystem
from hsprg.hashing import MULTIPLICATIVE, HashFunction
from hsprg.harness import (
    estimate_fooling_error,
    exact_expectation,
    expectation_over_seeds,
    product_lattice,
)
from hsprg.mzgen import MZGenerator, NisanProductGenerator
from hsprg.seeds import seed_fields, seed_range

RAD = DiscreteCoordinate.rademacher()
TENTHS_IN = ([-1.0, 0.5, 2.0], [0.1, 0.2, 0.7])
TENTHS = DiscreteCoordinate(*TENTHS_IN)
THIRDS = UniformMultisetCoordinate([-1.0, 0.0, 1.0])
FIVE_IN = ([-2.0, -1.0, 0.0, 1.0, 3.0], [0.05, 0.15, 0.3, 0.3, 0.2])
FIVE = DiscreteCoordinate(*FIVE_IN)
T4 = ProductDistribution.repeated(TENTHS, 4)
MIXED = ProductDistribution([RAD, THIRDS, TENTHS, FIVE, TENTHS])
SMALL = ProductDistribution([RAD, THIRDS, THIRDS, RAD])
LAWS = {RAD: reference_law([-1.0, 1.0], [0.5, 0.5]),
        TENTHS: reference_law(*TENTHS_IN), FIVE: reference_law(*FIVE_IN)}


def fraction_law(c):
    """A coordinate's Fraction law, built by the reference from the coordinate's inputs."""
    if isinstance(c, UniformMultisetCoordinate):
        return reference_law(c.multiset, [Fraction(1, len(c.multiset))] * len(c.multiset))
    return LAWS[c]


def reference_space(dist):
    """(point, Fraction probability) with one Fraction product per point."""
    supports = [list(fraction_law(c).items()) for c in dist.coords]
    for combo in itertools.product(*supports):
        p = Fraction(1)
        for _, pr in combo:
            p *= pr
        yield tuple(v for v, _ in combo), p


def reference_expectation(f, dist):
    return sum((Fraction(f(x)) * p for x, p in reference_space(dist)), Fraction(0))


def lattice_space(dist):
    """(point, Fraction probability) read from the rows of the lattice blocks."""
    den, blocks = product_lattice(dist)
    return [(tuple(x), Fraction(w, den)) for X, weights in blocks
            for x, w in zip(X.tolist(), weights, strict=True)]


def cube(n):
    return ProductDistribution.repeated(RAD, n)


class TestWalker:
    @pytest.mark.parametrize("dist", [
        ProductDistribution.repeated(TENTHS, 3),
        ProductDistribution.repeated(THIRDS, 3),
        MIXED,
    ], ids=["tenths", "thirds", "mixed"])
    def test_matches_reference(self, dist):
        got = lattice_space(dist)
        want = list(reference_space(dist))
        assert [x for x, _ in got] == [x for x, _ in want]
        assert [p for _, p in got] == [p for _, p in want]

    @pytest.mark.parametrize("block,count", [(4, 90), (harness.TAIL_BLOCK, 1)])
    def test_block_contract(self, monkeypatch, block, count):
        monkeypatch.setattr(harness, "TAIL_BLOCK", block)
        _, blocks = product_lattice(MIXED)
        seen = []
        for X, weights in blocks:
            assert type(X) is np.ndarray and X.dtype == np.float64
            assert X.ndim == 2 and X.shape[1] == MIXED.n and X.flags.c_contiguous
            assert X.base is None and not any(np.shares_memory(X, Y) for Y in seen)
            assert type(weights) is list and len(weights) == len(X)
            assert all(type(w) is int for w in weights)
            seen.append(X)
        assert len(seen) == count

    def test_f_gets_one_float64_row_on_both_passes(self, monkeypatch):
        rows = []

        def f(x):
            rows.append(x)
            return 1

        def float64_rows(n):
            return all(type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (n,)
                       for x in rows)

        exact_expectation(f, MIXED)
        assert len(rows) == 2 * 3 * 3 * 5 * 3 and float64_rows(5)
        # a generator with no image: f once per distinct row of each chunk, in no fixed order
        rows.clear()
        gen = NisanProductGenerator([[-1.0, 0.0, 0.5, 1.0]] * 2, space=0)
        chunks = []
        expand = gen.expand
        monkeypatch.setattr(gen, "expand", lambda seeds: chunks.append(expand(seeds)) or chunks[-1])
        for chunk in (harness.SEED_CHUNK, 16):
            monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
            chunks.clear()
            seen = []
            expectation_over_seeds(lambda x: seen.append((len(chunks), x.tobytes())) or f(x), gen)
            assert len(chunks) == -(-(1 << gen.seed_bits) // chunk)
            for i, X in enumerate(chunks, 1):
                got = [key for c, key in seen if c == i]
                assert len(got) == len(set(got)) and set(got) == {r.tobytes() for r in X}
            assert len(seen) < 1 << gen.seed_bits
        assert float64_rows(2)
        # an MZ generator: f once per point of its image, whatever the chunk
        rows.clear()
        gen = MZGenerator([[-1.0, 0.0, 0.5, 1.0]] * 5, t=1, k=2)
        points, _ = gen.image_seeds(harness.SEED_CHUNK, harness.ENUM_CAP)
        every_row = gen.expand(seed_range(0, 1 << gen.seed_bits, gen.seed_bits))
        assert points < 1 << gen.seed_bits
        for chunk in (harness.SEED_CHUNK, 16):
            monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
            seen = []
            expectation_over_seeds(lambda x: seen.append(x.tobytes()) or f(x), gen)
            assert len(seen) == points and set(seen) == {r.tobytes() for r in every_row}
        assert len(rows) == 2 * points and float64_rows(5)

    def test_denominator_is_product_of_coordinate_lcms(self):
        den, _ = product_lattice(MIXED)
        want = 1
        for c in MIXED.coords:
            want *= math.lcm(*(p.denominator for p in fraction_law(c).values()))
        assert den == want
        # float-parsed probabilities need not sum to exactly 1 (0.1 + 0.2 + 0.7 does not)
        total = math.prod(sum(fraction_law(c).values()) for c in MIXED.coords)
        assert sum(sum(weights) for _, weights in product_lattice(MIXED)[1]) == total * den

    @pytest.mark.parametrize("block", [1, 4, 16])
    def test_head_and_tail_blocks_combine_in_order(self, monkeypatch, block):
        # small blocks force several levels, and FIVE alone overflows a block of 4
        monkeypatch.setattr(harness, "TAIL_BLOCK", block)
        got = lattice_space(MIXED)
        assert got == list(reference_space(MIXED))

    def test_split_across_the_default_block(self):
        dist = ProductDistribution.repeated(FIVE, 6)  # 15,625 points, tail 5^5
        assert lattice_space(dist) == list(reference_space(dist))

    def test_memory_bounded_by_tail_block(self, monkeypatch):
        den, blocks = product_lattice(cube(16))
        sizes = [len(X) for X, _ in blocks]
        assert sum(sizes) == den == 1 << 16
        assert max(sizes) <= harness.TAIL_BLOCK
        # blocks stay within a small TAIL_BLOCK too, unless one coordinate is wider
        monkeypatch.setattr(harness, "TAIL_BLOCK", 4)
        for dist, want in [(MIXED, [3] * 90), (ProductDistribution([THIRDS, FIVE]), [5] * 3),
                           (ProductDistribution([FIVE, RAD]), [4, 4, 2]),
                           (ProductDistribution([FIVE, RAD, RAD]), [4] * 5)]:
            assert [len(X) for X, _ in product_lattice(dist)[1]] == want

    def test_narrow_tail_shares_blocks(self):
        # a wide coordinate ahead of narrow ones: head points share a block
        wide = UniformMultisetCoordinate([float(v) for v in range(1500)])
        dist = ProductDistribution([wide, RAD, THIRDS])
        sizes = [len(X) for X, _ in product_lattice(dist)[1]]
        assert sizes == [4092, 4092, 816]
        assert lattice_space(dist) == list(reference_space(dist))

    def test_continuous_coordinate_refused(self):
        from hsprg.distributions import GaussianCoordinate

        with pytest.raises(ValueError):
            product_lattice(ProductDistribution([RAD, GaussianCoordinate()]))


class TestAccumulator:
    """Golden values recorded with the per-point Fraction harness."""

    def test_float_valued_f_bit_identical(self):
        assert exact_expectation(lambda x: 0.1 * x[0] + x[1] * x[2] - 0.3 * x[3], T4) \
            == 1.6799999999999997
        assert exact_expectation(lambda x: math.fsum(x) / 3, MIXED) == 1.1499999999999995
        assert exact_expectation(lambda x: 0.1 * x[0] + x[1] * x[2] - 0.3 * x[3], SMALL) \
            == -1.0408340855860843e-17

    def test_switch_to_floats_mid_walk_bit_identical(self):
        # two int values, then floats from the third point on
        got = exact_expectation(lambda x: x[0] * 0.5 if x[3] > 1 else int(x[1] > 0), T4)
        assert type(got) is float and got == 0.76

    def test_fraction_valued_f(self):
        f = lambda x: Fraction(int(sum(x) >= 1), 3) + Fraction(int(x[1] > x[2]), 7)
        assert exact_expectation(f, SMALL) == Fraction(67, 378)
        g = lambda x: Fraction(int(sum(x) >= 1), 3) + Fraction(int(x[0] > 0), 7)
        got = exact_expectation(g, T4)
        assert type(got) is Fraction and got == reference_expectation(g, T4)

    @pytest.mark.parametrize("dist", [T4, MIXED], ids=["tenths", "mixed"])
    def test_integer_valued_f_matches_reference(self, dist):
        f = lambda x: int(x[0] * x[1] + x[2] >= x[3])
        got = exact_expectation(f, dist)
        assert type(got) is Fraction and got == reference_expectation(f, dist)

    @pytest.mark.parametrize("cast", [int, np.int64, np.int8, np.bool_, bool])
    def test_numpy_integers_stay_exact(self, cast):
        dist = ProductDistribution.repeated(THIRDS, 3)
        got = exact_expectation(lambda x: cast(sum(x) >= 1), dist)
        assert type(got) is Fraction and got == Fraction(10, 27)

    def test_numpy_integers_stay_exact_on_seeds(self):
        gen = MZGenerator([[-1.0, 1.0]] * 6, t=1, k=3)
        got = expectation_over_seeds(lambda x: x[0] > 0, gen)  # np.bool_
        assert type(got) is Fraction
        assert got == expectation_over_seeds(lambda x: int(x[0] > 0), gen)
        got = expectation_over_seeds(lambda x: np.int64(x[:2].sum() >= 0) * 3, gen)
        assert type(got) is Fraction
        assert got == 3 * expectation_over_seeds(lambda x: int(x[:2].sum() >= 0), gen)

    def test_seed_pass_golden(self):
        gen = MZGenerator([[-1.0, 1.0]] * 6, t=1, k=3)
        w = [0.1, 0.7, 0.3, 1.3, 0.2, 0.9]
        assert expectation_over_seeds(lambda x: float(x @ w) ** 2, gen) == 3.1299999999999883
        assert expectation_over_seeds(lambda x: Fraction(int(x.sum() >= 0), 3), gen) \
            == Fraction(1, 4)
        got = expectation_over_seeds(lambda x: 0.3 if x[5] > 0 and x[4] > 0 else int(x[0] > 0),
                                     gen)
        assert got == 0.45000000000000095

    def test_constant_fraction_count(self, monkeypatch):
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        counts = []
        for n in (6, 12):
            made.clear()
            assert exact_expectation(lambda x: int(sum(x) >= 0), cube(n)) > 0
            counts.append(len(made))
        assert counts[0] == counts[1] <= 2


def reference_over_seeds(f, gen):
    """The per-seed pass: f once per seed, in seed order, into the same accumulator."""
    n_seeds = 1 << gen.seed_bits
    values = map(f, gen.expand(seed_range(0, n_seeds, gen.seed_bits)))
    acc = 0
    for v in values:
        if type(v) is not int:
            if isinstance(v, (numbers.Integral, np.bool_)):
                v = int(v)
            elif not isinstance(v, Fraction):
                break
        acc += v * 1
    else:
        return Fraction(acc, 1) / n_seeds
    accf = float(Fraction(acc, 1)) + float(v) * (1 / 1)
    for v in values:
        accf += float(v) * (1 / 1)
    return accf / n_seeds


def fixed_hash_generator():
    gen = MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2)
    return gen.with_fixed_hash(HashFunction(a=1, c=0, m=gen.hash_family.m, t=2))


SEED_GENERATORS = {
    "mz-t1": lambda: MZGenerator([[-1.0, -0.3, 0.4, 1.0]] * 5, t=1, k=3),
    "mz-t2-affine": lambda: MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2),
    "mz-t2-multiplicative": lambda: MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2,
                                                hash_variant=MULTIPLICATIVE),
    "mz-t2-fixed-hash": fixed_hash_generator,
    "nisan": lambda: NisanProductGenerator([[-1.0, 1.0]] * 2, space=1),
}
WEIGHTS = [0.1, 0.7, -0.3, 1.3, 0.2]
SEED_FUNCTIONS = {
    "int": lambda x: int(x.sum() >= 0),
    "bool": lambda x: x[0] > x[-1],
    "int64": lambda x: np.int64(x.sum()),
    "fraction": lambda x: Fraction(int(x.sum() >= 0), 3) + Fraction(int(x[0] > 0), 7),
    "float": lambda x: sum(w * v for w, v in zip(WEIGHTS, x.tolist())) ** 2,
    "mixed": lambda x: 0.3 if x[0] > 0 and x[-1] > 0 else int(x[1] > 0),
}


class TestSeedDedup:
    """The seed pass, one f call per distinct row of a chunk, against one call per seed."""

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("fname", SEED_FUNCTIONS)
    @pytest.mark.parametrize("gname", SEED_GENERATORS)
    def test_matches_per_seed_reference(self, monkeypatch, gname, fname, chunk):
        gen, f = SEED_GENERATORS[gname](), SEED_FUNCTIONS[fname]
        want = reference_over_seeds(f, gen)
        monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
        got = expectation_over_seeds(f, gen)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("gname", ["mz-t1", "mz-t2-affine", "mz-t2-multiplicative"])
    def test_first_float_in_a_later_chunk(self, monkeypatch, gname, chunk):
        gen = SEED_GENERATORS[gname]()
        rows = gen.expand(seed_range(0, 1 << gen.seed_bits, gen.seed_bits))
        first = {}
        for i, r in enumerate(rows):
            first.setdefault(r.tobytes(), i)
        late = max(first, key=first.get)  # the row that shows up last
        assert first[late] >= 64

        def f(x):
            return 0.1 * x[0] + 0.3 if x.tobytes() == late else int(x[0] > x[1])

        want = reference_over_seeds(f, gen)
        monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
        got = expectation_over_seeds(f, gen)
        assert type(got) is float and got == want

    def test_signed_zeros_are_distinct_rows(self, monkeypatch):
        class SignedZeros:
            """Seeds 2j and 2j + 1 differ only in the sign of a zero; bit 2 is unused."""

            seed_bits = 3

            def expand(self, seeds):
                s = seeds[:, 0].astype(np.int64)
                return np.column_stack([np.where(s & 1, -0.0, 0.0), np.where(s & 2, 1.0, -1.0)])

        seen = []

        def f(x):
            seen.append((math.copysign(1.0, x[0]), x[1]))
            return int(math.copysign(1.0, x[0]) > 0)

        for chunk, calls in [(8, 4), (2, 8)]:  # 4 distinct rows, or 2 in each chunk
            monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
            seen.clear()
            assert expectation_over_seeds(f, SignedZeros()) == Fraction(1, 2)
            assert len(seen) == calls
            assert set(seen) == {(s, v) for s in (1.0, -1.0) for v in (1.0, -1.0)}


def fixed_hash(gen, a, c):
    return gen.with_fixed_hash(HashFunction(a=a, c=c, m=gen.hash_family.m, t=gen.t))


IMAGE_GENERATORS = {
    **{name: make for name, make in SEED_GENERATORS.items() if name.startswith("mz")},
    "4-letters-multiplicative": lambda: MZGenerator([[-1.0, -0.3, 0.4, 1.0]] * 3, t=2, k=2,
                                                    hash_variant=MULTIPLICATIVE),
    "8-letters-t1": lambda: MZGenerator([[j - 3.5 for j in range(8)]] * 4, t=1, k=3),
    "8-letters-t2": lambda: MZGenerator([[j - 3.5 for j in range(8)]] * 2, t=2, k=1),
    "one-letter": lambda: MZGenerator([[0.5]] * 4, t=2, k=2),
    "repeated-letters": lambda: MZGenerator([[-1.0, -1.0, 0.0, 1.0]] * 3, t=2, k=2),
    "fixed-hash-offset": lambda: fixed_hash(MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2), 3, 1),
}
DISTINCT_LETTERS = [name for name in IMAGE_GENERATORS
                    if name not in ("one-letter", "repeated-letters")]


def by_multiplier(gen, seeds, rows, weights):
    """{multiplier: Counter of row bytes, each row counted with its weight}."""
    if gen.hash_bits:
        mult = gen.hash_family.coefficients(seed_fields(seeds, 0, gen.hash_bits, 1)[:, 0])[0]
    else:
        mult = np.zeros(len(seeds), dtype=np.int64)
    out = {}
    for a, row, w in zip(mult.tolist(), rows, weights):
        out.setdefault(a, Counter())[row.tobytes()] += w
    return out


def image_of(gen, chunk=7):
    """(points, seeds, weights) of every image block, concatenated."""
    points, blocks = gen.image_seeds(chunk, harness.ENUM_CAP)
    blocks = list(blocks)
    assert all(1 <= len(seeds) <= chunk for seeds, _ in blocks)
    seeds = np.concatenate([s for s, _ in blocks])
    return points, seeds, [w for s, w in blocks for _ in s]


class TestSeedImage:
    """The MZ seed pass over the image of each multiplier, against every seed."""

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("fname", SEED_FUNCTIONS)
    @pytest.mark.parametrize("gname", IMAGE_GENERATORS)
    def test_matches_per_seed_reference(self, monkeypatch, gname, fname, chunk):
        gen, f = IMAGE_GENERATORS[gname](), SEED_FUNCTIONS[fname]
        want = reference_over_seeds(f, gen)
        monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
        calls = []
        got = expectation_over_seeds(lambda x: calls.append(x) or f(x), gen)
        assert type(got) is type(want) and got == want
        points = gen.image_seeds(chunk, harness.ENUM_CAP)[0]
        if type(want) is Fraction or points <= chunk:  # else a float reads f in the seed pass
            assert len(calls) == points

    @pytest.mark.parametrize("gname", IMAGE_GENERATORS)
    def test_weights_are_seed_multiplicities(self, gname):
        # per multiplier, each image row carries as many of the seeds as map to it
        gen = IMAGE_GENERATORS[gname]()
        assert gen.seed_bits <= 24
        every = seed_range(0, 1 << gen.seed_bits, gen.seed_bits)
        want = by_multiplier(gen, every, gen.expand(every), itertools.repeat(1))
        points, seeds, weights = image_of(gen)
        got = by_multiplier(gen, seeds, gen.expand(seeds), weights)
        assert got == want and len(seeds) == points
        assert sum(weights) == 1 << gen.seed_bits

    @pytest.mark.parametrize("gname", DISTINCT_LETTERS)
    def test_rank_counts_distinct_rows(self, gname):
        # distinct letters: the image of multiplier a has 2^rank_a points, one per distinct row
        gen = IMAGE_GENERATORS[gname]()
        every = seed_range(0, 1 << gen.seed_bits, gen.seed_bits)
        want = by_multiplier(gen, every, gen.expand(every), itertools.repeat(1))
        _, seeds, weights = image_of(gen)
        got = by_multiplier(gen, seeds, gen.expand(seeds), itertools.repeat(1))
        assert got.keys() == want.keys()
        for a, rows in got.items():
            rank = (len(rows) - 1).bit_length()
            assert len(rows) == 1 << rank == len(want[a]) and set(rows.values()) == {1}

    def test_one_letter_alphabet_has_one_point_per_multiplier(self):
        gen = IMAGE_GENERATORS["one-letter"]()
        points, seeds, weights = image_of(gen)
        assert points == gen.hash_family.n_pow2 == len(seeds)
        assert weights == [(1 << gen.seed_bits) // points] * points

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_f_called_once_per_image_point(self, monkeypatch, chunk):
        gen = MZGenerator([[-1.0, 1.0]] * 6, t=2, k=3)
        points, seeds, _ = image_of(gen, chunk)
        monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
        calls = []
        expectation_over_seeds(lambda x: calls.append(x.tobytes()) or int(x.sum() > 0), gen)
        assert len(calls) == points < 1 << gen.seed_bits
        assert Counter(calls) == Counter(r.tobytes() for r in gen.expand(seeds))

    def test_48_bit_golden(self):
        # a fixed hash at n = 16, t = 4, k = 3: 2^48 seeds, rank 12, one 4096-point image
        gen = fixed_hash(MZGenerator([[-1.0, 1.0]] * 16, t=4, k=3), 1, 0)
        assert gen.seed_bits == 48
        assert gen.image_seeds(harness.SEED_CHUNK, harness.ENUM_CAP)[0] == 4096
        got = expectation_over_seeds(lambda x: int(x.sum() >= 2), gen)
        assert type(got) is Fraction and got == Fraction(1181, 4096)

    def test_image_past_the_cap_names_its_size(self, monkeypatch):
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=4, k=5)
        points, _ = gen.image_seeds(harness.SEED_CHUNK, harness.ENUM_CAP)
        monkeypatch.setattr(harness, "ENUM_CAP", points - 1)
        calls = []
        with pytest.raises(harness.ResourceCapError, match=f"image, of at least {points} points$"):
            expectation_over_seeds(lambda x: calls.append(x) or 1, gen)
        assert calls == []

    def test_float_past_the_cap_sums_in_image_order(self, monkeypatch):
        gen, f = MZGenerator([[-1.0, 1.0]] * 4, t=4, k=5), SEED_FUNCTIONS["float"]
        points, seeds, weights = image_of(gen)
        monkeypatch.setattr(harness, "ENUM_CAP", points)  # the image fits, the seed space does not
        want = 0.0
        for x, w in zip(gen.expand(seeds), weights):
            want += f(x) * (w / (1 << gen.seed_bits))
        calls = []
        got = expectation_over_seeds(lambda x: calls.append(x) or f(x), gen)
        assert type(got) is float and got == want and len(calls) == points

    def test_count_stops_once_it_passes_the_cap(self):
        # n = 16: a pass holds 1024 multipliers, so t = 2048 counts its 2048 in two passes
        gen = MZGenerator([[-1.0, 1.0]] * 16, t=2048, k=4)
        every, blocks = gen.image_seeds(1, 1 << 30)
        assert blocks is not None
        first = 1023 * 2 ** 16 + 2 ** 11  # multiplier 0 puts all 16 in one bucket, of rank 11
        assert every == first + 1024 * 2 ** 16
        for cap in (2048, first - 1):
            assert gen.image_seeds(1, cap) == (first, None)
        assert gen.image_seeds(1, first) == (every, None)
        # more multipliers than the cap: no partition is computed
        assert gen.image_seeds(1, 2047) == (2048, None)
        one = MZGenerator([[0.5]] * 16, t=2048, k=4)  # one point per multiplier
        assert one.image_seeds(1, 2047) == (2048, None) and one.image_seeds(1, 2048)[0] == 2048


class TestExactEstimateGolden:
    """exact_enum-style estimates: integer weights, ties, the 4-wise generator."""

    N = 8
    ALT = [1.0 if j % 2 == 0 else -1.0 for j in range(8)]
    W = np.column_stack([np.ones(8), ALT, ALT[3:] + ALT[:3]])
    THETA = [2.0, 0.0, 0.0]
    TREE = {"hs": 0, "low": {"hs": 1, "low": {"leaf": 0}, "high": {"leaf": 1}},
            "high": {"hs": 2, "low": {"leaf": 0}, "high": {"leaf": 1}}}

    def f(self, spec, d):
        system = HalfspaceSystem(self.W[:, :d], self.THETA[:d])
        comb = CombinerSpec.from_json(spec)
        return lambda x: comb.apply(system.sign_vector(x))

    @pytest.mark.parametrize("spec,d,true_e,prg_e", [
        ({"kind": "intersection"}, 2, Fraction(55, 256), Fraction(23, 128)),
        ({"kind": "decision-tree", "tree": TREE}, 3, Fraction(163, 256), Fraction(99, 128)),
    ], ids=["intersection", "tree"])
    def test_golden(self, spec, d, true_e, prg_e):
        f = self.f(spec, d)
        gen = MZGenerator([[-1.0, 1.0]] * self.N, t=1, k=4)
        assert exact_expectation(f, cube(self.N)) == true_e
        rep = estimate_fooling_error(f, cube(self.N), gen, mode="exact")
        assert (rep.true_expectation, rep.prg_expectation, rep.samples) \
            == (float(true_e), float(prg_e), 4096)
        assert rep.fooling_error == abs(float(true_e) - float(prg_e))
