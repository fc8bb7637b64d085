"""Exact/MC expectations, fooling reports, probes, serialization."""

import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import philox, weighted_sum_walk
from hsprg import harness
from hsprg.distributions import (
    DiscreteCoordinate,
    ProductDistribution,
    UniformMultisetCoordinate,
)
from hsprg.halfspace import CombinerSpec, DecisionTree, HalfspaceSystem, evaluate_batch
from hsprg.harness import (
    MAX_SHARDS,
    CovarianceSummary,
    EstimationReport,
    OrthantSet,
    ResourceCapError,
    WeightedSum,
    berry_esseen_probe,
    emit_report,
    estimate_fooling_error,
    exact_expectation,
    gaussian_reference_sampler,
    product_lattice,
    read_report_json,
    rng_for,
    shard_sizes,
    spherical_cap_probability,
    sphere_transfer,
    wilson_halfwidth,
)
from hsprg.hashing import MULTIPLICATIVE, HashFunction
from hsprg.mzgen import MZGenerator, NisanProductGenerator, alphabets_from_distribution

RAD = DiscreteCoordinate.rademacher()


def cube(n):
    return ProductDistribution.repeated(RAD, n)


class TestExactExpectation:
    def test_constant(self):
        assert exact_expectation(lambda x: 1, cube(3)) == 1

    def test_majority_like_halfspace(self):
        f = lambda x: int(sum(x) >= 1)
        assert exact_expectation(f, cube(3)) == Fraction(1, 2)

    def test_probabilities_are_exact_fractions(self):
        skew = DiscreteCoordinate([-1.0, 1.0], [0.25, 0.75])
        dist = ProductDistribution([skew, skew])
        assert exact_expectation(lambda x: int(x[0] == x[1] == 1.0), dist) == Fraction(9, 16)

    def test_cap(self, monkeypatch):
        # raised by the call itself, before any block is built: f is never called
        built = []
        blocks = harness._blocks
        monkeypatch.setattr(harness, "_blocks", lambda *a: built.append(a) or blocks(*a))
        monkeypatch.setattr(harness, "ENUM_CAP", 2 ** 10)
        with pytest.raises(ResourceCapError):
            product_lattice(cube(30))
        calls = []
        with pytest.raises(ResourceCapError):
            exact_expectation(lambda x: calls.append(x) or 1, cube(30))
        assert calls == [] and built == []
        monkeypatch.setattr(harness, "ENUM_CAP", 2 ** 10 - 1)
        with pytest.raises(ResourceCapError):
            product_lattice(cube(10))
        assert built == []
        monkeypatch.setattr(harness, "ENUM_CAP", 2 ** 10)
        den, blocks = product_lattice(cube(10))
        rows = np.concatenate([X for X, _ in blocks])
        assert den == 2 ** 10 and rows.shape == (2 ** 10, 10)
        assert len({tuple(x) for x in rows.tolist()}) == 2 ** 10

    def test_cross_method_consistency(self):
        rng = philox(31)
        W = rng.normal(size=(6, 2))
        sysd = HalfspaceSystem(W, [0.0, 0.3])
        comb = CombinerSpec.intersection()
        f = lambda x: comb.apply(sysd.sign_vector(x))
        exact = float(exact_expectation(f, cube(6)))
        trials = 40000
        X = cube(6).sample(rng, trials)
        mc = sum(f(x) for x in X) / trials
        se = math.sqrt(max(exact * (1 - exact), 1e-9) / trials)
        assert abs(mc - exact) <= 4 * se


SUM_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.fractions(max_denominator=10 ** 6),
    st.sampled_from([-0.0, 0.0, 0.1, 1.0]),
    st.floats(-1e6, 1e6),
)


class TestWeightedSum:
    """The running sum, block by block, against the one-shot walk it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(st.tuples(SUM_VALUES, st.integers(0, 2 ** 70)), max_size=40),
           den=st.integers(1, 2 ** 70), data=st.data())
    def test_matches_the_one_shot_walk(self, stream, den, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=6), label="cuts"))
        blocks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
        want = weighted_sum_walk((([v for v, _ in b], [w for _, w in b]) for b in blocks), den)
        total = WeightedSum(den)
        for b in blocks:
            total.add(iter([v for v, _ in b]), (w for _, w in b))
        assert total.exact is isinstance(want, Fraction)
        if total.exact:
            assert type(total.value) is Fraction and total.value == want
        else:
            assert type(total.value) is float and total.value.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(head=st.lists(st.tuples(SUM_VALUES, st.integers(0, 2 ** 70)), max_size=8),
           tail=st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(0, 2 ** 70)),
                         min_size=1, max_size=20),
           den=st.integers(1, 2 ** 70))
    def test_add_floats_matches_add(self, head, tail, den):
        # floats with the caller's w / den give the bits `add` gives with the weights
        want, got = WeightedSum(den), WeightedSum(den)
        for total in (want, got):
            total.add([v for v, _ in head], [w for _, w in head])
        want.add([v for v, _ in tail], [w for _, w in tail])
        got.add_floats([v for v, _ in tail], [w / den for _, w in tail])
        assert not got.exact and got.value.hex() == want.value.hex()

    @settings(max_examples=300, deadline=None)
    @given(blocks=st.lists(st.tuples(st.lists(SUM_VALUES, max_size=12), st.integers(0, 2 ** 70)),
                           max_size=6),
           den=st.integers(1, 2 ** 70))
    def test_add_shared_matches_add(self, blocks, den):
        # an exact block's sum adds once; a block with a float adds value by value
        want, got = WeightedSum(den), WeightedSum(den)
        for values, weight in blocks:
            want.add(values, itertools.repeat(weight))
            got.add(values, weight)
            assert got.exact is want.exact
        if got.exact:
            assert type(got.value) is Fraction and got.value == want.value
        else:
            assert got.value.hex() == want.value.hex()

    def test_ints_after_the_first_float_add_as_floats(self):
        total = WeightedSum(3)
        total.add([1, np.int64(2)], [1, 2 ** 52])
        assert total.exact and total.value == Fraction(2 ** 53 + 1, 3)
        total.add([-0.0, 1], [2, 1])
        # the float sum starts at the rounded exact sum, not at float(2^53 + 1) / 3
        want = float(Fraction(2 ** 53 + 1, 3)) + -0.0 * (2 / 3) + 1.0 * (1 / 3)
        assert not total.exact and total.value.hex() == want.hex()
        total.add([np.bool_(True), Fraction(1, 3)], [2 ** 64, 1])
        want = want + 1.0 * (2 ** 64 / 3) + 1 / 3 * (1 / 3)
        assert total.value.hex() == want.hex()


class TestFoolingError:
    def test_constant_function_error_zero(self):
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2)
        rep = estimate_fooling_error(lambda x: 1, cube(4), gen, mode="exact")
        assert rep.fooling_error == 0 and rep.ci95 == 0
        assert rep.method == "exact-enumeration"

    def test_full_independence_error_zero_exactly(self):
        # k = n in a single bucket reproduces the product law exactly
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=1, k=4)
        f = lambda x: int(sum(x) >= 1)
        rep = estimate_fooling_error(f, cube(4), gen, mode="exact")
        assert rep.fooling_error == 0

    def test_mc_reproducible(self, monkeypatch):
        monkeypatch.setattr(harness, "SHARDS", 4)
        gen = MZGenerator([[-1.0, 1.0]] * 8, t=2, k=3)
        f = lambda x: int(sum(x) >= 0)
        kw = dict(mode="mc", trials=4000, master_seed=99)
        r1 = estimate_fooling_error(f, cube(8), gen, **kw)
        r2 = estimate_fooling_error(f, cube(8), gen, **kw)
        assert r1.true_expectation == r2.true_expectation
        assert r1.prg_expectation == r2.prg_expectation

    @pytest.mark.parametrize("value", [0.3, 2])
    def test_mc_refuses_values_other_than_0_and_1(self, value):
        # a run's hits are counted: 0.3 * 1[x0 > 0] read 0.149 against an exact 0.15
        # from 1,000 rows, and 2 failed inside the half-width
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2)
        with pytest.raises(ValueError, match=re.escape(
                f"Monte Carlo mode needs f values 0 or 1, got {value}")):
            estimate_fooling_error(lambda x: value * int(x[0] > 0), cube(4), gen, mode="mc",
                                   trials=1000)

    def test_exact_refuses_an_oversized_seed_space_before_reading_f(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return 1

        # the product lattice (2^20 points) fits; the seed image does not
        gen = MZGenerator([[-1.0, 1.0]] * 20, t=2 ** 14, k=4)
        with pytest.raises(ResourceCapError, match="^seed space"):
            estimate_fooling_error(f, cube(20), gen, mode="exact")
        # an oversized lattice is still refused first
        gen = MZGenerator([[-1.0, 1.0]] * 25, t=2 ** 14, k=4)
        with pytest.raises(ResourceCapError, match="^product space"):
            estimate_fooling_error(f, cube(25), gen, mode="exact")
        assert calls == [0]

    def test_mc_tracks_exact(self):
        gen = MZGenerator([[-1.0, 1.0]] * 6, t=2, k=2)
        f = lambda x: int(sum(x) >= 1)
        exact = estimate_fooling_error(f, cube(6), gen, mode="exact")
        mc = estimate_fooling_error(f, cube(6), gen, mode="mc", trials=30000,
                                    master_seed=7)
        assert abs(mc.true_expectation - exact.true_expectation) <= mc.ci95
        assert abs(mc.prg_expectation - exact.prg_expectation) <= mc.ci95


class TestSystemCombinerPair:
    """f given as (system, combiner): d from the system, fit checked before any draw."""

    SYSTEM = HalfspaceSystem([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 0.5],
                              [-1.0, 0.5]], [0.0, 1.0])
    GEN = MZGenerator([[-1.0, 1.0]] * 6, t=1, k=3)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_d_from_the_system(self, mode):
        rep = estimate_fooling_error((self.SYSTEM, CombinerSpec.intersection()), cube(6),
                                     self.GEN, mode=mode, trials=800, master_seed=3)
        assert rep.d == 2

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_same_report_as_the_callable(self, monkeypatch, mode):
        monkeypatch.setattr(harness, "SHARDS", 3)
        comb = CombinerSpec.monotone_table([0, 1, 1, 1], 2)
        kw = dict(mode=mode, trials=3001, master_seed=5)
        pair = estimate_fooling_error((self.SYSTEM, comb), cube(6), self.GEN, **kw)
        ref = estimate_fooling_error(lambda x: comb.apply(self.SYSTEM.sign_vector(x)),
                                     cube(6), self.GEN, **kw)
        assert replace(pair, wall_ms=0.0) == replace(ref, d=2, wall_ms=0.0)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_same_report_as_the_callable_on_ties(self, monkeypatch, mode):
        # Theta on one cube point's own margin: the pair's block reads must
        # give that point the per-row signs wherever it lands in a block
        monkeypatch.setattr(harness, "SHARDS", 3)
        comb = CombinerSpec.intersection()
        points = np.array(list(itertools.product([-1.0, 1.0], repeat=6)))
        kw = dict(mode=mode, trials=3001, master_seed=5)
        for seed in range(40):
            rng = philox(seed)
            W = rng.standard_normal((6, 2))
            system = HalfspaceSystem(W, points[int(rng.integers(64))] @ W)
            pair = estimate_fooling_error((system, comb), cube(6), self.GEN, **kw)
            ref = estimate_fooling_error(lambda x: comb.apply(system.sign_vector(x)),
                                         cube(6), self.GEN, **kw)
            assert replace(pair, wall_ms=0.0) == replace(ref, d=2, wall_ms=0.0), seed

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("comb, kind", [
        (CombinerSpec("monotone-table", table=(0, 0, 0, 1, 0, 1, 1, 1)), "monotone-table"),
        (CombinerSpec.single(2), "single"),
        (CombinerSpec.decision_tree(DecisionTree.branch(
            3, DecisionTree.leaf_node(0), DecisionTree.leaf_node(1))), "decision-tree"),
    ], ids=["table-8-entries", "single-index-2", "tree-reads-hs-3"])
    def test_misfit_combiner_rejected_before_sampling(self, mode, comb, kind):
        class Untouchable(ProductDistribution):
            def sample(self, rng, size):
                raise AssertionError("sampled before the combiner was checked")

        with pytest.raises(ValueError, match=f"{kind} combiner .* d=2 halfspaces"):
            estimate_fooling_error((self.SYSTEM, comb), Untouchable([RAD] * 6), self.GEN,
                                   mode=mode, trials=100)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("pair, gen, sizes", [
        (True, MZGenerator([[-1.0, 1.0]] * 4, t=1, k=3), "law n=4, generator n=4, system n=6"),
        (False, MZGenerator([[-1.0, 1.0]] * 6, t=1, k=3), "law n=4, generator n=6"),
    ], ids=["system-n-6", "generator-n-6"])
    def test_size_mismatch_rejected_before_sampling(self, mode, pair, gen, sizes):
        class Untouchable(ProductDistribution):
            def sample(self, rng, size):
                raise AssertionError("sampled before the sizes were checked")

        def f(x):
            raise AssertionError("evaluated before the sizes were checked")

        f = (self.SYSTEM, CombinerSpec.intersection()) if pair else f
        with pytest.raises(ValueError, match=f"^dimensions differ: {sizes}$"):
            estimate_fooling_error(f, Untouchable([RAD] * 4), gen, mode=mode, trials=100)


class TestMonteCarloGolden:
    """Reports pinned at a fixed master seed; any change to a stream shows here."""

    DIST = ProductDistribution.repeated(UniformMultisetCoordinate([-2.0, -0.5, -0.5, 1.0]), 16)

    def estimate(self, gen, pair=False):
        W = philox(17).normal(size=(16, 2))
        system = HalfspaceSystem(W, [0.25, -0.5])
        comb = CombinerSpec.intersection()
        f = (system, comb) if pair else lambda x: comb.apply(system.sign_vector(x))
        return estimate_fooling_error(f, self.DIST, gen, mode="mc", trials=4000,
                                      master_seed=2010)

    def mz(self):
        return MZGenerator(alphabets_from_distribution(self.DIST), t=4, k=5)

    def nisan(self):
        return NisanProductGenerator(alphabets_from_distribution(self.DIST), space=4)

    def test_mz(self):
        rep = self.estimate(self.mz())
        assert (rep.true_expectation, rep.prg_expectation, rep.ci95, rep.samples) == \
            (0.206, 0.202, 0.017660352251644248, 4000)

    def test_nisan(self):
        rep = self.estimate(self.nisan())
        assert (rep.true_expectation, rep.prg_expectation, rep.ci95, rep.samples) == \
            (0.206, 0.18975, 0.01745658340601373, 4000)

    def test_mz_pair(self):
        rep = self.estimate(self.mz(), pair=True)
        assert (rep.true_expectation, rep.prg_expectation, rep.ci95, rep.samples, rep.d) == \
            (0.206, 0.202, 0.017660352251644248, 4000, 2)

    def test_nisan_pair(self):
        rep = self.estimate(self.nisan(), pair=True)
        assert (rep.true_expectation, rep.prg_expectation, rep.ci95, rep.samples, rep.d) == \
            (0.206, 0.18975, 0.01745658340601373, 4000, 2)


class TestMonteCarloCoverage:
    """The Monte Carlo ci95 covers the exact fooling error at its nominal rate.

    The d = 2 pair (all-ones and alternating weights, theta = (2, 0), AND)
    on the uniform cube at n = 16, against MZ t = 1, k = 4.  One-sided
    binomial test of H0: coverage >= 0.95 over a fixed list of master
    seeds, rejected at ALPHA; seeds, size and level were fixed before any
    run of this test.
    """

    N, TRIALS, ALPHA = 16, 5000, 1e-3
    MASTER_SEEDS = range(1, 401)

    def test_ci95_covers_the_exact_error(self):
        from scipy.stats import binom

        dist = ProductDistribution.repeated(DiscreteCoordinate.rademacher(), self.N)
        alternating = [1.0 if j % 2 == 0 else -1.0 for j in range(self.N)]
        pair = (HalfspaceSystem(np.column_stack([np.ones(self.N), alternating]), [2.0, 0.0]),
                CombinerSpec.intersection())
        gen = MZGenerator([[-1.0, 1.0]] * self.N, t=1, k=4)
        exact = estimate_fooling_error(pair, dist, gen, mode="exact").fooling_error
        assert exact == pytest.approx(0.037949, abs=5e-7)
        covered = 0
        for seed in self.MASTER_SEEDS:
            rep = estimate_fooling_error(pair, dist, gen, mode="mc", trials=self.TRIALS,
                                         master_seed=seed)
            covered += abs(rep.fooling_error - exact) <= rep.ci95
        p_value = binom.cdf(covered, len(self.MASTER_SEEDS), 0.95)
        assert p_value >= self.ALPHA, (covered, p_value)


def per_shard_report(f, dist, generator, trials, master_seed, shards=8,
                     experiment="fooling", eps=None):
    """The Monte Carlo estimate with one draw, expand and evaluation per shard.

    The reference for the runs of shards that estimate_fooling_error
    expands in one call: the same streams, shard by shard.
    """
    if isinstance(f, tuple):
        system, combiner = f
        d = system.d

        def hits(X):
            return evaluate_batch(system, combiner, X).sum()
    else:
        d = 1

        def hits(X):
            return sum(f(x) for x in X)
    true_hits = prg_hits = 0
    for shard, size in enumerate(shard_sizes(trials, shards)):
        rng_x, rng_seeds = rng_for(master_seed, shard), rng_for(master_seed, MAX_SHARDS + shard)
        seeds = generator.random_seeds(rng_seeds, size)
        true_hits += int(hits(dist.sample(rng_x, size)))
        prg_hits += int(hits(generator.expand(seeds)))
    true_e, prg_e = true_hits / trials, prg_hits / trials
    ci = math.hypot(wilson_halfwidth(true_e, trials), wilson_halfwidth(prg_e, trials))
    return EstimationReport(experiment, dist.n, d, eps, "monte-carlo", trials, true_e, prg_e,
                            abs(true_e - prg_e), ci, generator.seed_bits, 0.0)


class TestRunsOfShards:
    """One expand per run of shards gives the per-shard loop's report, field for field."""

    DIST = ProductDistribution.repeated(UniformMultisetCoordinate([-2.0, -0.5, -0.5, 1.0]), 24)

    @staticmethod
    def pair(n, d=2, seed=31):
        system = HalfspaceSystem(philox(seed).normal(size=(n, d)), [0.2, -0.4][:d])
        return system, CombinerSpec.intersection() if d == 2 else CombinerSpec.single()

    def generators(self):
        alpha = alphabets_from_distribution(self.DIST)
        base = MZGenerator(alpha, t=4, k=5)
        return {
            "mz-affine": base,
            "mz-multiplicative": MZGenerator(alpha, t=8, k=4, hash_variant=MULTIPLICATIVE),
            "mz-t1": MZGenerator(alpha, t=1, k=5),
            "mz-fixed-hash": base.with_fixed_hash(
                HashFunction(a=5, c=2, m=base.hash_family.m, t=4)),
            "nisan": NisanProductGenerator(alpha, space=5),
        }

    def check(self, f, dist, gen, trials, shards, monkeypatch, chunk=None):
        if chunk is not None:
            monkeypatch.setattr(harness, "SEED_CHUNK", chunk)
        run_rows = harness.SEED_CHUNK
        sizes = shard_sizes(trials, shards)
        calls, real_expand = [], gen.expand

        def expand(seeds):
            calls.append(len(seeds))
            return real_expand(seeds)

        monkeypatch.setattr(gen, "expand", expand)
        monkeypatch.setattr(harness, "SHARDS", shards)
        got = estimate_fooling_error(f, dist, gen, mode="mc", trials=trials,
                                     master_seed=77, experiment="runs", eps=0.5)
        monkeypatch.undo()
        want = per_shard_report(f, dist, gen, trials, 77, shards, "runs", 0.5)
        assert replace(got, wall_ms=0.0) == want
        # runs of whole consecutive shards, never more rows than a chunk or one shard
        assert sum(calls) == trials and max(calls) <= max(run_rows, max(sizes))
        bounds = set(itertools.accumulate(sizes))
        assert set(itertools.accumulate(calls)) <= bounds
        assert all(a + b > run_rows for a, b in itertools.pairwise(calls))
        return calls

    @pytest.mark.parametrize("name", ["mz-affine", "mz-multiplicative", "mz-t1",
                                      "mz-fixed-hash", "nisan"])
    @pytest.mark.parametrize("form", ["pair", "callable"])
    def test_generators(self, monkeypatch, name, form):
        system, comb = self.pair(self.DIST.n)
        f = (system, comb) if form == "pair" else lambda x: comb.apply(system.sign_vector(x))
        calls = self.check(f, self.DIST, self.generators()[name], 1003, 7, monkeypatch)
        assert calls == [1003]  # seven uneven shards, one run

    def test_two_seed_words_per_bucket(self, monkeypatch):
        """n = 5000 gives m_word = 13, so k * m_word = 65 bits split over two words."""
        dist = ProductDistribution.repeated(UniformMultisetCoordinate([-1.0, 1.0]), 5000)
        gen = MZGenerator(alphabets_from_distribution(dist), t=8, k=5)
        assert gen.m_word == 13 and gen.k * gen.m_word > 63
        self.check(self.pair(5000), dist, gen, 301, 3, monkeypatch)

    @pytest.mark.parametrize("trials, shards, chunk, runs", [
        (5, 8, None, [5]),                  # fewer trials than shards
        (1003, 7, 300, [288, 286, 286, 143]),  # uneven shards, two to a run
        (1003, 7, 100, [144, 144, 143, 143, 143, 143, 143]),  # shards above the chunk
        (2 * 4096 + 3, 2, None, [4098, 4097]),  # shards above SEED_CHUNK itself
    ])
    def test_run_boundaries(self, monkeypatch, trials, shards, chunk, runs):
        gen = self.generators()["mz-affine"]
        assert self.check(self.pair(self.DIST.n), self.DIST, gen, trials, shards,
                          monkeypatch, chunk) == runs


class TestProbeGolden:
    """Berry-Esseen and sphere reports pinned at a fixed master seed, uneven shards."""

    SYSTEM = HalfspaceSystem(philox(23).normal(size=(8, 2)), [0.1, -0.2])

    @pytest.fixture(autouse=True)
    def seven_shards(self, monkeypatch):
        monkeypatch.setattr(harness, "SHARDS", 7)

    def test_berry_esseen(self):
        skew = DiscreteCoordinate([-1.0, 0.5, 2.0], [0.25, 0.5, 0.25])
        W = philox(19).normal(size=(12, 2))
        rep = berry_esseen_probe(W, ProductDistribution.repeated(skew, 12),
                                 OrthantSet(np.array([0.25, -0.5]), (0, 1, 1, 1)),
                                 trials=20_001, master_seed=2010)
        assert (rep.p_sum, rep.p_gauss, rep.ci95, rep.samples) == \
            (0.8029098545072746, 0.7853107344632768, 0.007923044572265994, 20001)

    def test_sphere_gaussian_source(self):
        rep = sphere_transfer(self.SYSTEM, CombinerSpec.intersection(), trials=10_001,
                              master_seed=2010)
        assert (rep.estimate, rep.ci95, rep.samples) == \
            (0.29357064293570645, 0.00892518154631663, 10001)

    def test_sphere_redraws_zero_rows(self):
        calls = []

        def sampler(rng, size):
            X = rng.standard_normal((size, 8))
            X[rng.random(size) < 0.25] = 0.0
            calls.append(size)
            return X

        rep = sphere_transfer(self.SYSTEM, CombinerSpec.intersection(), trials=10_001,
                              master_seed=2010, sampler=sampler)
        assert (rep.estimate, rep.ci95, rep.samples) == \
            (0.29147085291470853, 0.008906412460320071, 10001)
        assert len(calls) > 7


class TestOrthantSet:
    @pytest.mark.parametrize("accept", [(0, 1, 1), (0, 1, 1, 1, 0), (0, 1, 2, 1), (0, 1, -1, 1)])
    def test_bad_accept_table_rejected(self, accept):
        with pytest.raises(ValueError, match="OrthantSet accept"):
            OrthantSet(np.zeros(2), accept)


class TestSharding:
    def test_sizes_sum_to_trials(self):
        assert shard_sizes(80, 8) == [10] * 8
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(3, 8) == [1, 1, 1]

    @pytest.mark.parametrize("trials,shards", [(0, 8), (-5, 8), (10, 0), (10, -1),
                                               (10, 10_000)])
    def test_bad_requests_rejected(self, trials, shards):
        with pytest.raises(ValueError):
            shard_sizes(trials, shards)

    def test_samples_equal_trials_everywhere(self, monkeypatch):
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2)
        W = np.ones((4, 1)) / 2
        for trials, shards in ((13, 4), (3, 8)):
            monkeypatch.setattr(harness, "SHARDS", shards)
            rep = estimate_fooling_error(lambda x: int(sum(x) >= 0), cube(4), gen,
                                         mode="mc", trials=trials,
                                         master_seed=1)
            assert rep.samples == trials
            orthant = OrthantSet(np.array([0.0]), (0, 1))
            assert berry_esseen_probe(W, cube(4), orthant, trials=trials,
                                      master_seed=1).samples == trials
            system = HalfspaceSystem(W, [0.0])
            assert sphere_transfer(system, CombinerSpec.single(), trials=trials,
                                   master_seed=1).samples == trials

    def test_colliding_shard_keys_rejected(self, monkeypatch):
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=2, k=2)
        for shards in (0, 10_000):
            monkeypatch.setattr(harness, "SHARDS", shards)
            with pytest.raises(ValueError):
                estimate_fooling_error(lambda x: 1, cube(4), gen, mode="mc",
                                       trials=20_000, master_seed=1)


class TestCovariance:
    def test_normalized_diag_and_sigma_sum(self):
        n, d = 50, 3
        rng = philox(41)
        W = rng.normal(size=(n, d))
        W /= np.sqrt((W ** 2).sum(axis=0))
        cov = CovarianceSummary.from_system(W, np.ones(n))
        assert np.allclose(np.diag(cov.M), 1.0)
        assert cov.sigma_j_sq.sum() == pytest.approx(d)
        vals = np.linalg.eigvalsh(cov.M)
        assert vals.min() >= -1e-12

    def test_singular_covariance_sampler(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        sampler = gaussian_reference_sampler(M)
        assert sampler.rank == 1
        X = sampler(rng_for(5), 2000)
        assert np.allclose(X[:, 0], X[:, 1])
        assert X[:, 0].std() == pytest.approx(1.0, rel=0.1)
        assert not sampler.clamped

    @pytest.mark.parametrize("M,psd_part", [
        ([[1.0, 2.0], [2.0, 1.0]], [[1.5, 1.5], [1.5, 1.5]]),  # eigenvalues 3 and -1
        ([[-1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]),
    ])
    def test_indefinite_covariance_is_clamped(self, M, psd_part):
        """pivoted Cholesky stops early on these too; its factor must not be used."""
        sampler = gaussian_reference_sampler(np.array(M))
        assert sampler.clamped
        assert sampler.rank == 1
        X = sampler(rng_for(5), 20000)
        assert np.allclose(np.cov(X.T), psd_part, atol=0.1)


class TestBerryEsseen:
    def test_full_space_gap_zero(self):
        n = 16
        W = np.ones((n, 1)) / math.sqrt(n)
        orthant = OrthantSet(np.array([0.0]), (1, 1))
        rep = berry_esseen_probe(W, cube(n), orthant, trials=2000, master_seed=3)
        assert rep.gap == 0.0

    def test_halfline_gap_small_and_shrinking(self):
        # d=1 translate at theta=0.5; the exact gap is the binomial-vs-normal
        # CDF distance, which shrinks like 1/sqrt(n)
        gaps = []
        for n in (25, 400):
            W = np.ones((n, 1)) / math.sqrt(n)
            orthant = OrthantSet(np.array([0.5]), (0, 1))
            rep = berry_esseen_probe(W, cube(n), orthant, trials=120_000,
                                     master_seed=11)
            gaps.append((rep.gap, rep.ci95))
        assert gaps[0][0] - gaps[0][1] > gaps[1][0] + gaps[1][1]

    def test_permutation_invariance(self):
        rng = philox(43)
        n = 40
        w = rng.uniform(0.5, 1.5, size=n)
        w /= math.sqrt((w ** 2).sum())
        orthant = OrthantSet(np.array([0.25]), (0, 1))
        base = berry_esseen_probe(w[:, None], cube(n), orthant, trials=60_000,
                                  master_seed=17)
        for perm_seed in range(3):
            perm = philox(perm_seed).permutation(n)
            rep = berry_esseen_probe(w[perm][:, None], cube(n), orthant,
                                     trials=60_000, master_seed=18 + perm_seed)
            tol = base.ci95 + rep.ci95
            assert abs(rep.gap - base.gap) <= tol + 1e-12

    def test_orthant_of_another_dimension_rejected(self):
        orthant = OrthantSet(np.zeros(2), (0, 0, 0, 1))
        with pytest.raises(ValueError, match="orthant has dimension 2 but W has 1 columns"):
            berry_esseen_probe(np.ones((4, 1)), cube(4), orthant, trials=100)

    @pytest.mark.parametrize("W,theta", [([[1.0], [np.nan], [1.0], [1.0]], [0.0]),
                                         ([[1.0], [np.inf], [1.0], [1.0]], [0.0]),
                                         ([[1.0]] * 4, [np.inf])])
    def test_non_finite_weights_or_orthant_rejected(self, W, theta):
        orthant = OrthantSet(np.array(theta), (0, 1))
        with pytest.raises(ValueError, match="must be finite"):
            berry_esseen_probe(np.array(W), cube(4), orthant, trials=100)

    def test_sum_is_each_rows_margin_product(self, monkeypatch):
        # S reaches the orthant as the system's row products, whatever rows share a shard
        W = philox(5).normal(size=(6, 2))
        system = HalfspaceSystem(W, [0.0, 0.0])
        seen, contains = [], OrthantSet.contains

        def recorded(self, points):
            seen.append(points)
            return contains(self, points)

        monkeypatch.setattr(OrthantSet, "contains", recorded)
        law = ProductDistribution.repeated(
            DiscreteCoordinate([-1.0, 0.1, 0.3], [0.25, 0.25, 0.5]), 6)
        monkeypatch.setattr(harness, "SHARDS", 3)
        berry_esseen_probe(W, law, OrthantSet(np.zeros(2), (0, 0, 0, 1)), trials=301,
                           master_seed=4)
        # per shard: the sums S, then the Gaussian reference points
        samples = np.concatenate([law.sample(rng_for(4, s), size)
                                  for s, size in enumerate(shard_sizes(301, 3))])
        assert np.array_equal(np.concatenate(seen[::2]), system.row_products(samples))

    @pytest.mark.parametrize("shape", [(5, 2), (4,)])
    def test_rows_other_than_the_law_rejected(self, shape):
        orthant = OrthantSet(np.zeros(2), (0, 0, 0, 1))
        with pytest.raises(ValueError, match=rf"W has shape {re.escape(str(shape))} "
                                             "but the law has 4 coordinates"):
            berry_esseen_probe(np.ones(shape), cube(4), orthant, trials=100)

    def test_scaling_quantity_reported(self):
        W = np.ones((16, 1)) / 4.0
        cov = CovarianceSummary.from_system(W, np.ones(16))
        assert cov.sum_sigma4 == pytest.approx(16 * (1 / 16) ** 2)
        assert cov.scaling_quantity == pytest.approx((1 / 16) ** 0.125)


class TestSphere:
    def test_cap_closed_form_matches_uniform_s2(self):
        # on S^2 the cap above height h has normalized area (1-h)/2
        for h in (0.0, 0.3, 0.7):
            assert spherical_cap_probability(h, 3) == pytest.approx((1 - h) / 2)

    def test_cap_domain(self):
        assert spherical_cap_probability(math.inf, 3) == 0.0
        assert spherical_cap_probability(-math.inf, 3) == 1.0
        assert spherical_cap_probability(0.3, 1) == spherical_cap_probability(-0.3, 1) == 0.5
        for height, n in [(math.nan, 3), (0.3, 0), (0.3, -2)]:
            with pytest.raises(ValueError, match="not NaN and n >= 1"):
                spherical_cap_probability(height, n)

    def test_origin_halfspace_half(self):
        rng = philox(51)
        w = rng.normal(size=(16, 1))
        sysd = HalfspaceSystem(w, [0.0])
        rep = sphere_transfer(sysd, CombinerSpec.single(), trials=60_000,
                              master_seed=21)
        assert abs(rep.estimate - 0.5) <= 4 * max(rep.ci95 / 1.96, 1e-4)

    def test_cap_height_matches_beta_closed_form(self):
        n = 16
        W = np.zeros((n, 1))
        W[0, 0] = 1.0
        sysd = HalfspaceSystem(W, [0.3])
        rep = sphere_transfer(sysd, CombinerSpec.single(), trials=120_000,
                              master_seed=23)
        want = spherical_cap_probability(0.3, n)
        se = math.sqrt(want * (1 - want) / rep.samples)
        assert abs(rep.estimate - want) <= 4 * se
        assert rep.budget_scale == pytest.approx(math.log(n) / n ** 0.25)

    def test_normalization_invariance_for_homogeneous_systems(self):
        rng = philox(61)
        X = rng.standard_normal((500, 8))
        w = rng.normal(size=(8, 1))
        sysd = HalfspaceSystem(w, [0.0])
        comb = CombinerSpec.single()
        from hsprg.halfspace import evaluate_batch
        a = evaluate_batch(sysd, comb, X)
        b = evaluate_batch(sysd, comb, X / np.linalg.norm(X, axis=1)[:, None])
        assert np.array_equal(a, b)


class TestNisanProductGenerator:
    def test_values_come_from_alphabets(self):
        gen = NisanProductGenerator([[-1.0, 1.0]] * 6, space=4)
        rng = rng_for(3)
        x = gen.generate(gen.random_seed(rng))
        assert set(x) <= {-1.0, 1.0} and len(x) == 6

    def test_expand_matches_two_index_gather(self):
        from hsprg.robp import nisan_expand
        rng = philox(17)
        alphabets = [sorted(rng.normal(size=4).tolist()) for _ in range(11)]
        gen = NisanProductGenerator(alphabets, space=5)
        seeds = gen.random_seeds(rng, 300)
        labels = nisan_expand(gen.space, gen.label_bits, gen.n, seeds)
        want = gen.alphabets[np.arange(gen.n), labels & 3]
        assert np.array_equal(gen.expand(seeds), want)

    def test_one_letter_alphabet(self):
        gen = NisanProductGenerator([[0.5]] * 3, space=2)
        assert np.array_equal(gen.expand(gen.random_seeds(rng_for(4), 20)), np.full((20, 3), 0.5))

    def test_seed_bits_follow_schedule(self):
        from hsprg.robp import nisan_seed_bits
        gen = NisanProductGenerator([[-1.0, -0.5, 0.5, 1.0]] * 8, space=5)
        assert gen.label_bits == 2
        assert gen.seed_bits == nisan_seed_bits(5, 2, 8)

    def test_mc_estimate_close_to_truth(self):
        gen = NisanProductGenerator([[-1.0, 1.0]] * 8, space=6)
        f = lambda x: int(sum(x) >= 0)
        rep = estimate_fooling_error(f, cube(8), gen, mode="mc", trials=20000,
                                     master_seed=13)
        assert rep.fooling_error <= 0.05 + rep.ci95


class TestReports:
    def make(self, i=0):
        return EstimationReport("exp", 4, 1, 0.1, "exact-enumeration", 16,
                                0.5, 0.5 + i * 0.001, abs(i) * 0.001, 0.0, 12, 1.5)

    def test_empty_csv_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([], path)
        lines = path.read_text().strip().splitlines()
        assert lines == [",".join(EstimationReport.COLUMNS)]

    def test_exact_has_zero_ci_column(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([self.make()], path)
        row = path.read_text().strip().splitlines()[1].split(",")
        assert row[EstimationReport.COLUMNS.index("ci95")] == "0.0"

    def test_json_round_trip_bit_for_bit(self, tmp_path):
        reports = [EstimationReport("mz", 32, 2, 0.05, "monte-carlo", 10 ** 6,
                                    0.123456789012345678, 0.12, 0.0034567890123,
                                    0.001, 1932, 12345.6789),
                   self.make(3)]
        path = tmp_path / "r.json"
        emit_report(reports, path)
        assert read_report_json(path) == reports
