"""Moment profiles, truncation, bucket boundaries, sandwich laws, SD."""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from conftest import (
    reference_bucket_boundaries,
    reference_law,
    reference_statistical_distance,
    reference_truncation,
)
from hsprg.distributions import (
    SAMPLE_BLOCK,
    Coordinate,
    DiscreteCoordinate,
    DistributionError,
    GaussianCoordinate,
    ProductDistribution,
    TruncatedStandardizedCoordinate,
    UniformIntervalCoordinate,
    UniformMultisetCoordinate,
    bucket_boundaries,
    coordinate_from_json,
    default_gamma,
    discretize_coordinate,
    hc_anticoncentration_probe,
    hc_concentration_probe,
    make_sandwich,
    moment_profile,
    standardize_multiset,
    statistical_distance,
    truncate_and_standardize,
)

RADEMACHER = DiscreteCoordinate.rademacher()
ETA_MAX = 1 / math.sqrt(3)


def rng(seed=7):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def test_discrete_sample_matches_rng_choice():
    coord = DiscreteCoordinate([2.5, -1.0, 0.0, 7.0], [0.1, 0.2, 0.3, 0.4])
    ours, ref = rng(11), rng(11)
    for size in (1, 5, 1000):
        p = np.asarray(coord.probs)
        want = ref.choice(np.asarray(coord.values), size=size, p=p / p.sum())
        assert np.array_equal(coord.sample(ours, size), want)
    assert ours.random() == ref.random()


@st.composite
def discrete_laws(draw):
    """Laws of 1 to 70 letters: even, random, or tiny masses packed into one cell.

    Values come from a small integer range, so duplicates (merged by the
    constructor) are common.
    """
    size = draw(st.integers(1, 70))
    values = draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size))
    shape = draw(st.sampled_from(["even", "random", "clustered"]))
    if shape == "even":
        weights = [1.0] * size
    elif shape == "random":
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size))
    else:
        tiny = draw(st.lists(st.floats(1e-15, 1e-6), min_size=size, max_size=size))
        heavy = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3))
        weights = [1.0 if i in heavy else w for i, w in enumerate(tiny)]
    total = math.fsum(weights)
    return DiscreteCoordinate(values, [w / total for w in weights])


def choice_cdf(coord):
    """The CDF Generator.choice builds for p = probs / sum(probs)."""
    p = np.asarray(coord.probs)
    cdf = np.cumsum(p / p.sum())
    return cdf / cdf[-1]


def edge_uniforms(coord):
    """Every cdf value and guide-cell edge j / M in [0, 1), with both float neighbours."""
    cells = 1 << (len(coord.values) - 1).bit_length()
    points = np.concatenate([choice_cdf(coord), np.arange(cells) / cells])
    near = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return near[(near >= 0.0) & (near < 1.0)]


class TestLookup:
    """The guide-table lookup against searchsorted and Generator.choice."""

    @settings(max_examples=300, deadline=None)
    @given(coord=discrete_laws(), seed=st.integers(0, 2 ** 32 - 1))
    def test_lookup_is_searchsorted_right(self, coord, seed):
        u = np.concatenate([edge_uniforms(coord), rng(seed).random(500)])
        want = np.asarray(coord.values)[choice_cdf(coord).searchsorted(u, side="right")]
        assert np.array_equal(coord.lookup(u), want)
        block = u[: len(u) // 2 * 2].reshape(2, -1)
        assert np.array_equal(coord.lookup(block), want[: block.size].reshape(2, -1))

    @settings(max_examples=150, deadline=None)
    @given(coord=discrete_laws(), seed=st.integers(0, 2 ** 32 - 1),
           size=st.integers(0, 400))
    def test_sample_is_rng_choice(self, coord, seed, size):
        ours, ref = rng(seed), rng(seed)
        p = np.asarray(coord.probs)
        want = ref.choice(np.asarray(coord.values), size=size, p=p / p.sum())
        assert np.array_equal(coord.sample(ours, size), want)
        assert plain_state(ours) == plain_state(ref)

    def test_clustered_cell_needs_several_steps(self):
        # ten cdf values strictly inside the cell [0.25, 0.3125) of M = 16
        coord = DiscreteCoordinate(range(11), [0.3] + [1e-9] * 9 + [0.7 - 9e-9])
        u = edge_uniforms(coord)
        want = np.asarray(coord.values)[choice_cdf(coord).searchsorted(u, side="right")]
        assert set(want) == set(coord.values)
        assert np.array_equal(coord.lookup(u), want)


@st.composite
def law_inputs(draw):
    """(values, probs) of 1 to 6 letters, each probability a float, a Fraction
    or an int: duplicate values, both signed zeros and zero masses are common."""
    size = draw(st.integers(1, 6))
    points = [-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0]
    values = draw(st.lists(st.sampled_from(points), min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    weights[0] += sum(weights) == 0
    total = sum(weights)
    kinds = draw(st.lists(st.sampled_from(["float", "fraction", "int"]), min_size=size,
                          max_size=size))
    probs = [w / total if kind == "float" else
             w // total if kind == "int" and w in (0, total) else Fraction(w, total)
             for w, kind in zip(weights, kinds)]
    return values, probs


class TestIntegerLaw:
    """The integer form of a discrete law against its Fraction construction."""

    @settings(max_examples=300, deadline=None)
    @given(law=law_inputs(), other=law_inputs(), B=st.sampled_from([0.75, 2.5, 5.0]),
           eps=st.sampled_from([1.0, 0.1, 0.01, 1e-4]))
    # the tail mass merges into 0.0 and the truncated law reduces to a smaller den
    @example(law=([-3.0, 3.0, -1.0, 1.0, 0.5], [0.125, 0.125, 0.25, 0.25, 0.25]),
             other=([0.0], [1]), B=2.5, eps=0.1)
    def test_matches_the_fraction_reference(self, law, other, B, eps):
        coord, ref = DiscreteCoordinate(*law), reference_law(*law)
        assert [repr(v) for v in coord.values] == [repr(v) for v in ref]
        assert all(type(a) is int for a in (coord.den, *coord.numerators))
        assert math.gcd(coord.den, *coord.numerators) == 1
        assert [Fraction(a, coord.den) for a in coord.numerators] == list(ref.values())
        assert coord.probs == tuple(float(p) for p in ref.values())
        assert coord.alpha == float(min(ref.values()))
        for x in (-4.0, -0.25, *ref, *(v + 0.25 for v in ref)):
            assert coord.cdf(x) == float(sum(p for v, p in ref.items() if v <= x))
        assert coord.symmetric == all(ref.get(-v) == p for v, p in ref.items())
        for s in range(1, 9):
            assert bucket_boundaries(coord, 2.0 ** -s, B) \
                == reference_bucket_boundaries(ref, 2.0 ** -s, B)
        assert statistical_distance(coord, DiscreteCoordinate(*other)) \
            == reference_statistical_distance(ref, reference_law(*other))
        want = reference_truncation(ref, 1, 1.0, eps)
        if want is None:
            with pytest.raises(DistributionError, match="post-truncation variance"):
                truncate_and_standardize(coord, 1, 1.0, eps)
            return
        got = truncate_and_standardize(coord, 1, 1.0, eps)
        out = got.coord
        assert [repr(v) for v in out.values] == [repr(v) for v in want[0]]
        assert [Fraction(a, out.den) for a in out.numerators] == list(want[0].values())
        assert (got.B_raw, got.B, got.tail_mass, got.mu, got.scale,
                got.second_moment_trunc) == want[1:]


def plain_state(rng_):
    """The bit generator's state with arrays as lists, so states compare with ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng_.bit_generator.state)


class TestProductSample:
    """Block draws against one `sample` call per coordinate, the reference kept here."""

    SKEW = DiscreteCoordinate([2.5, -1.0, 0.0, 7.0], [0.1, 0.2, 0.3, 0.4])
    TRUNC = TruncatedStandardizedCoordinate(GaussianCoordinate(), 1.5, 0.0, 0.8)
    LAWS = {
        "repeated": [SKEW] * 9,
        "alternating": [SKEW, RADEMACHER] * 5,
        "broken-run": [SKEW] * 3 + [GaussianCoordinate()] + [SKEW] * 2
                      + [UniformIntervalCoordinate(-2, 3), TRUNC] + [SKEW, SKEW, RADEMACHER],
    }

    @staticmethod
    def reference(coords, rng_, size):
        return np.column_stack([c.sample(rng_, size) for c in coords])

    def check(self, coords, size, make_rng=lambda: rng(11)):
        dist = ProductDistribution(coords)
        ours, ref = make_rng(), make_rng()
        got = dist.sample(ours, size)
        want = self.reference(coords, ref, size)
        assert got.shape == want.shape == (size, len(coords))
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert plain_state(ours) == plain_state(ref)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("size", [0, 1, 7, 1000])
    def test_bit_identical_to_per_coordinate(self, law, size):
        self.check(self.LAWS[law], size)

    def test_pcg64_stream(self):
        self.check(self.LAWS["broken-run"], 50, lambda: np.random.default_rng(5))

    def test_blocks_span_several_chunks(self):
        size = 3000
        per_block = SAMPLE_BLOCK // size
        # runs of 2.5 and 1.3 blocks, so each run ends partway through a block
        coords = ([self.SKEW] * (5 * per_block // 2) + [GaussianCoordinate()]
                  + [RADEMACHER] * (13 * per_block // 10))
        self.check(coords, size)

    def test_rows_wider_than_a_block(self):
        self.check([self.SKEW] * 3, SAMPLE_BLOCK + 5)

    def test_allocates_output_plus_a_few_blocks(self):
        n, size = 1024, 8192
        dist = ProductDistribution.repeated(UniformMultisetCoordinate(range(16)), n)
        tracemalloc.start()
        try:
            out = dist.sample(rng(3), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == n * size * 8
        assert peak <= out.nbytes + (16 << 20)


@pytest.mark.parametrize("probs", [[float("nan"), 1.0], [0.5, float("inf")]])
def test_discrete_non_finite_probability_rejected(probs):
    with pytest.raises(DistributionError, match="probabilities must be finite"):
        DiscreteCoordinate([-1.0, 1.0], probs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_discrete_non_finite_value_rejected(bad):
    with pytest.raises(DistributionError, match=f"support values must be finite, got {bad}"):
        DiscreteCoordinate([bad, 1.0], [0.5, 0.5])


def test_numpy_arrays_build_the_same_laws():
    coord = DiscreteCoordinate(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
    want = DiscreteCoordinate([1.0, 2.0], [0.25, 0.75])
    assert (coord.values, coord.numerators, coord.den) == (want.values, want.numerators, want.den)
    multiset = UniformMultisetCoordinate(np.array([-1.0, 1.0, 1.0]))
    assert multiset.multiset == (-1.0, 1.0, 1.0) and multiset.numerators == (1, 2)
    dist = ProductDistribution(np.array([coord, multiset], dtype=object))
    assert dist.n == 2 and dist.coords == [coord, multiset]
    with pytest.raises(DistributionError, match="nonempty"):
        DiscreteCoordinate(np.array([]), np.array([]))
    with pytest.raises(DistributionError, match="nonempty"):
        UniformMultisetCoordinate(np.array([]))
    with pytest.raises(DistributionError, match="at least one coordinate"):
        ProductDistribution(np.array([], dtype=object))


class TestMomentProfile:
    def test_rademacher(self):
        p = moment_profile(RADEMACHER)
        assert (p.mean, p.second_moment, p.fourth_moment) == (0.0, 1.0, 1.0)
        assert p.eta == pytest.approx(ETA_MAX, abs=1e-15)
        assert p.alpha == 0.5

    def test_gaussian(self):
        p = moment_profile(GaussianCoordinate())
        assert p.fourth_moment == 3.0
        assert p.eta == pytest.approx(ETA_MAX, abs=1e-15)

    def test_uniform_interval(self):
        p = moment_profile(UniformIntervalCoordinate(-1, 1))
        assert p.second_moment == pytest.approx(1 / 3)
        assert p.fourth_moment == pytest.approx(1 / 5)
        # (m2^2/m4)^(1/4) = (5/9)^(1/4) = 0.863 > 1/sqrt(3), symmetric caps it
        assert p.eta == pytest.approx(ETA_MAX, abs=1e-15)

    def test_asymmetric_discrete(self):
        coord = DiscreteCoordinate([-2.0, 0.5], [0.2, 0.8])
        p = moment_profile(coord)
        assert p.mean == pytest.approx(0.0, abs=1e-15)
        assert p.second_moment == pytest.approx(1.0)
        assert p.fourth_moment == pytest.approx(3.25)
        eta0 = (1 / 3.25) ** 0.25
        assert p.eta == pytest.approx(eta0 / (2 * math.sqrt(3)))
        assert p.alpha == pytest.approx(0.2)


class TestTruncate:
    def test_bounded_support_is_identity(self):
        res = truncate_and_standardize(RADEMACHER, n=4, C=1.0, eps=0.25)
        assert res.B_raw == pytest.approx(2.0)
        assert res.tail_mass == 0
        assert res.coord.values == (-1.0, 1.0)
        assert res.mu == 0 and res.scale == 1

    def test_gaussian_radius_and_tail(self):
        res = truncate_and_standardize(GaussianCoordinate(), n=8, C=3.0, eps=0.1)
        assert res.B_raw == pytest.approx((8 * 9 / 0.1) ** 0.25)  # about 5.18
        assert res.tail_mass <= 3.0 / res.B_raw ** 4  # Markov: C/B^4 = eps/(nC)
        assert res.tail_mass <= 0.1 / (8 * 3.0)

    def test_gaussian_second_moment_drift(self):
        res = truncate_and_standardize(GaussianCoordinate(), n=8, C=3.0, eps=0.1)
        assert abs(res.second_moment_trunc - 1.0) < math.sqrt(0.1 / 8)
        mean, m2, m4 = res.coord.moments()
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert m2 == pytest.approx(1.0, abs=1e-10)
        assert m4 == pytest.approx(3.0, abs=1e-3)

    # float.hex of (mu, scale, second_moment_trunc, *coord.moments()), recorded
    # while scipy.integrate was still imported with the module
    QUADRATURE_GOLDEN = {
        "gaussian": (GaussianCoordinate(), [
            "0x0.0p+0", "0x1.ffff94eceab5dp-1", "0x1.ffff29d9ebd02p-1",
            "0x0.0p+0", "0x1.ffffffffffffep-1", "0x1.7ffb35f9980b9p+1"]),
        "uniform-shifted": (UniformIntervalCoordinate(-1.0, 3.0), [
            "0x1.0000000000001p+0", "0x1.279a745903304p+0", "0x1.2aaaaaaaaaa90p+1",
            "0x1.759f9831a9651p-49", "0x1.ffffffffffd97p-1", "0x1.ccccccccccd82p+0"]),
        "uniform-cut": (UniformIntervalCoordinate(-1.0, 7.0), [
            "0x1.9d5336963eeaap+0", "0x1.cbd418bb49cd0p+0", "0x1.7551f66572d32p+2",
            "0x1.7300000000000p-46", "0x1.ffffffffffea6p-1", "0x1.d36ba09915b27p+0"]),
    }

    @pytest.mark.parametrize("case", QUADRATURE_GOLDEN)
    def test_quadrature_is_bit_identical(self, case):
        coord, want = self.QUADRATURE_GOLDEN[case]
        res = truncate_and_standardize(coord, n=8, C=3.0, eps=0.1)
        got = (res.mu, res.scale, res.second_moment_trunc, *res.coord.moments())
        assert [x.hex() for x in got] == want

    def test_eps_too_large_raises(self):
        # B^4 = nC^2/eps below the bulk of the mass forces variance under 1/2
        with pytest.raises(DistributionError):
            truncate_and_standardize(GaussianCoordinate(), n=1, C=1.0, eps=0.999)


class TestBucketBoundaries:
    def test_rademacher_half(self):
        bs = bucket_boundaries(RADEMACHER, 0.5, B=2.0)
        assert bs == [-2.0, -1.0, 1.0]

    def test_gaussian_quartiles(self):
        B = 5.0
        bs = bucket_boundaries(GaussianCoordinate(), 0.25, B)
        want = [-B, -0.6744897501960817, 0.0, 0.6744897501960817, B]
        assert bs == pytest.approx(want, abs=1e-9)

    def test_uniform_quarters(self):
        bs = bucket_boundaries(UniformIntervalCoordinate(-1, 1), 0.25, B=1.0)
        assert bs == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0], abs=1e-12)

    def test_gamma_must_be_dyadic(self):
        with pytest.raises(DistributionError):
            bucket_boundaries(RADEMACHER, 0.3, B=2.0)

    def test_quantile_is_abstract(self):
        # every continuous kind has an analytic quantile; there is no fallback
        with pytest.raises(NotImplementedError):
            Coordinate().quantile(0.5)

    def test_truncated_gaussian_analytic_matches_bisection(self):
        res = truncate_and_standardize(GaussianCoordinate(), n=8, C=3.0, eps=0.1)
        coord = res.coord
        assert isinstance(coord, TruncatedStandardizedCoordinate)
        for q in (0.125, 0.5, 0.875, 1.0):
            x = coord.quantile(q)
            lo, hi = -res.B, res.B
            while hi - lo > 1e-12:
                mid = (lo + hi) / 2
                if coord.cdf(mid) >= q:
                    hi = mid
                else:
                    lo = mid
            assert x == pytest.approx(hi, abs=1e-9)


class TestSandwich:
    def test_rademacher_upper_is_original(self):
        sw = make_sandwich(RADEMACHER, 0.5, B=2.0)
        assert sw.upper.multiset == (-1.0, 1.0)
        assert sw.lower.multiset == (-2.0, -1.0)

    def test_rademacher_sd_is_gamma(self):
        sw = make_sandwich(RADEMACHER, 0.5, B=2.0)
        assert statistical_distance(sw.lower, sw.upper) == Fraction(1, 2)

    def test_sd_self_zero_and_disjoint_one(self):
        a = UniformMultisetCoordinate([0.0, 1.0])
        b = UniformMultisetCoordinate([2.0, 3.0])
        assert statistical_distance(a, a) == 0
        assert statistical_distance(a, b) == 1

    def test_degenerate_granularity_collapses(self):
        # four-point uniform law at gamma = 1/4: lower and upper share the
        # interior boundaries and differ only at the edges
        coord = UniformMultisetCoordinate([-1.0, -0.5, 0.5, 1.0])
        sw = make_sandwich(coord, 0.25, B=2.0)
        assert sw.upper.multiset == (-1.0, -0.5, 0.5, 1.0)
        assert sw.lower.multiset == (-2.0, -1.0, -0.5, 0.5)
        assert statistical_distance(sw.lower, sw.upper) == Fraction(1, 4)

    @pytest.mark.parametrize("coord,B", [
        (RADEMACHER, 2.0),
        (UniformIntervalCoordinate(-1, 1), 1.0),
        (GaussianCoordinate(), 5.0),
        (DiscreteCoordinate([-2.0, 0.5], [0.2, 0.8]), 3.0),
    ])
    @pytest.mark.parametrize("gamma", [0.5, 0.25, 0.0625])
    def test_sd_at_most_gamma(self, coord, B, gamma):
        sw = make_sandwich(coord, gamma, B)
        assert statistical_distance(sw.lower, sw.upper) <= Fraction(gamma)


class TestPipeline:
    def test_gaussian_pipeline_budgets(self):
        rep = discretize_coordinate(GaussianCoordinate(), n=8, C=3.0, eps=0.1)
        B, g = rep.truncation.B, rep.gamma
        assert rep.sd_lower_upper <= Fraction(g)
        assert rep.mean_drift <= 2 * B * g + 1e-9
        assert rep.second_moment_drift <= 2 * B * B * g + 1e-9
        assert rep.fourth_moment_drift <= 2 * B ** 4 * g + 1e-9
        mean, m2, m4 = rep.alphabet_moments
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert m2 == pytest.approx(1.0, abs=1e-9)
        assert m4 <= 3.0 + 2 * B ** 4 * g + 1e-9

    @pytest.mark.parametrize("coord, most", [
        (GaussianCoordinate(), 6),
        (DiscreteCoordinate([-2.0, -1.0, 0.0, 1.0, 3.0], [0.05, 0.15, 0.3, 0.3, 0.2]), 16),
    ], ids=["gaussian", "five-letters"])
    def test_fraction_count_does_not_grow_with_granularity(self, monkeypatch, coord, most):
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        counts = []
        for s in (8, 12):
            made.clear()
            discretize_coordinate(coord, n=16, C=3.0, eps=0.1, gamma=2.0 ** -s)
            counts.append(len(made))
        assert counts[0] == counts[1] <= most

    def test_default_gamma_is_dyadic_and_small_enough(self):
        g = default_gamma(0.1, 8, 5.18)
        assert g <= 0.1 / (2 * 8 * 5.18 ** 4)
        assert Fraction(g).numerator == 1

    def test_alphabet_sizes_power_of_two(self):
        rep = discretize_coordinate(RADEMACHER, n=4, C=1.0, eps=0.25, gamma=0.25)
        assert len(rep.alphabet) == 4

    def test_standardize_multiset(self):
        vals, shift, scale = standardize_multiset([1.0, 3.0])
        assert vals == [-1.0, 1.0]
        assert shift == 2.0 and scale == 1.0


def report_digest(rep) -> str:
    """sha256 of a report's JSON and of the exact form of its discrete laws."""
    h = hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode())
    for law in (rep.truncation.coord, rep.sandwich.lower, rep.sandwich.upper):
        if isinstance(law, DiscreteCoordinate):
            h.update(repr((law.values, law.numerators, law.den, law.probs, law.symmetric)).encode())
        else:
            h.update(repr(law.to_json()).encode())
    return h.hexdigest()


ZERO_ATOM = DiscreteCoordinate([-3.0, -1.0, -0.25, 0.5, 1.0, 2.5],
                               [0.05, 0.25, 0.15, 0.25, 0.25, 0.05])
DUPLICATES = UniformMultisetCoordinate([-1.5, -0.5, 0.0, -0.5, -0.0, 0.5, 0.5, 2.0, 0.5, -1.5])


class TestGoldenReports:
    """Report digests recorded while the laws were still built one Fraction per letter."""

    # (coord, n, C, eps, gamma, digest); gamma None is default_gamma
    GOLDEN = {
        "certify": (GaussianCoordinate(), 256, 3.0, 0.1, 2.0 ** -12,
                    "b44dd8ae7519e2dfbda12517dfcd585c83b9d6a7a3fa57572e13eeaeee6eb537"),
        "mc-cli": (GaussianCoordinate(), 64, 3.0, 0.1, 2.0 ** -4,
                   "acf14706b4d9255a96c22261303445b4d836170389058dc1e73b9efc5d2d8b83"),
        "uniform": (UniformIntervalCoordinate(-1.0, 3.0), 16, 2.0, 0.1, 2.0 ** -4,
                    "e1b2b58b2e3b7b1588447d86d997d1459df6e88aec8d9af73861d4d831f57589"),
        # the tail above B lands on an atom inside the bulk
        "uniform-cut": (UniformIntervalCoordinate(-1.0, 7.0), 256, 3.0, 0.1, 2.0 ** -12,
                        "eed3fd76da6b14e1ce9bbc99be7785119126b59e13dd62bfb834fd5f482e911c"),
        # -3.0 and 2.5 lie beyond B = 8^(1/4) and move to a new letter 0.0
        "zero-atom": (ZERO_ATOM, 4, 1.0, 0.5, 2.0 ** -6,
                      "73260afbf41da9fe27f1c5d56f4d0fc3c81375d0c48827e8ac8c4c06bbda7891"),
        "zero-atom-default-gamma": (ZERO_ATOM, 4, 1.0, 0.5, None,
                                    "c2395f105537e93aed421eff949f563912d3f58ca0e921722a98f3ed2cc03865"),
        "multiset": (DUPLICATES, 16, 2.0, 0.25, 2.0 ** -4,
                     "c865f966f1cd2494d345fc850a1447c5b83889e8dcc2ca682c6ea002a7e6b80c"),
        # 524,288 letters
        "gaussian-default-gamma": (GaussianCoordinate(), 16, 3.0, 0.1, None,
                                   "a2db60428e97311b65f1bb5db31bcf8ac1bfa14c579f527e7acd307ef9136d97"),
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_report_digest(self, case):
        coord, n, C, eps, gamma, want = self.GOLDEN[case]
        assert report_digest(discretize_coordinate(coord, n, C, eps, gamma=gamma)) == want


def scalar_quantile(coord, q: float) -> float:
    """One letter's quantile, branch by branch, as the per-letter loop computed it."""
    if isinstance(coord, GaussianCoordinate):
        return float(ndtri(q))
    if isinstance(coord, UniformIntervalCoordinate):
        return coord.lo + q * (coord.hi - coord.lo)
    F = coord.base.cdf
    lo_mass = F(-coord.B_raw)
    atom_lo = F(0.0) - lo_mass
    atom_hi = atom_lo + coord.tail_mass
    if q <= atom_lo:
        w = scalar_quantile(coord.base, q + lo_mass)
    elif q <= atom_hi:
        w = 0.0
    else:
        w = scalar_quantile(coord.base, q + lo_mass - coord.tail_mass)
    return (w - coord.mu) / coord.scale


def atom_edges(coord) -> list[float]:
    """The truncated law's atom ends, a point inside and the floats next to each end."""
    if not isinstance(coord, TruncatedStandardizedCoordinate):
        return []
    lo_mass = coord.base.cdf(-coord.B_raw)
    atom_lo = coord.base.cdf(0.0) - lo_mass
    atom_hi = atom_lo + coord.tail_mass
    return [atom_lo, atom_hi, (atom_lo + atom_hi) / 2,
            *(np.nextafter(e, d) for e in (atom_lo, atom_hi) for d in (0.0, 1.0))]


QUANTILE_KINDS = {
    "gaussian": GaussianCoordinate(),
    "uniform": UniformIntervalCoordinate(-1.0, 3.0),
    "truncated-gaussian": truncate_and_standardize(GaussianCoordinate(), 8, 3.0, 0.1).coord,
    # a tail mass of about 0.23 on the atom at y = 0
    "truncated-uniform-cut": truncate_and_standardize(UniformIntervalCoordinate(-1.0, 7.0),
                                                      8, 3.0, 0.1).coord,
}


class TestArrayPaths:
    """The array quantile, counted multiset laws and array moments against per-letter code."""

    @pytest.mark.parametrize("kind", QUANTILE_KINDS)
    def test_quantile_matches_scalar_bits(self, kind):
        coord = QUANTILE_KINDS[kind]
        q = np.array([0.0, 1.0, 0.5, 1e-300, 1 - 2 ** -53, *atom_edges(coord),
                      *(np.arange(1, 1025) / 1024), *np.random.default_rng(5).random(256)])
        want = np.array([scalar_quantile(coord, x) for x in q.tolist()])
        assert np.array_equal(np.asarray(coord.quantile(q)).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind", QUANTILE_KINDS)
    @pytest.mark.parametrize("s", [1, 4, 10])
    def test_bucket_boundaries_match_scalar_loop(self, kind, s):
        coord, g, B = QUANTILE_KINDS[kind], 2 ** s, 2.5
        want = [-B] + [min(max(scalar_quantile(coord, k / g), -B), B) for k in range(1, g + 1)]
        got = bucket_boundaries(coord, 2.0 ** -s, B)
        assert all(type(b) is float for b in got)
        assert [b.hex() for b in got] == [b.hex() for b in want]

    def test_bucket_boundaries_past_int64_numerators(self):
        third = Fraction(1, 3 ** 41)
        values, probs = [-1.0, 0.5, 2.0], [third, Fraction(1, 2), Fraction(1, 2) - third]
        coord = DiscreteCoordinate(values, probs)
        assert max(itertools.accumulate(coord.numerators)) > 2 ** 63
        for s in (1, 6, 12):
            got = bucket_boundaries(coord, 2.0 ** -s, 2.5)
            assert all(type(b) is float for b in got)
            assert got == reference_bucket_boundaries(reference_law(values, probs), 2.0 ** -s, 2.5)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.75, 1.0, 2.5])
                    | st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_multiset_law_is_the_fraction_law(self, multiset):
        g = len(multiset)
        coord, ref = UniformMultisetCoordinate(multiset), reference_law(multiset, [Fraction(1, g)] * g)
        assert [repr(v) for v in coord.values] == [repr(v) for v in ref]
        assert all(type(a) is int for a in (coord.den, *coord.numerators))
        assert [Fraction(a, coord.den) for a in coord.numerators] == list(ref.values())
        assert coord.probs == tuple(float(p) for p in ref.values())
        assert coord.symmetric == all(ref.get(-v) == p for v, p in ref.items())

    @pytest.mark.parametrize("multiset, first", [
        ([0.0, -0.0, 1.0, -0.0], "0x0.0p+0"), ([-0.0, 0.0, 1.0, 0.0], "-0x0.0p+0")])
    def test_multiset_keeps_the_first_signed_zero(self, multiset, first):
        coord = UniformMultisetCoordinate(multiset)
        assert [v.hex() for v in coord.values] == [first, "0x1.0000000000000p+0"]
        assert coord.numerators == (3, 1) and coord.den == 4

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_multiset_rejects_non_finite_values(self, bad):
        with pytest.raises(DistributionError, match=f"support values must be finite, got {bad}"):
            UniformMultisetCoordinate([1.0, bad, float("nan")])

    @settings(max_examples=200, deadline=None)
    @given(law=law_inputs() | st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    def test_moments_match_tuple_reference(self, law):
        coord = DiscreteCoordinate(*law) if isinstance(law, tuple) else UniformMultisetCoordinate(law)
        vp = list(zip(coord.values, coord.probs))
        want = (math.fsum(v * p for v, p in vp), math.fsum(v * v * p for v, p in vp),
                math.fsum(v ** 4 * p for v, p in vp))
        assert [m.hex() for m in coord.moments()] == [m.hex() for m in want]


@pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
def test_non_finite_gamma_rejected(gamma):
    with pytest.raises(DistributionError, match=f"gamma={gamma} must be 2"):
        bucket_boundaries(GaussianCoordinate(), gamma, 4.0)


@pytest.mark.parametrize("name, kwargs", [("eps", {"eps": float("nan"), "C": 3.0}),
                                          ("eps", {"eps": float("inf"), "C": 3.0}),
                                          ("C", {"eps": 0.1, "C": float("nan")})],
                         ids=["eps-nan", "eps-inf", "C-nan"])
def test_non_finite_eps_or_C_rejected(name, kwargs):
    for coord in (GaussianCoordinate(), RADEMACHER):
        with pytest.raises(DistributionError, match=f"{name} must be finite"):
            truncate_and_standardize(coord, 4, **kwargs)


class TestRoundTrip:
    @pytest.mark.parametrize("coord", [
        RADEMACHER,
        GaussianCoordinate(),
        UniformIntervalCoordinate(-2, 2),
        UniformMultisetCoordinate([0.5, 0.5, -1.0]),
    ])
    def test_json_round_trip(self, coord):
        back = coordinate_from_json(coord.to_json())
        assert back.to_json() == coord.to_json()
        assert back.moments() == pytest.approx(coord.moments())

    def test_product_distribution_shorthand(self):
        d = ProductDistribution.from_json({"coord": {"kind": "gaussian"}, "n": 3})
        assert d.n == 3 and not d.is_discrete


COORDS = [
    ("rademacher", RADEMACHER),
    ("gaussian", GaussianCoordinate()),
    ("uniform", UniformIntervalCoordinate(-1, 1)),
    ("skewed", DiscreteCoordinate([-2.0, 0.5], [0.2, 0.8])),
]


@pytest.mark.parametrize("name,coord", COORDS)
@pytest.mark.parametrize("t", [2.0, 4.0, 8.0])
def test_hc_concentration_diagnostic(name, coord, t):
    trials = 10 ** 6
    eta = moment_profile(coord).eta
    p = hc_concentration_probe(coord, t, trials, rng(11))
    se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
    assert p <= 1.0 / (eta ** 4 * t ** 4) + 3 * se


@pytest.mark.parametrize("name,coord", COORDS)
@pytest.mark.parametrize("t", [0.5, 0.75])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_hc_anticoncentration_diagnostic(name, coord, t, theta):
    trials = 10 ** 6
    eta = moment_profile(coord).eta
    p = hc_anticoncentration_probe(coord, theta, t, trials, rng(13))
    se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
    assert p >= eta ** 4 * (1 - t * t) ** 2 - 3 * se
