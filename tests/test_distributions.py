"""Moment profiles, truncation, bucket boundaries, sandwich laws, SD."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
