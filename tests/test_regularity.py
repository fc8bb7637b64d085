"""Critical index vs definition-level brute force; head-set process."""

import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hsprg.distributions import DiscreteCoordinate, GaussianCoordinate, UniformIntervalCoordinate
from hsprg.regularity import (
    JUNTA,
    REG,
    TermNorms,
    anticoncentration_probe,
    critical_index,
    head_set_partition,
    is_delta_regular,
)
from hsprg.sandwich_poly import head_partition


def rademacher_norms(weights):
    # E x^2 = E x^4 = 1 for +-1 variables
    return TermNorms.from_weights(weights, [1.0] * len(weights), [1.0] * len(weights))


def brute_force_critical_index(sigma2, four4, delta):
    """Definition-level scan: smallest ell whose tail is regular, else inf."""
    order = sorted(range(len(sigma2)), key=lambda j: (-sigma2[j], j))
    s2 = [sigma2[j] for j in order]
    s4 = [four4[j] for j in order]
    for ell in range(len(s2)):
        if sum(s4[ell:]) <= delta * sum(s2[ell:]) ** 2:
            return ell
    return math.inf


class TestIsDeltaRegular:
    def test_four_equal_rademacher_terms(self):
        norms = rademacher_norms([1, 1, 1, 1])
        assert is_delta_regular(norms, 0.3)
        assert not is_delta_regular(norms, 0.2)
        assert is_delta_regular(norms, 0.25)  # equality counts as regular

    def test_single_rademacher(self):
        norms = rademacher_norms([1])
        assert not is_delta_regular(norms, 0.99)
        assert is_delta_regular(norms, 1.0)

    def test_single_gaussian(self):
        norms = TermNorms.from_weights([1.0], [1.0], [3.0])
        assert not is_delta_regular(norms, 0.9)

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValueError):
            is_delta_regular(rademacher_norms([1, 1]), 0.5, [])

    def test_cauchy_schwarz_guard(self):
        with pytest.raises(ValueError):
            TermNorms((1.0,), (0.5,))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("two", [1e200, 1.4e154, 1.7976931348623157e308])
    def test_cauchy_schwarz_guard_where_the_square_overflows(self, two):
        with pytest.raises(ValueError, match="violates Cauchy-Schwarz$"):
            TermNorms([1.0, two], [1.0, 1.0])
        assert TermNorms([1.0, 1.3e154], [1.0, 1.69e308]).two_norm_sq[1] == 1.3e154

    @pytest.mark.parametrize("two,four", [((math.nan, 1.0), (1.0, 1.0)),
                                          ((1.0, 1.0), (1.0, math.inf)),
                                          ((-math.inf, 1.0), (1.0, 1.0))])
    def test_non_finite_norms_rejected(self, two, four):
        with pytest.raises(ValueError, match="^norms must be finite$"):
            TermNorms(two, four)


class TestInputChecks:
    @pytest.mark.parametrize("m2,m4", [([1.0], [1.0] * 4), ([1.0] * 4, [1.0]),
                                       ([1.0] * 5, [1.0] * 5), (1.0, 1.0)])
    def test_moments_need_one_entry_per_weight(self, m2, m4):
        with pytest.raises(ValueError, match="^need one m2 and one m4 per weight, 4 weights$"):
            TermNorms.from_weights([1, 2, 3, 4], m2, m4)

    @pytest.mark.parametrize("weights", [[], [[1.0, 2.0]], 1.0])
    def test_weights_must_be_a_nonempty_vector(self, weights):
        with pytest.raises(ValueError, match="^weights must be a nonempty vector$"):
            TermNorms.from_weights(weights, [1.0], [1.0])

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
    def test_delta_must_be_finite_and_positive(self, delta):
        norms = rademacher_norms([1, 1, 1, 1])
        message = "^delta must be finite and positive"
        with pytest.raises(ValueError, match=message):
            is_delta_regular(norms, delta)
        with pytest.raises(ValueError, match=message):
            critical_index(norms, delta)
        with pytest.raises(ValueError, match=message):
            head_set_partition(np.ones((4, 2)), [1.0] * 4, [1.0] * 4, delta, L=2)
        with pytest.raises(ValueError, match=message):  # L = 0: the labels still need verdicts
            head_set_partition(np.ones((4, 2)), [1.0] * 4, [1.0] * 4, delta, L=0)

    def test_norms_are_read_only_float64_copies(self):
        two = np.array([4.0, 1.0])
        norms = TermNorms(two, [16.0, 1.0])
        two[0] = 9.0
        for arr in (norms.two_norm_sq, norms.four_norm_4):
            assert arr.dtype == np.float64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert norms.two_norm_sq.tolist() == [4.0, 1.0]

    def test_order_is_a_tuple_of_python_ints(self):
        _, order = critical_index(rademacher_norms([1, 3, 2]), 0.5)
        assert order == (1, 2, 0)
        assert all(type(j) is int for j in order)


class TestCriticalIndex:
    def test_equal_weights_whole_sequence_regular(self):
        # every suffix of length >= 10 is regular at delta = 0.1, so the
        # smallest qualifying index is 0
        norms = rademacher_norms([1] * 16)
        ell, order = critical_index(norms, 0.1)
        assert ell == 0
        assert order == tuple(range(16))
        assert ell == brute_force_critical_index([1] * 16, [1] * 16, 0.1)

    def test_equal_weights_short_sequence(self):
        # suffixes of length < 1/delta are all irregular
        norms = rademacher_norms([1] * 8)
        ell, _ = critical_index(norms, 0.1)
        assert ell == math.inf

    def test_one_giant_weight(self):
        weights = [10] + [1] * 9
        norms = rademacher_norms(weights)
        ell, _ = critical_index(norms, 0.2)
        assert ell == 1
        assert ell == brute_force_critical_index(
            [w * w for w in weights], [w ** 4 for w in weights], 0.2)

    def test_no_regular_suffix_is_inf(self):
        norms = TermNorms.from_weights([1.0], [1.0], [3.0])
        ell, _ = critical_index(norms, 0.5)
        assert ell == math.inf

    def test_unsorted_input_returns_permutation(self):
        weights = [1, 10, 1, 1, 1, 1, 1, 1, 1, 1]
        norms = rademacher_norms(weights)
        ell, order = critical_index(norms, 0.2)
        assert order[0] == 1
        assert ell == 1

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.25])
    def test_matches_brute_force_on_random_sequences(self, delta):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            w = np.exp(rng.normal(0, 2, size=n))
            m4 = rng.uniform(1.0, 3.0, size=n)  # E x^4 relative to E x^2 = 1
            norms = TermNorms.from_weights(w, np.ones(n), m4)
            ell, _ = critical_index(norms, delta)
            want = brute_force_critical_index(
                [ww * ww for ww in w], [ww ** 4 * m for ww, m in zip(w, m4)], delta)
            assert ell == want


class TestHeadSetPartition:
    def test_single_dimension_matches_critical_prefix(self):
        W = np.array([[10.0], [1], [1], [1], [1], [1], [1], [1], [1], [1]])
        res = head_set_partition(W, [1.0] * 10, [1.0] * 10, delta=0.2, L=5)
        assert res.H0 == (0,)
        assert res.classification == (REG,)

    def test_already_regular_no_head(self):
        W = np.ones((16, 2))
        res = head_set_partition(W, [1.0] * 16, [1.0] * 16, delta=0.1, L=3)
        assert res.H0 == ()
        assert res.classification == (REG, REG)
        assert res.counters == (0, 0)

    def test_giant_weight_in_one_dimension_only(self):
        W = np.column_stack([[10.0, 1, 1, 1, 1, 1], [1.0, 1, 1, 1, 1, 1]])
        res = head_set_partition(W, [1.0] * 6, [1.0] * 6, delta=0.2, L=3)
        assert res.H0 == (0,)
        assert res.counters == (1, 0)
        assert res.classification == (REG, REG)

    def test_junta_when_budget_exhausted(self):
        W = np.array([[100.0], [10.0], [1.0]])
        res = head_set_partition(W, [1.0] * 3, [1.0] * 3, delta=0.01, L=2)
        assert res.H0 == (0, 1)
        assert res.classification == (JUNTA,)
        assert res.counters == (2,)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        L = int(rng.integers(1, 4))
        W = rng.normal(0, 1, size=(n, d)) * np.exp(rng.normal(0, 1.5, size=(n, 1)))
        m2 = np.ones(n)
        m4 = rng.uniform(1.0, 3.0, size=n)
        res = head_set_partition(W, m2, m4, delta=0.15, L=L)
        assert len(res.H0) <= d * L
        assert len(set(res.H0)) == len(res.H0)
        survivors = [j for j in range(n) if j not in res.head_set]
        for i, cls in enumerate(res.classification):
            norms = TermNorms.from_weights(W[:, i], m2, m4)
            if cls == REG:
                assert not survivors or is_delta_regular(norms, 0.15, survivors)
            else:
                assert res.counters[i] == L
                assert survivors and not is_delta_regular(norms, 0.15, survivors)


class TestAnticoncentrationProbe:
    def rng(self):
        return np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))

    def test_impossible_theta_probability_zero(self):
        coords = [DiscreteCoordinate.rademacher()] * 2
        p, half = anticoncentration_probe([1.0, 1.0], coords, theta=1e6, s=1.0,
                                          tau_tail=1.0, trials=2000, rng=self.rng())
        assert p == 0.0

    def test_junta_head_avoids_every_window(self):
        # the JUNTA case above: head sums are +-90/+-110, far from these thetas
        coords = [DiscreteCoordinate.rademacher()] * 2
        for theta in (0.0, 50.0, 100.0):
            p, _ = anticoncentration_probe([100.0, 10.0], coords, theta=theta, s=3.0,
                                           tau_tail=1.0, trials=5000, rng=self.rng())
            assert p == 0.0

    def test_shrinking_window_continuous(self):
        from hsprg.distributions import GaussianCoordinate
        coords = [GaussianCoordinate()]
        p, _ = anticoncentration_probe([1.0], coords, theta=0.0, s=1e-9,
                                       tau_tail=1.0, trials=20000, rng=self.rng())
        assert p == 0.0

    def test_half_width_is_wilson(self):
        # p = 0 at n = 2000 gives z^2 / (n + z^2), not a Wald floor
        coords = [DiscreteCoordinate.rademacher()] * 2
        p, half = anticoncentration_probe([1.0, 1.0], coords, theta=1e6, s=1.0,
                                          tau_tail=1.0, trials=2000, rng=self.rng())
        z2 = 1.959963984540054 ** 2
        assert p == 0.0 and half == pytest.approx(z2 / (2000 + z2), rel=1e-12)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            anticoncentration_probe([1.0], [DiscreteCoordinate.rademacher()],
                                    0.0, 1.0, 1.0, 0, self.rng())


# -- oracle: critical_index, head_set_partition and head_partition over tuples --
# A reference kept in tests: the same definitions over tuples of numpy scalars,
# scanned in Python.  The array code must reproduce every output bit for bit.

def tuple_norms(weights, m2, m4):
    w = np.asarray(weights, dtype=float)
    return (tuple(w * w * np.asarray(m2, dtype=float)),
            tuple(w ** 4 * np.asarray(m4, dtype=float)))


def tuple_regular(two, four, delta, indices):
    s4 = math.fsum(four[j] for j in indices)
    s2 = math.fsum(two[j] for j in indices)
    return s4 <= delta * s2 * s2


def tuple_order(two):
    return tuple(sorted(range(len(two)), key=lambda j: (-two[j], j)))


def tuple_critical_index(two, four, delta):
    order = tuple_order(two)
    two, four = tuple(two[j] for j in order), tuple(four[j] for j in order)
    n = len(two)
    for ell in range(n):
        if tuple_regular(two, four, delta, range(ell, n)):
            return ell, order
    return math.inf, order


def tuple_head_set(W, m2, m4, delta, L):
    n, d = W.shape
    per_dim = [tuple_norms(W[:, i], m2, m4) for i in range(d)]
    surviving = list(range(n))
    H0, counters = [], [0] * d

    def dim_regular(i):
        return not surviving or tuple_regular(*per_dim[i], delta, surviving)

    while True:
        pick = next((i for i in range(d) if counters[i] < L and not dim_regular(i)), None)
        if pick is None:
            break
        j = max(surviving, key=lambda jj: (per_dim[pick][0][jj], -jj))
        surviving.remove(j)
        H0.append(j)
        counters[pick] += 1
    return tuple(H0), tuple(REG if dim_regular(i) else JUNTA for i in range(d)), tuple(counters)


def tuple_head_partition(weights, coords, delta, L):
    n = len(weights)
    two, four = tuple_norms(weights, [c.moments()[1] for c in coords],
                            [c.moments()[2] for c in coords])
    head = tuple_order(two)[:L]
    tail = [j for j in range(n) if j not in head]
    tail_norm = math.sqrt(math.fsum(two[j] for j in tail)) if tail else 0.0
    tail_regular = bool(tail) and tuple_regular(two, four, delta, tail)
    return head, tail_norm, tail_regular


PALETTE = (DiscreteCoordinate.rademacher(), GaussianCoordinate(), UniformIntervalCoordinate(),
           DiscreteCoordinate([-2.0, 0.0, 1.0], [0.125, 0.5, 0.375]))


@st.composite
def oracle_cases(draw):
    """(W, coordinate laws, delta, L): n <= 64, d <= 4, weights over 2^-30..2^30."""
    n, d = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    magnitude = st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-30, 30))
    value = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    pool = draw(st.lists(value, min_size=1, max_size=4))  # repeated values make ties
    entries = draw(st.lists(st.one_of(st.sampled_from(pool), value),
                            min_size=n * d, max_size=n * d))
    W = np.array(entries).reshape(n, d)
    coords = [PALETTE[i] for i in draw(st.lists(st.integers(0, len(PALETTE) - 1),
                                                min_size=n, max_size=n))]
    delta = draw(st.one_of(st.sampled_from([0.25, 0.5, 1 / 3, 0.1, 1.0]),
                           st.floats(1e-6, 2.0), st.just(None)))
    if delta is None:
        # land on a ratio of column 0's own sums: float ties at some suffix
        two, four = tuple_norms(W[:, 0], *zip(*(c.moments()[1:] for c in coords)))
        suffix = tuple_order(two)[draw(st.integers(0, n - 1)):]
        s2 = math.fsum(two[j] for j in suffix)
        delta = math.fsum(four[j] for j in suffix) / (s2 * s2) if s2 > 0 else 0.25
    return W, coords, delta, draw(st.integers(0, 5))


RAD4 = [DiscreteCoordinate.rademacher()] * 4


class TestTupleOracle:
    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    @given(case=oracle_cases())
    @example(case=(np.ones((4, 1)), RAD4, 0.25, 0))
    @example(case=(np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]]), RAD4, 0.25, 1))
    @example(case=(np.array([[0.0], [0.0], [2.0 ** -30], [2.0 ** 30]]), RAD4, 1.0, 2))
    def test_outputs_bit_identical(self, case):
        W, coords, delta, L = case
        m2 = [c.moments()[1] for c in coords]
        m4 = [c.moments()[2] for c in coords]
        res = head_set_partition(W, m2, m4, delta, L)
        assert (res.H0, res.classification, res.counters) == tuple_head_set(W, m2, m4,
                                                                            delta, L)
        assert all(type(j) is int for j in res.H0)
        for i in range(W.shape[1]):
            got = critical_index(TermNorms.from_weights(W[:, i], m2, m4), delta)
            assert got == tuple_critical_index(*tuple_norms(W[:, i], m2, m4), delta)
            part = head_partition(W[:, i], coords, delta, t=5.0, L=L)
            head, tail_norm, tail_regular = tuple_head_partition(W[:, i], coords, delta, L)
            assert part.head == head and part.tail_regular == tail_regular
            assert part.tail_norm.hex() == tail_norm.hex()
