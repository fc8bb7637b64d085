"""Critical index vs definition-level brute force; head-set process."""

import math

import numpy as np
import pytest

from hsprg.distributions import DiscreteCoordinate
from hsprg.regularity import (
    JUNTA,
    REG,
    TermNorms,
    anticoncentration_probe,
    critical_index,
    head_set_partition,
    is_delta_regular,
)


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

    @pytest.mark.parametrize("two,four", [((math.nan, 1.0), (1.0, 1.0)),
                                          ((1.0, 1.0), (1.0, math.inf)),
                                          ((-math.inf, 1.0), (1.0, 1.0))])
    def test_non_finite_norms_rejected(self, two, four):
        with pytest.raises(ValueError, match="^norms must be finite$"):
            TermNorms(two, four)


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
