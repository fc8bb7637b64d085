"""Step-approximator audit, halfspace sandwiches, hybrid products, fooling."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from conftest import philox
from hsprg.distributions import DiscreteCoordinate, ProductDistribution
from hsprg.halfspace import DecisionTree, Halfspace, HalfspaceSystem
from hsprg.harness import exact_expectation
from hsprg.mzgen import MZGenerator
from hsprg.sandwich_poly import (
    DGJSV_C0,
    CertificationError,
    GeneralizedPolynomial,
    OrderViolation,
    RegularityPartition,
    UnivariatePoly,
    _clenshaw_scaled,
    and_sum_evaluate,
    audit_dgjsv,
    build_upper_poly,
    certify_upper,
    dgjsv_poly,
    head_partition,
    hybrid_product,
    kwise_fooling_check,
    lower_from_upper,
    tree_to_and_sum,
)

RAD = DiscreteCoordinate.rademacher()
CUBE6_COORDS = [RAD] * 6
CUBE6 = ProductDistribution(CUBE6_COORDS)
POINTS6 = list(itertools.product([-1.0, 1.0], repeat=6))
# a non-dyadic, asymmetric law: probabilities are not floats' exact fractions
LAW3 = DiscreteCoordinate([-1.0, 0.5, 2.0], [0.1, 0.2, 0.7])
LAW3_COORDS = [LAW3] * 7
LAW3_DIST = ProductDistribution(LAW3_COORDS)


class TestDgjsvPoly:
    def test_boundary_values(self):
        P = dgjsv_poly(0.2, 1e-2)
        assert 1.0 <= P(0.0) <= 1.01
        assert 0.0 <= P(-1.0) <= 1e-2

    def test_envelope_at_two(self):
        P = dgjsv_poly(0.2, 1e-2)
        _, log2p = P._log2_outside(np.array([2.0]))
        assert log2p[0] <= P.degree * math.log2(8.0)

    def test_pointwise_dominates_indicator(self):
        P = dgjsv_poly(0.2, 1e-2)
        xs = philox(3).uniform(-4, 4, 5000)
        vals = P(xs)
        assert (vals >= (xs >= 0)).all()

    def test_audit_passes_one_grid_pair(self):
        rep = audit_dgjsv(dgjsv_poly(0.2, 1e-2))
        assert rep.ok
        assert max(rep.violations.values()) <= 1e-9
        assert rep.K % 2 == 0
        assert rep.c0_ratio <= DGJSV_C0

    def test_degree_scales_roughly_with_log_over_a(self):
        k1 = dgjsv_poly(0.2, 1e-2).degree
        k2 = dgjsv_poly(0.1, 1e-2).degree
        assert 1.5 <= k2 / k1 <= 3.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dgjsv_poly(0.0, 0.5)
        with pytest.raises(ValueError):
            dgjsv_poly(0.5, 1.0)


def clenshaw_reference(coeffs, x):
    """The whole-array recurrence the blocked kernel replaced."""
    x = np.asarray(x, dtype=float)
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    e = np.zeros(x.shape, dtype=np.int32)
    two_x = 2.0 * x
    for k in range(len(coeffs) - 1, 0, -1):
        b1, b2 = two_x * b1 - b2 + np.ldexp(coeffs[k], -e), b1
        big = np.abs(b1) > 2.0 ** 500
        if big.any():
            shift = np.where(big, 500, 0).astype(np.int32)
            b1 = np.ldexp(b1, -shift)
            b2 = np.ldexp(b2, -shift)
            e = e + shift
    out = x * b1 - b2 + np.ldexp(coeffs[0], -e)
    return out, e


def assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit patterns: signed zeros count too


class TestClenshawKernel:
    PAIRS = [(0.05, 1e-4), (0.05, 1e-2)]

    @staticmethod
    def mixed(size, seed):
        """|x| <= 1.05 rows, which never rescale, among |x| = 8 rows, which do."""
        rng = philox(seed)
        x = rng.uniform(-1.05, 1.05, size)
        far = rng.random(size) < 0.5
        x[far] = rng.choice([-8.0, 8.0], int(far.sum()))
        return x

    @pytest.mark.parametrize("ab", PAIRS)
    @pytest.mark.parametrize("size", [0, 1, 8191, 8192, 8193])
    def test_block_edges(self, size, ab):
        coeffs = dgjsv_poly(*ab).d_cheb
        x = self.mixed(size, size)
        assert_bitwise(_clenshaw_scaled(coeffs, x), clenshaw_reference(coeffs, x))

    @pytest.mark.parametrize("ab", PAIRS)
    def test_plain_rescaled_and_mixed_blocks(self, ab):
        coeffs = dgjsv_poly(*ab).d_cheb
        x = np.concatenate([philox(1).uniform(-1.05, 1.05, 8192), np.full(8192, -8.0),
                            self.mixed(9000, 2), philox(3).uniform(-8.0, 8.0, 8192)])
        got = _clenshaw_scaled(coeffs, x)
        assert_bitwise(got, clenshaw_reference(coeffs, x))
        e = got[1]
        assert e[:8192].max() == 0 and e[8192:16384].min() >= 1000  # several rescales


AUDIT_NAMES = ["p2_on[-1,-a]", "p3_on[-a,0]", "p4_on[0,1]", "p1_left_nonneg", "p5_right_ge1",
               "p6_envelope_log2"]


class TestGoldenAudit:
    """audit_dgjsv reports, recorded before the Clenshaw kernel was blocked."""

    @pytest.mark.parametrize("a, b, K, c0_ratio, digest", [
        (0.05, 1e-4, 2098, 7.341973103416289,
         "b6c7337d46d37ece870d9db7c875bbaf74af511ca1416bd92bc718574c4dd51f"),
        (0.2, 1e-2, 274, 7.16915633150014,
         "c9cc608d39b30f8c0157c85f8edf4555588ee8c3a425a279cdb57e0d1ffc2042"),
    ])
    def test_report(self, a, b, K, c0_ratio, digest):
        P = dgjsv_poly(a, b)
        rep = audit_dgjsv(P)
        assert rep.ok
        assert list(rep.violations.items()) == [(name, 0.0) for name in AUDIT_NAMES]
        assert (rep.K, rep.c0_ratio) == (K, c0_ratio)
        text = json.dumps(P.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestUnivariatePoly:
    def test_dgjsv_json_round_trip(self):
        p = dgjsv_poly(0.2, 1e-2)
        q = UnivariatePoly.from_json(p.to_json())
        xs = np.linspace(-1, 1, 17)
        assert np.array_equal(p(xs), q(xs))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'monomial'"):
            UnivariatePoly.from_json({"kind": "monomial", "degree": 2,
                                      "coefficients": ["0.5", "-1.25", "3.0"]})

    def test_structured_monomial_conversion_matches(self):
        # monomial coefficients reach 2^(4 deg D); Horner must run in high
        # precision or cancellation swamps the comparison
        import mpmath as mp

        p = dgjsv_poly(0.3, 0.04)
        mono = p.monomial_coefficients()
        assert len(mono) - 1 == p.degree
        with mp.workprec(2000):
            for x in (-0.9, -0.2, 0.4, 1.0):
                horner = mp.mpf(0)
                for c in reversed(mono):
                    horner = horner * x + c
                assert float(horner) == pytest.approx(p(x), abs=1e-12)


class TestPartitionAndBranches:
    def test_classifier_events(self):
        part = RegularityPartition(head=(0,), t_scale=4.5, tail_norm=math.sqrt(5),
                                  tail_regular=True, delta=0.25)
        edge = 4.5 * math.sqrt(5)
        assert part.classify(edge + 0.01) == "FAR"
        assert part.classify(-edge - 0.01) == "FAR"
        assert part.classify(edge - 0.01) == "NEAR"

    def test_bad_when_tail_irregular(self):
        part = RegularityPartition(head=(0,), t_scale=5.0, tail_norm=1.0,
                                  tail_regular=False, delta=1e-6)
        assert part.classify(0.0) == "BAD"

    def test_far_branch_values(self):
        P = dgjsv_poly(0.5, 0.1)
        part = RegularityPartition(head=(0,), t_scale=5.0, tail_norm=0.1,
                                  tail_regular=True, delta=0.25)
        gp = GeneralizedPolynomial([10.0, 1.0], 3.0, part, P, q=4, n=2)
        # x0 = -1: theta' = 13 > t*tail_norm -> FAR, p = (z/13)^4
        assert gp.evaluate([-1.0, 1.0]) == pytest.approx((1.0 / 13.0) ** 4)
        # theta' < 0 FAR branch is the constant 1
        gp2 = GeneralizedPolynomial([10.0, 1.0], -3.0, part, P, q=4, n=2)
        assert gp2.evaluate([1.0, 1.0]) == 1.0

    def test_far_at_z_equal_theta_prime_is_one(self):
        P = dgjsv_poly(0.5, 0.1)
        part = RegularityPartition(head=(0,), t_scale=5.0, tail_norm=0.05,
                                  tail_regular=True, delta=0.25)
        gp = GeneralizedPolynomial([2.0, 1.0], 3.0, part, P, q=6, n=2)
        # theta' = 3 - 2 = 1, z = 1: (z/theta')^q = 1 on the boundary
        assert gp.evaluate([1.0, 1.0]) == pytest.approx(1.0)

    def test_bad_branch_is_one(self):
        # near-critical tail at tiny delta is irregular
        coords = [RAD] * 4
        part = head_partition([1.0, 1.0, 1.0, 1.0], coords, delta=1e-6,
                              t=5.0, L=1)
        assert not part.tail_regular
        P = dgjsv_poly(0.5, 0.1)
        gp = GeneralizedPolynomial([1.0] * 4, 0.0, part, P, q=2, n=4)
        assert gp.evaluate([1.0, -1.0, 1.0, -1.0]) == 1.0

    @staticmethod
    def scalar_reference(gp, x):
        """The per-point evaluation: Python sums, one branch, one P call."""
        head_sum = float(sum(gp.weights[j] * x[j] for j in gp._head))
        z = float(sum(gp.weights[j] * x[j] for j in gp._tail))
        theta_prime = gp.theta - head_sum
        part = gp.partition
        if part.tail_norm == 0.0:
            return "ZERO", 1.0 if theta_prime <= 0 else 0.0
        event = part.classify(theta_prime)
        if event == "BAD":
            return event, 1.0
        if event == "NEAR":
            return event, float(gp.P((z - theta_prime) / (2.0 * part.t_scale * part.tail_norm)))
        if theta_prime <= 0:
            return "FAR-", 1.0
        return "FAR+", (z / theta_prime) ** gp.q

    @pytest.mark.parametrize("tail_regular,tail_norm", [(True, 0.1), (False, 0.1), (True, 0.0)])
    def test_evaluate_batch_matches_scalar_bit_for_bit(self, tail_regular, tail_norm):
        P = dgjsv_poly(0.5, 0.1)
        part = RegularityPartition(head=(0,), t_scale=5.0, tail_norm=tail_norm,
                                  tail_regular=tail_regular, delta=0.25)
        gp = GeneralizedPolynomial([10.0, 1.0, -0.75], 3.0, part, P, q=6, n=3)
        # theta' = 3 - 10 x0: FAR+ (x0 = -1), FAR- (x0 = 1), NEAR or BAD inside,
        # and x0 = 0.25 puts |theta'| = 0.5 = t_scale * tail_norm on the boundary
        head = [-1.0, 1.0, 0.25, 0.3, 0.27, 0.31]
        tail = np.linspace(-2.0, 2.0, 9)
        X = np.array([(h, u, v) for h in head for u in tail for v in (-1.0, 0.5)])
        ref = [self.scalar_reference(gp, x) for x in X.tolist()]
        want = [v for _, v in ref]
        assert gp.evaluate_batch(X).tolist() == want
        assert [gp.evaluate(x) for x in X.tolist()] == want
        events = {e for e, _ in ref}
        if tail_norm == 0.0:
            assert events == {"ZERO"}
        else:
            assert events == {"FAR+", "FAR-", "NEAR" if tail_regular else "BAD"}
            assert part.classify(3.0 - 10.0 * 0.25) != "FAR"

    def test_far_overflow_raises(self):
        part = RegularityPartition(head=(0,), t_scale=5.0, tail_norm=0.1,
                                  tail_regular=True, delta=0.25)
        gp = GeneralizedPolynomial([10.0, 1000.0], 3.0, part, dgjsv_poly(0.5, 0.1),
                                   q=1024, n=2)
        # theta' = 13, z = 1e5: (z/theta')^1024 is far past the float range
        with pytest.raises(OverflowError):
            gp.evaluate_batch([[0.0, 0.0], [-1.0, 100.0]])
        with pytest.raises(OverflowError):
            gp.evaluate([-1.0, 100.0])

    def test_head_picks_largest_terms(self):
        part = head_partition([1.0, 5.0, 2.0, 1.0], [RAD] * 4, delta=0.25,
                              t=5.0, L=2)
        assert part.head == (1, 2)


BUILD_KW = dict(delta=0.25, t=8.0, T=4096, d=2, L=1)


class TestBuildUpperPoly:
    def test_near_sandwich_pointwise_and_gap(self):
        w = [1.0] * 6
        p = build_upper_poly(w, 1.0, CUBE6_COORDS, **BUILD_KW)
        h = Halfspace(tuple(w), 1.0)
        assert p.partition.tail_regular
        gap = 0.0
        for x in POINTS6:
            pv, hv = p.evaluate(x), h.evaluate(x)
            assert pv >= hv
            gap += (pv - hv) / 64
        assert 0 <= gap < 1.0

    def test_order_capped_by_n(self):
        p = build_upper_poly([1.0] * 6, 1.0, CUBE6_COORDS, **BUILD_KW)
        assert p.order == 6
        assert p.K == p.P.degree and p.q == 4096 // 4 // 2 * 2

    def test_a_must_stay_below_one(self):
        with pytest.raises(ValueError, match="too small"):
            build_upper_poly([1.0] * 6, 0.0, CUBE6_COORDS,
                             delta=0.25, t=8.0, T=64, d=2, L=1)

    def test_t_and_T_validation(self):
        with pytest.raises(ValueError):
            build_upper_poly([1.0] * 6, 0.0, CUBE6_COORDS,
                             delta=0.25, t=4.0, T=4096, d=2, L=1)
        with pytest.raises(ValueError):
            build_upper_poly([1.0] * 6, 0.0, CUBE6_COORDS,
                             delta=0.25, t=8.0, T=4095, d=2, L=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_halfspaces_pointwise(self, seed):
        rng = philox(400 + seed)
        w = list(rng.normal(size=6).round(2))
        theta = round(float(rng.normal()), 2)
        p = build_upper_poly(w, theta, CUBE6_COORDS, **BUILD_KW)
        h = Halfspace(tuple(w), theta)
        for x in POINTS6:
            assert p.evaluate(x) >= h.evaluate(x)


class TestHybridProduct:
    def build_pair(self):
        w1, w2 = [1.0] * 6, [2.0, -1.0, 1.0, 1.0, -1.0, 1.0]
        p1 = build_upper_poly(w1, 1.0, CUBE6_COORDS, **BUILD_KW)
        p2 = build_upper_poly(w2, 0.0, CUBE6_COORDS, **BUILD_KW)
        return (p1, p2), (Halfspace(tuple(w1), 1.0), Halfspace(tuple(w2), 0.0))

    def test_budget_holds_exhaustively(self):
        polys, hs = self.build_pair()
        res = hybrid_product(polys, hs, CUBE6)
        assert res.pointwise_ok
        assert res.measured_gap <= res.bound + 1e-12
        for cert in res.certifications:
            assert cert.pointwise_ok
            assert cert.norm2d <= 1 + 2 / 4 + 1e-12

    def test_golden_values(self):
        # recorded with the per-point Fraction enumeration; floats bit for bit
        polys, hs = self.build_pair()
        res = hybrid_product(polys, hs, CUBE6)
        assert (res.bound, res.measured_gap, res.pointwise_ok, res.order) \
            == (2.559178286901466, 0.7344624957925052, True, 6)
        assert [(c.pointwise_ok, c.eps0, c.gamma, c.norm2d) for c in res.certifications] == [
            (True, 0.6397945717253665, 0.0, 0.9885548969585687),
            (True, 0.48502882155699534, 0.0, 0.9899280729478804)]

    def test_degenerate_single_factor(self):
        polys, hs = self.build_pair()
        res = hybrid_product(polys[:1], hs[:1], CUBE6)
        cert = res.certifications[0]
        assert res.bound == pytest.approx(2 * cert.eps0 + 3 * math.sqrt(cert.gamma))

    def test_golden_values_on_non_dyadic_law(self):
        # recorded at the per-point evaluation; NEAR and FAR rows, d = 2 and 3
        kw = dict(delta=0.5, t=8.0, T=4096, d=2, L=2)
        cases = [([1.0] * 7, 6.0), ([3.0, -1.0, 0.5, 1.0, -2.0, 1.0, 0.25], 2.5),
                 ([0.5, 1.0, -1.0, 2.0, 1.0, -0.5, 1.0], 3.0),
                 ([40.0] + [1.0] * 6, 10.0), ([1.0] * 7, -1.0)]
        polys = [build_upper_poly(w, th, LAW3_COORDS, **kw) for w, th in cases]
        hs = [Halfspace(tuple(w), th) for w, th in cases]
        want = {
            (0, 1): ((1.1079351256542214, 0.3108292033399361), [
                (0.07348917620873088, 0.0, 0.9999686816618276),
                (0.27698378141355534, 0.0, 0.9924259464288743)]),
            (1, 2): ((1.1079351256542214, 0.3919619406225229), [
                (0.27698378141355534, 0.0, 0.9924259464288743),
                (0.1835120017638977, 0.0, 0.9995084271498319)]),
            (2, 3, 4): ((1.1010720105833862, 0.1571397209247883), [
                (0.1835120017638977, 0.0, 0.9995490720496063),
                (9.36262007122934e-13, 0.0, 0.9825931938537117),
                (0.00010159511072721477, 0.0, 0.9999999951315899)]),
        }
        for idx, (head, certs) in want.items():
            res = hybrid_product([polys[i] for i in idx], [hs[i] for i in idx], LAW3_DIST)
            assert (res.bound, res.measured_gap, res.pointwise_ok, res.order) == (*head, True, 7)
            assert [(c.pointwise_ok, c.eps0, c.gamma, c.norm2d, c.d)
                    for c in res.certifications] == [(True, *c, len(idx)) for c in certs]
        for i, d, norm2d in [(3, 2, 0.9740037464263094), (3, 3, 0.9825931938537117),
                             (1, 1, 0.9900214080650895)]:
            cert = certify_upper(polys[i], hs[i].evaluate, LAW3_DIST, d)
            eps0 = 9.36262007122934e-13 if i == 3 else 0.27698378141355534
            assert cert == type(cert)(True, eps0, 0.0, norm2d, d)

    def test_one_batch_call_of_P_per_factor_and_block(self, monkeypatch):
        coords = [RAD] * 10
        w1, w2 = [1.0] * 10, [1.0, -1.0] * 5
        polys = [build_upper_poly(w, th, coords, **BUILD_KW) for w, th in [(w1, 2.0), (w2, 0.0)]]
        hs = [Halfspace(tuple(w1), 2.0), Halfspace(tuple(w2), 0.0)]
        calls = []
        original = UnivariatePoly.__call__

        def counted(self, x):
            calls.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(UnivariatePoly, "__call__", counted)
        res = hybrid_product(polys, hs, ProductDistribution(coords))
        assert res.pointwise_ok
        # 1024 points form one block: the per-point walk made 4096 calls
        assert 1 <= len(calls) <= 2
        assert sum(calls) <= 2 * 1024

    def test_empty_factor_list_refused(self):
        with pytest.raises(ValueError, match="at least one factor"):
            hybrid_product([], [], CUBE6)
        p = build_upper_poly([1.0] * 6, 1.0, CUBE6_COORDS, **BUILD_KW)
        with pytest.raises(ValueError, match="at least one factor"):
            certify_upper(p, Halfspace((1.0,) * 6, 1.0).evaluate, CUBE6, 0)

    def test_all_ones_gap_zero(self):
        class One:
            order = 0
            def __call__(self, x):
                return 1.0
        res = hybrid_product([One(), One()],
                             [lambda x: 1, lambda x: 1], CUBE6)
        assert res.measured_gap == 0 and res.bound == 0

    def test_certification_failure_raises(self):
        class Half:
            order = 0
            def __call__(self, x):
                return 0.5
        with pytest.raises(CertificationError):
            hybrid_product([Half()], [lambda x: int(sum(x) >= 0)], CUBE6)


def margin_square_upper(w, theta, s=0.35):
    """Order-2 upper sandwich (1 + s*u)^2 of 1[u >= 0], u the scaled margin."""
    scale = math.sqrt(sum(wi * wi for wi in w))

    class U:
        order = 2
        def __call__(self, x):
            u = (sum(wi * xi for wi, xi in zip(w, x)) - theta) / scale
            return (1.0 + s * u) ** 2 if u >= 0 else max(0.0, (1.0 + s * u)) ** 2
    # (1+su)^2 works directly; clip keeps float noise from dipping below 0
    return U()


class TestLowerFromUpper:
    def test_constant_one_upper_gives_zero_lower(self):
        class One:
            order = 0
            def __call__(self, x):
                return 1.0
        p_l = lower_from_upper(One())
        assert p_l.evaluate([1.0]) == 0.0

    def test_exact_complement(self):
        h = Halfspace((1.0, 1.0), 0.0)
        neg = h.negation()
        p_l = lower_from_upper(lambda x: float(neg.evaluate(x)), order=6)
        for x in itertools.product([-1.0, 1.0], repeat=2):
            assert p_l.evaluate(x) == h.evaluate(x)

    def test_halfspace_identity_between_gaps(self):
        w = (1.0, -1.0, 2.0, 1.0, -1.0, 1.0)
        h = Halfspace(w, 0.5)
        neg = h.negation()
        p_u_neg = margin_square_upper([-wi for wi in w], -0.5)  # upper for not-h
        p_l = lower_from_upper(p_u_neg)
        gap_l = exact_expectation(lambda x: h.evaluate(x) - p_l.evaluate(x), CUBE6)
        gap_u = exact_expectation(lambda x: p_u_neg(x) - neg.evaluate(x), CUBE6)
        for x in POINTS6:
            assert p_l.evaluate(x) <= h.evaluate(x)
        assert float(gap_l) == pytest.approx(float(gap_u))


class TestTreeToAndSum:
    def system(self):
        rng = philox(77)
        W = rng.normal(size=(6, 2)).round(2)
        return HalfspaceSystem(W, [0.25, -0.5])

    def test_single_halfspace_tree(self):
        sysd = self.system()
        tree = DecisionTree.branch(0, DecisionTree.leaf_node(0), DecisionTree.leaf_node(1))
        terms = tree_to_and_sum(tree, sysd)
        assert len(terms) == 1 and len(terms[0]) == 1

    def test_depth2_sum_equals_f(self):
        sysd = self.system()
        tree = DecisionTree.branch(
            0,
            DecisionTree.branch(1, DecisionTree.leaf_node(0), DecisionTree.leaf_node(1)),
            DecisionTree.leaf_node(1),
        )
        terms = tree_to_and_sum(tree, sysd)
        assert len(terms) == 2
        for x in POINTS6:
            signs = sysd.sign_vector(x)
            want = 1 if signs[0] else signs[1]
            assert and_sum_evaluate(terms, x) == want

    def test_all_zero_leaves_empty_sum(self):
        sysd = self.system()
        tree = DecisionTree.branch(0, DecisionTree.leaf_node(0), DecisionTree.leaf_node(0))
        assert tree_to_and_sum(tree, sysd) == []


class TestKWiseFoolingCheck:
    def kgen(self, k):
        return MZGenerator([[-1.0, 1.0]] * 6, t=1, k=k)

    def test_constant_function_zero_gap(self):
        class Z:
            order = 0
            def __call__(self, x):
                return 0.0
        class One:
            order = 0
            def __call__(self, x):
                return 1.0
        chk = kwise_fooling_check(lambda x: 1, Z(), One(), CUBE6, self.kgen(2), order=0)
        assert chk.gap == 0 and chk.ok

    def test_order_violation_raises(self):
        with pytest.raises(OrderViolation):
            kwise_fooling_check(lambda x: 1, lambda x: 0.0, lambda x: 1.0,
                                CUBE6, self.kgen(2), order=3)

    def test_single_halfspace_4wise(self):
        w = (1.0, 1.0, -1.0, 1.0, 1.0, -1.0)
        h = Halfspace(w, 1.0)
        p_u = margin_square_upper(list(w), 1.0)
        p_u_neg = margin_square_upper([-wi for wi in w], -1.0)
        p_l = lower_from_upper(p_u_neg)
        chk = kwise_fooling_check(h.evaluate, p_l, p_u, CUBE6, self.kgen(4), order=4)
        assert chk.ok
        assert chk.sandwich_eps < 1.0  # the bound is informative, not vacuous

    def test_golden_values(self):
        # recorded with the per-point Fraction enumeration; floats bit for bit
        w = (1.0, 1.0, -1.0, 1.0, 1.0, -1.0)
        h = Halfspace(w, 1.0)
        p_u = margin_square_upper(list(w), 1.0)
        p_l = lower_from_upper(margin_square_upper([-wi for wi in w], -1.0))
        chk = kwise_fooling_check(h.evaluate, p_l, p_u, CUBE6, self.kgen(4), order=4)
        assert (chk.e_true, chk.e_kwise, chk.gap, chk.sandwich_eps) \
            == (0.34375, 0.34375, 0.0, 0.7724404699913708)

    def test_full_independence_zero_gap_exactly(self):
        w = (1.0, 1.0, -1.0, 1.0, 1.0, -1.0)
        h = Halfspace(w, 1.0)
        p_u = margin_square_upper(list(w), 1.0)
        p_l = lower_from_upper(margin_square_upper([-wi for wi in w], -1.0))
        chk = kwise_fooling_check(h.evaluate, p_l, p_u, CUBE6, self.kgen(6), order=6)
        assert chk.gap == 0.0
