"""Step-approximator audit, halfspace sandwiches, hybrid products, fooling."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as nch

from conftest import full_grid_audit, full_grid_dgjsv, philox, reference_certify
from hsprg import harness, sandwich_poly
from hsprg.distributions import DiscreteCoordinate, ProductDistribution
from hsprg.halfspace import DecisionTree, Halfspace, HalfspaceSystem
from hsprg.harness import exact_expectation
from hsprg.mzgen import MZGenerator
from hsprg.seeds import seed_range
from hsprg.sandwich_poly import (
    DGJSV_C0,
    CertificationError,
    GeneralizedPolynomial,
    OrderViolation,
    RegularityPartition,
    UnivariatePoly,
    _AUDIT_STEP,
    _AUDIT_XMAX,
    _chebval,
    _clenshaw_scaled,
    _interp_inverse_sqrt,
    _within,
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
        log2p = P._log2_outside(np.array([2.0]))
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


@st.composite
def kernel_inputs(draw):
    """Coefficients up to 2^300 and rows inside, on and outside [-1, 1]."""
    rng = philox(draw(st.integers(0, 2 ** 32 - 1)))
    n_coeffs = draw(st.integers(1, 600))
    top = draw(st.integers(-40, 300))
    coeffs = rng.uniform(-1.0, 1.0, n_coeffs) * np.exp2(rng.integers(top - 60, top + 1, n_coeffs))
    bad_coeff = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if bad_coeff is not None:
        coeffs[rng.integers(n_coeffs)] = bad_coeff
    size = draw(st.sampled_from([1, 2, 40, 8191, 8192, 8193]))
    kinds = {"inside": rng.uniform(-1.0, 1.0, size),
             "unit": rng.choice([-1.0, 1.0], size),
             "wide": rng.uniform(-16.0, 16.0, size),
             "edge": rng.choice([-16.0, 16.0], size)}
    kind = draw(st.sampled_from(sorted(kinds) + ["mixed"]))
    if kind == "mixed":
        x = np.choose(rng.integers(0, len(kinds), size), [kinds[k] for k in sorted(kinds)])
    else:
        x = kinds[kind]
    if draw(st.booleans()):
        rows = rng.integers(0, size, 3)
        x[rows] = [math.nan, math.inf, -math.inf]
    return coeffs, x


class TestClenshawKernelAgainstReference:
    """The skipped overflow checks change no bit of (mantissa, exp2)."""

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs())
    def test_matches_reference(self, case):
        coeffs, x = case
        with np.errstate(all="ignore"):
            got, want = _clenshaw_scaled(coeffs, x), clenshaw_reference(coeffs, x)
        if np.isinf(coeffs).any():
            # An infinite coefficient enters a row as inf * 2^-e, which is
            # NaN once the scale underflows to 0 at e = 1500, where the
            # reference's ldexp keeps inf.  Such a row is not finite on
            # either side, but its value and exponent may differ; every
            # row that never reached e = 1500 agrees bit for bit.
            lost = want[1] >= 1500
            assert not np.isfinite(got[0][lost]).any()
            got, want = [(m[~lost], e[~lost]) for m, e in (got, want)]
        if np.isnan(coeffs).any():
            # Where a NaN coefficient meets a NaN row, the sign of the NaN
            # sum depends on the operand order of numpy's add loop, which
            # differs between the kernel's in-place scalar add and the
            # reference's array add.  Compare such rows as NaN only.
            got, want = [(np.where(np.isnan(m), np.nan, m), e) for m, e in (got, want)]
        assert_bitwise(got, want)

    def test_audit_grids(self):
        coeffs = dgjsv_poly(0.05, 1e-4).d_cheb
        outer = np.arange(1.0, _AUDIT_XMAX + _AUDIT_STEP / 2, _AUDIT_STEP)
        for x in (outer, -outer):
            got = _clenshaw_scaled(coeffs, x)
            assert_bitwise(got, clenshaw_reference(coeffs, x))
            assert got[1].max() >= 1500

    # Each case takes rows past 2^500 where one part of the bound alone sees
    # it coming: the coefficient, the 2x*b1 product, the b2 carried from
    # two steps back, and the b2 bound a check hands on without a rescale.
    LIMIT = 2.0 ** 500

    @pytest.mark.parametrize("x, coeffs", [
        (0.5, [0.0, math.nextafter(LIMIT, math.inf)]),
        (-1.0, [0.0, 0.0, math.nextafter(LIMIT / 3, math.inf),
                -math.nextafter(LIMIT / 3, math.inf)]),
        (0.0, [0.0, -0.75 * LIMIT, 0.0, 0.75 * LIMIT]),
        (-0.5, (LIMIT * np.array([0.25, 0.45, -0.3, -0.3, 0.25, -0.1])).tolist()),
    ], ids=["coefficient", "product", "carried-b2", "b2-after-a-check"])
    def test_rescale_at_the_first_step_past_the_limit(self, x, coeffs):
        xs = np.full(3, x)
        got = _clenshaw_scaled(np.array(coeffs), xs)
        assert_bitwise(got, clenshaw_reference(coeffs, xs))
        assert (got[1] == 500).all()


AUDIT_NAMES = ["p2_on[-1,-a]", "p3_on[-a,0]", "p4_on[0,1]", "p1_left_nonneg", "p5_right_ge1",
               "p6_envelope_log2"]


class TestGoldenAudit:
    """audit_dgjsv reports, recorded before the Clenshaw kernel was blocked
    ((0.05, 1e-4) and (0.2, 1e-2)) or before the degree searches probed subgrids."""

    @pytest.mark.parametrize("a, b, K, c0_ratio, digest", [
        (0.05, 1e-2, 1498, 9.798719146521178,
         "a2b5b331ea60435987f2724002204489d260ef75cb7cf6f1eef87c4c6440c785"),
        (0.05, 1e-4, 2098, 7.341973103416289,
         "b6c7337d46d37ece870d9db7c875bbaf74af511ca1416bd92bc718574c4dd51f"),
        (0.1, 1e-2, 542, 7.090661919111453,
         "dfd38b9e44cdeccff3f20db0c3433227b72ce6c0a21b8fc011a84662d43aeb70"),
        (0.1, 1e-4, 1070, 7.4889525459060335,
         "eaa0f5cdae2a795a5432c4df6fa0ce3c5262f69eda7e685cea7103808945771a"),
        (0.2, 1e-2, 274, 7.16915633150014,
         "c9cc608d39b30f8c0157c85f8edf4555588ee8c3a425a279cdb57e0d1ffc2042"),
        (0.2, 1e-4, 542, 7.586938840899197,
         "d8e6f8e7c4ca5f4c82958299a68c2eb58e8a9cb33cd872fec87319754182f07d"),
    ])
    def test_report(self, a, b, K, c0_ratio, digest):
        P = dgjsv_poly(a, b)
        rep = audit_dgjsv(P)
        assert rep.ok
        assert list(rep.violations.items()) == [(name, 0.0) for name in AUDIT_NAMES]
        assert (rep.K, rep.c0_ratio) == (K, c0_ratio)
        text = json.dumps(P.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("a, b, n, digest", [
        (0.05, 1e-2, 12, "67853898acf0be66868218fd592de5325a63eb705d19a60602973243886ff14e"),
        (0.05, 1e-4, 18, "d1094ad267cbbda890f530ebaa49cb6ca6d03d8f1356084b123c728e1a608e11"),
        (0.1, 1e-2, 12, "ac22731cca20b60a1f31b2267972a9e2b5ea3895ef8d0e9af2e1c857a398fa6a"),
        (0.1, 1e-4, 18, "2a4c32a6b803ad0815438b51e094e2ca9cfa39afa9b3fabae2ce88a6f7a424b6"),
        (0.2, 1e-2, 8, "b600847ad9ffb5130da430cfe445c06556da2bfc950815a8fd3c3959647b5c61"),
        (0.2, 1e-4, 12, "3f418ac06bf954f7d3ccf5586ddf11316ba29c305286416f89f693ce19244539"),
    ])
    def test_inverse_sqrt_factor(self, a, b, n, digest):
        cs, lo, hi = _interp_inverse_sqrt(a, math.sqrt(b) / 24)
        assert (cs.dtype, len(cs), lo, hi) == (np.float64, n, 0.9 * a, 1.08)
        assert hashlib.sha256(cs.tobytes()).hexdigest() == digest


class TestDegreeSearch:
    """Probe rejection picks the degree the full-grid search picks."""

    @pytest.mark.parametrize("a, b", [(0.3, 0.1), (0.15, 1e-3), (0.07, 1e-3)])
    def test_same_coefficients_as_full_grid_search(self, a, b):
        got = dgjsv_poly.__wrapped__(a, b).d_cheb
        assert got.tobytes() == full_grid_dgjsv(a, b).tobytes()

    @pytest.mark.parametrize("where, value, want, passes", [
        (3, 2.0, False, 3),  # off both subgrids: only the full grid sees it
        (16, 2.0, False, 2),  # on the every-8th subgrid
        (3, 1.0, True, 3),  # equal to the target passes
        (0, math.nan, False, 3),  # NaN never rejects on a subgrid, and fails on the grid
    ])
    def test_within(self, where, value, want, passes):
        err = np.full(8001, 0.5)
        err[where] = value
        seen = []
        assert _within(lambda s: seen.append(s) or err[s], 1.0) is want
        assert len(seen) == passes


@st.composite
def chebval_inputs(draw):
    """Series of 1-600 terms at points inside and outside [-1, 1] (some not finite),
    in 0, 1 or 2 dimensions."""
    rng = philox(draw(st.integers(0, 2 ** 32 - 1)))
    n_coeffs = draw(st.integers(1, 600))
    top = draw(st.integers(-40, 40))
    coeffs = rng.uniform(-1.0, 1.0, n_coeffs) * np.exp2(rng.integers(top - 60, top + 1, n_coeffs))
    shape = draw(st.sampled_from([(0,), (1,), (2,), (8001,), (20004,), (), (3, 7)]))
    x = rng.uniform(-1.0, 1.0, shape) * draw(st.sampled_from([1.0, 1.5, 16.0]))
    if x.size and draw(st.booleans()):
        x.flat[rng.integers(0, x.size, 3)] = [math.nan, math.inf, -math.inf]
    return coeffs, x


class TestChebval:
    @settings(max_examples=150, deadline=None)
    @given(chebval_inputs())
    def test_matches_numpy_bit_for_bit(self, case):
        coeffs, x = case
        with np.errstate(all="ignore"):
            got, want = _chebval(x, coeffs), nch.chebval(x, coeffs)
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == want.dtype
        assert (np.asarray(got).view(np.int64) == want.view(np.int64)).all()

    def test_strided_input(self):
        coeffs = dgjsv_poly(0.05, 1e-4).d_cheb
        x = np.linspace(-1.0, 1.0, 8001)
        assert _chebval(x[::8], coeffs).tobytes() == _chebval(x, coeffs)[::8].tobytes()


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

    @pytest.mark.parametrize("d_cheb, a, b, message", [
        ([], 0.2, 0.01, "d_cheb must be a non-empty list"),
        ([[1.0, 2.0]], 0.2, 0.01, "d_cheb must be a non-empty list"),
        ([1.0, math.nan], 0.2, 0.01, "d_cheb has a non-finite coefficient"),
        ([math.inf], 0.2, 0.01, "d_cheb has a non-finite coefficient"),
        ([1.0], 0.0, 0.01, "a must lie in (0, 1), got 0.0"),
        ([1.0], 1.0, 0.01, "a must lie in (0, 1), got 1.0"),
        ([1.0], math.nan, 0.01, "a must lie in (0, 1), got nan"),
        ([1.0], 0.2, -0.5, "b must lie in (0, 1), got -0.5"),
        ([1.0], 0.2, math.inf, "b must lie in (0, 1), got inf"),
    ])
    def test_bad_input_rejected(self, d_cheb, a, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            UnivariatePoly(d_cheb, a, b)
        data = {"kind": "dgjsv", "degree": 2, "a": a, "b": b,
                "cheb_coefficients": [repr(float(c)) for c in np.ravel(d_cheb)]}
        if np.ndim(d_cheb) == 1:
            with pytest.raises(ValueError, match=re.escape(message)):
                UnivariatePoly.from_json(data)


class TestAuditOnce:
    def test_kept_audit_equals_a_fresh_one(self):
        for a in (0.05, 0.1, 0.2):
            for b in (1e-2, 1e-4):
                p = dgjsv_poly(a, b)
                kept = audit_dgjsv(p)
                fresh = audit_dgjsv(UnivariatePoly(p.d_cheb.copy(), p.a, p.b))
                for field in dataclasses.fields(kept):
                    got, want = getattr(kept, field.name), getattr(fresh, field.name)
                    assert type(got) is type(want) and got == want, field.name
                assert list(kept.violations) == list(fresh.violations)

    def test_one_grid_pass_per_construction_attempt(self, monkeypatch):
        built, audited = [], []

        class Counted(UnivariatePoly):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def count(fn, log):
            def wrapped(self, *args):
                log.append(self)
                return fn(self, *args)
            return wrapped

        monkeypatch.setattr(sandwich_poly, "UnivariatePoly", Counted)
        monkeypatch.setattr(Counted, "__call__", count(UnivariatePoly.__call__, audited))
        for a, b in [(0.05, 1e-4), (0.2, 1e-2), (0.37, 0.3)]:
            built.clear()
            audited.clear()
            p = dgjsv_poly.__wrapped__(a, b)  # past the (a, b) cache
            assert built and built[-1] is p
            assert audited == built  # one inner-grid pass per attempt, none twice
            rep = audit_dgjsv(p)
            assert rep.ok and audited == built

    def test_constructed_polynomial_is_audited_on_first_call(self, monkeypatch):
        p = dgjsv_poly(0.2, 1e-2)
        outside = []
        log2_outside = UnivariatePoly._log2_outside
        monkeypatch.setattr(UnivariatePoly, "_log2_outside",
                            lambda self, xs: outside.append(self) or log2_outside(self, xs))
        for q in (UnivariatePoly(p.d_cheb, p.a, p.b), UnivariatePoly.from_json(p.to_json())):
            outside.clear()
            first = audit_dgjsv(q)
            assert len(outside) == 2
            assert audit_dgjsv(q) == first == audit_dgjsv(p)
            assert len(outside) == 2
        audit_dgjsv(p)
        assert len(outside) == 2

    def test_returned_violations_are_a_copy(self):
        p = dgjsv_poly(0.2, 1e-2)
        audit_dgjsv(p).violations["p2_on[-1,-a]"] = 1.0
        assert audit_dgjsv(p).violations["p2_on[-1,-a]"] == 0.0

    def test_coefficients_are_read_only(self):
        p = dgjsv_poly(0.2, 1e-2)
        with pytest.raises(ValueError, match="read-only"):
            p.d_cheb[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            p.d_cheb *= 2.0
        mine = np.array(p.d_cheb)
        q = UnivariatePoly(mine, p.a, p.b)
        mine[0] = 5.0  # the caller's array stays writable and q keeps its copy
        assert q.d_cheb[0] == p.d_cheb[0] and not q.d_cheb.flags.writeable

    @pytest.mark.parametrize("name", ["d_cheb", "a", "b", "degree"])
    def test_attributes_cannot_be_rebound(self, name):
        p = UnivariatePoly([0.5, 0.25], 0.2, 1e-2)
        first = audit_dgjsv(p)
        with pytest.raises(AttributeError, match=f"UnivariatePoly.{name} is read-only"):
            setattr(p, name, getattr(p, name))
        assert audit_dgjsv(p) == first


def assert_same_audit(got, want):
    """Field by field, every value of the same type and the same repr (so the same bits)."""
    assert list(got.violations) == list(want.violations)
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if field.name == "violations":
            g, w = list(g.values()), list(w.values())
        else:
            g, w = [g], [w]
        assert [(type(v), repr(v)) for v in g] == [(type(v), repr(v)) for v in w], field.name


OUTER = np.arange(1.0, _AUDIT_XMAX + _AUDIT_STEP / 2, _AUDIT_STEP)


def undecided_rows(poly) -> int:
    """Outer rows whose growth bound passes the envelope, so the audit evaluates them."""
    return int((poly._log2_bound(OUTER) > poly.degree * np.log2(4.0 * OUTER)).sum())


def random_series(seed):
    """2 to 200 coefficients in [-1, 1), scaled by 2^0 to 2^600."""
    rng = philox(seed)
    n = int(rng.integers(2, 201))
    return rng.uniform(-1.0, 1.0, n) * 2.0 ** int(rng.integers(0, 601))


FILTER_CASES = {
    **{f"power-{k}": [0.0, 0.0, 2.0 ** k] for k in range(40)},
    **{f"random-{seed}": random_series(seed) for seed in range(16)},
    "zero": [0.0], "zeros": [0.0] * 7, "one": [1.0], "minus-three": [-3.0],
    "subnormal": [2.0 ** -1074],
    # the largest float, in a series long enough for the bound to decide rows
    "float-max": [sys.float_info.max] * 1100,
}


class TestAuditFilter:
    """The outer rows the growth bound decides change no bit of the audit."""

    @pytest.mark.parametrize("a, b", [(a, b) for a in (0.05, 0.1, 0.2) for b in (1e-2, 1e-4)])
    def test_criterion_7_polynomials(self, a, b):
        p = dgjsv_poly(a, b)
        want = full_grid_audit(p)
        assert_same_audit(audit_dgjsv(UnivariatePoly(p.d_cheb, a, b)), want)
        assert_same_audit(audit_dgjsv(p), want)
        assert undecided_rows(p) == 0

    @pytest.mark.parametrize("name", sorted(FILTER_CASES))
    def test_constructed_series(self, name):
        p = UnivariatePoly(FILTER_CASES[name], 0.2, 1e-2)
        with np.errstate(all="ignore"):
            want = full_grid_audit(p)
            assert_same_audit(audit_dgjsv(p), want)

    def test_cases_reach_every_outcome(self):
        """Cases where the bound decides no row, some rows and every row, and failing p6."""
        polys = {name: UnivariatePoly(c, 0.2, 1e-2) for name, c in FILTER_CASES.items()}
        undecided = {name: undecided_rows(p) for name, p in polys.items()}
        assert {name for name, u in undecided.items() if u == 0} >= {"power-0", "zeros"}
        assert {name for name, u in undecided.items() if 0 < u < len(OUTER)} >= {
            "power-1", "zero", "float-max"}
        assert undecided["power-2"] == len(OUTER)
        with np.errstate(all="ignore"):
            kinds = {(undecided[name] == 0,
                      audit_dgjsv(polys[name]).violations["p6_envelope_log2"] > 0)
                     for name in FILTER_CASES if name.startswith("random")}
        assert kinds >= {(True, False), (False, True)}


@st.composite
def bound_inputs(draw):
    """Series up to 2^1023: random, equal (fastest growth at x > 0) or alternating (x < 0)."""
    rng = philox(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 600))
    top = draw(st.integers(-1074, 1023))
    shape = draw(st.sampled_from(["random", "equal", "alternating"]))
    if shape == "random":
        coeffs = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(top - 60, top + 1, n))
    else:
        coeffs = np.full(n, 2.0 ** top)
        if shape == "alternating":
            coeffs[1::2] *= -1.0
    return coeffs, np.concatenate([[1.0, _AUDIT_XMAX], rng.uniform(1.0, _AUDIT_XMAX, 62)])


class TestGrowthBound:
    @settings(max_examples=150, deadline=None)
    @given(bound_inputs())
    def test_bound_covers_both_signs(self, case):
        coeffs, ax = case
        p = UnivariatePoly(coeffs, 0.2, 1e-2)
        bound = p._log2_bound(ax)
        assert np.isfinite(bound).all()
        for x in (ax, -ax):
            log2p = p._log2_outside(x)
            assert (log2p <= bound).all()  # so log2 P is finite, or -inf at P = 0


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
        gp = GeneralizedPolynomial([10.0, 1.0], 3.0, part, P, q=4)
        # x0 = -1: theta' = 13 > t*tail_norm -> FAR, p = (z/13)^4
        assert gp.evaluate([-1.0, 1.0]) == pytest.approx((1.0 / 13.0) ** 4)
        # theta' < 0 FAR branch is the constant 1
        gp2 = GeneralizedPolynomial([10.0, 1.0], -3.0, part, P, q=4)
        assert gp2.evaluate([1.0, 1.0]) == 1.0

    def test_far_at_z_equal_theta_prime_is_one(self):
        P = dgjsv_poly(0.5, 0.1)
        part = RegularityPartition(head=(0,), t_scale=5.0, tail_norm=0.05,
                                  tail_regular=True, delta=0.25)
        gp = GeneralizedPolynomial([2.0, 1.0], 3.0, part, P, q=6)
        # theta' = 3 - 2 = 1, z = 1: (z/theta')^q = 1 on the boundary
        assert gp.evaluate([1.0, 1.0]) == pytest.approx(1.0)

    def test_bad_branch_is_one(self):
        # near-critical tail at tiny delta is irregular
        coords = [RAD] * 4
        part = head_partition([1.0, 1.0, 1.0, 1.0], coords, delta=1e-6,
                              t=5.0, L=1)
        assert not part.tail_regular
        P = dgjsv_poly(0.5, 0.1)
        gp = GeneralizedPolynomial([1.0] * 4, 0.0, part, P, q=2)
        assert gp.evaluate([1.0, -1.0, 1.0, -1.0]) == 1.0

    @staticmethod
    def scalar_reference(gp, x):
        """The per-point evaluation: the halfspace's own margin m, a Python tail
        sum z, theta' = z - m, one branch and one P call."""
        m = Halfspace(tuple(gp.weights), gp.theta).margin(x)
        z = float(sum(gp.weights[j] * x[j] for j in gp._tail))
        theta_prime = z - m
        part = gp.partition
        if part.tail_norm == 0.0:
            return "ZERO", 1.0 if m >= 0 else 0.0
        event = part.classify(theta_prime)
        if event == "BAD":
            return event, 1.0
        if event == "NEAR":
            return event, float(gp.P(m / (2.0 * part.t_scale * part.tail_norm)))
        if theta_prime <= 0:
            return "FAR-", 1.0
        return "FAR+", (z / theta_prime) ** gp.q

    @pytest.mark.parametrize("tail_regular,tail_norm", [(True, 0.1), (False, 0.1), (True, 0.0)])
    def test_evaluate_batch_matches_scalar_bit_for_bit(self, tail_regular, tail_norm):
        P = dgjsv_poly(0.5, 0.1)
        part = RegularityPartition(head=(0,), t_scale=5.0, tail_norm=tail_norm,
                                  tail_regular=tail_regular, delta=0.25)
        gp = GeneralizedPolynomial([10.0, 1.0, -0.75], 3.0, part, P, q=6)
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
        gp = GeneralizedPolynomial([10.0, 1000.0], 3.0, part, dgjsv_poly(0.5, 0.1), q=1024)
        # theta' = 13, z = 1e5: (z/theta')^1024 is far past the float range
        with pytest.raises(OverflowError):
            gp.evaluate_batch([[0.0, 0.0], [-1.0, 100.0]])
        with pytest.raises(OverflowError):
            gp.evaluate([-1.0, 100.0])

    def test_head_picks_largest_terms(self):
        part = head_partition([1.0, 5.0, 2.0, 1.0], [RAD] * 4, delta=0.25,
                              t=5.0, L=2)
        assert part.head == (1, 2)

    def test_negative_head_budget_rejected(self):
        with pytest.raises(ValueError, match="^head budget L must be nonnegative$"):
            head_partition([1.0, 5.0, 2.0, 1.0], [RAD] * 4, delta=0.25, t=5.0, L=-1)

    @pytest.mark.parametrize("L", [1, 4, 5])
    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
    def test_delta_checked_even_with_an_empty_tail(self, delta, L):
        with pytest.raises(ValueError, match="^delta must be finite and positive, got "):
            head_partition([1.0, 5.0, 2.0, 1.0], [RAD] * 4, delta=delta, t=5.0, L=L)


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

    @pytest.mark.parametrize("kw,message", [
        (dict(d=0), "need an integer d >= 1, got d=0"),
        (dict(d=1.5), "need an integer d >= 1, got d=1.5"),
        (dict(t=math.nan), "need t > 4 and finite, got t=nan"),
        (dict(t=math.inf), "need t > 4 and finite, got t=inf"),
    ])
    def test_d_and_t_validation_names_the_parameter(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_upper_poly([1.0] * 6, 0.0, CUBE6_COORDS, **dict(BUILD_KW, **kw))

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

    @staticmethod
    def build_law3():
        # NEAR and FAR rows on a non-dyadic law
        kw = dict(delta=0.5, t=8.0, T=4096, d=2, L=2)
        cases = [([1.0] * 7, 6.0), ([3.0, -1.0, 0.5, 1.0, -2.0, 1.0, 0.25], 2.5),
                 ([0.5, 1.0, -1.0, 2.0, 1.0, -0.5, 1.0], 3.0),
                 ([40.0] + [1.0] * 6, 10.0), ([1.0] * 7, -1.0)]
        polys = [build_upper_poly(w, th, LAW3_COORDS, **kw) for w, th in cases]
        return polys, [Halfspace(tuple(w), th) for w, th in cases]

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

    def test_factor_certifications_equal_certify_upper(self):
        # the one-factor pass gives each factor's certificate at the product's d
        law3 = self.build_law3()
        runs = [(*self.build_pair(), CUBE6, (0, 1))] + [
            (*law3, LAW3_DIST, idx) for idx in [(0, 1), (1, 2), (2, 3, 4)]]
        for polys, hs, dist, idx in runs:
            res = hybrid_product([polys[i] for i in idx], [hs[i] for i in idx], dist)
            for i, cert in zip(idx, res.certifications, strict=True):
                assert certify_upper(polys[i], hs[i], dist, len(idx)) == cert

    def test_degenerate_single_factor(self):
        polys, hs = self.build_pair()
        res = hybrid_product(polys[:1], hs[:1], CUBE6)
        cert = res.certifications[0]
        assert res.bound == pytest.approx(2 * cert.eps0 + 3 * math.sqrt(cert.gamma))

    def test_golden_values_on_non_dyadic_law(self):
        # recorded at the per-point evaluation; NEAR and FAR rows, d = 2 and 3
        polys, hs = self.build_law3()
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

    def test_each_indicator_is_read_once_per_block(self, monkeypatch):
        rows, blocks = [], []
        evaluate, evaluate_batch = Halfspace.evaluate, Halfspace.evaluate_batch

        def per_row(self, x):
            rows.append(x)
            return evaluate(self, x)

        def per_block(self, X):
            blocks.append(len(X))
            return evaluate_batch(self, X)

        for name, fn in [("evaluate", per_row), ("__call__", per_row),
                         ("evaluate_batch", per_block)]:
            monkeypatch.setattr(Halfspace, name, fn)
        polys, hs = self.build_law3()
        res = hybrid_product(polys[2:], hs[2:], LAW3_DIST)
        assert res.pointwise_ok
        # the 3^7 lattice points form one block: one read per factor, none per row
        assert rows == [] and blocks == [3 ** 7] * 3

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


THIRDS = DiscreteCoordinate([-1.0, 0.5, 2.0], [Fraction(1, 3)] * 3)


class Bump:
    """1[m >= 0] + c*m^2 for the margin m: an upper sandwich that passes 1 + 1/d^2."""

    order = 2

    def __init__(self, w, theta, c):
        self.w, self.theta, self.c = w, theta, c

    def __call__(self, x):
        m = sum(wi * xi for wi, xi in zip(self.w, x)) - self.theta
        return float(m >= 0) + self.c * m * m


class TestOvershootMass:
    """Certificates with Pr[p > 1 + 1/d^2] > 0 on a law with a thirds coordinate.

    The values were recorded with the point-by-point float loop that the
    running sums replaced; the overshoot mass is a float sum of rounded
    probabilities, which an exact sum would round differently here.
    """

    DIST = ProductDistribution([THIRDS, RAD, THIRDS, LAW3, RAD])
    CASES = [((1.0, 1.0, -0.5, 1.0, 0.5), 0.5, 0.02), ((0.5, -1.0, 1.0, 0.25, 1.0), -0.5, 0.03)]

    def build(self):
        return [Bump(*c) for c in self.CASES], [Halfspace(w, th) for w, th, _ in self.CASES]

    @staticmethod
    def hexed(cert):
        return (cert[0], *(v.hex() for v in cert[1:4]), cert[4])

    def test_hybrid_product(self):
        polys, hs = self.build()
        res = hybrid_product(polys, hs, self.DIST)
        certs, pointwise, gap = reference_certify(polys, [h.evaluate for h in hs], self.DIST, 2)
        assert [self.hexed(dataclasses.astuple(c)) for c in res.certifications] \
            == [self.hexed(c) for c in certs] == [
                (True, "0x1.bd70a3d70a3d9p-4", "0x1.f49f49f49f49fp-4", "0x1.1186b9bf6a471p+0", 2),
                (True, "0x1.8f2b020c49ba8p-3", "0x1.16c16c16c16c0p-2", "0x1.3e387064167e1p+0", 2)]
        assert (res.pointwise_ok, res.measured_gap.hex()) == (pointwise, gap.hex()) \
            == (True, "0x1.f2317a372d7c0p-3")
        assert (res.bound.hex(), res.order) == ("0x1.c299711208392p+2", 4)

    @pytest.mark.parametrize("i, d, want", [
        (0, 1, ("0x1.bd70a3d70a3d9p-4", "0x0.0p+0", "0x1.f0feb22fb5320p-1")),
        (0, 3, ("0x1.bd70a3d70a3d9p-4", "0x1.360b60b60b60ap-2", "0x1.1eb7969224dd5p+0")),
        (1, 1, ("0x1.8f2b020c49ba8p-3", "0x1.3e93e93e93e94p-6", "0x1.1d7f546c346fcp+0")),
        (1, 2, ("0x1.8f2b020c49ba8p-3", "0x1.16c16c16c16c0p-2", "0x1.3e387064167e1p+0")),
        (1, 3, ("0x1.8f2b020c49ba8p-3", "0x1.c71c71c71c718p-2", "0x1.5648c87cd71c8p+0")),
    ])
    def test_certify_upper(self, i, d, want):
        polys, hs = self.build()
        cert = dataclasses.astuple(certify_upper(polys[i], hs[i].evaluate, self.DIST, d))
        (ref,), _, _ = reference_certify(polys[i:i + 1], [hs[i].evaluate], self.DIST, d)
        assert self.hexed(cert) == self.hexed(ref) == (True, *want, d)

    def test_an_exact_overshoot_mass_would_differ(self):
        polys, hs = self.build()
        cert = certify_upper(polys[1], hs[1].evaluate, self.DIST, 3)
        exact = exact_expectation(lambda x: int(polys[1](x) > 1 + 1 / 9), self.DIST)
        assert cert.gamma < float(exact)


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

    def test_order_must_be_given_for_a_plain_callable(self):
        with pytest.raises(ValueError, match="order must be given"):
            lower_from_upper(lambda x: 1.0)
        assert lower_from_upper(lambda x: 1.0, order=3).order == 3

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


def tie_theta(rng, w, x, head):
    """A threshold on a tie at x: the one rule's own product, the head-order
    sum the sandwich used to read, or one ulp either side of the product."""
    own = float(np.ascontiguousarray(x) @ np.ascontiguousarray(w))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return own
    if kind == 1:
        order = list(head) + [j for j in range(len(w)) if j not in head]
        return float(sum(w[j] * x[j] for j in order))
    return float(np.nextafter(own, -np.inf if kind == 2 else np.inf))


def tie_system(rng, n, d, rows):
    """A system whose thresholds sit on ties of some row, under the margin rule
    (a column's own 1-D dot) for some columns and the old whole-row product for
    the others, and its points."""
    W = rng.standard_normal((n, d))
    X = rng.choice([-1.0, -0.5, 0.5, 1.0], (rows, n))
    x = X[int(rng.integers(0, rows))]
    old = x @ W
    Theta = [old[i] if rng.random() < 0.5 else x @ np.ascontiguousarray(W[:, i])
             for i in range(d)]
    return HalfspaceSystem(W, Theta, list(rng.random(d) < 0.3)), X


def random_tree(rng, d, depth):
    if depth == 0 or rng.random() < 0.2:
        return DecisionTree.leaf_node(int(rng.integers(0, 2)))
    return DecisionTree.branch(int(rng.integers(0, d)), random_tree(rng, d, depth - 1),
                               random_tree(rng, d, depth - 1))


class TestTiesUnderTheMarginRule:
    """Every reader of a halfspace splits a tie the way `HalfspaceSystem` does."""

    def test_and_sum_equals_the_tree_on_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            system, X = tie_system(rng, int(rng.integers(2, 64)), int(rng.integers(2, 6)), 4)
            tree = random_tree(rng, system.d, 4)
            terms = tree_to_and_sum(tree, system)
            for x in X:
                assert and_sum_evaluate(terms, x) == tree.evaluate(system.sign_vector(x))

    BRANCHES = {  # head size, tail_regular, t_scale, tail_norm, sign of the tail sum
        "ZERO": ("all", True, 5.0, 0.0, 1.0),
        "NEAR": (2, True, 1e6, 1.0, 1.0),
        "BAD": (2, False, 1e6, 1.0, 1.0),
        "FAR+": (2, True, 5.0, 1e-300, 1.0),
        "FAR-": (2, True, 5.0, 1e-300, -1.0),
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_upper_above_and_lower_below_h_on_ties(self, branch):
        head_size, regular, t_scale, tail_norm, tail_sign = self.BRANCHES[branch]
        P, rng, events = dgjsv_poly(0.5, 0.1), np.random.default_rng(1), set()
        for _ in range(200):
            n = int(rng.integers(3, 40))
            L = n if head_size == "all" else head_size
            head = tuple(int(j) for j in rng.permutation(n)[:L])
            w = rng.standard_normal(n)
            x = rng.choice([-1.0, -0.5, 0.5, 1.0], n)
            tail = [j for j in range(n) if j not in head]
            w[tail] = np.abs(w[tail])
            x[tail] = tail_sign * np.abs(x[tail])  # fixes the sign of the tail sum
            theta = tie_theta(rng, w, x, head)
            part = RegularityPartition(head, t_scale, tail_norm, regular, 0.25)
            p = GeneralizedPolynomial(w, theta, part, P, q=6)
            p_l = lower_from_upper(GeneralizedPolynomial(-w, -theta, part, P, q=6))
            h = Halfspace(tuple(w), theta).evaluate(x)
            event, value = TestPartitionAndBranches.scalar_reference(p, x.tolist())
            events.add(event)
            assert p.evaluate(x) >= h
            assert p_l.evaluate(x) <= h
            assert p.evaluate(x) == value
        assert events == {branch}

    def test_empty_tail_sandwich_is_h_on_ties(self):
        # build_upper_poly with L = n and theta on the one rule's own product
        rng, below = np.random.default_rng(0), 0
        for _ in range(300):
            n = int(rng.integers(3, 9))
            w = rng.standard_normal(n)
            x = rng.choice([-1.0, 1.0], n)
            theta = float(HalfspaceSystem(w, [0.0]).row_products(x[None])[0, 0])
            p = build_upper_poly(w, theta, [RAD] * n, **dict(BUILD_KW, L=n))
            below += p.evaluate(x) < Halfspace(tuple(w), theta).evaluate(x)
        assert below == 0


class TestDimensionChecks:
    """The law, the generator and every factor that knows its n must agree."""

    def test_certify_upper_with_a_callable_h(self):
        p = build_upper_poly([1.0] * 5, 1.0, [RAD] * 5, **BUILD_KW)
        with pytest.raises(ValueError, match=re.escape("dimensions differ: law n=6, p[0] n=5")):
            certify_upper(p, lambda x: int(sum(x[:5]) >= 2), CUBE6, 2)

    @pytest.mark.parametrize("law_n", [6, 4])
    def test_certify_upper_with_a_halfspace(self, law_n):
        p = build_upper_poly([1.0] * 5, 1.0, [RAD] * 5, **BUILD_KW)
        h = Halfspace((1.0,) * 5, 1.0)
        with pytest.raises(ValueError, match=re.escape(
                f"dimensions differ: law n={law_n}, p[0] n=5, h[0] n=5")):
            certify_upper(p, h, ProductDistribution([RAD] * law_n), 2)

    def test_hybrid_product_names_every_factor(self):
        p6 = build_upper_poly([1.0] * 6, 1.0, CUBE6_COORDS, **BUILD_KW)
        p5 = build_upper_poly([1.0] * 5, 1.0, [RAD] * 5, **BUILD_KW)
        with pytest.raises(ValueError, match=re.escape(
                "dimensions differ: law n=6, p[0] n=6, p[1] n=5, h[0] n=6, h[1] n=7")):
            hybrid_product([p6, p5], [Halfspace((1.0,) * 6, 1.0), Halfspace((1.0,) * 7, 1.0)],
                           CUBE6)

    def test_kwise_fooling_check_law_against_generator(self):
        w = (1.0, 1.0, -1.0, 1.0, 1.0)
        h = Halfspace(w, 1.0)
        p_u = margin_square_upper(list(w), 1.0)
        p_l = lower_from_upper(margin_square_upper([-wi for wi in w], -1.0))
        gen = MZGenerator([[-1.0, 1.0]] * 6, t=1, k=4)
        with pytest.raises(ValueError, match=re.escape(
                "dimensions differ: law n=5, generator n=6")):
            kwise_fooling_check(h.evaluate, p_l, p_u, ProductDistribution([RAD] * 5), gen, 4)

    def test_kwise_fooling_check_reads_sandwich_sizes(self):
        p_u = build_upper_poly([1.0] * 5, 1.0, [RAD] * 5, **BUILD_KW)
        p_l = lower_from_upper(build_upper_poly([-1.0] * 5, -1.0, [RAD] * 5, **BUILD_KW))
        gen = MZGenerator([[-1.0, 1.0]] * 6, t=1, k=6)
        h = Halfspace((1.0,) * 6, 1.0)
        for f in (h, h.evaluate):
            with pytest.raises(ValueError, match=re.escape(
                    "dimensions differ: law n=6, generator n=6, f n=6, p_l n=5, p_u n=5")):
                kwise_fooling_check(f, p_l, p_u, CUBE6, gen, 5)


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

    @pytest.mark.parametrize("theta,e_true,eps", [
        (1.0, 0.34375, 0.6397945717253664),
        (0.0, 0.65625, 0.650537400996531),
    ])
    def test_golden_values_generalized_polynomials(self, theta, e_true, eps):
        # recorded with the per-point gaps; floats bit for bit
        w = [1.0, 1.0, -1.0, 1.0, 1.0, -1.0]
        p_u = build_upper_poly(w, theta, CUBE6_COORDS, **BUILD_KW)
        p_l = lower_from_upper(build_upper_poly([-wi for wi in w], -theta, CUBE6_COORDS,
                                                **BUILD_KW))
        chk = kwise_fooling_check(Halfspace(tuple(w), theta).evaluate, p_l, p_u, CUBE6,
                                  self.kgen(6), order=p_u.order)
        assert (chk.e_true, chk.e_kwise, chk.gap, chk.sandwich_eps, chk.order) \
            == (e_true, e_true, 0.0, eps, 6)

    @pytest.mark.parametrize("fname,want", [
        ("halfspace", (0.20125, 0.466796875, 0.26554687499999996, 0.8802921706063447)),
        ("float", (1.0862499999999997, 0.654296875, 0.4319531249999997, 1.7652921706063451)),
        ("mixed", (0.41124999999999984, 0.5320312499999951, 0.12078124999999523,
                   1.0902921706063446)),
    ])
    def test_golden_values_non_dyadic_law(self, fname, want):
        # recorded with a separate lattice pass for E f and for the gaps
        w = (0.3, -1.1, 0.7, 0.45, -0.2)
        h = Halfspace(w, 0.1)
        f = {"halfspace": h.evaluate,
             "float": lambda x: 0.3 * x[1] * x[1] + h.evaluate(x),
             "mixed": lambda x: 0.3 if x[1] > 0.7 else h.evaluate(x)}[fname]
        p_u = margin_square_upper(list(w), 0.1)
        p_l = lower_from_upper(margin_square_upper([-wi for wi in w], -0.1))
        dist = ProductDistribution([RAD, LAW3, RAD, LAW3, RAD])
        gen = MZGenerator([[-1.0, -0.5, 0.5, 1.0]] * 5, t=1, k=4)
        calls = []
        chk = kwise_fooling_check(lambda x: calls.append(x.tobytes()) or f(x), p_l, p_u,
                                  dist, gen, order=4)
        assert (chk.e_true, chk.e_kwise, chk.gap, chk.sandwich_eps, chk.order, chk.k) \
            == want + (4, 4)
        # one call per lattice point, then one per distinct generator row (one seed chunk)
        rows = gen.expand(seed_range(0, 1 << gen.seed_bits, gen.seed_bits))
        assert (1 << gen.seed_bits) <= harness.SEED_CHUNK
        assert len(calls) == 2 * 3 * 2 * 3 * 2 + len({r.tobytes() for r in rows})

    def test_one_batch_call_of_P_per_sandwich_and_block(self, monkeypatch):
        coords, kw = [RAD] * 4, dict(BUILD_KW, delta=0.5)  # a regular 3-term tail
        w = [1.0, 1.0, -1.0, 1.0]
        p_u = build_upper_poly(w, 1.0, coords, **kw)
        p_l = lower_from_upper(build_upper_poly([-wi for wi in w], -1.0, coords, **kw))
        calls = []
        original = UnivariatePoly.__call__

        def counted(self, x):
            calls.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(UnivariatePoly, "__call__", counted)
        monkeypatch.setattr(harness, "TAIL_BLOCK", 4)  # 16 points in 4 blocks of 4
        gen = MZGenerator([[-1.0, 1.0]] * 4, t=1, k=4)
        chk = kwise_fooling_check(Halfspace(tuple(w), 1.0).evaluate, p_l, p_u,
                                  ProductDistribution(coords), gen, order=p_u.order)
        assert chk.ok
        # every row is NEAR for both sandwiches: the per-point gaps made 32 calls
        assert calls == [4] * 8

    def test_full_independence_zero_gap_exactly(self):
        w = (1.0, 1.0, -1.0, 1.0, 1.0, -1.0)
        h = Halfspace(w, 1.0)
        p_u = margin_square_upper(list(w), 1.0)
        p_l = lower_from_upper(margin_square_upper([-wi for wi in w], -1.0))
        chk = kwise_fooling_check(h.evaluate, p_l, p_u, CUBE6, self.kgen(6), order=6)
        assert chk.gap == 0.0
