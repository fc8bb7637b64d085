"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance.  Exact
checks carry zero tolerance; Monte Carlo checks state their confidence
radii explicitly.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from conftest import all_inputs, expand_all, kwise_seeds, philox, random_monotone_robp
from hsprg.distributions import (
    DiscreteCoordinate,
    GaussianCoordinate,
    ProductDistribution,
    discretize_coordinate,
    standardize_multiset,
)
from hsprg.gf2 import KWiseFamily
from hsprg.halfspace import CombinerSpec, Halfspace, HalfspaceSystem
from hsprg.harness import (
    OrthantSet,
    berry_esseen_probe,
    spherical_cap_probability,
    sphere_transfer,
)
from hsprg.hashing import HashFamily, collision_stats, isolation_bound
from hsprg.mzgen import MZGenerator
from hsprg.regularity import TermNorms, critical_index, is_delta_regular
from hsprg.robp import (
    compose_monotone_sandwich,
    halfspace_to_robp,
    product_robp,
    sandwich_monotone,
)
from hsprg.sandwich_poly import (
    DGJSV_C0,
    audit_dgjsv,
    build_upper_poly,
    dgjsv_poly,
    hybrid_product,
    kwise_fooling_check,
)

RAD = DiscreteCoordinate.rademacher()


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_kwise_exactness():
    """Every k-marginal over all seeds equals uniform exactly (m<=3, n<=8, k<=5)."""
    t0 = time.perf_counter()
    checked = 0
    for m in (1, 2, 3):
        n = min(8, 1 << m)
        for k in range(1, 6):
            fam = KWiseFamily(m=m, k=k, n=n)
            outs = [tuple(expand_all(fam, s)) for s in kwise_seeds(fam)]
            size = min(k, n)
            want = len(outs) // (1 << (m * size))
            for pos in itertools.combinations(range(n), size):
                hist = Counter(tuple(o[j] for j in pos) for o in outs)
                assert len(hist) == 1 << (m * size)
                assert all(v == want for v in hist.values())
                checked += 1
    report(1, True, f"{checked} marginals exactly uniform "
                    f"({time.perf_counter() - t0:.1f}s)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_hash_family():
    """Affine family: b = 1 exactly; isolation failure <= b*l^2/(2t)."""
    t0 = time.perf_counter()
    worst_excess = -1.0
    subsets_checked = 0
    for n in (16, 64):
        for t in (2, 4, 8):
            fam = HashFamily(n, t)
            stats = collision_stats(fam)
            assert stats.max_single_prob == Fraction(1, t)
            assert stats.max_pair_prob == Fraction(1, t)
            assert stats.b_certified == 1
            table = fam._value_table()
            size = table.shape[0]
            # complete subset sweep on GF(16); on GF(64) every pair plus all
            # larger sets inside a 12-position window (the family is
            # index-symmetric under its affine action)
            window = range(n) if n == 16 else range(12)
            for ell in (2, 3, 4):
                bound = isolation_bound(1, ell, t)
                for S in itertools.combinations(window, ell):
                    cols = table[:, S]
                    bad = np.zeros(size, dtype=bool)
                    for i, j in itertools.combinations(range(ell), 2):
                        bad |= cols[:, i] == cols[:, j]
                    p = Fraction(int(bad.sum()), size)
                    assert p <= bound
                    worst_excess = max(worst_excess, float(p - bound))
                    subsets_checked += 1
            if n == 64:
                for i, j in itertools.combinations(range(n), 2):
                    coll = Fraction(int((table[:, i] == table[:, j]).sum()), size)
                    assert coll == Fraction(1, t)
    report(2, True, f"b=1 certified on GF(16)/GF(64), t in {{2,4,8}}; "
                    f"{subsets_checked} isolation sets within bound "
                    f"(worst slack {-worst_excess:.3f}, {time.perf_counter() - t0:.1f}s)")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_discretization():
    """Gaussian, n=8, C=3, eps=0.1: SD <= gamma exactly, moment drift in budget."""
    t0 = time.perf_counter()
    rep = discretize_coordinate(GaussianCoordinate(), n=8, C=3.0, eps=0.1)
    B, g = rep.truncation.B, rep.gamma
    assert rep.sd_lower_upper <= Fraction(g)
    assert rep.mean_drift <= 2 * B * g + 1e-9
    assert rep.second_moment_drift <= 2 * B * B * g + 1e-9
    mean, m2, m4 = rep.alphabet_moments
    assert abs(mean) <= 1e-9
    assert abs(m2 - 1.0) <= 1e-9
    assert m4 <= 3.0 + 2 * B ** 4 * g + 1e-9
    report(3, True, f"gamma=2^{int(math.log2(g))}, SD={float(rep.sd_lower_upper):.3g} "
                    f"<= gamma, |E y|={mean:.2e}, |E y^2-1|={abs(m2 - 1):.2e}, "
                    f"E y^4={m4:.6f} <= {3 + 2 * B ** 4 * g:.6f} "
                    f"({time.perf_counter() - t0:.1f}s)")


# -- 4 ----------------------------------------------------------------------

def brute_force_critical_index(sigma2, four4, delta):
    order = sorted(range(len(sigma2)), key=lambda j: (-sigma2[j], j))
    s2 = [sigma2[j] for j in order]
    s4 = [four4[j] for j in order]
    for ell in range(len(s2)):
        if sum(s4[ell:]) <= delta * sum(s2[ell:]) ** 2:
            return ell
    return math.inf


def test_criterion_04_critical_index_oracle():
    """critical_index matches the definition-level scan on 1000 random sequences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20100913)
    cases = 0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        w = np.exp(rng.normal(0, 2, size=n))
        m4 = rng.uniform(1.0, 3.0, size=n)
        norms = TermNorms.from_weights(w, np.ones(n), m4)
        for delta in (0.05, 0.1, 0.25):
            ell, _ = critical_index(norms, delta)
            want = brute_force_critical_index(
                [x * x for x in w], [x ** 4 * m for x, m in zip(w, m4)], delta)
            assert ell == want
            cases += 1
    report(4, True, f"{cases} (sequence, delta) cases match brute force exactly "
                    f"({time.perf_counter() - t0:.1f}s)")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_halfspace_robp_equivalence():
    """100 random halfspaces, n <= 12: program equals sign evaluation on all inputs."""
    t0 = time.perf_counter()
    rng = philox(505)
    mismatches = 0
    for case in range(100):
        n = int(rng.integers(4, 13))
        w = rng.normal(size=n)
        theta = float(rng.normal())
        program, _ = halfspace_to_robp(w, theta, [[-1, 1]] * n)
        for z in all_inputs(1, n):
            x = [(-1.0, 1.0)[zi] for zi in z]
            direct = int(sum(wi * xi for wi, xi in zip(w, x)) >= theta)
            if program.eval(z) != direct:
                mismatches += 1
    report(5, mismatches == 0,
           f"100 halfspaces, zero mismatches over full cubes "
           f"({time.perf_counter() - t0:.1f}s)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_monotone_sandwich():
    """down <= B <= up pointwise and exact gap <= eps (d*eps for compositions)."""
    t0 = time.perf_counter()
    rng = philox(606)
    for case in range(50):
        T = int(rng.integers(4, 11))
        width = int(rng.integers(4, 17))
        eps = float(rng.choice([0.25, 0.5]))
        B = random_monotone_robp(rng, T=T, max_width=width)
        pair = sandwich_monotone(B, eps)
        for z in all_inputs(1, T):
            d, m, u = pair.down.eval(z), B.eval(z), pair.up.eval(z)
            assert d <= m <= u
        assert pair.gap() <= Fraction(eps)
    maj3 = [0, 0, 0, 1, 0, 1, 1, 1]
    for case in range(10):
        d = int(rng.integers(1, 4))
        T = 6
        eps = 0.25
        programs = [random_monotone_robp(rng, T=T, max_width=6) for _ in range(d)]
        table = maj3 if d == 3 else ([0, 0, 0, 1] if d == 2 else [0, 1])
        pair = compose_monotone_sandwich(table, programs, eps)
        for z in all_inputs(1, T):
            bits = sum(p.eval(z) << i for i, p in enumerate(programs))
            f = table[bits]
            assert pair.down.eval(z) <= f <= pair.up.eval(z)
        assert pair.gap() <= Fraction(d) * Fraction(eps)
    report(6, True, f"50 single + 10 composed programs sound, exact gaps in budget "
                    f"({time.perf_counter() - t0:.1f}s)")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_dgjsv_grid_audit():
    """Six properties hold at 1e-9 on [-8,8]; K <= C0 log2(2/b)/a with C0 pinned."""
    t0 = time.perf_counter()
    rows = []
    for a in (0.05, 0.1, 0.2):
        for b in (1e-2, 1e-4):
            poly = dgjsv_poly(a, b)
            audit = audit_dgjsv(poly)
            assert audit.ok, f"(a={a}, b={b}): {audit.violations}"
            assert audit.K % 2 == 0
            assert audit.c0_ratio <= DGJSV_C0
            rows.append(f"(a={a},b={b}):K={audit.K},c0={audit.c0_ratio:.1f}")
    report(7, True, "; ".join(rows) + f" <= C0={DGJSV_C0} ({time.perf_counter() - t0:.1f}s)")


# -- 8 ----------------------------------------------------------------------

class MarginPolynomial:
    """Polynomial in the (scaled) margins of up to two halfspaces.

    A monomial u1^a u2^b expands into monomials touching at most a+b input
    coordinates, so total degree <= k gives a generalized polynomial of
    order <= k.
    """

    def __init__(self, weights, thetas, coeffs, exponents, order):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.thetas = list(thetas)
        self.scales = [float(np.linalg.norm(w)) for w in self.weights]
        self.coeffs = coeffs
        self.exponents = exponents
        self.order = order

    def margins(self, x):
        xv = np.asarray(x, dtype=float)
        return [(float(w @ xv) - th) / s
                for w, th, s in zip(self.weights, self.thetas, self.scales)]

    def __call__(self, x):
        us = self.margins(x)
        total = 0.0
        for c, exps in zip(self.coeffs, self.exponents):
            term = c
            for u, e in zip(us, exps):
                term *= u ** e
            total += term
        return total

    evaluate = __call__


def lp_margin_sandwich(weights, thetas, f, n, degree=4):
    """Least-gap order-`degree` sandwich pair by linear programming.

    Exact enumeration of the cube gives the constraint rows Q(x) >= f(x)
    (upper) / <= f(x) (lower); the objective is the expectation gap.  The
    solver's feasibility slack is absorbed into the constant term so the
    pointwise property holds exactly.
    """
    from scipy.optimize import linprog

    points = list(itertools.product([-1.0, 1.0], repeat=n))
    if len(weights) == 2:
        exps = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    else:
        exps = [(a,) for a in range(degree + 1)]
    probe = MarginPolynomial(weights, thetas, [0.0] * len(exps), exps, degree)
    rows = []
    fvals = []
    for x in points:
        us = probe.margins(x)
        rows.append([math.prod(u ** e for u, e in zip(us, ex)) for ex in exps])
        fvals.append(float(f(x)))
    A = np.asarray(rows)
    fv = np.asarray(fvals)
    p = np.full(len(points), 1.0 / len(points))

    def solve(sense):
        # sense +1: minimize E[Q] s.t. Q >= f; sense -1: maximize E[Q] s.t. Q <= f
        res = linprog(c=sense * (p @ A), A_ub=-sense * A, b_ub=-sense * fv,
                      bounds=[(-1e4, 1e4)] * len(exps), method="highs")
        assert res.status == 0, res.message
        coeffs = list(res.x)
        # absorb solver slack into the constant term until the pointwise
        # property holds exactly under the polynomial's own evaluation
        for _ in range(50):
            poly = MarginPolynomial(weights, thetas, coeffs, exps, degree)
            worst = max(sense * (fval - poly(x)) for x, fval in zip(points, fvals))
            if worst <= 0:
                return poly
            coeffs[0] += sense * (worst + 1e-12)
        raise AssertionError("could not absorb LP slack")

    return solve(-1), solve(+1)  # (lower, upper)


def test_criterion_08_sandwiching_fools_kwise():
    """|E f(X) - E f(Y)| <= sandwich gap, exactly, for a 4-wise space Y."""
    t0 = time.perf_counter()
    dist = ProductDistribution.repeated(RAD, 6)
    kgen = MZGenerator([[-1.0, 1.0]] * 6, t=1, k=4)
    points = list(itertools.product([-1.0, 1.0], repeat=6))

    # single halfspace with order-4 sandwiches
    w1 = (1.0, 1.0, -1.0, 1.0, 1.0, -1.0)
    h1 = Halfspace(w1, 1.0)
    pl1, pu1 = lp_margin_sandwich([w1], [1.0], h1.evaluate, 6)
    for x in points:
        assert pl1(x) <= h1.evaluate(x) <= pu1(x)
    chk1 = kwise_fooling_check(h1.evaluate, pl1, pu1, dist, kgen, order=4)
    assert chk1.ok and chk1.sandwich_eps < 1.0

    # intersection of two halfspaces via two-margin order-4 polynomials
    w2 = (2.0, -1.0, 1.0, 1.0, -1.0, 1.0)
    h2 = Halfspace(w2, 0.0)
    f = lambda x: h1.evaluate(x) & h2.evaluate(x)
    pl2, pu2 = lp_margin_sandwich([w1, w2], [1.0, 0.0], f, 6)
    for x in points:
        assert pl2(x) <= f(x) <= pu2(x)
    chk2 = kwise_fooling_check(f, pl2, pu2, dist, kgen, order=4)
    assert chk2.ok and chk2.sandwich_eps < 1.0
    report(8, True,
           f"single: gap={chk1.gap:.5f} <= eps={chk1.sandwich_eps:.4f}; "
           f"intersection: gap={chk2.gap:.5f} <= eps={chk2.sandwich_eps:.4f} "
           f"(exact, {time.perf_counter() - t0:.1f}s)")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_hybrid_product_budget():
    """E[prod p - prod h] <= 2 d eps0 + 3 d^2 sqrt(gamma), conditions certified."""
    t0 = time.perf_counter()
    coords = [RAD] * 6
    dist = ProductDistribution(coords)
    kw = dict(delta=0.25, t=8.0, T=16384, d=2, L=1)
    w1, th1 = [1.0] * 6, 1.0
    w2, th2 = [2.0, -1.0, 1.0, 1.0, -1.0, 1.0], 0.0
    p1 = build_upper_poly(w1, th1, coords, **kw)
    p2 = build_upper_poly(w2, th2, coords, **kw)
    res = hybrid_product([p1, p2], [Halfspace(tuple(w1), th1), Halfspace(tuple(w2), th2)],
                         dist)
    assert res.pointwise_ok
    for cert in res.certifications:
        assert cert.ok()
    assert res.measured_gap <= res.bound + 1e-12
    report(9, True,
           f"gap={res.measured_gap:.4f} <= bound={res.bound:.4f} "
           f"(eps0={max(c.eps0 for c in res.certifications):.4f}, "
           f"gamma={max(c.gamma for c in res.certifications):.2e}, "
           f"norms<={max(c.norm2d for c in res.certifications):.4f}, "
           f"{time.perf_counter() - t0:.1f}s)")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_mz_fooling_trend():
    """n=32 intersection of regular halfspaces: error <= 0.05, nonincreasing in t."""
    t0 = time.perf_counter()
    n = 32
    w1 = np.ones(n)
    th1 = 1.0
    w2 = np.array([1.0 if j % 2 == 0 else -1.0 for j in range(n)])
    th2 = 0.0
    delta = 0.1
    for w in (w1, w2):
        norms = TermNorms.from_weights(w, np.ones(n), np.ones(n))
        assert is_delta_regular(norms, delta)

    B1, _ = halfspace_to_robp(list(w1), th1, [[-1, 1]] * n)
    B2, _ = halfspace_to_robp(list(w2), th2, [[-1, 1]] * n)
    exact = float(product_robp([B1, B2], lambda bits: int(all(bits)),
                               max_states=1 << 20).accept_probability())

    trials = 10 ** 6
    results = {}
    for idx, t in enumerate((4, 16, 64)):
        gen = MZGenerator([[-1.0, 1.0]] * n, t=t, k=4)
        rng = philox(1000 + idx)
        X = gen.sample_batch(rng, trials)
        p_hat = float(((X @ w1 >= th1) & (X @ w2 >= th2)).mean())
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / trials)
        results[t] = (abs(p_hat - exact), 1.96 * se)

    errs = {t: e for t, (e, _) in results.items()}
    cis = {t: c for t, (_, c) in results.items()}
    for t in (4, 16, 64):
        assert errs[t] + cis[t] <= 0.05
    # nonincreasing within noise, endpoints strictly separated
    assert errs[4] >= errs[16] - (cis[4] + cis[16])
    assert errs[16] >= errs[64] - (cis[16] + cis[64])
    assert errs[4] - cis[4] > errs[64] + cis[64]
    report(10, True,
           "errors " + ", ".join(f"t={t}: {errs[t]:.5f}+-{cis[t]:.5f}" for t in (4, 16, 64))
           + f"; exact E={exact:.5f} ({time.perf_counter() - t0:.0f}s)")


# -- 11 ---------------------------------------------------------------------

def _skew64():
    raw = [1 + math.log(k / 64) for k in range(1, 65)]
    vals, _, _ = standardize_multiset(raw)
    return DiscreteCoordinate(vals, [Fraction(1, 64)] * 64)


def _be_profile(n, dominant):
    n1 = (n + 1) // 2
    col1 = np.zeros(n)
    col2 = np.zeros(n)
    if dominant:
        col1[0] = 0.9
        col1[1:n1] = math.sqrt(0.19 / (n1 - 1))
    else:
        col1[:n1] = 1 / math.sqrt(n1)
    col2[n1:] = 1 / math.sqrt(n - n1)
    return np.column_stack([col1, col2])


def test_criterion_11_berry_esseen_trend():
    """d=2 orthant gap: dominant > equal at n=100; equal shrinks 25 -> 400."""
    t0 = time.perf_counter()
    coord = _skew64()
    quadrant = OrthantSet(np.array([0.0, 0.0]), (0, 0, 0, 1))
    reps = {}
    for name, n, dom in [("equal25", 25, False), ("equal100", 100, False),
                         ("equal400", 400, False), ("dominant100", 100, True)]:
        reps[name] = berry_esseen_probe(
            _be_profile(n, dom), ProductDistribution.repeated(coord, n),
            quadrant, trials=400_000, master_seed=1111)
    dom, eq100 = reps["dominant100"], reps["equal100"]
    eq25, eq400 = reps["equal25"], reps["equal400"]
    assert dom.gap - dom.ci95 > eq100.gap + eq100.ci95
    assert eq25.gap - eq25.ci95 > eq400.gap + eq400.ci95
    assert dom.summary.scaling_quantity > eq100.summary.scaling_quantity
    report(11, True,
           f"dominant100={dom.gap:.4f}+-{dom.ci95:.4f} > equal100={eq100.gap:.4f}; "
           f"equal25={eq25.gap:.4f} > equal400={eq400.gap:.4f} (CI-separated, "
           f"{time.perf_counter() - t0:.0f}s)")


# -- 12 ---------------------------------------------------------------------

def test_criterion_12_sphere_transfer():
    """Origin halfspace = 1/2; cap at 0.3 matches the incomplete beta at n=16."""
    t0 = time.perf_counter()
    n, trials = 16, 10 ** 6
    rng = philox(1212)
    w = rng.normal(size=(n, 1))
    origin = sphere_transfer(HalfspaceSystem(w, [0.0]), CombinerSpec.single(),
                             trials=trials, master_seed=77)
    se_half = math.sqrt(0.25 / trials)
    assert abs(origin.estimate - 0.5) <= 4 * se_half

    W = np.zeros((n, 1))
    W[0, 0] = 1.0
    cap = sphere_transfer(HalfspaceSystem(W, [0.3]), CombinerSpec.single(),
                          trials=trials, master_seed=78)
    want = spherical_cap_probability(0.3, n)
    se = math.sqrt(want * (1 - want) / trials)
    assert abs(cap.estimate - want) <= 4 * se

    # the transfer lemma's budget shape d log(n)/n^(1/4), reported alongside;
    # the measured sphere-vs-Gaussian difference sits far inside it
    gauss = rng.standard_normal((200_000, n))
    gauss_est = float((gauss @ W[:, 0] >= 0.3).mean())
    assert abs(cap.estimate - gauss_est) <= cap.budget_scale
    report(12, True,
           f"origin={origin.estimate:.5f} (target 0.5), cap={cap.estimate:.5f} "
           f"(beta closed form {want:.5f}, 4se={4 * se:.5f}); budget scale "
           f"{cap.budget_scale:.3f} ({time.perf_counter() - t0:.0f}s)")
