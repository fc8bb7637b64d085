"""Sandwiching machinery for halfspaces under bounded independence.

The step approximator P(x) here satisfies, for parameters 0 < a, b < 1:

    P >= 0 on (-inf, -1],   0 <= P <= b on [-1, -a],
    0 <= P <= 1 on [-a, 0], 1 <= P <= 1+b on [0, 1],
    P >= 1 on [1, inf),     P(x) <= (4x)^K for |x| >= 1,

with even degree K <= C0 * log2(2/b) / a for the pinned constant C0.
Structure: P = (1 + x*D(x)^2)^2 where D is a Chebyshev interpolant of a
Gaussian-smoothed step times an inverse-square-root factor.  The squares
make P >= 1[x >= 0] hold pointwise by construction (exactly, even in
floats); the six range properties are enforced by a dense grid audit, so
the internal recipe is replaceable.  On the outer grid, 1 <= |x| <= 8, a
proven growth bound of the Chebyshev recurrence decides the rows it keeps
under the envelope, and only the rows it cannot decide are evaluated, with
results identical to evaluating every row.  The audit is kept with the
polynomial, whose coefficients are read-only, so each polynomial is audited
once.

A single halfspace's upper sandwich splits on the head assignment: BAD
(irregular tail near the threshold) takes the constant 1, NEAR scales P to
the tail, FAR takes 1 when the shifted threshold is nonpositive and the
even power (z/theta')^q otherwise.  Products of certified upper
polynomials sandwich intersections with gap 2*d*eps0 + 3*d^2*sqrt(gamma).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as nch
from scipy.special import ndtr, ndtri

from .distributions import ProductDistribution
from .halfspace import DecisionTree, Halfspace, HalfspaceSystem
from .harness import WeightedSum, block_values, expectation_over_seeds, product_lattice
from .regularity import TermNorms, check_delta, is_delta_regular

# Calibrated ceiling for K * a / log2(2/b) over the supported parameter
# range; the audit reports the measured ratio for every constructed P.
DGJSV_C0 = 12.0

_AUDIT_STEP = 1e-4
_AUDIT_TOL = 1e-9
_AUDIT_XMAX = 8.0
_BOUND_MARGIN = 4.0  # bits over the growth bound of UnivariatePoly._log2_bound
_PROBE_STRIDES = (64, 8)  # subgrids a degree candidate must pass before the full grid


class DGJSVError(RuntimeError):
    """Construction failed its own grid audit."""


class CertificationError(RuntimeError):
    """A hybrid-product precondition failed on exact enumeration."""


class OrderViolation(ValueError):
    """Sandwich order exceeds the independence of the test space."""


# ---------------------------------------------------------------------------
# scaled Chebyshev evaluation (|x| > 1 overflows float64 at high degree)


_CLENSHAW_BLOCK = 8192  # rows per block: the recurrence's arrays stay in L2
_RESCALE_LIMIT = 2.0 ** 500


def _clenshaw_scaled(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw with exponent tracking; returns (mantissa, exp2).

    A row whose |b1| passes 2^500 is divided by 2^500 and its exponent e
    grows by 500; later coefficients enter that row as c_k * 2.0**-e.  That
    is ldexp(c_k, -e) bit for bit: the scale is an exact power of two down
    to 2^-1000 and 0.0 from 2^-1500 on, where ldexp(c_k, -e) rounds to the
    same signed zero for |c_k| < 2^425.  Rows are independent, so the
    recurrence runs in place on one block of rows at a time.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    exp2 = np.zeros(flat.shape, dtype=np.int32)
    for lo in range(0, len(flat), _CLENSHAW_BLOCK):
        xs, e = flat[lo:lo + _CLENSHAW_BLOCK], exp2[lo:lo + _CLENSHAW_BLOCK]
        b1, b2, tmp = (np.zeros_like(xs) for _ in range(3))
        two_x = 2.0 * xs
        scale = 1.0  # every e of the block is 0 until its first rescale
        for k in range(len(coeffs) - 1, 0, -1):
            np.multiply(two_x, b1, out=tmp)
            tmp -= b2
            tmp += coeffs[k] * scale
            b1, b2, tmp = tmp, b1, b2
            big = np.abs(b1) > _RESCALE_LIMIT
            if big.any():
                b1[big] = np.ldexp(b1[big], -500)
                b2[big] = np.ldexp(b2[big], -500)
                e[big] += 500
                scale = np.ldexp(1.0, -e)
        res = xs * b1
        res -= b2
        res += coeffs[0] * scale
        out[lo:lo + _CLENSHAW_BLOCK] = res
    return out.reshape(x.shape), exp2.reshape(x.shape)


def _chebval(x, c):
    """`nch.chebval(x, c)` bit for bit: numpy's recurrence and operand order, in place."""
    if len(c) < 3 or np.ndim(x) != 1 or len(x) < 2:  # in-place ops are slow on one element
        return nch.chebval(x, c)
    x = np.asarray(x, dtype=float)
    x2 = x * 2
    c0, c1, spare = np.full_like(x, c[-2]), np.full_like(x, c[-1]), np.empty_like(x)
    for i in range(3, len(c) + 1):
        np.subtract(c[-i], c1, out=spare)  # c0 = c[-i] - c1
        c1 *= x2
        np.add(c0, c1, out=c1)  # c1 = c0_old + c1*x2
        c0, spare = spare, c0
    c1 *= x
    return np.add(c0, c1, out=c1)


def _within(err, target: float) -> bool:
    """max(err(slice(None))) <= target, rejected first on strided subgrids.

    A point's error is the same float in any subset, so a subset's max over
    target is the grid's.  A NaN rejects on the full grid only.
    """
    if any(np.max(err(slice(None, None, s))) > target for s in _PROBE_STRIDES):
        return False
    return bool(np.max(err(slice(None))) <= target)


def _log2_abs(mant: np.ndarray, e: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log2(np.abs(mant)) + e


# ---------------------------------------------------------------------------
# the step approximator


@dataclass(frozen=True)
class DGJSVAudit:
    ok: bool
    violations: dict
    K: int
    c0_ratio: float


class UnivariatePoly:
    """The structured step approximator P(x) = (1 + x D(x)^2)^2, D a Chebyshev series.

    The coefficients of D are a read-only copy and no attribute can be
    rebound, so the grid audit that `audit_dgjsv` keeps with the polynomial
    describes it for good.
    """

    def __init__(self, d_cheb: np.ndarray, a: float, b: float):
        coeffs = np.array(d_cheb, dtype=float)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValueError("d_cheb must be a non-empty list of coefficients")
        if not np.isfinite(coeffs).all():
            raise ValueError("d_cheb has a non-finite coefficient")
        for name, value in (("a", a), ("b", b)):
            if not 0 < float(value) < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        coeffs.flags.writeable = False
        self.d_cheb = coeffs
        self.a = float(a)
        self.b = float(b)
        self.degree = 2 * (2 * (len(self.d_cheb) - 1) + 1)
        self._audit: DGJSVAudit | None = None  # set by the first audit_dgjsv call

    def __setattr__(self, name, value):
        if name != "_audit" and name in self.__dict__:
            raise AttributeError(f"UnivariatePoly.{name} is read-only")
        object.__setattr__(self, name, value)

    def __call__(self, x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        inside = np.abs(xs) <= 1.0
        if inside.any():
            d = _chebval(xs[inside], self.d_cheb)
            ahat = 1.0 + xs[inside] * d * d
            out[inside] = ahat * ahat
        if (~inside).any():
            log2p = self._log2_outside(xs[~inside])
            vals = np.where(log2p > 1023, np.inf, np.exp2(np.minimum(log2p, 1023)))
            out[~inside] = vals
        return float(out[0]) if scalar else out

    def _log2_outside(self, xs: np.ndarray) -> np.ndarray:
        """log2 of P on |x| > 1 (P >= 0 always, so no sign is kept)."""
        mant, e = _clenshaw_scaled(self.d_cheb, xs)
        log2_z = np.log2(np.abs(xs)) + 2.0 * _log2_abs(mant, e)  # z = x * D^2
        log2_ahat = np.empty_like(xs)
        pos = xs > 0
        log2_ahat[pos] = np.logaddexp2(0.0, log2_z[pos])  # 1 + |z|
        neg = ~pos
        lz = log2_z[neg]
        big = lz > 60
        small = lz < -60
        mid = ~(big | small)
        la = np.empty_like(lz)
        la[big] = lz[big]
        la[small] = 0.0
        with np.errstate(divide="ignore"):
            la[mid] = np.log2(np.abs(1.0 - np.exp2(lz[mid])))
        log2_ahat[neg] = la
        return 2.0 * log2_ahat

    def _log2_bound(self, ax: np.ndarray) -> np.ndarray:
        """An upper bound on `_log2_outside` at x and at -x, for 1 <= ax = |x| <= 8.

        Proof, in real arithmetic first.  Let g = 2|x| >= 2 and c >= max|c_k|.
        After j steps the Clenshaw value of `_clenshaw_scaled` obeys
        |b_j| <= M_j, where M_0 = M_-1 = 0 and M_j = g*M_{j-1} + M_{j-2} + c.
        With r = (g + sqrt(g^2 + 4))/2, so r^2 = g*r + 1 and r >= g, the sums
        S_j = 1 + r + ... + r^(j-1) obey S_j = g*S_{j-1} + S_{j-2} + (1 + r - g)
        with 1 + r - g >= 1, so M_j <= c*S_j by induction.  The last step
        D = x*b_1 - b_2 + c_0 has |x| <= g, so |D| <= M_n <= B = c*r^n/(r - 1)
        for n = len(d_cheb).  Then z = x*D^2 and P = (1 + z)^2 give
        log2 P <= 2*log2(1 + |z|) <= 2*(max(0, log2|x| + 2*log2 B) + 1) at x
        and at -x.

        In floats the same holds up to a margin, with c at least 2^-1022,
        the smallest normal float.  A step rounds three operations to nearest
        and enters c_k as fl(c_k * 2^-e).  In unscaled terms each rounding
        errs by at most 2^-53 of its result, or by 2^(e - 1075) where it
        underflows; that is at most 2^-52 of M_j too, since M_j >= c, M_j
        grows with j, and a row has e > 0 only after its value passed 2^e.
        So a computed row stays below (1 + 2^-50)^j * M_j, under a bit more
        for n < 2^48.  The log2 arithmetic here and in `_log2_outside` errs
        by a few ulps on values of at most 1024 + 5n bits, again under a
        bit; `_BOUND_MARGIN` adds four.

        No row overflows, whatever its finite coefficients, so log2 P is
        finite or -inf on every row.  A row with e = 0 starts each step at most
        2^500 in size (`_clenshaw_scaled` rescales it otherwise), so the step
        adds at most 17 * 2^500 to c_k: the sum stays below 2^1023, or the
        addition is under half an ulp of c_k and rounds to c_k.  A rescaled
        row starts a step below 2^524 and takes c_k * 2^-e < 2^524.
        """
        c = max(float(np.max(np.abs(self.d_cheb))), np.finfo(float).tiny)
        g = 2.0 * ax
        r = 0.5 * (g + np.sqrt(g * g + 4.0))
        log2_b = math.log2(c) + len(self.d_cheb) * np.log2(r) - np.log2(r - 1.0)
        return 2.0 * (np.maximum(0.0, np.log2(ax) + 2.0 * log2_b) + 1.0) + _BOUND_MARGIN

    def to_json(self) -> dict:
        return {"kind": "dgjsv", "degree": self.degree, "a": self.a, "b": self.b,
                "cheb_coefficients": [repr(float(c)) for c in self.d_cheb]}

    @classmethod
    def from_json(cls, data: dict) -> "UnivariatePoly":
        if data["kind"] != "dgjsv":
            raise ValueError(f"unknown polynomial kind {data['kind']!r}")
        return cls([float(c) for c in data["cheb_coefficients"]], data["a"], data["b"])


def _interp_inverse_sqrt(a: float, rel_target: float) -> tuple[np.ndarray, float, float]:
    """Chebyshev series for t^(-1/2) on [0.9a, 1.08] at relative error rel_target."""
    lo, hi = 0.9 * a, 1.08
    ts = np.linspace(a, 1.02, 3000)
    deg = 4
    while deg <= 400:
        cs = _cheb_interp_ab(lambda t: 1.0 / np.sqrt(t), deg, lo, hi)
        if _within(lambda s: np.abs(_chebval_ab(cs, ts[s], lo, hi) * np.sqrt(ts[s]) - 1.0),
                   rel_target):
            return cs, lo, hi
        deg = int(deg * 1.5) + 1
    raise DGJSVError("inverse-sqrt factor did not converge")


def _cheb_interp_ab(func, deg: int, lo: float, hi: float) -> np.ndarray:
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return nch.chebinterpolate(lambda u: func(mid + half * u), deg)


def _chebval_ab(coeffs: np.ndarray, t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return _chebval((np.asarray(t, dtype=float) - mid) / half, coeffs)


@functools.cache
def dgjsv_poly(a: float, b: float) -> UnivariatePoly:
    """Construct the step approximator for (a, b) and audit it on the grid.

    Raises DGJSVError if any of the six properties fails at tolerance
    1e-9; the error is never silent.  Constructions are cached by (a, b).
    The returned polynomial keeps the audit it passed, so
    `audit_dgjsv(dgjsv_poly(a, b))` runs the grid once.
    """
    if not (0 < a < 1 and 0 < b < 1):
        raise ValueError("need 0 < a < 1 and 0 < b < 1")
    sqrt_b = math.sqrt(b)
    r_cheb, rlo, rhi = _interp_inverse_sqrt(a, sqrt_b / 24)
    x0 = -a / 2.0
    e_step = sqrt_b / 16.0
    w0 = (a / 2.0) / float(ndtri(1.0 - e_step))

    left = np.unique(np.concatenate([np.linspace(-1.0, -a, 4001), [-1.0, -a]]))
    midg = np.linspace(-a, 0.0, 2001)[1:-1]
    right = np.linspace(0.0, 1.0, 4001)[1:]
    right_budget = 0.85 * (math.sqrt(1.0 + b) - 1.0)

    for attempt in range(10):
        w = w0 * 0.85 ** attempt

        def d_target(x):
            return ndtr((x0 - np.asarray(x, dtype=float)) / w) * _chebval_ab(
                r_cheb, -np.asarray(x, dtype=float), rlo, rhi)

        dense = np.linspace(-1.0, 1.0, 8001)
        want = d_target(dense)
        deg = 8
        d_cheb = None
        while deg <= 6000:
            cand = nch.chebinterpolate(d_target, deg)
            tail = np.abs(cand) > 1e-17 * np.max(np.abs(cand))
            cand = cand[: max(2, int(np.nonzero(tail)[0].max()) + 1)]
            if _within(lambda s: np.abs(_chebval(dense[s], cand) - want[s]), sqrt_b / 24):
                d_cheb = cand
                break
            deg = int(deg * 1.4) + 1
        if d_cheb is None:
            continue

        dl = _chebval(left, d_cheb)
        dm = _chebval(midg, d_cheb)
        dr = _chebval(right, d_cheb)
        ok = (np.max(np.abs(1.0 + left * dl * dl)) <= 0.85 * sqrt_b
              and np.max(np.abs(midg) * dm * dm) <= 1.9
              and np.max(right * dr * dr) <= right_budget)
        if not ok:
            continue

        poly = UnivariatePoly(d_cheb, a, b)
        if audit_dgjsv(poly).ok:
            return poly

    raise DGJSVError(f"no construction passed the audit for a={a}, b={b}")


def audit_dgjsv(poly: UnivariatePoly) -> DGJSVAudit:
    """Check the six range/growth properties on the dense grid.

    The inner grid, [-1, 1], is evaluated row by row.  On the outer grid,
    1 <= |x| <= 8, the closed-form growth bound of `UnivariatePoly._log2_bound`
    decides every row it keeps under the envelope K*log2(4|x|), and only the
    rows it cannot decide are evaluated.  The result is bit for bit the
    audit of the full grid.

    The first call on a polynomial computes the audit and keeps it with the
    polynomial; later calls return it without a second grid pass, each with
    its own copy of `violations`.  A polynomial cannot change after it is
    built, so the kept audit stays valid.  One from `dgjsv_poly` comes audited;
    one from the constructor or `from_json` is audited on its first call.
    """
    kept = poly._audit
    if kept is not None:
        return replace(kept, violations=dict(kept.violations))
    a, b, K = poly.a, poly.b, poly.degree
    inner = np.arange(-1.0, 1.0 + _AUDIT_STEP / 2, _AUDIT_STEP)
    inner = np.unique(np.concatenate([inner, [-1.0, -a, 0.0, 1.0]]))
    vals = poly(inner)
    viol: dict[str, float] = {}

    def check(name, mask, low=None, high=None):
        worst = 0.0
        if mask.any():
            v = vals[mask]
            if low is not None:
                worst = max(worst, float(np.max(low - v)))
            if high is not None:
                worst = max(worst, float(np.max(v - high)))
        viol[name] = worst

    check("p2_on[-1,-a]", (inner >= -1) & (inner <= -a), low=0.0, high=b)
    check("p3_on[-a,0]", (inner >= -a) & (inner <= 0), low=0.0, high=1.0)
    check("p4_on[0,1]", (inner >= 0) & (inner <= 1), low=1.0, high=1.0 + b)

    outer = np.arange(1.0, _AUDIT_XMAX + _AUDIT_STEP / 2, _AUDIT_STEP)
    envelope = K * np.log2(4.0 * outer)
    # A row whose growth bound is under the envelope passes p1, p5 and p6
    # on both signs whatever its exact values: they are finite, P >= 1 right
    # of 1, and log2 P stays under the envelope.  Only the other rows are
    # evaluated, so every maximum below is the full grid's.
    rest = poly._log2_bound(outer) > envelope
    outer, envelope = outer[rest], envelope[rest]
    log2p_pos = poly._log2_outside(outer)
    log2p_neg = poly._log2_outside(-outer)
    # P >= 0 everywhere and P >= 1 right of 1 are structural; confirm finite
    viol["p1_left_nonneg"] = 0.0 if np.all(np.isfinite(log2p_neg) | (log2p_neg == -np.inf)) else math.inf
    viol["p5_right_ge1"] = float(max(0.0, np.max(1.0 - np.exp2(np.minimum(log2p_pos, 60)),
                                                 initial=0.0)))
    gap = np.maximum(log2p_pos - envelope, log2p_neg - envelope)
    viol["p6_envelope_log2"] = float(max(0.0, np.max(gap, initial=0.0)))

    ok = all(v <= _AUDIT_TOL for v in viol.values())
    c0_ratio = K * a / math.log2(2.0 / b)
    poly._audit = DGJSVAudit(ok, viol, K, c0_ratio)
    return DGJSVAudit(ok, dict(viol), K, c0_ratio)


# ---------------------------------------------------------------------------
# single-halfspace upper sandwich


@dataclass(frozen=True)
class RegularityPartition:
    """Head coordinates plus the BAD/NEAR/FAR classifier over theta'."""

    head: tuple[int, ...]
    t_scale: float
    tail_norm: float
    tail_regular: bool
    delta: float

    def classify(self, theta_prime: float) -> str:
        if abs(theta_prime) > self.t_scale * self.tail_norm:
            return "FAR"
        return "NEAR" if self.tail_regular else "BAD"


class GeneralizedPolynomial:
    """Order-k upper sandwich for one halfspace, evaluable pointwise."""

    def __init__(self, weights: Sequence[float], theta: float,
                 partition: RegularityPartition, P: UnivariatePoly, q: int):
        self.weights = np.asarray(weights, dtype=float)
        self.theta = float(theta)
        self.partition = partition
        self.P = P
        self.q = q
        self.n = len(self.weights)
        self.L = len(partition.head)
        self.K = P.degree
        self._head = list(partition.head)
        self._tail = [j for j in range(self.n) if j not in partition.head]

    @property
    def order(self) -> int:
        return min(self.L + max(self.K, self.q), self.n)

    def evaluate(self, x: Sequence[float]) -> float:
        return float(self.evaluate_batch([x])[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """The sandwich at every row of an (N, n) array.

        Each row gets the float arithmetic of a scalar evaluation: head and
        tail sums run over the columns in index order from zero, and P is
        called once, on the NEAR rows.  A FAR power (z/theta')^q too large
        for a float raises OverflowError, as Python's float ** int does.
        """
        X = np.asarray(X, dtype=float)
        head_sum = np.zeros(len(X))
        for j in self._head:
            head_sum += self.weights[j] * X[:, j]
        z = np.zeros(len(X))
        for j in self._tail:
            z += self.weights[j] * X[:, j]
        theta_prime = self.theta - head_sum
        part = self.partition
        if part.tail_norm == 0.0:
            return (theta_prime <= 0).astype(float)
        out = np.ones(len(X))  # BAD rows and FAR rows with theta' <= 0
        far = np.abs(theta_prime) > part.t_scale * part.tail_norm
        near = ~far
        if part.tail_regular and near.any():
            scale = 2.0 * part.t_scale * part.tail_norm
            out[near] = self.P((z[near] - theta_prime[near]) / scale)
        power = far & (theta_prime > 0)
        out[power] = [(zi / ti) ** self.q
                      for zi, ti in zip(z[power].tolist(), theta_prime[power].tolist())]
        return out

    __call__ = evaluate


def head_partition(weights: Sequence[float], coords, delta: float, t: float,
                   L: int) -> RegularityPartition:
    """Top-L coordinates by term 2-norm (ties to the smallest index)."""
    check_delta(delta)  # an empty tail (L >= n) makes no verdict that would check it
    if L < 0:
        raise ValueError("head budget L must be nonnegative")
    moments = np.array([c.moments() for c in coords], dtype=float).reshape(-1, 3)
    norms = TermNorms.from_weights(weights, moments[:, 1], moments[:, 2])
    order = norms.order()
    tail = order[L:]
    tail_norm = math.sqrt(math.fsum(norms.two_norm_sq[tail].tolist())) if tail.size else 0.0
    tail_regular = bool(tail.size) and is_delta_regular(norms, delta, tail)
    return RegularityPartition(tuple(order[:L].tolist()), t, tail_norm, tail_regular, delta)


def build_upper_poly(weights: Sequence[float], theta: float, coords,
                     *, delta: float, t: float, T: int, d: int, L: int
                     ) -> GeneralizedPolynomial:
    """Upper sandwich for 1[w.x >= theta] at the stated analysis parameters.

    a = 16 C0 d log2(td) / T with C0 = DGJSV_C0 must come out below 1 (else
    T is too small for this d, t); b = min(1/d^2, 1/t^4); q = T/(2d) rounded
    down to even.
    """
    if t <= 4:
        raise ValueError("need t > 4")
    if T < 2 or T % 2:
        raise ValueError("T must be a positive even integer")
    a = 16.0 * DGJSV_C0 * d * math.log2(t * d) / T
    if a >= 1:
        raise ValueError(f"a={a:.3f} >= 1: T={T} too small for d={d}, t={t}")
    b = min(1.0 / d ** 2, 1.0 / t ** 4)
    q = (T // (2 * d)) // 2 * 2
    partition = head_partition(weights, coords, delta, t, L)
    P = dgjsv_poly(a, b)
    if 2 * d * P.degree > T:
        raise ValueError(f"constructed degree K={P.degree} exceeds T/(2d); increase T")
    return GeneralizedPolynomial(weights, theta, partition, P, q)


# ---------------------------------------------------------------------------
# certification and products


@dataclass(frozen=True)
class UpperCertification:
    pointwise_ok: bool
    eps0: float       # E[p - h]
    gamma: float      # Pr[p > 1 + 1/d^2]
    norm2d: float     # E[p^(2d)]^(1/(2d))
    d: int

    def ok(self) -> bool:
        return (self.pointwise_ok and self.eps0 >= 0
                and self.norm2d <= 1.0 + 2.0 / self.d ** 2 + 1e-12)


def _block_values(p, X: np.ndarray) -> list[float]:
    """p at every row of a block (`harness.block_values`), as floats."""
    return list(map(float, block_values(p, X)))


def _certify(polys: Sequence, halfspaces: Sequence, dist: ProductDistribution,
             d: int) -> tuple[tuple[UpperCertification, ...], bool, float]:
    """One pass over the lattice: each factor's preconditions, and the product's.

    Every factor p_i and its indicator h_i is evaluated once per block, as
    floats; each factor's gap, overshoot mass and 2d-th-power sum and the
    gap of the running products of p and of h (a product can overflow a
    2d-th power where no factor does) are `WeightedSum`s fed floats, so
    they add in lattice order as a point-by-point float loop does.  Each
    block's probabilities w / den are divided once and shared by every sum.
    """
    if d < 1:
        raise ValueError(f"need at least one factor, got d={d}")
    thresh, power = 1.0 + 1.0 / d ** 2, 2 * d
    den, blocks = product_lattice(dist)
    sums = [(WeightedSum(den), WeightedSum(den), WeightedSum(den)) for _ in polys]
    below = [False] * len(polys)  # p_i < h_i at some point
    gap, prod_below = WeightedSum(den), False
    for X, weights in blocks:
        probs = [w / den for w in weights]
        p_prod = h_prod = [1.0] * len(X)
        for i, (p, h, (gap_i, gamma_i, pow_i)) in enumerate(zip(polys, halfspaces, sums)):
            pvs, hvs = _block_values(p, X), _block_values(h, X)
            below[i] = below[i] or any(map(operator.lt, pvs, hvs))
            gap_i.add_floats(map(operator.sub, pvs, hvs), probs)
            gamma_i.add_floats([float(pv > thresh) for pv in pvs], probs)
            pow_i.add_floats([pv ** power for pv in pvs], probs)
            p_prod = list(map(operator.mul, p_prod, pvs))
            h_prod = list(map(operator.mul, h_prod, hvs))
        prod_below = prod_below or any(map(operator.lt, p_prod, h_prod))
        gap.add_floats(map(operator.sub, p_prod, h_prod), probs)
    certs = tuple(UpperCertification(not b, gap_i.value, gamma_i.value,
                                     pow_i.value ** (1.0 / power), d)
                  for b, (gap_i, gamma_i, pow_i) in zip(below, sums))
    return certs, not prod_below, gap.value


def certify_upper(p: Callable[[Sequence[float]], float],
                  h: Callable[[Sequence[float]], int],
                  dist: ProductDistribution, d: int) -> UpperCertification:
    """Exact enumeration of the four hybrid-product preconditions."""
    return _certify([p], [h], dist, d)[0][0]


@dataclass(frozen=True)
class HybridResult:
    order: int
    bound: float
    measured_gap: float
    pointwise_ok: bool
    certifications: tuple[UpperCertification, ...]


def hybrid_product(polys: Sequence, halfspaces: Sequence,
                   dist: ProductDistribution) -> HybridResult:
    """Product upper sandwich for the intersection, with the certified budget.

    Every factor must pass the four preconditions exactly (pointwise >=,
    small expectation gap, rare overshoot of 1 + 1/d^2, bounded 2d-norm);
    the resulting bound is 2 d eps0 + 3 d^2 sqrt(gamma) with eps0 and gamma
    the measured maxima.  Factors and indicators are read a block at a
    time through `harness.block_values`.
    """
    d = len(polys)
    if d < 1:
        raise ValueError("hybrid_product needs at least one factor")
    if len(halfspaces) != d:
        raise ValueError("need one halfspace per factor")
    certs, pointwise, gap = _certify(polys, halfspaces, dist, d)
    for cert in certs:
        if not cert.ok():
            raise CertificationError(f"factor failed certification: {cert}")
    eps0 = max(c.eps0 for c in certs)
    gamma = max(c.gamma for c in certs)
    bound = 2 * d * eps0 + 3 * d * d * math.sqrt(gamma)
    order = sum(getattr(p, "order", dist.n) for p in polys)
    return HybridResult(min(order, dist.n), bound, gap, pointwise, certs)


@dataclass(frozen=True)
class LowerSandwich:
    """p_l = 1 - p_u(negation): a pointwise lower bound for the original f."""

    upper_for_negation: Callable[[Sequence[float]], float]
    order: int

    def evaluate(self, x) -> float:
        return 1.0 - float(self.upper_for_negation(x))

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return 1.0 - np.array(_block_values(self.upper_for_negation, X))

    __call__ = evaluate


def lower_from_upper(p_u_negation, order: int | None = None) -> LowerSandwich:
    if order is None:
        order = getattr(p_u_negation, "order", None)
        if order is None:
            raise ValueError("lower_from_upper: order must be given for an upper "
                             "sandwich with no order attribute")
    return LowerSandwich(p_u_negation, order)


def tree_to_and_sum(tree: DecisionTree, system: HalfspaceSystem) -> list[list[Halfspace]]:
    """One AND of (possibly negated) halfspaces per 1-leaf; the sum is f."""
    terms = []
    for path, leaf in tree.paths():
        if leaf != 1:
            continue
        term = []
        for hs_index, bit in path:
            h = system.halfspace(hs_index)
            term.append(h if bit else h.negation())
        terms.append(term)
    return terms


def and_sum_evaluate(terms: Sequence[Sequence[Halfspace]], x) -> int:
    total = 0
    for term in terms:
        val = 1
        for h in term:
            val &= h.evaluate(x)
        total += val
    return total


@dataclass(frozen=True)
class FoolingCheck:
    e_true: float
    e_kwise: float
    gap: float
    sandwich_eps: float
    order: int
    k: int

    @property
    def ok(self) -> bool:
        return self.gap <= self.sandwich_eps + 1e-12


def kwise_fooling_check(f: Callable[[Sequence[float]], int],
                        p_l, p_u, dist: ProductDistribution,
                        kwise_gen, order: int) -> FoolingCheck:
    """Exact check of |E f(X) - E f(Y)| <= sandwich gap for a k-wise Y.

    The mechanism is junta-expectation matching: every summand of an
    order-k polynomial sees identical k-marginals under X and Y, so the
    sandwich gap survives the change of measure.  E f and both gaps are
    summed over one pass of `product_lattice` blocks, reading f, p_u and
    p_l once per block through `harness.block_values`.
    """
    if order > kwise_gen.k:
        raise OrderViolation(f"sandwich order {order} exceeds k={kwise_gen.k}")
    den, blocks = product_lattice(dist)
    total, gap_u, gap_l = WeightedSum(den), WeightedSum(den), WeightedSum(den)
    for X, weights in blocks:
        fvs = block_values(f, X)
        total.add(fvs, weights)
        gap_u.add(map(operator.sub, _block_values(p_u, X), fvs), weights)
        gap_l.add(map(operator.sub, fvs, _block_values(p_l, X)), weights)
    e_true = float(total.value)
    e_kwise = float(expectation_over_seeds(f, kwise_gen))
    eps = max(float(gap_u.value), float(gap_l.value))
    return FoolingCheck(e_true, e_kwise, abs(e_true - e_kwise), eps, order, kwise_gen.k)
