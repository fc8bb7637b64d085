"""Shared test helpers: reproducible RNGs, random program generators, the
brute-force monotonicity oracle, the bit-by-bit seed field reader and the
enumerations that the one-row references need (every label sequence,
every seed, every k-wise row), the full-grid DGJSV audit and degree
search, the Fraction
construction of a discrete law with the scans that read it, and the
brute-force hash collision and isolation counts."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as nch
from scipy.special import ndtr, ndtri

from hsprg.gf2 import field
from hsprg.robp import ROBP
from hsprg.sandwich_poly import _AUDIT_STEP, _AUDIT_TOL, _AUDIT_XMAX, DGJSVAudit, UnivariatePoly


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def random_monotone_robp(rng: np.random.Generator, T: int, max_width: int, D: int = 1) -> ROBP:
    """Random monotone program: per-label nondecreasing maps, up-set acceptance.

    Monotone state maps preserve the natural order layer by layer, and the
    final up-set makes the last layer an Acc chain, so the whole program is
    monotone by induction.
    """
    widths = [1] + [int(rng.integers(2, max_width + 1)) for _ in range(T)]
    n_labels = 1 << D
    trans = []
    for i in range(T):
        a, b = widths[i], widths[i + 1]
        layer = [[0] * n_labels for _ in range(a)]
        for z in range(n_labels):
            col = np.sort(rng.integers(0, b, size=a))
            for v in range(a):
                layer[v][z] = int(col[v])
        trans.append(layer)
    cutoff = int(rng.integers(0, widths[-1] + 1))
    accept = [int(v >= cutoff) for v in range(widths[-1])]
    return ROBP(trans, accept, D)


def random_robp(rng: np.random.Generator, T: int, max_width: int, D: int = 1) -> ROBP:
    widths = [1] + [int(rng.integers(2, max_width + 1)) for _ in range(T)]
    n_labels = 1 << D
    trans = [[[int(rng.integers(0, widths[i + 1])) for _ in range(n_labels)]
              for _ in range(widths[i])] for i in range(T)]
    accept = [int(rng.integers(0, 2)) for _ in range(widths[-1])]
    return ROBP(trans, accept, D)


def acc_bitsets(B: ROBP) -> list[list[int]]:
    """Accepting-suffix sets as bitsets; suffix index is label-lexicographic.

    The brute-force oracle for monotonicity; feasible for D*T up to ~20
    bits of suffix space.
    """
    out = [[int(b) for b in B.accept]]
    n_labels = 1 << B.D
    for i in reversed(range(B.T)):
        block = 1 << (B.D * (B.T - i - 1))
        nxt = out[0]
        layer = []
        for row in B.trans[i]:
            acc = 0
            for z in range(n_labels):
                acc |= nxt[row[z]] << (z * block)
            layer.append(acc)
        out.insert(0, layer)
    return out


def all_inputs(D: int, T: int):
    """Every label sequence, lexicographic; test-sized programs only."""
    return itertools.product(range(1 << D), repeat=T)


def all_seeds(gen) -> range:
    """Every integer seed of a generator or k-wise family (2^seed_bits of them)."""
    return range(1 << gen.seed_bits)


def kwise_seeds(fam):
    """Every seed of a k-wise family as its coefficient tuple, in integer order."""
    return map(fam.seed_from_int, all_seeds(fam))


def expand_all(fam, seed) -> list[int]:
    """The k-wise family's word at every position for one coefficient tuple."""
    return [fam.expand(seed, j) for j in range(fam.n)]


def unpacked_seed_fields(seeds: np.ndarray, offset: int, width: int, count: int) -> np.ndarray:
    """The oracle for ``seeds.seed_fields``: unpack the bits, then weigh them.

    ``count`` consecutive ``width``-bit fields from bit ``offset``, as a
    (size, count) int64 array.
    """
    size = len(seeds)
    if width * count == 0:
        return np.zeros((size, count), dtype=np.int64)
    first, stop = offset // 8, offset + width * count
    bits = np.unpackbits(seeds[:, first:(stop + 7) // 8], axis=1, bitorder="little")
    bits = bits[:, offset - 8 * first:stop - 8 * first].reshape(size, count, width)
    return bits @ _place_values(width)


@lru_cache(maxsize=None)
def _place_values(width: int) -> np.ndarray:
    return np.int64(1) << np.arange(width, dtype=np.int64)


def full_grid_audit(poly) -> DGJSVAudit:
    """The oracle for ``audit_dgjsv``: every row of both grids evaluated, nothing kept."""
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
    log2p_pos = poly._log2_outside(outer)
    log2p_neg = poly._log2_outside(-outer)
    viol["p1_left_nonneg"] = 0.0 if np.all(np.isfinite(log2p_neg) | (log2p_neg == -np.inf)) else math.inf
    viol["p5_right_ge1"] = float(max(0.0, np.max(1.0 - np.exp2(np.minimum(log2p_pos, 60)))))
    envelope = K * np.log2(4.0 * outer)
    gap = np.maximum(log2p_pos - envelope, log2p_neg - envelope)
    viol["p6_envelope_log2"] = float(max(0.0, np.max(gap)))

    ok = all(v <= _AUDIT_TOL for v in viol.values())
    return DGJSVAudit(ok, viol, K, K * a / math.log2(2.0 / b))


def full_grid_dgjsv(a: float, b: float) -> np.ndarray:
    """The oracle for ``dgjsv_poly``'s searches: numpy's chebval on every grid point.

    The construction as it was before probe rejection, returning the
    coefficients of D; each degree candidate is judged on its whole grid.
    """
    sqrt_b = math.sqrt(b)
    rlo, rhi = 0.9 * a, 1.08
    rmid, rhalf = 0.5 * (rhi + rlo), 0.5 * (rhi - rlo)
    ts = np.linspace(a, 1.02, 3000)
    deg = 4
    while True:
        r_cheb = nch.chebinterpolate(lambda u: 1.0 / np.sqrt(rmid + rhalf * u), deg)
        vals = nch.chebval((ts - rmid) / rhalf, r_cheb)
        if np.max(np.abs(vals * np.sqrt(ts) - 1.0)) <= sqrt_b / 24:
            break
        deg = int(deg * 1.5) + 1
        assert deg <= 400
    x0 = -a / 2.0
    w0 = (a / 2.0) / float(ndtri(1.0 - sqrt_b / 16.0))
    left = np.unique(np.concatenate([np.linspace(-1.0, -a, 4001), [-1.0, -a]]))
    midg = np.linspace(-a, 0.0, 2001)[1:-1]
    right = np.linspace(0.0, 1.0, 4001)[1:]
    for attempt in range(10):
        w = w0 * 0.85 ** attempt

        def d_target(x):
            return ndtr((x0 - x) / w) * nch.chebval((-x - rmid) / rhalf, r_cheb)

        dense = np.linspace(-1.0, 1.0, 8001)
        want = d_target(dense)
        deg = 8
        while deg <= 6000:
            cand = nch.chebinterpolate(d_target, deg)
            tail = np.abs(cand) > 1e-17 * np.max(np.abs(cand))
            cand = cand[: max(2, int(np.nonzero(tail)[0].max()) + 1)]
            if np.max(np.abs(nch.chebval(dense, cand) - want)) <= sqrt_b / 24:
                break
            deg = int(deg * 1.4) + 1
        else:
            continue
        dl, dm, dr = (nch.chebval(g, cand) for g in (left, midg, right))
        if (np.max(np.abs(1.0 + left * dl * dl)) <= 0.85 * sqrt_b
                and np.max(np.abs(midg) * dm * dm) <= 1.9
                and np.max(right * dr * dr) <= 0.85 * (math.sqrt(1.0 + b) - 1.0)
                and full_grid_audit(UnivariatePoly(cand, a, b)).ok):
            return cand
    raise AssertionError(f"no construction for a={a}, b={b}")


def reference_law(values, probs) -> dict[float, Fraction]:
    """The exact law of ``DiscreteCoordinate(values, probs)`` as Fractions, by value.

    The oracle for the coordinate's integer form: zero masses dropped, each
    probability read as a Fraction, and a repeated value (0.0 and -0.0
    alike) merged under the first one seen.
    """
    merged: dict[float, Fraction] = {}
    for v, p in zip(values, probs):
        if p == 0:
            continue
        merged[float(v)] = merged.get(float(v), Fraction(0)) + Fraction(p)
    return {v: merged[v] for v in sorted(merged)}


def reference_bucket_boundaries(law: dict, gamma: float, B: float) -> list[float]:
    """``bucket_boundaries`` of a discrete law by a Fraction CDF scan."""
    g = Fraction(gamma).denominator
    cums = list(zip(law, itertools.accumulate(law.values())))
    hits = (next((v for v, c in cums if c >= Fraction(k, g)), B) for k in range(1, g + 1))
    return [-B] + [min(max(hit, -B), B) for hit in hits]


def reference_statistical_distance(law1: dict, law2: dict) -> Fraction:
    return sum((abs(law1.get(v, 0) - law2.get(v, 0)) for v in law1.keys() | law2.keys()),
               Fraction(0)) / 2


def reference_truncation(law: dict, n: int, C: float, eps: float):
    """``truncate_and_standardize`` of a discrete law in Fractions.

    Returns (standardized law, B_raw, B, tail_mass, mu, scale, second
    moment), or None where the truncated variance is below 1/2.
    """
    B = (n * C * C / eps) ** 0.25
    kept = {v: p for v, p in law.items() if abs(v) < B}
    zero = sum((p for v, p in law.items() if abs(v) >= B), Fraction(0))
    trunc = reference_law([*kept, 0.0], [*kept.values(), zero])
    mu = math.fsum(v * float(p) for v, p in trunc.items())
    m2 = math.fsum(v * v * float(p) for v, p in trunc.items())
    if m2 - mu * mu < 0.5 - 1e-9:
        return None
    scale = math.sqrt(m2 - mu * mu)
    out = reference_law([(v - mu) / scale for v in trunc], list(trunc.values()))
    return out, B, (B + abs(mu)) / scale, float(zero), mu, scale, m2


def hash_columns(fam, positions) -> np.ndarray:
    """The bucket of every function of the family at each position, one row per position.

    Each function's (a, c) comes from ``coefficients`` in index order, and
    its bucket is ((a*x) xor c) mod t through ``mul_array``.
    """
    a, c = fam.coefficients(np.arange(fam.size, dtype=np.int64))
    f, dtype = field(fam.m), np.min_scalar_type(fam.t - 1)
    return np.array([((f.mul_array(a, x) ^ c) & (fam.t - 1)).astype(dtype) for x in positions])


def recount(fam, positions) -> tuple[Fraction, Fraction]:
    """``collision_stats``' two maxima by a direct count over every function."""
    cols = hash_columns(fam, positions)
    single = max(int(np.bincount(col, minlength=fam.t).max()) for col in cols)
    pair = max((int((cols[i] == cols[j]).sum())
                for i, j in itertools.combinations(range(len(cols)), 2)), default=0)
    return Fraction(single, fam.size), Fraction(pair, fam.size)


def isolation_recount(cols: np.ndarray) -> Fraction:
    """``isolation_failure_prob`` of a set, from its rows of ``hash_columns``:
    the share of functions under which two of its positions share a bucket."""
    bad = np.zeros(cols.shape[1], dtype=bool)
    for i, j in itertools.combinations(range(len(cols)), 2):
        bad |= cols[i] == cols[j]
    return Fraction(int(bad.sum()), cols.shape[1])
