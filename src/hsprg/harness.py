"""Measurement: exact and Monte Carlo expectations, fooling error, probes.

The harness only measures; the generators it drives live in `mzgen` and
reach it through their seed interface (``seed_bits``, ``random_seeds``,
``expand``).

Exact mode enumerates the full product space, and the seed space of a
generator: through its GF(2) image when it has one (``image_seeds``, one
point per label row each hash multiplier can give, with its weight),
else seed by seed.  Both modes read `f` a block of rows at a time through
one reader, `block_values`; a pair's signs are each row's own product, so a
value never depends on its block.  Every exact pass, here and in
`sandwich_poly`, sums through one `WeightedSum`: integer weights over one
denominator, exact while the values allow, then floats in the order fed.
Monte Carlo goes through one driver over SHARDS shards: stream k of shard
s is Philox keyed by (master seed, k * MAX_SHARDS + s), so shard results
are reproducible and merge order-independently.  The driver hands shards over
in runs of consecutive shards, at most SEED_CHUNK rows and at least one
shard each.  The fooling-error estimate draws every shard from its own
streams and expands and evaluates a run at once.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import operator
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg import lapack
from scipy.special import betainc

from .distributions import DiscreteCoordinate, ProductDistribution
from .halfspace import CombinerSpec, HalfspaceSystem, evaluate_batch, pattern_index
from .seeds import seed_range

MASTER_SEED = 20100913  # the master seed of a run that names none
ENUM_CAP = 1 << 24    # most points, seeds or seed-image points an exact pass enumerates
SEED_CHUNK = 1 << 12  # most seeds expanded per generator call (but one Monte Carlo shard)
TAIL_BLOCK = 1 << 12  # rows per product-lattice block, unless one coordinate is wider
MAX_SHARDS = 10_000   # shard keys are offset by multiples of this per stream
SHARDS = 8            # Monte Carlo shards per run: part of every estimate's streams
_INTEGRAL = (numbers.Integral, np.bool_)  # f values the exact sum takes as ints
_EXACT = (*_INTEGRAL, Fraction)  # f values that keep the sum exact


class ResourceCapError(RuntimeError):
    """A space larger than its cap: ENUM_CAP here, robp.MAX_STATES for programs."""


def rng_for(master_seed: int, shard: int = 0) -> np.random.Generator:
    """Philox keyed by (master, shard): reproducible, order-independent shards."""
    key = np.array([master_seed % 2 ** 64, shard % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def shard_sizes(trials: int, shards: int) -> list[int]:
    """Split trials over the shards, the remainder going to the first ones.

    Shards that would get no trial are dropped from the end, so the sizes
    always sum to ``trials``.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 1 <= shards < MAX_SHARDS:
        raise ValueError(f"shards must lie in [1, {MAX_SHARDS}), got {shards}")
    per, extra = divmod(trials, shards)
    return [per + (i < extra) for i in range(min(shards, trials))]


def product_lattice(dist: ProductDistribution
                    ) -> tuple[int, Iterator[tuple[np.ndarray, list[int]]]]:
    """The discrete product space as integer weights over one denominator.

    Returns ``(den, blocks)``: ``blocks`` yields ``(X, weights)``, a freshly
    allocated C-contiguous (N, n) float64 array whose rows run in
    ``itertools.product`` order and their weights as Python ints, with
    Pr[row] = weight / den exactly.  A row's weight is the product of its
    letters' ``numerators`` and ``den`` the product of the coordinates'
    ``den``.  Raises before any block is built when the space exceeds ENUM_CAP.
    """
    values, nums = [], []
    total = den = 1
    for c in dist.coords:
        if not isinstance(c, DiscreteCoordinate):
            raise ValueError("exact enumeration needs discrete coordinates")
        total *= len(c.values)
        if total > ENUM_CAP:
            raise ResourceCapError(f"product space exceeds cap {ENUM_CAP}")
        values.append(c.values)
        nums.append(c.numerators)
        den *= c.den
    return den, _blocks(values, nums)


def _blocks(values, nums):
    """Blocks of head points times one tail block, at most TAIL_BLOCK rows each.

    The tail is the longest run of trailing coordinates whose product fits
    in TAIL_BLOCK rows (at least one coordinate).  Its rows and weights
    (prefix products) are built once, and each block repeats them under as
    many consecutive head points as fit, so memory stays O(TAIL_BLOCK) and
    each row costs one int multiply.
    """
    split = len(values) - 1
    size = len(values[split])
    while split and size * len(values[split - 1]) <= TAIL_BLOCK:
        split -= 1
        size *= len(values[split])
    tail = np.zeros((size, len(values)))
    tail[:, split:] = list(itertools.product(*values[split:]))
    tail_weights = [1]
    for m in nums[split:]:
        tail_weights = [w * v for w in tail_weights for v in m]
    heads = zip(itertools.product(*values[:split]),
                map(math.prod, itertools.product(*nums[:split])))
    while chunk := list(itertools.islice(heads, max(1, TAIL_BLOCK // size))):
        points, head_weights = zip(*chunk)
        X = np.tile(tail, (len(chunk), 1))
        X[:, :split] = np.repeat(points, size, axis=0)
        yield X, [hw * w for hw in head_weights for w in tail_weights]


class WeightedSum:
    """Running sum of v * w / den over values v and integer weights w.

    Exact while the values are integers (numpy's and bools included) or
    Fractions: the sum runs in Python ints, or Fractions, and `value` is
    one Fraction.  From the first other value on, `exact` is False and the
    sum runs in floats, starting at the exact partial sum and adding
    float(v) * (w / den), where w / den is the correctly rounded
    probability.  A sum fed floats from its first value adds them in the
    order given, as a plain float loop from 0.0 does.
    """

    def __init__(self, den: int):
        self.den = den
        self.exact = True
        self._acc = 0

    def add(self, values: Iterable, weights: Iterable[int] | int) -> None:
        """Fold in the values, each times its weight, in order.  One int weight
        is the whole block's: while the sum and the block are exact, its sum adds once."""
        den = self.den
        if isinstance(weights, int):
            values = list(values)
            types = set(map(type, values))
            if self.exact and all(issubclass(t, _EXACT) for t in types):
                if types - {int, Fraction}:  # numpy integers and bools: Python ints, as below
                    values = [v if isinstance(v, Fraction) else int(v) for v in values]
                self._acc += sum(values) * weights
                return
            weights = itertools.repeat(weights)
        values, weights = iter(values), iter(weights)
        if self.exact:
            acc = self._acc
            for v, w in zip(values, weights):
                if type(v) is not int:
                    if isinstance(v, _INTEGRAL):
                        v = int(v)
                    elif not isinstance(v, Fraction):
                        break
                acc += v * w
            else:
                self._acc = acc
                return
            self._acc = acc
            values, weights = itertools.chain([v], values), itertools.chain([w], weights)
        self.add_floats(map(float, values), map(operator.truediv, weights, itertools.repeat(den)))

    def add_floats(self, values: Iterable[float], probs: Iterable[float]) -> None:
        """Fold in float values, each times its weight's probability w / den:
        `add` from its first float on, or several sums over one block that
        divide its weights once."""
        if self.exact:
            self.exact = False
            self._acc = float(Fraction(self._acc, self.den))
        acc = self._acc
        for v, p in zip(values, probs):
            acc += v * p
        self._acc = acc

    @property
    def value(self):
        """The sum so far: a Fraction while exact, else a float."""
        return Fraction(self._acc, self.den) if self.exact else self._acc


def block_values(f, X: np.ndarray) -> list:
    """f at every row of a block: a ``(system, combiner)`` pair through
    `evaluate_batch`, an object with ``evaluate_batch`` through that method
    (array results as Python scalars), any other callable row by row."""
    if isinstance(f, tuple):
        return evaluate_batch(*f, X).tolist()
    batch = getattr(f, "evaluate_batch", None)
    if batch is not None:
        return np.asarray(batch(X)).tolist()
    return list(map(f, X))


def exact_expectation(f, dist: ProductDistribution):
    """Sum of f * probability over the whole product space.

    `f` is read a `product_lattice` block at a time, through `block_values`.
    Returns a Fraction when every f value is integral/Fraction, else float.
    """
    den, blocks = product_lattice(dist)
    total = WeightedSum(den)
    for X, weights in blocks:
        total.add(block_values(f, X), weights)
    return total.value


def expectation_over_seeds(f, generator):
    """Average of f(G(seed)) over the full seed space, exact.

    `f` must be a deterministic function of the point.  A generator with
    an image (``image_seeds``, the MZ generator's) whose point count is at
    most ENUM_CAP is read through it: `block_values` reads `f` once per
    image point, an image block at a time, and each value adds with its
    block's weight over 2^seed_bits (an exact block's sum adds once, by
    `WeightedSum.add` with one shared weight), so the seed space itself may pass ENUM_CAP.
    Integer and Fraction values give the same rational as a pass over
    every seed.  If some value is neither and the seed space is
    within ENUM_CAP, the seed pass below sums it again in seed order, so a
    float result is the per-seed sum bit for bit: an image of at most
    SEED_CHUNK points is read to the end and kept, one chunk of rows, and
    the seed pass takes each row's value from it by the row's bytes; a
    larger image is left at its first block with such a value, and the
    seed pass reads `f` again.  Past the cap the result is the float sum
    in image order.  An image past the cap raises before `f` is read, its
    count stopped once it passes the cap.

    The seed pass (any other generator) expands the seeds SEED_CHUNK at a
    time and reads `f` on the distinct rows of each chunk (rows compared
    by their bytes, so -0.0 and 0.0 differ).  Each seed adds its row's
    value with weight 1, in seed order (while exact, a chunk's sum adds
    once), so a float result is the per-seed sum bit for bit.
    """
    image = getattr(generator, "image_seeds", None)
    if image is not None:
        points, blocks = image(SEED_CHUNK, ENUM_CAP)
        if blocks is None:  # raised before 2^seed_bits is built: it can have billions of bits
            raise ResourceCapError(f"seed space 2^{generator.seed_bits} exceeds cap {ENUM_CAP}, "
                                   f"and so does its image, of at least {points} points")
    n_seeds = 1 << generator.seed_bits
    if image is not None:
        total, kept = WeightedSum(n_seeds), []
        for seeds, weight in blocks:
            X = generator.expand(seeds)
            vals = block_values(f, X)
            total.add(vals, weight)
            if points <= SEED_CHUNK:  # one chunk of rows at most, kept for a seed-order float sum
                kept.append((X, vals))
            elif not total.exact and n_seeds <= ENUM_CAP:
                break  # a float result, summed in seed order below, reading f again
        if total.exact or n_seeds > ENUM_CAP:
            return total.value
        if kept:
            value = {x.tobytes(): v for X, vals in kept for x, v in zip(X, vals)}
            f = lambda x: value[x.tobytes()]
    elif n_seeds > ENUM_CAP:
        raise ResourceCapError(f"seed space 2^{generator.seed_bits} exceeds cap {ENUM_CAP}")

    total = WeightedSum(1)  # unit weights: the float path sums float(f(x)) and divides once
    for start in range(0, n_seeds, SEED_CHUNK):
        X = np.ascontiguousarray(generator.expand(
            seed_range(start, min(start + SEED_CHUNK, n_seeds), generator.seed_bits)))
        keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        vals = block_values(f, X[first])
        total.add(map(vals.__getitem__, inverse.tolist()), 1)
    return total.value / n_seeds


@dataclass(frozen=True)
class EstimationReport:
    experiment: str
    n: int
    d: int
    eps: float | None
    method: str                     # exact-enumeration | monte-carlo
    samples: int
    true_expectation: float
    prg_expectation: float
    fooling_error: float
    ci95: float
    seed_bits: int
    wall_ms: float

    def row(self) -> list:
        return [getattr(self, field.name) for field in fields(self)]

    COLUMNS = ["experiment", "n", "d", "eps", "method", "samples", "true_exp",
               "prg_exp", "error", "ci95", "seed_bits", "wall_ms"]

    FLOAT_COLUMNS = frozenset(["eps", "true_exp", "prg_exp", "error", "ci95", "wall_ms"])

    def to_json(self) -> dict:
        # decimal-string floats so a JSON round trip is bit-exact
        return {k: repr(v) if isinstance(v, float) and k in self.FLOAT_COLUMNS else v
                for k, v in zip(self.COLUMNS, self.row())}

    @classmethod
    def from_json(cls, data: dict) -> "EstimationReport":
        vals = []
        for k in cls.COLUMNS:
            v = data[k]
            if k in cls.FLOAT_COLUMNS and isinstance(v, str):
                v = float(v)
            vals.append(v)
        return cls(*vals)


def wilson_halfwidth(p: float, n: int) -> float:
    """95% half-width; Wilson keeps it sane when p sits near 0 or 1."""
    if n == 0:
        return float("nan")
    z = 1.959963984540054
    if 0.05 < p < 0.95:
        return z * math.sqrt(p * (1 - p) / n)
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return half + abs(center - p)


def _shard_runs(sizes: Sequence[int]) -> Iterator[list[tuple[int, int]]]:
    """Consecutive ``(shard, size)`` pairs in runs of at most SEED_CHUNK rows, at least one shard."""
    run, rows = [], 0
    for shard, size in enumerate(sizes):
        if run and rows + size > SEED_CHUNK:
            yield run
            run, rows = [], 0
        run.append((shard, size))
        rows += size
    yield run


def _mc(trials: int, master_seed: int, streams: Sequence[int],
        body: Callable[[list], Iterable[tuple]]) -> tuple[tuple[float, ...], float]:
    """Sharded Monte Carlo: the mean of each hit count and their joint 95% half-width.

    The trials split over SHARDS shards (`shard_sizes`), read at call time.
    Shards are handed to ``body`` in runs (`_shard_runs`).  ``body(run)``
    gets a run as a list of ``(size, rngs)``, one per shard, whose rngs are
    streams ``k`` of ``streams`` for that shard, and returns tuples of hit
    counts, one count per stream, to be summed: one per shard or per run.
    The half-width combines the Wilson half-widths of the means in quadrature.
    """
    hits = [0] * len(streams)
    for run in _shard_runs(shard_sizes(trials, SHARDS)):
        rngs = [(size, tuple(rng_for(master_seed, k * MAX_SHARDS + shard) for k in streams))
                for shard, size in run]
        for counts in body(rngs):
            hits = [h + int(c) for h, c in zip(hits, counts, strict=True)]
    means = tuple(h / trials for h in hits)
    return means, math.hypot(*(wilson_halfwidth(p, trials) for p in means))


def check_dimensions(sizes: dict[str, int | None]) -> None:
    """Raise ValueError naming every known size (None is unknown) unless they agree."""
    known = {name: n for name, n in sizes.items() if n is not None}
    if len(set(known.values())) > 1:
        raise ValueError("dimensions differ: " + ", ".join(f"{k} n={v}" for k, v in known.items()))


def estimate_fooling_error(f: Callable[[np.ndarray], int]
                           | tuple[HalfspaceSystem, CombinerSpec],
                           dist: ProductDistribution, generator,
                           mode: str = "exact", trials: int = 10 ** 5,
                           master_seed: int = MASTER_SEED,
                           experiment: str = "fooling", eps: float | None = None
                           ) -> EstimationReport:
    """|E f(X) - E f(G(seed))|, exactly or by sharded Monte Carlo.

    Both modes read `f` through `block_values`: exact mode a lattice block,
    a block of the seed image or a seed chunk's distinct rows at a time,
    Monte Carlo a run of shards at a time.  A ``(system, combiner)`` pair
    is checked against its system once, before anything is drawn, and
    gives the report its ``d``; any other `f` reports ``d = 1``.  The law,
    the generator and a pair's system must have one dimension n, also
    checked before anything is drawn.  `f` must be a deterministic
    function of the point; in Monte Carlo mode, which counts hits, its
    values must be 0 or 1.  Exact mode reads `f` only after both cap checks.
    """
    t0 = time.perf_counter()
    d = 1
    sizes = {"law": dist.n, "generator": generator.n}
    if isinstance(f, tuple):
        system, combiner = f
        combiner.check_fits(system.d)
        d, sizes["system"] = system.d, system.n
    check_dimensions(sizes)

    if mode == "exact":
        product_lattice(dist)  # its cap check: neither side reads f past a refused space
        prg_e = float(expectation_over_seeds(f, generator))
        true_e = float(exact_expectation(f, dist))
        samples = 1 << generator.seed_bits
        ci = 0.0
        method = "exact-enumeration"
    elif mode == "mc":
        def hits(X):
            vals = block_values(f, X)  # a pair's values are 0 or 1 by construction
            if not isinstance(f, tuple) and (bad := [v for v in vals if v not in (0, 1)]):
                raise ValueError(f"Monte Carlo mode needs f values 0 or 1, got {bad[0]!r}")
            return sum(vals)

        def body(run):
            # every shard draws from its own streams; the run is evaluated once
            X = np.concatenate([dist.sample(rng_x, size) for size, (rng_x, _) in run])
            seeds = np.concatenate([generator.random_seeds(rng_seeds, size)
                                    for size, (_, rng_seeds) in run])
            return [(hits(X), hits(generator.expand(seeds)))]

        (true_e, prg_e), ci = _mc(trials, master_seed, (0, 1), body)
        samples = trials
        method = "monte-carlo"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    wall = (time.perf_counter() - t0) * 1000
    return EstimationReport(experiment, dist.n, d, eps, method, samples,
                            true_e, prg_e, abs(true_e - prg_e), ci,
                            generator.seed_bits, wall)


@dataclass(frozen=True)
class CovarianceSummary:
    """Covariance of S = sum_j x_j W_j and the per-term norm profile."""

    M: np.ndarray
    sigma_j_sq: np.ndarray
    sum_sigma4: float

    @classmethod
    def from_system(cls, W: np.ndarray, m2: Sequence[float]) -> "CovarianceSummary":
        W = np.asarray(W, dtype=float)
        m2 = np.asarray(m2, dtype=float)
        M = (W * m2[:, None]).T @ W
        sigma_sq = m2 * (W ** 2).sum(axis=1)
        return cls(M, sigma_sq, float((sigma_sq ** 2).sum()))

    @property
    def scaling_quantity(self) -> float:
        """(sum sigma_j^4)^(1/8), the trend knob in the Berry-Esseen bound."""
        return self.sum_sigma4 ** 0.125


def gaussian_reference_sampler(M: np.ndarray):
    """Sampler for N(0, M) via pivoted Cholesky; M may be singular.

    ``dpstrf`` stops early on a rank-deficient matrix and on an indefinite
    one alike, so its factor is kept only when it reproduces M to 1e-9 of
    max |M|.  Otherwise the sampler clamps M's negative eigenvalues to 0
    and sets its ``clamped`` flag.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    c, piv, rank, _ = lapack.dpstrf(M, lower=1)
    L = np.tril(c)
    L[:, rank:] = 0.0
    A = L[np.argsort(piv - 1)]
    clamped = bool(np.abs(A @ A.T - M).max(initial=0.0) > 1e-9 * np.abs(M).max(initial=0.0))
    if clamped:
        vals, vecs = np.linalg.eigh(M)
        vals = np.clip(vals, 0.0, None)
        A = vecs * np.sqrt(vals)
        rank = int((vals > 0).sum())

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal((size, d)) @ A.T

    sample.rank = rank
    sample.clamped = clamped
    return sample


@dataclass(frozen=True)
class OrthantSet:
    """Translate of a union of orthants: membership from sgn(X - Theta)."""

    theta: np.ndarray
    accept: tuple[int, ...]  # truth table over sign patterns, low bit = dim 0

    def __post_init__(self):
        if len(self.accept) != 1 << len(self.theta) or not set(self.accept) <= {0, 1}:
            raise ValueError(f"OrthantSet accept must have 2**{len(self.theta)} entries "
                             f"of 0 or 1, got {self.accept!r}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.accept, dtype=bool)[pattern_index(points >= self.theta)]


@dataclass(frozen=True)
class BerryEsseenReport:
    gap: float
    ci95: float
    p_sum: float
    p_gauss: float
    summary: CovarianceSummary
    samples: int


def berry_esseen_probe(W: np.ndarray, dist: ProductDistribution, orthant: OrthantSet,
                       trials: int = 10 ** 5, master_seed: int = MASTER_SEED
                       ) -> BerryEsseenReport:
    """Estimate |Pr[S in A] - Pr[G in A]| with G ~ N(0, Cov S)."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != dist.n:
        raise ValueError(f"W has shape {W.shape} but the law has {dist.n} coordinates, "
                         f"one per row of W")
    if len(orthant.theta) != W.shape[1]:
        raise ValueError(f"the orthant has dimension {len(orthant.theta)} "
                         f"but W has {W.shape[1]} columns")
    system = HalfspaceSystem(W, orthant.theta)  # S through the one margin rule
    m2 = [c.moments()[1] for c in dist.coords]
    summary = CovarianceSummary.from_system(W, m2)
    gauss = gaussian_reference_sampler(summary.M)

    def body(run):
        return [(orthant.contains(system.row_products(dist.sample(rng_x, size))).sum(),
                 orthant.contains(gauss(rng_g, size)).sum())
                for size, (rng_x, rng_g) in run]

    (p_s, p_g), ci = _mc(trials, master_seed, (0, 2), body)
    return BerryEsseenReport(abs(p_s - p_g), ci, p_s, p_g, summary, trials)


def spherical_cap_probability(height: float, n: int) -> float:
    """Pr[x . e1 >= height] for x uniform on S^(n-1), via the incomplete beta."""
    if math.isnan(height) or n < 1:
        raise ValueError(f"need a height that is not NaN and n >= 1, got {height}, {n}")
    if not -1.0 <= height <= 1.0:
        return 0.0 if height > 0 else 1.0
    tail = 0.5 * betainc((n - 1) / 2.0, 0.5, 1.0 - height * height)
    return tail if height >= 0 else 1.0 - tail


@dataclass(frozen=True)
class SphereTransferReport:
    estimate: float
    ci95: float
    budget_scale: float   # d * log(n) / n^(1/4), the transfer lemma's shape
    samples: int
    n: int
    d: int


def sphere_transfer(system: HalfspaceSystem, combiner: CombinerSpec,
                    trials: int = 10 ** 5, master_seed: int = MASTER_SEED,
                    sampler=None) -> SphereTransferReport:
    """E f on the unit sphere, sampling Gaussians and normalizing.

    `sampler(rng, size) -> (size, n) array` overrides the Gaussian source,
    e.g. with a discretized-Gaussian PRG; rows are normalized either way
    (zero rows are redrawn).
    """
    n = system.n
    if sampler is None:
        def sampler(rng, size):
            return rng.standard_normal((size, n))

    def body(run):
        for size, (rng,) in run:
            X = sampler(rng, size)
            norms = np.linalg.norm(X, axis=1)
            while (bad := norms == 0).any():
                X[bad] = sampler(rng, int(bad.sum()))
                norms = np.linalg.norm(X, axis=1)
            yield (evaluate_batch(system, combiner, X / norms[:, None]).sum(),)

    (p,), ci = _mc(trials, master_seed, (0,), body)
    return SphereTransferReport(p, ci,
                                system.d * math.log(n) / n ** 0.25, trials, n, system.d)


def emit_report(reports: Iterable[EstimationReport], path: str) -> None:
    """Write the reports as JSON to a ``.json`` path, else as CSV."""
    if str(path).endswith(".json"):
        with open(path, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=1)
    else:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EstimationReport.COLUMNS)
            writer.writerows(r.row() for r in reports)


def read_report_json(path: str) -> list[EstimationReport]:
    with open(path) as fh:
        return [EstimationReport.from_json(d) for d in json.load(fh)]
