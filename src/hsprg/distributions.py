"""Product-distribution coordinates and the discretization pipeline.

A coordinate is a one-dimensional law with an evaluable CDF.  The pipeline
that prepares a coordinate for the bucket-hashed generator is:

    truncate to (-B, B) with B = (n C^2 / eps)^(1/4)
    shift/rescale to mean 0, second moment 1
    cut the CDF at granularity gamma = 2^-s into boundaries b_0 <= ... <= b_g
    sandwich between uniform multisets {b_0..b_{g-1}} (lower) and
        {b_1..b_g} (upper), which differ by at most gamma in statistical
        distance and drift from the parent by at most 2B^r*gamma in the
        r-th moment
    standardize the chosen multiset again

Discrete coordinates are handled exactly (Fraction CDF scans); continuous
ones by their analytic quantiles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

SQRT3 = math.sqrt(3.0)
ETA_MAX = 1.0 / SQRT3
SAMPLE_BLOCK = 1 << 18  # uniforms drawn per block by ProductDistribution.sample


class DistributionError(ValueError):
    pass


def _quad(integrand, B: float) -> float:
    """The integral of `integrand` over [-B, B] by adaptive quadrature.

    scipy.integrate is imported here, not with the module: it is most of
    the import time of the package and only continuous laws need it.
    """
    from scipy import integrate

    return integrate.quad(integrand, -B, B, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


class Coordinate:
    """Base class; concrete kinds implement cdf, moments, sample, and the
    continuous ones quantile."""

    kind = "abstract"
    is_discrete = False
    symmetric = False

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, q: float) -> float:
        """Inverse CDF of a continuous kind: the smallest x with F(x) >= q."""
        raise NotImplementedError

    def moments(self) -> tuple[float, float, float]:
        """(mean, second moment, fourth moment), raw not central."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class DiscreteCoordinate(Coordinate):
    """Explicit finite support with probabilities (exact Fraction bookkeeping)."""

    kind = "discrete"
    is_discrete = True

    def __init__(self, values: Sequence[float], probs: Sequence[float]):
        if len(values) != len(probs) or not values:
            raise DistributionError("values and probs must be equal-length and nonempty")
        if not all(math.isfinite(p) for p in probs):
            raise DistributionError(f"probabilities must be finite, got {list(probs)}")
        for v in values:
            if not math.isfinite(v):
                raise DistributionError(f"support values must be finite, got {v}")
        if any(p < 0 for p in probs):
            raise DistributionError("negative probability")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise DistributionError("probabilities must sum to 1 within 1e-12")
        merged: dict[float, Fraction] = {}
        for v, p in zip(values, probs):
            if p == 0:
                continue
            merged[float(v)] = merged.get(float(v), Fraction(0)) + Fraction(p)
        self.values = tuple(sorted(merged))
        self.fprobs = tuple(merged[v] for v in self.values)
        self.probs = tuple(float(p) for p in self.fprobs)
        self.symmetric = self._check_symmetric()

    @classmethod
    def rademacher(cls) -> "DiscreteCoordinate":
        return cls([-1.0, 1.0], [0.5, 0.5])

    def _check_symmetric(self) -> bool:
        table = dict(zip(self.values, self.fprobs))
        return all(table.get(-v) == p for v, p in table.items())

    @property
    def alpha(self) -> float:
        return float(min(self.fprobs))

    def cdf(self, x: float) -> float:
        return float(sum(p for v, p in zip(self.values, self.fprobs) if v <= x))

    def moments(self) -> tuple[float, float, float]:
        mean = math.fsum(v * p for v, p in zip(self.values, self.probs))
        m2 = math.fsum(v * v * p for v, p in zip(self.values, self.probs))
        m4 = math.fsum(v ** 4 * p for v, p in zip(self.values, self.probs))
        return mean, m2, m4

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The CDF Generator.choice builds from p on every call, built once."""
        p = np.asarray(self.probs, dtype=float)
        cdf = np.cumsum(p / p.sum())
        cdf /= cdf[-1]
        return cdf

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """(values, guide, M, steps): a guide table over M equal cells of [0, 1).

        M is the smallest power of two at least the alphabet size, so u * M
        and the cell edges j / M are exact.  guide[j] counts the cdf values
        <= j / M, and `steps` is the most cdf values strictly inside one
        cell: the corrections a uniform in that cell can need.
        """
        cdf = self._cdf
        M = 1 << (len(cdf) - 1).bit_length()
        edges = np.arange(M + 1) / M
        guide = cdf.searchsorted(edges[:-1], side="right")
        steps = int((cdf.searchsorted(edges[1:], side="left") - guide).max())
        return np.asarray(self.values), guide, M, steps

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """The support value each uniform in `u` (in [0, 1)) selects, shape kept.

        The index is ``searchsorted(cdf, u, side="right")``, the count of cdf
        values <= u, exactly.  A uniform in cell j = floor(u * M) is at least
        j / M, so guide[j] values are <= u, and below (j + 1) / M, so only
        values strictly inside the cell remain; ``steps`` passes of
        ``idx += cdf[idx] <= u`` count those, and cdf[-1] = 1 > u keeps idx in
        range.  Two letters take one compare: the count is u >= cdf[0].
        Uniforms outside [0, 1) are not checked and give no defined value.
        """
        values, guide, M, steps = self._guide
        cdf = self._cdf
        if len(cdf) == 2:
            return np.take(values, (u >= cdf[0]).view(np.int8))
        idx = np.take(guide, (u * M).astype(np.intp))
        for _ in range(steps):
            idx += np.take(cdf, idx) <= u
        return np.take(values, idx)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Same draws and stream use as rng.choice(values, size, p=probs)."""
        return self.lookup(rng.random(size))

    def to_json(self) -> dict:
        return {"kind": "discrete", "values": list(self.values), "probs": [float(p) for p in self.probs]}


class UniformMultisetCoordinate(DiscreteCoordinate):
    """Uniform over a multiset of values; duplicates carry multiplicity."""

    kind = "multiset"

    def __init__(self, multiset: Sequence[float]):
        if not multiset:
            raise DistributionError("multiset must be nonempty")
        self.multiset = tuple(float(v) for v in multiset)
        g = len(self.multiset)
        super().__init__(list(self.multiset), [Fraction(1, g)] * g)

    def to_json(self) -> dict:
        return {"kind": "multiset", "values": list(self.multiset)}


class GaussianCoordinate(Coordinate):
    """Standard normal N(0, 1)."""

    kind = "gaussian"
    symmetric = True

    def cdf(self, x: float) -> float:
        return float(ndtr(x))

    def pdf(self, x: float) -> float:
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    def quantile(self, q: float) -> float:
        return float(ndtri(q))

    def moments(self) -> tuple[float, float, float]:
        return 0.0, 1.0, 3.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_normal(size)

    def to_json(self) -> dict:
        return {"kind": "gaussian"}


class UniformIntervalCoordinate(Coordinate):
    """Uniform on [lo, hi], default [-1, 1]."""

    kind = "uniform-interval"

    def __init__(self, lo: float = -1.0, hi: float = 1.0):
        if not lo < hi:
            raise DistributionError("need lo < hi")
        self.lo, self.hi = float(lo), float(hi)
        self.symmetric = lo == -hi

    def cdf(self, x: float) -> float:
        return min(1.0, max(0.0, (x - self.lo) / (self.hi - self.lo)))

    def pdf(self, x: float) -> float:
        return 1.0 / (self.hi - self.lo) if self.lo <= x <= self.hi else 0.0

    def quantile(self, q: float) -> float:
        return self.lo + q * (self.hi - self.lo)

    def _raw(self, k: int) -> float:
        return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))

    def moments(self) -> tuple[float, float, float]:
        return self._raw(1), self._raw(2), self._raw(4)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)

    def to_json(self) -> dict:
        return {"kind": "uniform-interval", "lo": self.lo, "hi": self.hi}


class TruncatedStandardizedCoordinate(Coordinate):
    """A continuous base law, zeroed outside (-B, B), then affinely standardized.

    Represents z = (y - mu) / scale with y = x * 1(|x| < B).
    """

    kind = "truncated-standardized"

    def __init__(self, base: Coordinate, B: float, mu: float, scale: float):
        if base.is_discrete:
            raise DistributionError("discrete bases are truncated exactly, not wrapped")
        self.base = base
        self.B_raw = float(B)
        self.mu = float(mu)
        self.scale = float(scale)
        self.symmetric = base.symmetric and abs(mu) < 1e-12
        self.tail_mass = (1.0 - base.cdf(self.B_raw)) + base.cdf(-self.B_raw)

    def _cdf_y(self, w: float) -> float:
        # law of y: base restricted to (-B, w], plus an atom at 0 of the tail mass
        B = self.B_raw
        inner = max(0.0, self.base.cdf(min(w, B)) - self.base.cdf(-B))
        if w >= 0:
            inner += self.tail_mass
        return min(1.0, inner)

    def cdf(self, x: float) -> float:
        return self._cdf_y(self.mu + self.scale * x)

    def moments(self) -> tuple[float, float, float]:
        pdf = getattr(self.base, "pdf")
        B = self.B_raw
        z_atom = -self.mu / self.scale  # the zeroed tail lands here

        def moment(k: int) -> float:
            return (_quad(lambda u: ((u - self.mu) / self.scale) ** k * pdf(u), B)
                    + z_atom ** k * self.tail_mass)

        return moment(1), moment(2), moment(4)

    def quantile(self, q: float) -> float:
        F = self.base.cdf
        lo_mass = F(-self.B_raw)
        atom_lo = F(0.0) - lo_mass            # Pr[y < 0], y the truncated variable
        atom_hi = atom_lo + self.tail_mass    # Pr[y <= 0]
        if q <= atom_lo:
            w = self.base.quantile(q + lo_mass)
        elif q <= atom_hi:
            w = 0.0
        else:
            w = self.base.quantile(q + lo_mass - self.tail_mass)
        return (w - self.mu) / self.scale

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        x = self.base.sample(rng, size)
        y = np.where(np.abs(x) < self.B_raw, x, 0.0)
        return (y - self.mu) / self.scale

    @property
    def B(self) -> float:
        """Support radius valid for the standardized variable."""
        return (self.B_raw + abs(self.mu)) / self.scale

    def to_json(self) -> dict:
        return {"kind": "truncated-standardized", "base": self.base.to_json(),
                "B": self.B_raw, "mu": self.mu, "scale": self.scale}


_KINDS = {
    "gaussian": lambda d: GaussianCoordinate(),
    "uniform-interval": lambda d: UniformIntervalCoordinate(d.get("lo", -1.0), d.get("hi", 1.0)),
    "discrete": lambda d: DiscreteCoordinate(d["values"], d["probs"]),
    "multiset": lambda d: UniformMultisetCoordinate(d["values"]),
    "truncated-standardized": lambda d: TruncatedStandardizedCoordinate(
        coordinate_from_json(d["base"]), d["B"], d["mu"], d["scale"]),
}


def coordinate_from_json(data: dict) -> Coordinate:
    try:
        maker = _KINDS[data["kind"]]
    except KeyError as e:
        raise DistributionError(f"unknown coordinate kind {data.get('kind')!r}") from e
    return maker(data)


class ProductDistribution:
    """Independent coordinates; the ambient law for all halfspace tests."""

    def __init__(self, coords: Sequence[Coordinate]):
        if not coords:
            raise DistributionError("need at least one coordinate")
        self.coords = list(coords)
        self.n = len(self.coords)

    @classmethod
    def repeated(cls, coord: Coordinate, n: int) -> "ProductDistribution":
        return cls([coord] * n)

    @property
    def is_discrete(self) -> bool:
        return all(c.is_discrete for c in self.coords)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) draws, with the values and stream use of one ``sample`` per coordinate.

        A run of consecutive coordinates sharing one DiscreteCoordinate is
        drawn as ``rng.random((run, size))`` blocks of at most SAMPLE_BLOCK
        uniforms, row i being what coordinate i's own ``sample`` would draw.
        Each block goes through ``lookup``, whose guide table gives the same
        index as ``searchsorted(cdf, u, side="right")`` for every uniform, so
        the values are those of ``rng.choice(values, p=probs)`` bit for bit.
        """
        out = np.empty((size, self.n))
        j = 0
        while j < self.n:
            c = self.coords[j]
            end = j + 1
            if isinstance(c, DiscreteCoordinate):
                while end < self.n and self.coords[end] is c:
                    end += 1
                step = max(1, SAMPLE_BLOCK // max(size, 1))
                for lo in range(j, end, step):
                    hi = min(lo + step, end)
                    out[:, lo:hi] = c.lookup(rng.random((hi - lo, size))).T
            else:
                out[:, j] = c.sample(rng, size)
            j = end
        return out

    def to_json(self) -> dict:
        return {"coords": [c.to_json() for c in self.coords]}

    @classmethod
    def from_json(cls, data: dict) -> "ProductDistribution":
        if "coords" in data:
            return cls([coordinate_from_json(c) for c in data["coords"]])
        if "coord" in data and "n" in data:
            return cls.repeated(coordinate_from_json(data["coord"]), int(data["n"]))
        raise DistributionError("expected {'coords': [...]} or {'coord': ..., 'n': ...}")

    @classmethod
    def load(cls, path: str) -> "ProductDistribution":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class MomentProfile:
    mean: float
    second_moment: float
    fourth_moment: float
    C: float
    eta: float
    alpha: float | None = None

    def __post_init__(self):
        if self.fourth_moment < self.second_moment ** 2 - 1e-9:
            raise DistributionError("fourth moment below squared second moment")
        if not 0 < self.eta <= ETA_MAX + 1e-15:
            raise DistributionError(f"eta={self.eta} outside (0, 1/sqrt(3)]")


def moment_profile(coord: Coordinate) -> MomentProfile:
    """Moments plus the hypercontractivity parameter eta.

    eta0 = (E[x^2]^2 / E[x^4])^(1/4) is the moment-ratio parameter; the
    general guarantee is (eta0 / 2 sqrt 3)-HC, upgraded to min(eta0,
    1/sqrt 3) for symmetric laws.
    """
    mean, m2, m4 = coord.moments()
    if not all(map(math.isfinite, (mean, m2, m4))):
        raise DistributionError("moments are not finite")
    if m4 <= 0 or m2 <= 0:
        raise DistributionError("degenerate coordinate (zero second or fourth moment)")
    eta0 = (m2 * m2 / m4) ** 0.25
    eta = min(eta0, ETA_MAX) if coord.symmetric else eta0 / (2 * SQRT3)
    alpha = coord.alpha if isinstance(coord, DiscreteCoordinate) else None
    return MomentProfile(mean, m2, m4, C=m4, eta=eta, alpha=alpha)


@dataclass(frozen=True)
class TruncationResult:
    coord: Coordinate
    B_raw: float          # truncation radius applied to the input variable
    B: float              # support radius of the standardized output
    tail_mass: float
    mu: float
    scale: float
    second_moment_trunc: float


def truncate_and_standardize(coord: Coordinate, n: int, C: float, eps: float) -> TruncationResult:
    """Zero the coordinate outside (-B, B), B = (n C^2 / eps)^(1/4), then standardize.

    Raises when the post-truncation variance drops below 1/2, the regime in
    which eps is too large for this (n, C).
    """
    if eps <= 0 or C < 1 or n < 1:
        raise DistributionError("need eps > 0, C >= 1, n >= 1")
    B = (n * C * C / eps) ** 0.25
    if coord.is_discrete:
        assert isinstance(coord, DiscreteCoordinate)
        vals, probs = [], []
        zero_mass = Fraction(0)
        for v, p in zip(coord.values, coord.fprobs):
            if abs(v) < B:
                vals.append(v)
                probs.append(p)
            else:
                zero_mass += p
        if zero_mass > 0:
            vals.append(0.0)
            probs.append(zero_mass)
        trunc = DiscreteCoordinate(vals, probs)
        mu, m2, _ = trunc.moments()
        var = m2 - mu * mu
        if var < 0.5 - 1e-9:
            raise DistributionError(f"post-truncation variance {var:.4f} < 1/2; eps too large")
        scale = math.sqrt(var)
        out = DiscreteCoordinate([(v - mu) / scale for v in trunc.values], list(trunc.fprobs))
        tail = float(zero_mass)
        B_std = (B + abs(mu)) / scale
        return TruncationResult(out, B, B_std, tail, mu, scale, m2)

    pdf = getattr(coord, "pdf", None)
    if pdf is None:
        raise DistributionError(f"{coord.kind} coordinate has no density for quadrature")

    mu, m2 = (_quad(lambda u: u ** k * pdf(u), B) for k in (1, 2))
    var = m2 - mu * mu
    if var < 0.5 - 1e-9:
        raise DistributionError(f"post-truncation variance {var:.4f} < 1/2; eps too large")
    scale = math.sqrt(var)
    out = TruncatedStandardizedCoordinate(coord, B, mu, scale)
    return TruncationResult(out, B, out.B, out.tail_mass, mu, scale, m2)


def _validate_gamma(gamma: float) -> int:
    frac = Fraction(gamma)
    if frac.numerator != 1 or frac.denominator & (frac.denominator - 1):
        raise DistributionError(f"gamma={gamma} must be 2^-s for integer s")
    return frac.denominator


def default_gamma(eps: float, n: int, B: float) -> float:
    """Largest power-of-two reciprocal below eps / (2 n B^4)."""
    target = eps / (2 * n * B ** 4)
    if target <= 0:
        raise DistributionError("eps/(2nB^4) must be positive")
    s = max(1, math.ceil(-math.log2(target)))
    return 2.0 ** -s


def bucket_boundaries(coord: Coordinate, gamma: float, B: float) -> list[float]:
    """b_k = smallest x in [-B, B] with F(x) >= k*gamma, for k = 0..g.

    Exact scan for discrete coordinates, else the analytic quantile clamped
    to [-B, B] (monotone in k, so the boundaries come out sorted).
    """
    g = _validate_gamma(gamma)
    if coord.is_discrete:
        assert isinstance(coord, DiscreteCoordinate)
        out = [-B]
        cum = Fraction(0)
        cums = []
        for v, p in zip(coord.values, coord.fprobs):
            cum += p
            cums.append((v, cum))
        for k in range(1, g + 1):
            target = Fraction(k, g)
            hit = next((v for v, c in cums if c >= target), B)
            out.append(min(max(hit, -B), B))
        return out

    return [-B] + [min(max(coord.quantile(k / g), -B), B) for k in range(1, g + 1)]


@dataclass(frozen=True)
class SandwichedCoordinate:
    """Bucket boundaries plus the two uniform-multiset sandwich laws."""

    boundaries: tuple[float, ...]
    gamma: float
    g: int
    B: float
    lower: UniformMultisetCoordinate = dc_field(repr=False)
    upper: UniformMultisetCoordinate = dc_field(repr=False)

    @classmethod
    def build(cls, boundaries: Sequence[float], gamma: float, B: float) -> "SandwichedCoordinate":
        g = _validate_gamma(gamma)
        if len(boundaries) != g + 1:
            raise DistributionError(f"expected {g + 1} boundaries, got {len(boundaries)}")
        return cls(tuple(boundaries), gamma, g, B,
                   UniformMultisetCoordinate(boundaries[:-1]),
                   UniformMultisetCoordinate(boundaries[1:]))


def make_sandwich(coord: Coordinate, gamma: float, B: float) -> SandwichedCoordinate:
    return SandwichedCoordinate.build(bucket_boundaries(coord, gamma, B), gamma, B)


def statistical_distance(c1: DiscreteCoordinate, c2: DiscreteCoordinate) -> Fraction:
    """Half the L1 distance between the two pmfs, exact."""
    if not (c1.is_discrete and c2.is_discrete):
        raise DistributionError("statistical_distance needs discrete coordinates")
    p1 = dict(zip(c1.values, c1.fprobs))
    p2 = dict(zip(c2.values, c2.fprobs))
    total = Fraction(0)
    for v in set(p1) | set(p2):
        total += abs(p1.get(v, Fraction(0)) - p2.get(v, Fraction(0)))
    return total / 2


def standardize_multiset(values: Sequence[float]) -> tuple[list[float], float, float]:
    """Affinely map a multiset to mean 0, second moment 1; returns (values, shift, scale)."""
    g = len(values)
    mean = math.fsum(values) / g
    var = math.fsum((v - mean) ** 2 for v in values) / g
    if var <= 0:
        raise DistributionError("constant multiset cannot be standardized")
    scale = math.sqrt(var)
    return [(v - mean) / scale for v in values], mean, scale


@dataclass(frozen=True)
class DiscretizationReport:
    """Everything the CLI and acceptance tests need from one coordinate's pipeline."""

    truncation: TruncationResult
    gamma: float
    sandwich: SandwichedCoordinate
    sd_lower_upper: Fraction
    # raw sandwich-vs-parent drifts, to compare against 2B^r gamma
    mean_drift: float
    second_moment_drift: float
    fourth_moment_drift: float
    alphabet: tuple[float, ...]           # standardized upper multiset
    alphabet_moments: tuple[float, float, float]

    def to_json(self) -> dict:
        t = self.truncation
        return {
            "B_raw": t.B_raw, "B": t.B, "tail_mass": t.tail_mass,
            "mu": t.mu, "scale": t.scale, "gamma": self.gamma,
            "boundaries": list(self.sandwich.boundaries),
            "sd_lower_upper": float(self.sd_lower_upper),
            "mean_drift": self.mean_drift,
            "second_moment_drift": self.second_moment_drift,
            "fourth_moment_drift": self.fourth_moment_drift,
            "alphabet": list(self.alphabet),
            "alphabet_moments": list(self.alphabet_moments),
        }


def discretize_coordinate(coord: Coordinate, n: int, C: float, eps: float,
                          gamma: float | None = None) -> DiscretizationReport:
    """Full truncate/standardize/bucket/sandwich/restandardize pipeline."""
    trunc = truncate_and_standardize(coord, n, C, eps)
    if gamma is None:
        gamma = default_gamma(eps, n, trunc.B)
    sw = make_sandwich(trunc.coord, gamma, trunc.B)
    sd = statistical_distance(sw.lower, sw.upper)
    pm = trunc.coord.moments()
    um = sw.upper.moments()
    alphabet, _, _ = standardize_multiset(sw.upper.multiset)
    alpha_coord = UniformMultisetCoordinate(alphabet)
    return DiscretizationReport(
        truncation=trunc, gamma=gamma, sandwich=sw, sd_lower_upper=sd,
        mean_drift=abs(um[0] - pm[0]),
        second_moment_drift=abs(um[1] - pm[1]),
        fourth_moment_drift=abs(um[2] - pm[2]),
        alphabet=tuple(alphabet),
        alphabet_moments=alpha_coord.moments(),
    )


def hc_concentration_probe(coord: Coordinate, t: float,
                           trials: int, rng: np.random.Generator) -> float:
    """Empirical Pr[|x| >= t * ||x||_2]; Markov gives the 1/(eta^4 t^4) ceiling."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    _, m2, _ = coord.moments()
    xs = coord.sample(rng, trials)
    return float(np.mean(np.abs(xs) >= t * math.sqrt(m2)))


def hc_anticoncentration_probe(coord: Coordinate, theta: float, t: float,
                               trials: int, rng: np.random.Generator) -> float:
    """Empirical Pr[|x - theta| > t * ||x||_2]; Paley-Zygmund gives the floor."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    _, m2, _ = coord.moments()
    xs = coord.sample(rng, trials)
    return float(np.mean(np.abs(xs - theta) > t * math.sqrt(m2)))
