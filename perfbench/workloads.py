"""The four benchmark workloads: inputs, set-up, references, operations.

Every workload draws its inputs from the workload seed alone, calls only
public hsprg functions, and checks each operation's output against a
reference the benchmark builds itself, outside the timed calls.  A round
is a fixed list of operations; the timed loop repeats rounds.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
from scipy.special import betainc

import hsprg.cli as cli
from hsprg import distributions, halfspace, harness, hashing, mzgen, regularity, robp
from hsprg import sandwich_poly

Z_CHECK = 5.0  # standard errors allowed between a Monte Carlo figure and its reference
P_FLOOR = 1e-7  # binomial tail probability below which a count is wrong (about 5.3 sigma)


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def seeds(*key) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class Op:
    """One timed program call and the check of its result.

    ``check`` returns (items, digest) or raises CheckFailed.
    """

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind, self.call, self.check = kind, call, check


# -- combiners ----------------------------------------------------------
# (combiner JSON, d, truth function on the sign bits); the benchmark keeps
# its own truth functions so references never go through CombinerSpec.

TREE_JSON = {"hs": 0,
             "low": {"hs": 1, "low": {"leaf": 0}, "high": {"leaf": 1}},
             "high": {"hs": 2, "low": {"leaf": 0}, "high": {"leaf": 1}}}
COMBINERS = [
    ({"kind": "single", "index": 0}, 1, lambda b: b[0]),
    ({"kind": "intersection"}, 2, lambda b: int(all(b))),
    ({"kind": "monotone-table",
      "table": [int(bin(i).count("1") >= 2) for i in range(16)]}, 4,
     lambda b: int(sum(b) >= 2)),
    ({"kind": "decision-tree", "tree": TREE_JSON}, 3,
     lambda b: b[2] if b[0] else b[1]),
]


def truth_table(fn, d: int) -> np.ndarray:
    """fn over all 2^d sign patterns, low bit = halfspace 0."""
    return np.array([fn([i >> j & 1 for j in range(d)]) for i in range(1 << d)], dtype=np.int8)


def pattern_index(signs: np.ndarray) -> np.ndarray:
    return (signs.astype(np.int64) << np.arange(signs.shape[1])).sum(axis=1)


def within(value: float, ref: float, se: float) -> bool:
    return abs(value - ref) <= Z_CHECK * se


def plausible(hits: int, n: int, p: float, slack: float = 0.0) -> bool:
    """hits out of n is outside the far tails of Bin(n, q) for some q within slack of p.

    Exact tails, so rare combiners (p near 0) get no false alarms.
    """
    from scipy.stats import binom  # only checks need it; keeps set-up free of it

    return (binom.sf(hits - 1, n, min(1.0, p + slack)) >= P_FLOOR
            and binom.cdf(hits, n, max(0.0, p - slack)) >= P_FLOOR)


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1 - p), 1.0 / n) / n)


def pm1_tail(m: int, theta: int) -> Fraction:
    """Pr[sum of m uniform signs >= theta], exactly."""
    return Fraction(sum(comb(m, k) for k in range(m + 1) if 2 * k - m >= theta), 2 ** m)


def pm1_tie(m: int, theta: int) -> Fraction:
    """Pr[sum of m uniform signs == theta], exactly."""
    k2 = m + theta
    return Fraction(comb(m, k2 // 2), 2 ** m) if k2 % 2 == 0 and 0 <= k2 <= 2 * m else Fraction(0)


def exact_ties(X: np.ndarray, W: np.ndarray, theta: np.ndarray) -> int:
    """Rows of X with some margin exactly 0, in exact rational arithmetic.

    Floats screen the rows; candidates within a rounding band are decided
    with Fractions.
    """
    margins = X @ W - theta
    band = 1e-9 * (np.abs(X) @ np.abs(W) + np.abs(theta))
    ties = 0
    for r in np.nonzero((np.abs(margins) <= band).any(axis=1))[0]:
        xs = [Fraction(float(v)) for v in X[r]]
        for i in range(W.shape[1]):
            if sum(x * Fraction(float(w)) for x, w in zip(xs, W[:, i])) == Fraction(float(theta[i])):
                ties += 1
                break
    return ties


class Workload:
    """Base: inputs from the seed, set-up, references, rounds of operations."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.inputs = self.make_inputs(seed)

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Program-side set-up: counted in setup_s."""

    def references(self) -> None:
        """Benchmark-side expected values: not timed."""

    def round_inputs(self, r: int) -> dict:
        """The inputs round r hands to the program."""
        return self.inputs

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def properties(self) -> dict:
        return {}


# -- mc_cli -------------------------------------------------------------

class McCli(Workload):
    """hsprg estimate/gen through hsprg.cli.main, in-process."""

    name = "mc_cli"
    N, T, K, NISAN_SPACE = 64, 16, 5, 6
    TRIALS_MZ, TRIALS_NISAN, GEN_SEEDS = 400, 800, 256
    SHARDS = 8  # the CLI's estimate runs the harness default
    N_REF = 200_000

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        W = rng.standard_normal((self.N, 4))
        theta = rng.uniform(-0.5, 0.5, 4) * np.linalg.norm(W, axis=0)
        return {"W": W, "theta": theta}

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _write(self, name: str, data) -> None:
        with open(self._path(name), "w") as fh:
            json.dump(data, fh)

    def setup(self):
        rep = distributions.discretize_coordinate(
            distributions.GaussianCoordinate(), n=self.N, C=3, eps=0.1, gamma=2 ** -4)
        self.alphabet = np.array(rep.alphabet)
        self._write("dist.json", {"coord": {"kind": "multiset", "values": list(rep.alphabet)},
                                  "n": self.N})
        self._write("params.json", {"t": self.T, "k": self.K})
        W, theta = self.inputs["W"], self.inputs["theta"]
        for c, (spec, d, _) in enumerate(COMBINERS):
            self._write(f"f{c}.json", {"W": W[:, :d].tolist(), "Theta": theta[:d].tolist()})
            self._write(f"g{c}.json", spec)
        # warm-up: argparse, JSON, GF(2^m) tables for both generators
        for argv in (self._estimate_argv(0, "mz", 8, 1), self._estimate_argv(0, "nisan", 8, 1),
                     self._gen_argv(2, 1)):
            self._cli(argv)

    def _estimate_argv(self, c, gen, trials, master):
        return ["estimate", "--f", self._path(f"f{c}.json"), "--combiner", self._path(f"g{c}.json"),
                "--dist", self._path("dist.json"), "--gen", gen, "--t", str(self.T),
                "--k", str(self.K), "--nisan-space", str(self.NISAN_SPACE), "--mode", "mc",
                "--trials", str(trials), "--master-seed", str(master),
                "--out", self._path("report.json")]

    def _gen_argv(self, count, master):
        return ["gen", "--dist", self._path("dist.json"), "--params", self._path("params.json"),
                "--seeds", str(count), "--master-seed", str(master),
                "--out", self._path("samples.bin")]

    @staticmethod
    def _cli(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def seed_bits(self) -> dict:
        m = max((self.N - 1).bit_length(), (len(self.alphabet) - 1).bit_length())
        w = self.NISAN_SPACE + (len(self.alphabet) - 1).bit_length() + 2
        return {"mz": 2 * (self.N - 1).bit_length() + self.T * self.K * m,
                "nisan": w + 2 * w * (self.N - 1).bit_length()}

    def references(self):
        """E f under the discretized law, by numpy Monte Carlo."""
        rng = np.random.default_rng([self.seed, 2])
        W, theta = self.inputs["W"], self.inputs["theta"]
        hits = np.zeros(len(COMBINERS))
        ties = 0
        chunk = 20_000
        for _ in range(self.N_REF // chunk):
            X = self.alphabet[rng.integers(0, len(self.alphabet), (chunk, self.N))]
            signs = (X @ W - theta >= 0).astype(np.int8)
            for c, (_, d, fn) in enumerate(COMBINERS):
                hits[c] += truth_table(fn, d)[pattern_index(signs[:, :d])].sum()
            ties += exact_ties(X, W, theta)
        self.ref = hits / self.N_REF
        self.tie_share = ties / self.N_REF

    def round_ops(self, r):
        ops = []
        for c in range(len(COMBINERS)):
            for j, (gen, trials) in enumerate((("mz", self.TRIALS_MZ),
                                               ("nisan", self.TRIALS_NISAN))):
                argv = self._estimate_argv(c, gen, trials, seeds(self.seed, r, c, j))
                ops.append(Op(f"estimate-{gen}-{c}",
                              lambda argv=argv: self._cli(argv),
                              lambda out, c=c, gen=gen, trials=trials:
                              self._check_estimate(out, c, gen, trials)))
        argv = self._gen_argv(self.GEN_SEEDS, seeds(self.seed, r, 99))
        ops.append(Op("gen", lambda: self._cli(argv), self._check_gen))
        return ops

    def _check_estimate(self, out, c, gen, trials):
        rc, text = out
        require(rc == 0, f"exit code {rc}")
        rep = json.loads(text.strip().splitlines()[-1])
        samples = rep["samples"]
        true_e, prg_e, err = (float(rep[k]) for k in ("true_exp", "prg_exp", "error"))
        require(rep["method"] == "monte-carlo", f"method {rep['method']}")
        require(samples == trials // self.SHARDS * self.SHARDS, f"samples {samples}")
        require(rep["seed_bits"] == self.seed_bits()[gen], f"seed_bits {rep['seed_bits']}")
        require(err == abs(true_e - prg_e), "error != |true_exp - prg_exp|")
        ref = float(self.ref[c])
        se = math.sqrt(max(ref * (1 - ref), 1.0 / samples) * (1 / samples + 1 / self.N_REF))
        require(within(true_e, ref, se), f"true_exp {true_e} vs reference {ref:.4f}")
        rep.pop("wall_ms")
        return samples, digest(sorted(rep.items()))

    def _check_gen(self, out):
        rc, text = out
        require(rc == 0, f"exit code {rc}")
        require(json.loads(text.strip().splitlines()[-1])["seed_bits"] == self.seed_bits()["mz"],
                "seed_bits")
        rows = np.fromfile(self._path("samples.bin"), dtype="<f8")
        require(rows.size == self.GEN_SEEDS * self.N, f"{rows.size} values written")
        require(bool(np.isin(rows, self.alphabet).all()), "value outside the alphabet")
        return self.GEN_SEEDS, digest(rows)

    def properties(self):
        return {"n": self.N, "d": [d for _, d, _ in COMBINERS], "t": self.T, "k": self.K,
                "nisan_space": self.NISAN_SPACE, "alphabet_size": len(self.alphabet),
                "seed_bits": self.seed_bits(), "mul_table_bytes": 0,
                "tie_share": self.tie_share, "tie_share_basis": f"{self.N_REF} reference draws",
                "trials": {"mz": self.TRIALS_MZ, "nisan": self.TRIALS_NISAN,
                           "gen": self.GEN_SEEDS}}


# -- mc_batch -----------------------------------------------------------

def skew64():
    """The 64-letter skewed law of acceptance criterion 11."""
    raw = [1 + math.log(k / 64) for k in range(1, 65)]
    vals, _, _ = distributions.standardize_multiset(raw)
    return distributions.DiscreteCoordinate(vals, [Fraction(1, 64)] * 64)


class McBatch(Workload):
    """Bulk sampling and evaluation: sample_batch, evaluate_batch, probes."""

    name = "mc_batch"
    N, BLOCK, T, K = 1024, 256, 64, 5
    ROWS = 8192
    BE_N, BE_TRIALS = 100, 50_000
    SPHERE_N, SPHERE_TRIALS = 16, 100_000
    SHARDS = 8
    # PRG-side slack beyond sampling error: at the seed commit the largest
    # bias seen over 50k rows was below 0.006 on every block marginal
    FOOLING_TOL = 0.02
    # |Pr[S in A] - Pr[G in A]| at n=100 was about 0.015 at the seed commit
    BE_TOL = 0.05

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        W = np.zeros((self.N, 4))
        for i in range(4):
            W[i * self.BLOCK:(i + 1) * self.BLOCK, i] = rng.choice([-1.0, 1.0], self.BLOCK)
        theta = rng.choice([-16.0, -8.0, 0.0, 8.0, 16.0], 4)
        half = self.BE_N // 2
        mags = rng.uniform(0.5, 1.5, self.BE_N)
        W_be = np.zeros((self.BE_N, 2))
        W_be[:half, 0], W_be[half:, 1] = mags[:half], mags[half:]
        w_sphere = rng.standard_normal(self.SPHERE_N)
        height = rng.uniform(-0.3, 0.3)
        return {"W": W, "theta": theta, "W_be": W_be, "w_sphere": w_sphere, "height": height}

    def setup(self):
        inp = self.inputs
        self.gen = mzgen.MZGenerator([[-1.0, 1.0]] * self.N, t=self.T, k=self.K)
        self.gen.sample_batch(np.random.default_rng([self.seed, 0]), 1)  # fills the multiply table
        self.dist = distributions.ProductDistribution.repeated(
            distributions.DiscreteCoordinate.rademacher(), self.N)
        self.system = halfspace.HalfspaceSystem(inp["W"], inp["theta"])
        self.combiners = [halfspace.CombinerSpec.from_json(spec) for spec, _, _ in COMBINERS]
        self.be_dist = distributions.ProductDistribution.repeated(skew64(), self.BE_N)
        self.orthant = harness.OrthantSet(np.zeros(2), (0, 0, 0, 1))
        w = inp["w_sphere"]
        self.sphere_system = halfspace.HalfspaceSystem(
            w[:, None], [inp["height"] * float(np.linalg.norm(w))])
        self.single = halfspace.CombinerSpec.single()

    def references(self):
        theta = self.inputs["theta"]
        p = [pm1_tail(self.BLOCK, int(t)) for t in theta]
        probs = []
        for _, _, fn in COMBINERS:
            total = Fraction(0)
            for idx in range(16):
                bits = [idx >> i & 1 for i in range(4)]
                if fn(bits):
                    total += math.prod(p[i] if b else 1 - p[i] for i, b in enumerate(bits))
            probs.append(float(total))
        self.ref = probs
        # cap probability Pr[x . u >= h] on S^(n-1), closed form
        h, n = self.inputs["height"], self.SPHERE_N
        tail = 0.5 * betainc((n - 1) / 2.0, 0.5, 1.0 - h * h)
        self.sphere_ref = float(tail if h >= 0 else 1.0 - tail)
        no_tie = math.prod(1 - pm1_tie(self.BLOCK, int(t)) for t in theta)
        self.tie_share = float(1 - no_tie)

    def _evaluate(self, X):
        return [halfspace.evaluate_batch(self.system, c, X) for c in self.combiners]

    def _sampled(self, X, vals, rows, slack):
        require(X.shape == (rows, self.N), f"shape {X.shape}")
        require(bool((np.abs(X) == 1.0).all()), "value outside {-1, 1}")
        for c, v in enumerate(vals):
            hits = int(v.sum())
            require(plausible(hits, rows, self.ref[c], slack),
                    f"combiner {c}: {hits}/{rows} vs exact {self.ref[c]:.4f}")
        return rows, digest(X.sum(axis=0), *vals)

    def round_ops(self, r):
        rows = self.ROWS

        def prg():
            X = self.gen.sample_batch(np.random.default_rng([self.seed, r, 0]), rows)
            return X, self._evaluate(X)

        def true():
            X = self.dist.sample(np.random.default_rng([self.seed, r, 1]), rows)
            return X, self._evaluate(X)

        def be():
            return harness.berry_esseen_probe(self.inputs["W_be"], self.be_dist, self.orthant,
                                              trials=self.BE_TRIALS,
                                              master_seed=seeds(self.seed, r, 2))

        def sphere():
            return harness.sphere_transfer(self.sphere_system, self.single,
                                           trials=self.SPHERE_TRIALS,
                                           master_seed=seeds(self.seed, r, 3))

        return [Op("sample_batch", prg, lambda out: self._sampled(*out, rows, self.FOOLING_TOL)),
                Op("true_sample", true, lambda out: self._sampled(*out, rows, 0.0)),
                Op("berry_esseen", be, self._check_be),
                Op("sphere_transfer", sphere, self._check_sphere)]

    def _check_be(self, rep):
        n = rep.samples
        require(n == self.BE_TRIALS // self.SHARDS * self.SHARDS, f"samples {n}")
        require(rep.gap == abs(rep.p_sum - rep.p_gauss), "gap != |p_sum - p_gauss|")
        # disjoint columns: the Gaussian's two margins are independent, so 1/4
        require(within(rep.p_gauss, 0.25, binomial_se(0.25, n)), f"p_gauss {rep.p_gauss}")
        require(rep.gap <= self.BE_TOL + Z_CHECK * binomial_se(0.25, n) * math.sqrt(2),
                f"gap {rep.gap}")
        return n, digest(rep.p_sum, rep.p_gauss, n)

    def _check_sphere(self, rep):
        n = rep.samples
        require(n == self.SPHERE_TRIALS // self.SHARDS * self.SHARDS, f"samples {n}")
        require(within(rep.estimate, self.sphere_ref, binomial_se(self.sphere_ref, n)),
                f"cap {rep.estimate} vs closed form {self.sphere_ref:.4f}")
        return n, digest(rep.estimate, n)

    def properties(self):
        return {"n": self.N, "d": 4, "t": self.T, "k": self.K, "alphabet_size": 2,
                "seed_bits": self.gen.seed_bits, "m_word": self.gen.m_word,
                "mul_table_bytes": (1 << self.gen.m_word) ** 2 * 8,
                "rows_per_batch": self.ROWS, "tie_share": self.tie_share,
                "tie_share_basis": "exact, uniform signs",
                "berry_esseen": {"n": self.BE_N, "d": 2, "alphabet_size": 64,
                                 "trials": self.BE_TRIALS, "tie_share": 0.0},
                "sphere_transfer": {"n": self.SPHERE_N, "d": 1, "trials": self.SPHERE_TRIALS}}


# -- exact_enum ---------------------------------------------------------

class ExactEnum(Workload):
    """estimate_fooling_error(mode="exact") for the 4-wise generator."""

    name = "exact_enum"
    N, K = 16, 4

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        alternating = np.array([1.0 if j % 2 == 0 else -1.0 for j in range(self.N)])
        W = np.column_stack([np.ones(self.N), alternating, rng.permutation(alternating),
                             rng.choice([-1.0, 1.0], self.N)])
        theta = np.array([2.0, 0.0, 0.0, float(rng.choice([-2, 0, 2]))])
        return {"W": W, "theta": theta}

    def setup(self):
        W, theta = self.inputs["W"], self.inputs["theta"]
        self.dist = distributions.ProductDistribution.repeated(
            distributions.DiscreteCoordinate.rademacher(), self.N)
        self.gen = mzgen.MZGenerator([[-1.0, 1.0]] * self.N, t=1, k=self.K)
        self.cases = []
        for spec, d, _ in COMBINERS:
            system = halfspace.HalfspaceSystem(W[:, :d], theta[:d])
            combiner = halfspace.CombinerSpec.from_json(spec)
            self.cases.append(lambda x, s=system, g=combiner: g.apply(s.sign_vector(x)))
        self.cases[0](self.gen.generate(0))  # warm-up: GF(2^m) tables

    def references(self):
        """Exact E f from the product of the halfspaces' branching programs."""
        W, theta = self.inputs["W"], self.inputs["theta"]
        programs = [robp.halfspace_to_robp(list(W[:, i]), theta[i], [[-1, 1]] * self.N)[0]
                    for i in range(4)]
        self.ref = []
        for _, d, fn in COMBINERS:
            table = truth_table(fn, d)
            prod = robp.product_robp(programs[:d], lambda bits: int(table[sum(
                b << i for i, b in enumerate(bits))]))
            self.ref.append(prod.accept_probability())
        cube = (np.arange(1 << self.N)[:, None] >> np.arange(self.N) & 1) * 2 - 1
        margins = cube @ W.astype(np.int64) - theta.astype(np.int64)
        self.tie_share = [float(Fraction(int((margins[:, :d] == 0).any(axis=1).sum()), len(cube)))
                          for _, d, _ in COMBINERS]

    def round_ops(self, r):
        return [Op(f"exact-{c}",
                   lambda f=f, c=c: harness.estimate_fooling_error(
                       f, self.dist, self.gen, mode="exact", master_seed=seeds(self.seed, r, c)),
                   lambda rep, c=c: self._check(rep, c))
                for c, f in enumerate(self.cases)]

    def _check(self, rep, c):
        seeds_n = 1 << self.gen.seed_bits
        require(rep.method == "exact-enumeration", rep.method)
        require(rep.samples == seeds_n, f"samples {rep.samples}")
        require(rep.true_expectation == float(self.ref[c]),
                f"E f = {rep.true_expectation!r}, branching program gives {self.ref[c]}")
        require(rep.fooling_error == abs(rep.true_expectation - rep.prg_expectation),
                "error != |true - prg|")
        points = 2 ** self.N
        return seeds_n + points, digest(rep.true_expectation, rep.prg_expectation, rep.samples)

    def properties(self):
        return {"n": self.N, "d": [d for _, d, _ in COMBINERS], "t": 1, "k": self.K,
                "alphabet_size": 2, "seed_bits": self.gen.seed_bits,
                "product_points": 2 ** self.N, "mul_table_bytes": 0,
                "tie_share": self.tie_share, "tie_share_basis": "exact, every point"}


# -- certify ------------------------------------------------------------

DGJSV_PAIRS = [(a, b) for a in (0.05, 0.1, 0.2) for b in (1e-2, 1e-4)]


class Certify(Workload):
    """Certificate builders: ROBPs, sandwiches, DGJSV, hybrid, hashing."""

    name = "certify"
    PM1_N, GAUSS_N, T20, HYB_N = 256, 13, 20, 10
    SANDWICH_EPS, COMPOSE_EPS = 0.1, 0.05
    HEAD_N, HEAD_D, HEAD_L, HEAD_DELTA = 4096, 4, 4, 0.05
    HASH_N, HASH_T = 128, 16
    DISC_N, DISC_GAMMA = 256, 2 ** -12
    HYB_KW = dict(delta=0.25, t=8.0, T=16384, d=2, L=1)
    SOUNDNESS_DRAWS = 256

    def make_inputs(self, seed):
        return {}  # every round draws its own, see round_inputs

    def round_inputs(self, r: int) -> dict:
        rng = np.random.default_rng([self.seed, 3, r])
        nonzero = [-3, -2, -1, 1, 2, 3]
        W_head = rng.standard_normal((self.HEAD_N, self.HEAD_D))
        W_head[rng.choice(self.HEAD_N, 8, replace=False)] *= 20.0
        return {
            "pm1": (rng.choice([-1.0, 1.0], self.PM1_N), 2 * int(rng.integers(-4, 5))),
            "gauss": (rng.standard_normal(self.GAUSS_N), 0.5 * float(rng.standard_normal())),
            "t20": [(rng.choice(nonzero, self.T20).astype(float), int(rng.integers(-3, 4)))
                    for _ in range(2)],
            "hybrid": [(rng.choice([-1.0, 1.0], self.HYB_N), float(rng.choice([-2, 0, 2])))
                       for _ in range(2)],
            "head": W_head,
            "soundness": rng.integers(0, 2, (self.SOUNDNESS_DRAWS, self.PM1_N)),
        }

    def setup(self):
        self.rad = distributions.DiscreteCoordinate.rademacher()
        self.hyb_dist = distributions.ProductDistribution.repeated(self.rad, self.HYB_N)

    def round_ops(self, r):
        inp = self.round_inputs(r)
        st: dict = {}
        w_pm1, th_pm1 = inp["pm1"]
        w_g, th_g = inp["gauss"]
        ops = []
        if r == 0:  # each pair built cold, once per process
            for a, b in DGJSV_PAIRS:
                ops.append(Op(f"dgjsv-{a}-{b}",
                              lambda a=a, b=b: sandwich_poly.audit_dgjsv(
                                  sandwich_poly.dgjsv_poly(a, b)),
                              self._check_dgjsv))

        def keep(key, fn):
            def call():
                st[key] = fn()
                return st[key]
            return call

        ops += [
            Op("compile-pm1", keep("pm1", lambda: robp.halfspace_to_robp(
                list(w_pm1), th_pm1, [[-1, 1]] * self.PM1_N)),
               lambda out: self._check_compiled([out], self.PM1_N + 1)),
            Op("accept-pm1", lambda: st["pm1"][0].accept_probability(),
               lambda p: self._check_equal(p, pm1_tail(self.PM1_N, th_pm1))),
            Op("sandwich-pm1", lambda: robp.sandwich_monotone(
                st["pm1"][0], self.SANDWICH_EPS, st["pm1"][1]),
               lambda pair: self._check_sandwich(pair, st["pm1"][0].eval, self.SANDWICH_EPS,
                                                 inp["soundness"])),
            Op("compile-gauss", keep("gauss", lambda: robp.halfspace_to_robp(
                list(w_g), th_g, [[-1, 1]] * self.GAUSS_N)),
               lambda out: self._check_compiled([out], 1 << self.GAUSS_N)),
            Op("accept-gauss", lambda: st["gauss"][0].accept_probability(),
               lambda p: self._check_equal(p, self._subset_tail(w_g, th_g))),
            Op("compile-t20", keep("t20", lambda: [robp.halfspace_to_robp(
                list(w), th, [[-1, 1]] * self.T20) for w, th in inp["t20"]]),
               lambda out: self._check_compiled(out, 2 * 3 * self.T20 + 1)),
            Op("check-monotone-t20", lambda: robp.check_monotone(st["t20"][0][0]),
               self._check_monotone),
            Op("compose-d2", lambda: robp.compose_monotone_sandwich(
                [0, 0, 0, 1], [p for p, _ in st["t20"]], self.COMPOSE_EPS,
                [c for _, c in st["t20"]]),
               lambda pair: self._check_sandwich(
                   pair, lambda z: int(all(p.eval(z) for p, _ in st["t20"])),
                   2 * self.COMPOSE_EPS, inp["soundness"][:, :self.T20])),
            Op("hybrid", lambda: self._hybrid(inp["hybrid"]), self._check_hybrid),
            Op("collision-stats", lambda: hashing.collision_stats(
                hashing.HashFamily(self.HASH_N, self.HASH_T)), self._check_collision),
            Op("head-set", lambda: regularity.head_set_partition(
                inp["head"], [1.0] * self.HEAD_N, [3.0] * self.HEAD_N,
                self.HEAD_DELTA, self.HEAD_L),
               lambda res: self._check_head(res, inp["head"])),
            Op("critical-index", lambda: [regularity.critical_index(
                regularity.TermNorms.from_weights(inp["head"][:, i], [1.0] * self.HEAD_N,
                                                  [3.0] * self.HEAD_N), self.HEAD_DELTA)
                for i in range(self.HEAD_D)],
               lambda res: self._check_critical(res, inp["head"])),
            Op("discretize", lambda: distributions.discretize_coordinate(
                distributions.GaussianCoordinate(), n=self.DISC_N, C=3, eps=0.1,
                gamma=self.DISC_GAMMA), self._check_discretize),
        ]
        return ops

    def _hybrid(self, pairs):
        coords = [self.rad] * self.HYB_N
        polys = [sandwich_poly.build_upper_poly(list(w), th, coords, **self.HYB_KW)
                 for w, th in pairs]
        return sandwich_poly.hybrid_product(
            polys, [halfspace.Halfspace(tuple(w), th) for w, th in pairs], self.hyb_dist)

    # -- checks ---------------------------------------------------------
    @staticmethod
    def _check_compiled(outs, max_width):
        for program, cert in outs:
            require(program.width <= max_width, f"width {program.width} > {max_width}")
            require(len(cert.orders) == program.T + 1, "certificate does not cover every layer")
        return 1, digest([(program.widths, program.accept) for program, _ in outs])

    @staticmethod
    def _check_equal(p, ref):
        require(p == ref, f"acceptance probability {p} != {ref}")
        return 1, digest(p)

    @staticmethod
    def _subset_tail(w, theta) -> Fraction:
        """Pr[w . x >= theta] over uniform signs, by exact subset sums."""
        fr = [Fraction(float(v)) for v in w] + [Fraction(float(theta))]
        scale = math.lcm(*(f.denominator for f in fr))
        ints = [int(f * scale) for f in fr]
        sums = [0]
        for v in ints[:-1]:
            sums = [s - v for s in sums] + [s + v for s in sums]
        return Fraction(sum(s >= ints[-1] for s in sums), len(sums))

    @staticmethod
    def _check_sandwich(pair, f, budget, draws):
        require(pair.gap() <= Fraction(budget), f"gap {float(pair.gap())} > {budget}")
        for z in draws:
            z = tuple(int(v) for v in z)
            require(pair.down.eval(z) <= f(z) <= pair.up.eval(z), f"unsound at {z}")
        return 1, digest(pair.down.widths, pair.up.widths, pair.gap())

    @staticmethod
    def _check_monotone(res):
        require(isinstance(res, robp.MonotoneCertificate), "halfspace program reported non-monotone")
        return 1, digest(res.orders)

    @staticmethod
    def _check_dgjsv(audit):
        require(audit.ok, f"audit violations {audit.violations}")
        require(audit.K % 2 == 0, f"odd degree {audit.K}")
        require(audit.c0_ratio <= sandwich_poly.DGJSV_C0, f"c0 ratio {audit.c0_ratio}")
        return 1, digest(audit.K, audit.c0_ratio)

    @staticmethod
    def _check_hybrid(res):
        require(res.pointwise_ok, "product below the intersection somewhere")
        require(all(c.ok() for c in res.certifications), "factor certification failed")
        require(res.measured_gap <= res.bound, f"gap {res.measured_gap} > bound {res.bound}")
        return 1, digest(res.measured_gap, res.bound)

    def _check_collision(self, stats):
        t = Fraction(1, self.HASH_T)
        require(stats.b_certified == 1, f"b = {stats.b_certified}")
        require(stats.max_single_prob == t and stats.max_pair_prob == t, "collision maxima")
        return 1, digest(stats.max_single_prob, stats.max_pair_prob, stats.family_size)

    def _regular(self, w, idx) -> bool:
        two, four = w * w, w ** 4 * 3.0  # the per-term norms, computed as the library does
        s2 = math.fsum(two[idx])
        return math.fsum(four[idx]) <= self.HEAD_DELTA * s2 * s2

    def _check_head(self, res, W):
        H0 = list(res.H0)
        require(len(set(H0)) == len(H0) <= self.HEAD_D * self.HEAD_L, f"head set {H0}")
        require(sum(res.counters) == len(H0), "counters do not add up to |H0|")
        require(all(c <= self.HEAD_L for c in res.counters), "counter above L")
        head = set(H0)
        survivors = [j for j in range(self.HEAD_N) if j not in head]
        for i, label in enumerate(res.classification):
            require((label == "REG") == self._regular(W[:, i], survivors),
                    f"dimension {i} classified {label}")
        return 1, digest(H0, res.classification)

    def _check_critical(self, res, W):
        for i, (ell, order) in enumerate(res):
            s2 = W[:, i] ** 2
            order_ref = np.lexsort((np.arange(self.HEAD_N), -s2))
            require(list(order) == order_ref.tolist(), f"dimension {i}: sort order")
            tail2 = np.cumsum(s2[order_ref][::-1])[::-1]
            tail4 = np.cumsum((W[:, i] ** 4 * 3.0)[order_ref][::-1])[::-1]
            ok = np.nonzero(tail4 <= self.HEAD_DELTA * tail2 ** 2)[0]
            want = int(ok[0]) if len(ok) else math.inf
            require(ell == want, f"dimension {i}: critical index {ell}, expected {want}")
        return 1, digest([ell for ell, _ in res])

    def _check_discretize(self, rep):
        require(rep.sd_lower_upper <= Fraction(self.DISC_GAMMA),
                f"statistical distance {float(rep.sd_lower_upper)} > gamma")
        mean, m2, _ = rep.alphabet_moments
        require(abs(mean) <= 1e-9 and abs(m2 - 1.0) <= 1e-9, "alphabet not standardized")
        return 1, digest(rep.alphabet)

    def properties(self):
        inp = self.round_inputs(0)
        _, th = inp["pm1"]
        return {"robp_pm1": {"n": self.PM1_N, "alphabet_size": 2, "eps": self.SANDWICH_EPS,
                             "tie_share": float(pm1_tie(self.PM1_N, th))},
                "robp_gauss": {"n": self.GAUSS_N, "tie_share": 0.0},
                "check_monotone": {"T": self.T20}, "compose": {"d": 2, "T": self.T20,
                                                               "eps": self.COMPOSE_EPS},
                "dgjsv_pairs": DGJSV_PAIRS,
                "hybrid": {"n": self.HYB_N, **self.HYB_KW},
                "hash_family": {"n": self.HASH_N, "t": self.HASH_T},
                "head_set": {"n": self.HEAD_N, "d": self.HEAD_D, "L": self.HEAD_L,
                             "delta": self.HEAD_DELTA},
                "discretize": {"n": self.DISC_N, "gamma": self.DISC_GAMMA},
                "mul_table_bytes": 0, "tie_share_basis": "exact, round 0 inputs"}


WORKLOADS = {w.name: w for w in (McCli, McBatch, ExactEnum, Certify)}
