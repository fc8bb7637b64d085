"""The timed loop and the figures computed from it.

A run repeats whole rounds until its time is up.  Each operation is timed
alone, around the program call; its check runs after the clock stops.
Rounds mix operations of very different cost, so the rate is that of a
median round: items_per_s = sum over operation kinds of the median items
of that kind, divided by the sum of the median seconds.  A run that stops
after a different number of rounds still weighs every kind the same.

The machine's speed drifts by tens of percent within seconds when other
tenants load the host.  A fixed loop of interpreter work samples that speed just
before and after each operation, and every SPEED_INTERVAL_S seconds while
it runs; an operation's seconds are scaled by SPEED_REF_S over the median
sample, so they read as seconds on a machine where the loop takes
SPEED_REF_S.  The loop's own time inside an operation is subtracted.
"""

from __future__ import annotations

import signal
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from statistics import median

import numpy as np

from workloads import CheckFailed

# per-layer metric -> (source, names, phase); source "self" sums self time
# of the named spans (seconds), "calls" their call counts, "count" a counter,
# "peak" a running maximum.  Phase "round" takes the median round of the
# timed section, "setup" the in-process set-up, "both" adds the two.
LAYER_METRICS = {
    "gf2.mul_calls": ("count", ["gf2.mul"], "round"),
    "gf2.expand_calls": ("count", ["gf2.expand"], "round"),
    "hashing.hash_calls": ("count", ["hashing.hash"], "round"),
    "hashing.collision_stats_s": ("self", ["hashing.collision_stats"], "round"),
    "distributions.discretize_s": ("self", ["distributions.discretize"], "both"),
    "distributions.sample_s": ("self", ["distributions.sample"], "round"),
    "regularity.head_set_s": ("self", ["regularity.head_set"], "round"),
    "regularity.critical_index_s": ("self", ["regularity.critical_index"], "round"),
    "mzgen.generate_s": ("self", ["mzgen.generate"], "round"),
    "mzgen.generate_calls": ("calls", ["mzgen.generate"], "round"),
    "mzgen.random_seed_s": ("self", ["mzgen.random_seed"], "round"),
    "mzgen.sample_batch_s": ("self", ["mzgen.sample_batch"], "round"),
    # set-up's one warm-up sample_batch call is the multiply-table build
    "mzgen.table_build_s": ("self", ["mzgen.sample_batch"], "setup"),
    "halfspace.sign_vector_s": ("self", ["halfspace.sign_vector"], "round"),
    "halfspace.sign_vector_calls": ("calls", ["halfspace.sign_vector"], "round"),
    "halfspace.evaluate_batch_s": ("self", ["halfspace.evaluate_batch"], "round"),
    "halfspace.combiner_apply_calls": ("count", ["halfspace.combiner_apply"], "round"),
    "harness.estimate_self_s": ("self", ["harness.estimate"], "round"),
    "harness.product_enum_self_s": ("self", ["harness.product_enum"], "round"),
    "harness.seed_enum_self_s": ("self", ["harness.seed_enum"], "round"),
    "harness.berry_esseen_s": ("self", ["harness.berry_esseen"], "round"),
    "harness.sphere_transfer_s": ("self", ["harness.sphere_transfer"], "round"),
    "robp.compile_s": ("self", ["robp.compile"], "round"),
    "robp.states_total": ("count", ["robp.states"], "round"),
    "robp.max_width": ("peak", ["robp.width"], "round"),
    "robp.accept_prob_s": ("self", ["robp.accept_prob"], "round"),
    "robp.check_monotone_s": ("self", ["robp.check_monotone"], "round"),
    "robp.sandwich_s": ("self", ["robp.sandwich"], "round"),
    "robp.product_s": ("self", ["robp.product"], "round"),
    "robp.nisan_generate_s": ("self", ["robp.nisan_generate"], "round"),
    "sandwich_poly.dgjsv_build_s": ("self", ["sandwich_poly.dgjsv_build"], "round"),
    "sandwich_poly.dgjsv_degree_sum": ("count", ["sandwich_poly.dgjsv_degree"], "round"),
    "sandwich_poly.audit_s": ("self", ["sandwich_poly.audit"], "round"),
    "sandwich_poly.hybrid_s": ("self", ["sandwich_poly.build_upper", "sandwich_poly.hybrid"],
                               "round"),
    "cli.main_self_s": ("self", ["cli.main"], "round"),
}
LAYER_UNITS = {"self": "s", "calls": "count", "count": "count", "peak": "count"}
STAT_KEY = {"self": "self_ns", "calls": "calls", "count": "counts"}  # Tracer.take() keys

SPEED_REF_S = 0.002
SPEED_INTERVAL_S = 0.1

_SPEED_W = np.linspace(-1.0, 1.0, 16)
_SPEED_X = np.ones(16)


class _Step:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def step(self, x):
        return self.v * x + 1


def speed_loop() -> int:
    """Fixed work in the program's mix: calls, dicts, Fractions, small numpy."""
    acc, table, obj = 0, {}, _Step(3)
    frac, third = Fraction(0), Fraction(1, 3)
    for i in range(2500):
        acc = (obj.step(i) + acc) & 0xFFFF
        table[i & 63, acc & 7] = acc
        if i % 10 == 0:
            frac += third * (i & 7)
            margin = float(_SPEED_X @ _SPEED_W) - 0.5
            acc ^= sum(int(v >= 0) for v in (margin, -margin))
    return acc


def speed_scale(samples: int = 3) -> float:
    """SPEED_REF_S over the median of a few speed samples taken now."""
    return SpeedProbe().scale(samples)


class SpeedProbe:
    """Speed samples of the machine around and during one operation."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        speed_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_timer(self, signum, frame):
        self.inside += self.sample()

    @contextmanager
    def timing(self):
        """Yields a list that receives the operation's seconds, loop time removed."""
        self.samples, self.inside = [], 0.0
        self.sample()
        out: list[float] = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            out.append(elapsed - self.inside)
        self.sample()

    def scale(self, fresh: int = 0) -> float:
        for _ in range(fresh):
            self.sample()
        return SPEED_REF_S / median(self.samples)


class Measurement:
    """Per-kind samples of one timed section."""

    def __init__(self):
        self.samples: dict[str, list[tuple[int, float]]] = {}  # scaled seconds
        self.raw: dict[str, list[float]] = {}  # wall seconds
        self.layers: dict[str, list[dict]] = {}
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0

    def kinds(self) -> dict:
        return {k: {"ops": len(v), "median_items": median(i for i, _ in v),
                    "median_s": median(s for _, s in v), "median_wall_s": median(self.raw[k])}
                for k, v in self.samples.items()}

    def rate(self, wall: bool = False) -> float:
        """Items per second of the median round; speed-scaled unless ``wall``."""
        kinds = self.kinds().values()
        secs = sum(k["median_wall_s" if wall else "median_s"] for k in kinds)
        return sum(k["median_items"] for k in kinds) / secs if secs > 0 else 0.0

    def layer_value(self, source: str, names: list[str]) -> float:
        total = 0.0
        for stats in self.layers.values():
            total += median(sum(s[STAT_KEY[source]].get(n, 0) for n in names) for s in stats)
        return total / 1e9 if source == "self" else total


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Whole rounds of ``workload`` until ``seconds`` have passed (at least one)."""
    m = Measurement()
    probe = SpeedProbe()
    start = time.perf_counter()
    while True:
        for op in workload.round_ops(m.rounds):
            m.attempted += 1
            stats = None
            try:
                if tracer is None:
                    with probe.timing() as dt:
                        result = op.call()
                else:
                    tracer.take()  # drop anything recorded between operations
                    tracer.item = m.attempted - 1
                    with probe.timing() as dt, tracer.span("bench.op"):
                        result = op.call()
                    stats = tracer.take()
                items, dig = op.check(result)
            except CheckFailed as e:
                m.failures.append(f"{op.kind}: {e}")
                m.digests.append("wrong")
                continue
            except Exception:  # a failing call is counted, and the run goes on
                m.failures.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
                m.digests.append("error")
                continue
            m.samples.setdefault(op.kind, []).append((items, dt[0] * probe.scale()))
            m.raw.setdefault(op.kind, []).append(dt[0])
            m.digests.append(dig)
            if stats is not None:
                m.layers.setdefault(op.kind, []).append(stats)
        m.rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    for f in m.failures:
        print(f"[{workload.name}] FAILED {f}", file=sys.stderr)
    return m


def layer_metrics(m: Measurement, setup_stats: dict, peaks: dict) -> dict:
    """Every per-layer metric, by name, with its unit."""
    out = {}
    for name, (source, names, phase) in LAYER_METRICS.items():
        if source == "peak":
            value = float(max((peaks.get(n, 0) for n in names), default=0))
        else:
            value = 0.0
            if phase in ("round", "both"):
                value += m.layer_value(source, names)
            if phase in ("setup", "both"):
                raw = sum(setup_stats[STAT_KEY[source]].get(n, 0) for n in names)
                value += raw / 1e9 if source == "self" else raw
        out[name] = {"value": value, "unit": LAYER_UNITS[source]}
    return out
