"""Run-time span tracer for the hsprg benchmark.

The tracer wraps each layer's public entry points from outside the
package.  It patches every attribute a caller actually looks up: each
module of the ``hsprg`` package that holds the function (so
``hsprg.cli.estimate_fooling_error`` is patched together with
``hsprg.harness.estimate_fooling_error``), or the class that defines the
method.  ``uninstall`` puts the originals back.

A span records its name, start, end, parent span and item id in flat int64
arrays that stay in memory until ``save``.  Self time (duration minus the
time its child spans cover) and call counts are also summed online per
name, so the benchmark can read per-operation figures with ``take``.
Calls too fine to time without distortion are counted only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# span name, owner ("module" or "module:Class"), attribute
SPANS = [
    ("cli.main", "hsprg.cli", "main"),
    ("harness.estimate", "hsprg.harness", "estimate_fooling_error"),
    ("harness.product_enum", "hsprg.harness", "exact_expectation"),
    ("harness.seed_enum", "hsprg.harness", "expectation_over_seeds"),
    ("harness.berry_esseen", "hsprg.harness", "berry_esseen_probe"),
    ("harness.sphere_transfer", "hsprg.harness", "sphere_transfer"),
    ("distributions.discretize", "hsprg.distributions", "discretize_coordinate"),
    ("distributions.sample", "hsprg.distributions:ProductDistribution", "sample"),
    ("regularity.head_set", "hsprg.regularity", "head_set_partition"),
    ("regularity.critical_index", "hsprg.regularity", "critical_index"),
    ("hashing.collision_stats", "hsprg.hashing", "collision_stats"),
    ("mzgen.generate", "hsprg.mzgen:MZGenerator", "generate"),
    ("mzgen.random_seed", "hsprg.mzgen:MZGenerator", "random_seed"),
    ("mzgen.sample_batch", "hsprg.mzgen:MZGenerator", "sample_batch"),
    ("halfspace.sign_vector", "hsprg.halfspace:HalfspaceSystem", "sign_vector"),
    ("halfspace.evaluate_batch", "hsprg.halfspace", "evaluate_batch"),
    ("robp.compile", "hsprg.robp", "halfspace_to_robp"),
    ("robp.accept_prob", "hsprg.robp:ROBP", "accept_probability"),
    ("robp.check_monotone", "hsprg.robp", "check_monotone"),
    ("robp.sandwich", "hsprg.robp", "sandwich_monotone"),
    ("robp.product", "hsprg.robp", "product_robp"),
    ("robp.compose", "hsprg.robp", "compose_monotone_sandwich"),
    ("robp.nisan_generate", "hsprg.robp", "nisan_generate"),
    ("sandwich_poly.dgjsv_build", "hsprg.sandwich_poly", "dgjsv_poly"),
    ("sandwich_poly.audit", "hsprg.sandwich_poly", "audit_dgjsv"),
    ("sandwich_poly.build_upper", "hsprg.sandwich_poly", "build_upper_poly"),
    ("sandwich_poly.hybrid", "hsprg.sandwich_poly", "hybrid_product"),
]

# counter name, owner, attribute: counted, never timed
COUNTS = [
    ("gf2.mul", "hsprg.gf2:GF2m", "mul"),
    ("gf2.expand", "hsprg.gf2:KWiseFamily", "expand"),
    ("hashing.hash", "hsprg.hashing:HashFunction", "__call__"),
    ("halfspace.combiner_apply", "hsprg.halfspace:CombinerSpec", "apply"),
]


def _programs(result):
    """The branching programs a robp builder returned."""
    from hsprg.robp import ROBP, SandwichPair

    if isinstance(result, tuple):  # halfspace_to_robp: (program, certificate)
        result = result[0]
    if isinstance(result, SandwichPair):
        return [result.down, result.up]
    return [result] if isinstance(result, ROBP) else []


def _count_states(tracer: "Tracer", result) -> None:
    for program in _programs(result):
        widths = program.widths
        tracer.add("robp.states", sum(widths))
        tracer.peak("robp.width", max(widths))


def _count_degree(tracer: "Tracer", poly) -> None:
    tracer.add("sandwich_poly.dgjsv_degree", poly.degree)


# robp.compose is left out: its programs are the product_robp outputs
POST = {
    "robp.compile": _count_states,
    "robp.sandwich": _count_states,
    "robp.product": _count_states,
    "sandwich_poly.dgjsv_build": _count_degree,
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    mod = sys.modules[module]
    return getattr(mod, cls) if cls else mod


def _holders(owner: str, attr: str):
    """(object, attribute) pairs through which callers reach owner.attr."""
    target = _resolve(owner)
    if not isinstance(target, type(sys)):
        return [(target, attr)]
    original = getattr(target, attr)
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hsprg" or name.startswith("hsprg.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, key))
    return out


class Tracer:
    """Spans and counters for one traced run; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.item = -1
        self._stack: list[list[int]] = []  # [span index, start ns, child ns]
        self._self_ns: dict[str, int] = {}
        self._calls: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._cells: dict[str, list[int]] = {}
        self._peaks: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def begin(self, name: str) -> None:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        now = time.perf_counter_ns()
        self.span_name.append(sid)
        self.span_start.append(now)
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self._stack.append([idx, now, 0])

    def end(self, name: str) -> None:
        now = time.perf_counter_ns()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = now
        duration = now - start
        self._self_ns[name] = self._self_ns.get(name, 0) + duration - child
        self._calls[name] = self._calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    # -- counters -------------------------------------------------------
    def add(self, name: str, value: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self._peaks[name] = max(self._peaks.get(name, value), value)

    def take(self) -> dict:
        """Self ns, calls and counts since the last take; resets them."""
        counts = dict(self._counts)
        for name, cell in self._cells.items():
            counts[name] = counts.get(name, 0) + cell[0]
            cell[0] = 0
        out = {"self_ns": self._self_ns, "calls": self._calls, "counts": counts}
        self._self_ns, self._calls, self._counts = {}, {}, {}
        return out

    @property
    def peaks(self) -> dict[str, int]:
        return dict(self._peaks)

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, name, fn):
        post = POST.get(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(name)
            if post is not None:
                post(self, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for specs, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, owner, attr in specs:
                holders = _holders(owner, attr)
                if not holders:
                    raise RuntimeError(f"no caller reaches {owner}.{attr}")
                wrapped = make(name, getattr(*holders[0]))
                for obj, key in holders:
                    self._undo.append((obj, key, getattr(obj, key)))
                    setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------
    def save(self, path) -> None:
        """All spans as int64 arrays plus the name table, one .npz file."""
        np.savez(path,
                 names=np.array(json.dumps(self.names)),
                 name=np.asarray(self.span_name, dtype=np.int64),
                 start_ns=np.asarray(self.span_start, dtype=np.int64),
                 end_ns=np.asarray(self.span_end, dtype=np.int64),
                 parent=np.asarray(self.span_parent, dtype=np.int64),
                 item=np.asarray(self.span_item, dtype=np.int64))
