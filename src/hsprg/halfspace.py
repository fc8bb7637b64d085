"""Halfspaces, intersections, monotone combiners, and decision trees.

The sign convention gives 1 on the boundary: h(x) = 1[w.x >= theta].
Negating under that convention flips strictness, so each halfspace carries
a strict flag and negation is exact even on discrete supports where the
boundary atom has positive mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Halfspace:
    """1[w.x >= theta] (or strict > when `strict`)."""

    w: tuple[float, ...]
    theta: float
    strict: bool = False

    def margin(self, x: Sequence[float]):
        if len(x) != len(self.w):
            raise ValueError(f"point has dimension {len(x)}, weights {len(self.w)}")
        return sum(wi * xi for wi, xi in zip(self.w, x)) - self.theta

    def evaluate(self, x: Sequence[float]) -> int:
        m = self.margin(x)
        return int(m > 0 if self.strict else m >= 0)

    def negation(self) -> "Halfspace":
        # not(s >= t) == (-s > -t); not(s > t) == (-s >= -t)
        return Halfspace(tuple(-wi for wi in self.w), -self.theta, not self.strict)


class HalfspaceSystem:
    """d halfspaces sharing the input: column i of W with threshold Theta[i]."""

    def __init__(self, W: np.ndarray | Sequence[Sequence[float]],
                 Theta: Sequence[float], strict: Sequence[bool] | None = None):
        self.W = np.asarray(W, dtype=float)
        if self.W.ndim == 1:
            self.W = self.W[:, None]
        self.Theta = np.asarray(Theta, dtype=float)
        self.n, self.d = self.W.shape
        if self.Theta.shape != (self.d,):
            raise ValueError("Theta must have one entry per halfspace")
        if not (np.isfinite(self.W).all() and np.isfinite(self.Theta).all()):
            raise ValueError("HalfspaceSystem weights W and thresholds Theta must be finite")
        self.strict = tuple(strict) if strict is not None else (False,) * self.d

    def halfspace(self, i: int) -> Halfspace:
        return Halfspace(tuple(self.W[:, i]), float(self.Theta[i]), self.strict[i])

    def sign_vector(self, x: Sequence[float]) -> tuple[int, ...]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has dimension {x.shape}, expected {self.n}")
        margins = x @ self.W - self.Theta
        return tuple(int(m > 0 if s else m >= 0)
                     for m, s in zip(margins, self.strict))

    def sign_matrix(self, X: np.ndarray) -> np.ndarray:
        """Sign vectors for a batch of points, shape (samples, d)."""
        margins = np.asarray(X, dtype=float) @ self.W - self.Theta
        out = np.empty(margins.shape, dtype=np.int8)
        for i, s in enumerate(self.strict):
            out[:, i] = margins[:, i] > 0 if s else margins[:, i] >= 0
        return out

    def to_json(self) -> dict:
        return {"W": self.W.tolist(), "Theta": self.Theta.tolist(),
                "strict": list(self.strict)}

    @classmethod
    def from_json(cls, data: dict) -> "HalfspaceSystem":
        return cls(data["W"], data["Theta"], data.get("strict"))


def is_monotone_table(table: Sequence[int], d: int) -> bool:
    """Brute-force monotonicity of a truth table over {0,1}^d (d <= 10)."""
    if len(table) != 1 << d:
        raise ValueError(f"table must have 2^{d} entries")
    if d > 10:
        raise ValueError("monotonicity check limited to d <= 10")
    for x in range(1 << d):
        for i in range(d):
            if not x >> i & 1:
                if table[x] > table[x | (1 << i)]:
                    return False
    return True


@dataclass(frozen=True)
class DecisionTree:
    """Nodes reference halfspace indices; children keyed by the sign bit."""

    node: int | None          # halfspace index, None for a leaf
    leaf: int | None = None   # 0/1 at leaves
    low: "DecisionTree | None" = None   # sign bit 0
    high: "DecisionTree | None" = None  # sign bit 1

    @classmethod
    def leaf_node(cls, value: int) -> "DecisionTree":
        return cls(node=None, leaf=int(value))

    @classmethod
    def branch(cls, hs_index: int, low: "DecisionTree", high: "DecisionTree") -> "DecisionTree":
        return cls(node=hs_index, low=low, high=high)

    def evaluate(self, signs: Sequence[int]) -> int:
        t = self
        while t.node is not None:
            t = t.high if signs[t.node] else t.low
        return t.leaf

    def leaves(self) -> list[int]:
        if self.node is None:
            return [self.leaf]
        return self.low.leaves() + self.high.leaves()

    def depth(self) -> int:
        if self.node is None:
            return 0
        return 1 + max(self.low.depth(), self.high.depth())

    def paths(self) -> list[tuple[tuple[tuple[int, int], ...], int]]:
        """(((hs index, sign bit), ...), leaf value) for every root-leaf path."""
        if self.node is None:
            return [((), self.leaf)]
        out = []
        for bit, child in ((0, self.low), (1, self.high)):
            for path, leaf in child.paths():
                out.append((((self.node, bit),) + path, leaf))
        return out

    def to_json(self) -> dict:
        if self.node is None:
            return {"leaf": self.leaf}
        return {"hs": self.node, "low": self.low.to_json(), "high": self.high.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "DecisionTree":
        if "leaf" in data:
            return cls.leaf_node(data["leaf"])
        return cls.branch(data["hs"], cls.from_json(data["low"]), cls.from_json(data["high"]))


@dataclass(frozen=True)
class CombinerSpec:
    """How the d sign bits combine into the final 0/1 output."""

    kind: str                                  # single | intersection | monotone-table | decision-tree
    table: tuple[int, ...] | None = None       # monotone-table
    tree: DecisionTree | None = None           # decision-tree
    index: int = 0                             # single

    @classmethod
    def single(cls, index: int = 0) -> "CombinerSpec":
        return cls("single", index=index)

    @classmethod
    def intersection(cls) -> "CombinerSpec":
        return cls("intersection")

    @classmethod
    def monotone_table(cls, table: Sequence[int], d: int) -> "CombinerSpec":
        if not is_monotone_table(table, d):
            raise ValueError("truth table is not monotone")
        return cls("monotone-table", table=tuple(int(b) for b in table))

    @classmethod
    def decision_tree(cls, tree: DecisionTree) -> "CombinerSpec":
        return cls("decision-tree", tree=tree)

    def apply(self, signs: Sequence[int]) -> int:
        if self.kind == "single":
            return int(signs[self.index])
        if self.kind == "intersection":
            return int(all(signs))
        if self.kind == "monotone-table":
            idx = 0
            for i, b in enumerate(signs):
                idx |= int(b) << i
            return self.table[idx]
        if self.kind == "decision-tree":
            return self.tree.evaluate(signs)
        raise ValueError(f"unknown combiner kind {self.kind!r}")

    def check_fits(self, d: int) -> None:
        """Raise ValueError unless every sign vector of length d is a valid input."""
        if self.kind == "single":
            bad = not 0 <= self.index < d
        elif self.kind == "monotone-table":
            bad = len(self.table) != 1 << d
        elif self.kind == "decision-tree":
            bad = any(not 0 <= i < d for path, _ in self.tree.paths() for i, _ in path)
        else:
            bad = False
        if bad:
            raise ValueError(f"{self.kind} combiner {self.to_json()} does not fit "
                             f"a system of d={d} halfspaces")

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "single":
            out["index"] = self.index
        elif self.kind == "monotone-table":
            out["table"] = list(self.table)
        elif self.kind == "decision-tree":
            out["tree"] = self.tree.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "CombinerSpec":
        kind = data["kind"]
        if kind == "single":
            return cls.single(data.get("index", 0))
        if kind == "intersection":
            return cls.intersection()
        if kind == "monotone-table":
            table = data["table"]
            size = len(table)
            if size < 2 or size & (size - 1):
                raise ValueError(f"monotone-table needs 2^d >= 2 entries, got {size}")
            return cls.monotone_table(table, size.bit_length() - 1)
        if kind == "decision-tree":
            return cls.decision_tree(DecisionTree.from_json(data["tree"]))
        raise ValueError(f"unknown combiner kind {kind!r}")


def evaluate(system: HalfspaceSystem, combiner: CombinerSpec, x: Sequence[float]) -> int:
    return combiner.apply(system.sign_vector(x))


def evaluate_batch(system: HalfspaceSystem, combiner: CombinerSpec, X: np.ndarray) -> np.ndarray:
    combiner.check_fits(system.d)
    signs = system.sign_matrix(X)
    return np.fromiter((combiner.apply(row) for row in signs), dtype=np.int8,
                       count=signs.shape[0])


def normalize(system: HalfspaceSystem, m2: Sequence[float]) -> HalfspaceSystem:
    """Rescale each output dimension so sum_j E[(x_j W_j[i])^2] = 1.

    Positive rescaling leaves every sign vector unchanged.  m2 holds the
    per-coordinate second moments E[x_j^2].
    """
    m2 = np.asarray(m2, dtype=float)
    if m2.shape != (system.n,):
        raise ValueError("need one second moment per coordinate")
    scales = np.sqrt(m2 @ (system.W ** 2))
    if np.any(scales <= 0):
        raise ValueError("zero row: a dimension has no variance to normalize")
    return HalfspaceSystem(system.W / scales, system.Theta / scales, system.strict)
