"""Halfspaces, intersections, monotone combiners, and decision trees.

The sign convention gives 1 on the boundary: h(x) = 1[w.x >= theta].
Negating under that convention flips strictness, so each halfspace carries
a strict flag and negation is exact even on discrete supports where the
boundary atom has positive mass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress
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
        if isinstance(x, np.ndarray):
            x = x.tolist()  # Python floats: the same products, without numpy scalars
        return sum(wi * xi for wi, xi in zip(self.w, x)) - self.theta

    def evaluate(self, x: Sequence[float]) -> int:
        m = self.margin(x)
        return int(m > 0 if self.strict else m >= 0)

    __call__ = evaluate

    def negation(self) -> "Halfspace":
        # not(s >= t) == (-s > -t); not(s > t) == (-s >= -t)
        return Halfspace(tuple(-wi for wi in self.w), -self.theta, not self.strict)


class HalfspaceSystem:
    """d halfspaces sharing the input: column i of W with threshold Theta[i]."""

    def __init__(self, W: np.ndarray | Sequence[Sequence[float]],
                 Theta: Sequence[float], strict: Sequence[bool] | None = None):
        W = np.asarray(W, dtype=float)
        # always C order: x @ W on a view (a column slice, say) takes another loop
        # than on a contiguous copy and can round differently near a threshold
        self.W = np.ascontiguousarray(W[:, None] if W.ndim == 1 else W)
        self.Theta = np.asarray(Theta, dtype=float)
        self.n, self.d = self.W.shape
        if self.Theta.shape != (self.d,):
            raise ValueError("Theta must have one entry per halfspace")
        if not (np.isfinite(self.W).all() and np.isfinite(self.Theta).all()):
            raise ValueError("HalfspaceSystem weights W and thresholds Theta must be finite")
        self.strict = tuple(strict) if strict is not None else (False,) * self.d
        if len(self.strict) != self.d:
            raise ValueError(f"strict needs one flag per halfspace, "
                             f"got {len(self.strict)} for d={self.d}")
        self._strict_mask = np.array(self.strict, dtype=bool)
        self._any_strict = any(self.strict)

    def halfspace(self, i: int) -> Halfspace:
        return Halfspace(tuple(self.W[:, i]), float(self.Theta[i]), self.strict[i])

    def _signs(self, dots: np.ndarray) -> np.ndarray:
        """int8 signs of the margins dots - Theta, dots of shape (d,) or (rows, d).

        For finite Theta the IEEE difference is zero only when dots == Theta
        (subnormals keep it exact near zero) and rounding never flips its
        sign, so these compares give the margin's signs bit for bit.
        """
        signs = dots >= self.Theta
        if self._any_strict:
            signs = np.where(self._strict_mask, dots > self.Theta, signs)
        return signs.view(np.int8)

    def sign_vector(self, x: Sequence[float]) -> tuple[int, ...]:
        """The signs of one point, from its own contiguous (n,) @ W product."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has dimension {x.shape}, expected {self.n}")
        return tuple(self._signs(np.ascontiguousarray(x) @ self.W).tolist())

    def sign_matrix(self, X: np.ndarray) -> np.ndarray:
        """Sign vectors for a batch of points, shape (samples, d).

        Each row is its own (1, n) @ W product, one BLAS call with
        `sign_vector`'s arguments, so row i gets sign_vector(X[i]) bit for
        bit whatever the layout of X and whatever rows share the call.
        """
        X = np.ascontiguousarray(X, dtype=float)
        return self._signs((X[:, None, :] @ self.W)[:, 0])

    def to_json(self) -> dict:
        return {"W": self.W.tolist(), "Theta": self.Theta.tolist(),
                "strict": list(self.strict)}

    @classmethod
    def from_json(cls, data: dict) -> "HalfspaceSystem":
        return cls(data["W"], data["Theta"], data.get("strict"))


_BIT_WEIGHTS = tuple(1 << i for i in range(64))


def pattern_index(signs: np.ndarray) -> np.ndarray:
    """Row i's sign pattern as an integer, bit j from column j (low bit first)."""
    return np.asarray(signs, dtype=np.int64) @ (1 << np.arange(signs.shape[1], dtype=np.int64))


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
        if value not in (0, 1):
            raise ValueError(f"a leaf must be 0 or 1, got {value!r}")
        return cls(node=None, leaf=int(value))

    @classmethod
    def branch(cls, hs_index: int, low: "DecisionTree", high: "DecisionTree") -> "DecisionTree":
        return cls(node=hs_index, low=low, high=high)

    def evaluate(self, signs: Sequence[int]) -> int:
        t = self
        while t.node is not None:
            t = t.high if signs[t.node] else t.low
        return t.leaf

    def evaluate_rows(self, signs: np.ndarray) -> np.ndarray:
        """`evaluate` on every row of a (samples, d) sign matrix, as int8."""
        if self.node is None:
            return np.full(signs.shape[0], self.leaf, dtype=np.int8)
        return np.where(signs[:, self.node] != 0, self.high.evaluate_rows(signs),
                        self.low.evaluate_rows(signs))

    def leaves(self) -> list[int]:
        return [leaf for _, leaf in self.paths()]

    def depth(self) -> int:
        return max(len(path) for path, _ in self.paths())

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
        return cls.branch(operator.index(data["hs"]), cls.from_json(data["low"]),
                          cls.from_json(data["high"]))


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
        bad = [b for b in table if b not in (0, 1)]
        if bad:
            raise ValueError(f"truth table entries must be 0 or 1, got {bad[0]!r}")
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
            # bit i of the index is signs[i]; Python ints whatever the sign type
            return self.table[sum(compress(_BIT_WEIGHTS, signs))]
        if self.kind == "decision-tree":
            return self.tree.evaluate(signs)
        raise ValueError(f"unknown combiner kind {self.kind!r}")

    def apply_rows(self, signs: np.ndarray) -> np.ndarray:
        """`apply` on every row of a (samples, d) 0/1 sign matrix, as int8."""
        if self.kind == "single":
            return signs[:, self.index].astype(np.int8)
        if self.kind == "intersection":
            return signs.all(axis=1).astype(np.int8)
        if self.kind == "monotone-table":
            return np.asarray(self.table, dtype=np.int8)[pattern_index(signs)]
        if self.kind == "decision-tree":
            return self.tree.evaluate_rows(signs)
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
            return cls.single(operator.index(data.get("index", 0)))
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
    return combiner.apply_rows(system.sign_matrix(X))


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
