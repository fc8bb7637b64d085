"""Read-once branching programs and the monotone sandwiching machinery.

An (S, D, T)-program reads T labels of D bits and walks a layered graph of
width at most 2^S.  A program is monotone when every layer's states are
totally ordered by inclusion of their accepting-suffix sets; the natural
program for a halfspace (states = partial sums) is monotone, and any
monotone program can be squeezed between two narrow monotone programs by
quantizing acceptance probabilities.  Monotone functions of monotone
programs are sandwiched componentwise with a union-bound gap.

Partial sums in halfspace compilation are integers over one common scale
(the lcm of the denominators of every increment and the threshold), so
boundary ties under the sgn(0)=1 convention are never decided by float
rounding.  Acceptance is an integer path count too: with labels uniform
over {0,1}^D, a state of layer i accepts with probability
count / 2^(D(T-i)).  Monotonicity is decided from these counts in
polynomial time, one backward pass over layers; a counterexample comes
from the last layer that is not a chain.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .gf2 import field
from .halfspace import CombinerSpec, is_monotone_table
from .harness import ResourceCapError
from .seeds import check_seeds, seed_fields, seed_from_int

MAX_STATES = 1 << 18  # most states in one layer of a compiled or product program
MAX_CELLS = 1 << 24  # most successors (states times labels) one layer may compute


class NotMonotoneError(ValueError):
    pass


class ROBP:
    """Layered program: trans[i][v, label] (int32, read-only) is v's successor in layer i+1."""

    def __init__(self, trans: Sequence[Sequence[Sequence[int]]],
                 accept: Sequence[int], D: int):
        if isinstance(D, bool) or not isinstance(D, (int, np.integer)):
            raise ValueError(f"D must be an integer, got {D!r}")
        if D < 0:
            raise ValueError(f"D must be nonnegative, got {D}")
        n_labels = 1 << int(D)
        try:
            accept, layers = tuple(accept), []
            for layer in trans:
                layers.append(np.asarray(layer))
                if layers[-1].ndim < 2 and layers[-1].size:
                    raise TypeError
        except TypeError:  # a layer, row or accept list that is not a sequence
            raise ValueError("trans must be a list of layers of rows, and accept a list") from None
        except ValueError:  # a layer whose rows differ in length
            raise ValueError(f"layer {len(layers)}: transitions must be total on {n_labels} "
                             "labels") from None
        bad = [b for b in accept if b not in (0, 1)]
        if bad:
            raise ValueError(f"accept bits must be 0 or 1, got {bad[0]!r}")
        self.accept, self.D, self.T = tuple(map(int, accept)), int(D), len(layers)
        self.widths = [len(layer) for layer in layers] + [len(self.accept)]
        if self.widths[0] != 1:
            raise ValueError("layer 0 must contain exactly the start state")
        self.trans = []
        for i, layer in enumerate(layers):
            if layer.shape != (self.widths[i], n_labels):
                raise ValueError(f"layer {i}: transitions must be total on {n_labels} labels")
            if layer.dtype.kind not in "biu":
                raise ValueError(f"layer {i}: successors must be integers")
            if layer.min() < 0 or layer.max() >= self.widths[i + 1]:
                raise ValueError(f"layer {i}: successor out of range")
            self.trans.append(layer.astype(np.int32))
            self.trans[-1].flags.writeable = False

    @property
    def width(self) -> int:
        return max(self.widths)

    def eval(self, labels: Sequence[int]) -> int:
        if len(labels) != self.T:
            raise ValueError(f"expected {self.T} labels, got {len(labels)}")
        v = 0
        for i, z in enumerate(labels):
            if not 0 <= z < (1 << self.D):
                raise ValueError(f"label {z} does not fit in {self.D} bits")
            v = self.trans[i].item(v, z)
        return self.accept[v]

    def accept_counts(self) -> list[np.ndarray]:
        """Per layer i, an object array of Python ints: each state's accepted suffixes.

        Labels are uniform, so Pr[accept from v] = count / 2^(D(T-i)).
        """
        counts = [np.array(self.accept, dtype=object)]
        for layer in reversed(self.trans):
            counts.insert(0, counts[0][layer].sum(axis=1))
        return counts

    def accept_probability(self) -> Fraction:
        return Fraction(self.accept_counts()[0][0], 1 << (self.D * self.T))

    def to_json(self) -> dict:
        return {"D": self.D, "trans": [t.tolist() for t in self.trans], "accept": list(self.accept)}

    @classmethod
    def from_json(cls, data: dict) -> "ROBP":
        if not isinstance(data, dict):
            raise ValueError("a program must be a JSON object")
        missing = [key for key in ("trans", "accept", "D") if key not in data]
        if missing:
            raise ValueError(f"program has no {', '.join(missing)}")
        return cls(data["trans"], data["accept"], data["D"])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


@dataclass(frozen=True)
class MonotoneCertificate:
    """Per-layer state indices in nondecreasing Acc-set order."""

    orders: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MonotoneCounterexample:
    layer: int
    v: int
    w: int
    suffix_v: tuple[int, ...]  # accepted from v, rejected from w
    suffix_w: tuple[int, ...]  # accepted from w, rejected from v


@dataclass(frozen=True)
class SandwichPair:
    down: ROBP
    up: ROBP
    eps: float

    def gap(self) -> Fraction:
        return self.up.accept_probability() - self.down.accept_probability()


def _layered(T: int, D: int, start: np.ndarray, successors: Callable, accept: Callable,
             max_states: int, ordered: bool = False) -> ROBP:
    """The program on the states reachable from `start`, one layer at a time.

    States are the entries of an array, `start` the one state of layer 0.
    successors(i, states) gives the (len(states), 2^D) states that step i
    reaches; one np.unique numbers them in first-seen order (state by
    state, label by label), or in sorted order with `ordered`.  accept(states)
    gives the accept bits of the final states.
    """
    cur, trans = start, []
    for i in range(T):
        if len(cur) << D > MAX_CELLS:
            raise ResourceCapError(f"layer {i} has more than {MAX_CELLS} transitions")
        succ = successors(i, cur)
        cur, first, inverse = np.unique(succ, return_index=True, return_inverse=True)
        if len(cur) > max_states:
            raise ResourceCapError(f"layer {i + 1} exceeds {max_states} states")
        if not ordered:
            seen = np.argsort(first)
            cur, inverse = cur[seen], np.argsort(seen)[inverse]
        trans.append(inverse.reshape(succ.shape))
    return ROBP(trans, accept(cur), D)


def halfspace_to_robp(w: Sequence, theta, alphabets: Sequence[Sequence],
                      strict: bool = False) -> tuple[ROBP, MonotoneCertificate]:
    """Compile 1[sum w_i x_i >= theta] over per-step alphabets, exactly.

    Step i reads a D-bit label and takes the value alphabets[i][label mod
    size_i]; states are the reachable partial sums, each an integer: the
    exact rational sum times the lcm of the denominators of every
    increment and theta.  A positive scale keeps sums, ties and order, so
    ordering states by partial sum certifies monotonicity.  A float weight,
    threshold or letter must be finite.
    """
    for v in itertools.chain(w, (theta,), *alphabets):
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"weights, theta and alphabet letters must be finite, got {v}")
    n = len(w)
    if len(alphabets) != n:
        raise ValueError("need one alphabet per coordinate")
    sizes = [len(a) for a in alphabets]
    if any(s < 1 for s in sizes):
        raise ValueError("alphabets must be nonempty")
    D = max([(s - 1).bit_length() for s in sizes] + [1])
    thetaq = Fraction(theta)
    increments = [[Fraction(wi) * Fraction(a[z % len(a)]) for z in range(1 << D)]
                  for wi, a in zip(w, alphabets)]
    scale = math.lcm(thetaq.denominator, *(q.denominator for row in increments for q in row))
    steps = [[q.numerator * (scale // q.denominator) for q in row] for row in increments]
    bound = thetaq.numerator * (scale // thetaq.denominator)
    # partial sums stay under the sum of the largest steps: int64 below 2^62, else Python ints
    small = sum(max(map(abs, row)) for row in steps) + abs(bound) < 1 << 62
    steps = np.array(steps, dtype=np.int64 if small else object).reshape(n, 1 << D)
    program = _layered(n, D, np.zeros(1, steps.dtype), lambda i, s: s[:, None] + steps[i],
                       lambda s: (s > bound if strict else s >= bound).tolist(),
                       MAX_STATES, ordered=True)
    # sorted partial sums make the certificate the identity
    return program, MonotoneCertificate(tuple(tuple(range(wd)) for wd in program.widths))


def _chain_pass(B: ROBP, orders: Sequence[Sequence[int]] | None = None):
    """Accept counts, the orders, and the first pair that breaks a chain, if any.

    The orders default to each layer's states by accept count, ties by
    index.  Layers are checked from the last back, so the pair comes from
    the last layer whose order is not an inclusion chain.  Once layer i+1
    is a chain, inclusion there is the order of accept counts, so Acc(u)
    lies inside Acc(v) exactly when count(succ(u, z)) <= count(succ(v, z))
    for every label z.  The last layer compares accept bits.
    """
    counts = B.accept_counts()
    if orders is None:
        orders = tuple(tuple(np.argsort(c, kind="stable").tolist()) for c in counts)
    for i in reversed(range(B.T + 1)):
        succ = counts[i][:, None] if i == B.T else counts[i + 1][B.trans[i]]
        order = np.asarray(orders[i], dtype=np.intp)
        broken = np.flatnonzero((succ[order[:-1]] > succ[order[1:]]).any(axis=1))
        if broken.size:
            return counts, orders, (i, int(order[broken[0]]), int(order[broken[0] + 1]))
    return counts, orders, None


def _witness(B: ROBP, counts: list[np.ndarray], i: int, x: int, y: int):
    """Labels of the smallest suffix accepted from x and rejected from y.

    x and y are states of layer i; every later layer must be a chain.
    """
    for j in range(i, B.T):
        rx, ry = B.trans[j][x], B.trans[j][y]
        z = int(np.argmax(counts[j + 1][rx] > counts[j + 1][ry]))
        yield z
        x, y = rx[z], ry[z]


def check_monotone(B: ROBP) -> MonotoneCertificate | MonotoneCounterexample:
    """The accept-count orders (ties by index) if every layer is a chain.

    Otherwise the first failing pair of the last layer that is not a chain,
    with the lexicographically smallest suffix on each side.
    """
    counts, orders, bad = _chain_pass(B)
    if bad is None:
        return MonotoneCertificate(orders)
    i, u, v = bad
    return MonotoneCounterexample(i, u, v, tuple(_witness(B, counts, i, u, v)),
                                  tuple(_witness(B, counts, i, v, u)))


def sandwich_monotone(B: ROBP, eps: float,
                      cert: MonotoneCertificate | None = None) -> SandwichPair:
    """Narrow monotone programs below and above B with acceptance gap <= eps.

    States of each layer are grouped by quantizing their exact acceptance
    probability into intervals of width eps/(2T), in integers: state v of
    layer i falls in group count(v) * 2T * eps_den // (eps_num * 2^(D(T-i)))
    for eps = eps_num / eps_den.  The down program routes every group to
    its first member along the monotone order, the up program to its last.
    Soundness (down <= B <= up pointwise, gap <= eps) is enumerated in the
    tests rather than assumed.  A given `cert`'s orders, or else the
    accept-count orders, are checked against B first.
    """
    if not (0 < eps and math.isfinite(eps)):
        raise ValueError("eps must be finite and positive")
    if cert is not None:
        if len(cert.orders) != B.T + 1:
            raise ValueError(f"certificate has {len(cert.orders)} orders, "
                             f"program has {B.T + 1} layers")
        for i, (order, width) in enumerate(zip(cert.orders, B.widths)):
            if sorted(order) != list(range(width)):
                raise ValueError(f"certificate order {i} is not a permutation of "
                                 f"the layer's {width} states")
    counts, orders, bad = _chain_pass(B, None if cert is None else cert.orders)
    if bad is not None:
        i, u, v = bad
        raise NotMonotoneError(f"layer {i} is not a chain: state {u} comes before {v}, "
                               f"but accepts a suffix that {v} rejects")
    eps_num, eps_den = Fraction(eps).as_integer_ratio()

    # reps[i][0 or 1, v]: the down or up representative of state v of layer i.
    # Counts never decrease along a chain, so each group is a run of the order.
    reps = []
    for i, (order, layer_counts) in enumerate(zip(orders, counts)):
        order = np.asarray(order, dtype=np.intp)
        groups = layer_counts[order] * (2 * max(B.T, 1) * eps_den) // (eps_num << B.D * (B.T - i))
        _, first, run = np.unique(groups, return_index=True, return_inverse=True)
        last = np.append(first[1:], len(order)) - 1
        reps.append(order[np.stack([first[run], last[run]])][:, np.argsort(order)])
    # a sandwich layer is a subset of B's layer, so the cap never fires
    down, up = (_layered(B.T, B.D, np.zeros(1, np.intp), lambda i, v, r=r: r[i + 1][B.trans[i][v]],
                         lambda v: np.take(B.accept, v).tolist(), B.width) for r in zip(*reps))
    return SandwichPair(down, up, eps)


def product_robp(programs: Sequence[ROBP], accept_fn: Callable[[tuple[int, ...]], int]
                 ) -> ROBP:
    """Synchronous product; accept bit computed from the component bits."""
    if not programs:
        raise ValueError("need at least one program")
    D, T = programs[0].D, programs[0].T
    if any(p.D != D or p.T != T for p in programs):
        raise ValueError("programs must share D and T")
    # a product state is the mixed-radix number of its component states (int64 if it fits)
    radix = np.cumprod([1] + [p.width for p in programs], dtype=object)
    kind = np.int64 if radix[-1] < 1 << 63 else object

    def parts(states):  # each component's states, one array per program
        return [(states // r % p.width).astype(np.intp) for p, r in zip(programs, radix)]

    return _layered(
        T, D, np.zeros(1, kind),
        lambda i, s: sum(p.trans[i][v].astype(kind) * r
                         for p, v, r in zip(programs, parts(s), radix)),
        lambda s: list(map(accept_fn, zip(*(np.take(p.accept, v).tolist()
                                            for p, v in zip(programs, parts(s)))))),
        MAX_STATES)


def compose_monotone_sandwich(g_table: Sequence[int], programs: Sequence[ROBP],
                              eps: float,
                              certs: Sequence[MonotoneCertificate] | None = None
                              ) -> SandwichPair:
    """Sandwich g(B_1, ..., B_d) for monotone g; gap budget d*eps.

    Components are sandwiched at eps each; the union bound over the d
    component gaps gives the composed budget.
    """
    d = len(programs)
    if not is_monotone_table(g_table, d):
        raise NotMonotoneError("g is not monotone")
    if certs is not None and len(certs) != d:
        raise ValueError(f"need one certificate per program: {len(certs)} for {d}")
    pairs = [sandwich_monotone(p, eps, None if certs is None else certs[i])
             for i, p in enumerate(programs)]
    g = CombinerSpec.monotone_table(g_table, d).apply
    down = product_robp([p.down for p in pairs], g)
    up = product_robp([p.up for p in pairs], g)
    return SandwichPair(down, up, d * eps)


@dataclass(frozen=True)
class TreeErrorBound:
    """s*(eps+delta) aggregate for decision trees of sandwiched programs."""

    eps: float
    delta: float
    zero_leaves: int
    one_leaves: int

    @property
    def total_leaves(self) -> int:
        return self.zero_leaves + self.one_leaves

    @property
    def bound(self) -> float:
        return self.total_leaves * (self.eps + self.delta)

    @property
    def bound_min_leaves(self) -> float:
        """Tighter variant counting only the rarer leaf label."""
        return min(self.zero_leaves, self.one_leaves) * (self.eps + self.delta)


# ---------------------------------------------------------------------------
# Small-width PRG (recursive doubling with affine hashing over GF(2^(S+D+2)))


def nisan_word_bits(S: int, D: int) -> int:
    if S < 0:
        raise ValueError(f"space must be nonnegative, got {S}")
    if D < 0:
        raise ValueError(f"label bits must be nonnegative, got {D}")
    return S + D + 2  # 2 slack bits, pinned


def nisan_levels(T: int) -> int:
    if T < 1:
        raise ValueError("T must be positive")
    return max(0, (T - 1).bit_length())


def nisan_seed_bits(S: int, D: int, T: int) -> int:
    """One w-bit word plus 2w bits per recursion level, w = S + D + 2."""
    w = nisan_word_bits(S, D)
    return w + 2 * w * nisan_levels(T)


def nisan_expand(S: int, D: int, T: int, seeds: np.ndarray) -> np.ndarray:
    """Expand each seed row into T labels of D bits, shape (size, T).

    Level r output is (G_{r-1}(x), G_{r-1}(h_r(x))) with h_r(x) = a_r*x + b_r
    over GF(2^w); a label is the low D bits of its word.  Seed fields, low
    bits first: x, then (a_r, b_r) for r = 1, 2, ...  Levels are applied
    from the top down, each doubling the words of every row; T is padded
    to the next power of 2 and the output truncated.
    """
    w = nisan_word_bits(S, D)
    r = nisan_levels(T)
    seeds = check_seeds(seeds, nisan_seed_bits(S, D, T))
    words = seed_fields(seeds, 0, w, 1 + 2 * r)
    f = field(w)
    out = words[:, :1]
    for level in range(r, 0, -1):
        a, b = words[:, 2 * level - 1:2 * level], words[:, 2 * level:2 * level + 1]
        out = np.stack([out, f.mul_array(a, out) ^ b], axis=2).reshape(len(seeds), -1)
    return out[:, :T] & ((1 << D) - 1)


def nisan_generate(S: int, D: int, T: int, seed: int) -> list[int]:
    """The T labels of one integer seed; see nisan_expand."""
    return nisan_expand(S, D, T, seed_from_int(seed, nisan_seed_bits(S, D, T)))[0].tolist()
