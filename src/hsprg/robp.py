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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .gf2 import field
from .halfspace import is_monotone_table
from .seeds import check_seeds, seed_fields, seed_from_int


class ResourceError(RuntimeError):
    """State growth beyond the configured cap."""


class NotMonotoneError(ValueError):
    pass


class ROBP:
    """Layered program: trans[i][v][label] is the successor in layer i+1."""

    def __init__(self, trans: Sequence[Sequence[Sequence[int]]],
                 accept: Sequence[int], D: int):
        if not isinstance(D, (int, np.integer)):
            raise ValueError(f"D must be an integer, got {D!r}")
        if D < 0:
            raise ValueError(f"D must be nonnegative, got {D}")
        try:
            self.trans = [[tuple(row) for row in layer] for layer in trans]
            accept = tuple(accept)
        except TypeError:  # a layer, row or accept list that is not a sequence
            raise ValueError("trans must be a list of layers of rows, and accept a list") from None
        bad = [b for b in accept if b not in (0, 1)]
        if bad:
            raise ValueError(f"accept bits must be 0 or 1, got {bad[0]!r}")
        self.accept = tuple(int(b) for b in accept)
        self.D = D
        self.T = len(self.trans)
        n_labels = 1 << D
        widths = [len(layer) for layer in self.trans] + [len(self.accept)]
        if widths[0] != 1:
            raise ValueError("layer 0 must contain exactly the start state")
        for i, layer in enumerate(self.trans):
            if any(len(row) != n_labels for row in layer):
                raise ValueError(f"layer {i}: transitions must be total on {n_labels} labels")
            if not all(issubclass(kind, (int, np.integer))
                       for kind in set(map(type, itertools.chain.from_iterable(layer)))):
                raise ValueError(f"layer {i}: successors must be integers")
            succ = set(itertools.chain.from_iterable(layer))
            if succ and (min(succ) < 0 or max(succ) >= widths[i + 1]):
                raise ValueError(f"layer {i}: successor out of range")
        self.widths = widths

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
            v = self.trans[i][v][z]
        return self.accept[v]

    def accept_counts(self) -> list[list[int]]:
        """Per layer i and state v, the number of accepted label suffixes.

        Labels are uniform, so Pr[accept from v] = count / 2^(D(T-i)).
        """
        counts = [list(self.accept)]
        for layer in reversed(self.trans):
            nxt = counts[-1]
            counts.append([sum(map(nxt.__getitem__, row)) for row in layer])
        counts.reverse()
        return counts

    def accept_probability(self) -> Fraction:
        return Fraction(self.accept_counts()[0][0], 1 << (self.D * self.T))

    def to_json(self) -> dict:
        return {"D": self.D, "trans": [[list(r) for r in layer] for layer in self.trans],
                "accept": list(self.accept)}

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

    @classmethod
    def load(cls, path: str) -> "ROBP":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


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


def _layered(T: int, D: int, start, successors: Callable, accept: Callable,
             max_states: int, ordered: bool = False) -> ROBP:
    """The program on the states reachable from `start`, one layer at a time.

    successors(i, state) gives the 2^D states that step i reaches from
    `state`; states are numbered in first-seen order, or in sorted order
    with `ordered`.  accept(state) is the accept bit of a final state.
    """
    cur = [start]
    trans: list[list[list[int]]] = []
    for i in range(T):
        index: dict = {}
        rows = []
        for state in cur:
            rows.append([index.setdefault(t, len(index)) for t in successors(i, state)])
            if len(index) > max_states:
                raise ResourceError(f"layer {i + 1} exceeds {max_states} states")
        cur = list(index)
        if ordered:
            order = sorted(range(len(cur)), key=cur.__getitem__)
            rank = [0] * len(cur)
            for new, old in enumerate(order):
                rank[old] = new
            rows = [[rank[x] for x in row] for row in rows]
            cur = [cur[j] for j in order]
        trans.append(rows)
    return ROBP(trans, [accept(state) for state in cur], D)


def halfspace_to_robp(w: Sequence, theta, alphabets: Sequence[Sequence],
                      strict: bool = False, max_states: int = 1 << 18
                      ) -> tuple[ROBP, MonotoneCertificate]:
    """Compile 1[sum w_i x_i >= theta] over per-step alphabets, exactly.

    Step i reads a D-bit label and takes the value alphabets[i][label mod
    size_i]; states are the reachable partial sums, each an integer: the
    exact rational sum times the lcm of the denominators of every
    increment and theta.  A positive scale keeps sums, ties and order, so
    ordering states by partial sum certifies monotonicity.
    """
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
    program = _layered(n, D, 0, lambda i, s: [s + inc for inc in steps[i]],
                       lambda s: int(s > bound if strict else s >= bound),
                       max_states, ordered=True)
    # sorted partial sums make the certificate the identity
    cert = MonotoneCertificate(tuple(tuple(range(wd)) for wd in program.widths))
    return program, cert


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
        orders = tuple(tuple(sorted(range(len(c)), key=c.__getitem__)) for c in counts)
    for i in reversed(range(B.T + 1)):
        succ = ([(c,) for c in B.accept] if i == B.T else
                [[counts[i + 1][a] for a in row] for row in B.trans[i]])
        for u, v in zip(orders[i], orders[i][1:]):
            if any(map(operator.gt, succ[u], succ[v])):
                return counts, orders, (i, u, v)
    return counts, orders, None


def _witness(B: ROBP, counts: list[list[int]], i: int, x: int, y: int):
    """Labels of the smallest suffix accepted from x and rejected from y.

    x and y are states of layer i; every later layer must be a chain.
    """
    for j in range(i, B.T):
        rx, ry, nxt = B.trans[j][x], B.trans[j][y], counts[j + 1]
        z = next(z for z, (a, b) in enumerate(zip(rx, ry)) if nxt[a] > nxt[b])
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
    q_num = 2 * max(B.T, 1) * eps_den

    # reps[i][v] -> (down representative, up representative)
    reps: list[dict[int, tuple[int, int]]] = []
    for i, (order, layer_counts) in enumerate(zip(orders, counts)):
        q_den = eps_num << (B.D * (B.T - i))
        groups: dict[int, list[int]] = {}
        for v in order:
            groups.setdefault(layer_counts[v] * q_num // q_den, []).append(v)
        reps.append({v: (members[0], members[-1])
                     for members in groups.values() for v in members})

    def build(which: int) -> ROBP:
        # a sandwich layer is a subset of B's layer, so the cap never fires
        return _layered(B.T, B.D, reps[0][0][which],
                        lambda i, v: [reps[i + 1][u][which] for u in B.trans[i][v]],
                        B.accept.__getitem__, B.width)

    return SandwichPair(build(0), build(1), eps)


def product_robp(programs: Sequence[ROBP], accept_fn: Callable[[tuple[int, ...]], int],
                 max_states: int = 1 << 18) -> ROBP:
    """Synchronous product; accept bit computed from the component bits."""
    if not programs:
        raise ValueError("need at least one program")
    D, T = programs[0].D, programs[0].T
    if any(p.D != D or p.T != T for p in programs):
        raise ValueError("programs must share D and T")
    return _layered(
        T, D, (0,) * len(programs),
        lambda i, state: zip(*(p.trans[i][v] for p, v in zip(programs, state))),
        lambda state: accept_fn(tuple(p.accept[v] for p, v in zip(programs, state))),
        max_states)


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

    def g(bits: tuple[int, ...]) -> int:
        idx = 0
        for i, b in enumerate(bits):
            idx |= b << i
        return g_table[idx]

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
