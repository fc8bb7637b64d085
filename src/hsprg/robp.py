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
count / 2^(D(T-i)).
"""

from __future__ import annotations

import json
import math
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
        self.trans = [[tuple(row) for row in layer] for layer in trans]
        self.accept = tuple(int(b) for b in accept)
        self.D = D
        self.T = len(self.trans)
        n_labels = 1 << D
        widths = [len(layer) for layer in self.trans] + [len(self.accept)]
        if widths[0] != 1:
            raise ValueError("layer 0 must contain exactly the start state")
        for i, layer in enumerate(self.trans):
            for row in layer:
                if len(row) != n_labels:
                    raise ValueError(f"layer {i}: transitions must be total on {n_labels} labels")
                if any(not 0 <= nxt < widths[i + 1] for nxt in row):
                    raise ValueError(f"layer {i}: successor out of range")
        self.widths = widths

    @property
    def width(self) -> int:
        return max(self.widths)

    @property
    def space(self) -> int:
        """Smallest S with width <= 2^S."""
        return max(1, (self.width - 1).bit_length())

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

    def rank_tables(self) -> list[dict[int, int]]:
        return [{v: r for r, v in enumerate(layer)} for layer in self.orders]


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


def all_inputs(D: int, T: int):
    """Every label sequence, lexicographic; test-sized programs only."""
    import itertools
    return itertools.product(range(1 << D), repeat=T)


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


def acc_bitsets(B: ROBP) -> list[list[int]]:
    """Accepting-suffix sets as bitsets; suffix index is label-lexicographic.

    Feasible for D*T up to ~20 bits of suffix space.
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


def _decode_suffix(index: int, D: int, steps: int) -> tuple[int, ...]:
    labels = []
    for i in range(steps):
        shift = D * (steps - 1 - i)
        labels.append((index >> shift) & ((1 << D) - 1))
    return tuple(labels)


def check_monotone(B: ROBP) -> MonotoneCertificate | MonotoneCounterexample:
    """Certificate of per-layer Acc-set total order, or an incomparable pair."""
    sets = acc_bitsets(B)
    orders = []
    for i, layer in enumerate(sets):
        idx = sorted(range(len(layer)), key=lambda v: (bin(layer[v]).count("1"), layer[v]))
        for a, b in zip(idx, idx[1:]):
            if layer[a] & ~layer[b]:
                only_a = layer[a] & ~layer[b]
                only_b = layer[b] & ~layer[a]
                steps = B.T - i
                return MonotoneCounterexample(
                    i, a, b,
                    _decode_suffix((only_a & -only_a).bit_length() - 1, B.D, steps),
                    _decode_suffix((only_b & -only_b).bit_length() - 1, B.D, steps))
        orders.append(tuple(idx))
    return MonotoneCertificate(tuple(orders))


def _check_certificate(B: ROBP, cert: MonotoneCertificate, counts) -> None:
    """Check a caller's certificate against B, from the last layer back.

    The last order must put rejecting states before accepting ones.  In an
    earlier order, succ(u, z) may rank after succ(v, z) for a consecutive
    pair u, v only when both have the same accept count: the next layer is
    already a chain, so an equal count means equal accepting sets, and
    every Acc(u) then lies inside Acc(v).
    """
    if len(cert.orders) != B.T + 1:
        raise ValueError(f"certificate has {len(cert.orders)} orders, "
                         f"program has {B.T + 1} layers")
    for i, (order, width) in enumerate(zip(cert.orders, B.widths)):
        if sorted(order) != list(range(width)):
            raise ValueError(f"certificate order {i} is not a permutation of "
                             f"the layer's {width} states")
    last = [B.accept[v] for v in cert.orders[-1]]
    if last != sorted(last):
        raise NotMonotoneError(f"accept bits decrease along the order of layer {B.T}")
    ranks = cert.rank_tables()
    for i in reversed(range(B.T)):
        rank, count, rows = ranks[i + 1], counts[i + 1], B.trans[i]
        for u, v in zip(cert.orders[i], cert.orders[i][1:]):
            for a, b in zip(rows[u], rows[v]):
                if rank[a] > rank[b] and count[a] != count[b]:
                    raise NotMonotoneError(f"certificate orders state {u} before {v} "
                                           f"in layer {i}, but not by acceptance")


def sandwich_monotone(B: ROBP, eps: float,
                      cert: MonotoneCertificate | None = None) -> SandwichPair:
    """Narrow monotone programs below and above B with acceptance gap <= eps.

    States of each layer are grouped by quantizing their exact acceptance
    probability into intervals of width eps/(2T), in integers: state v of
    layer i falls in group count(v) * 2T * eps_den // (eps_num * 2^(D(T-i)))
    for eps = eps_num / eps_den.  The down program routes
    every group to its minimal representative under the monotone order,
    the up program to its maximal.  Soundness (down <= B <= up pointwise,
    gap <= eps) is enumerated in the tests rather than assumed.  A given
    `cert` is checked against B first.
    """
    if not (0 < eps and math.isfinite(eps)):
        raise ValueError("eps must be finite and positive")
    counts = B.accept_counts()
    if cert is None:
        result = check_monotone(B)
        if isinstance(result, MonotoneCounterexample):
            raise NotMonotoneError(f"program is not monotone at layer {result.layer}")
        cert = result
    else:
        _check_certificate(B, cert, counts)
    eps_num, eps_den = Fraction(eps).as_integer_ratio()
    q_num = 2 * max(B.T, 1) * eps_den
    ranks = cert.rank_tables()

    # group[i][v] -> (down representative, up representative)
    reps: list[dict[int, tuple[int, int]]] = []
    for i, layer_counts in enumerate(counts):
        order = cert.orders[i]
        q_den = eps_num << (B.D * (B.T - i))
        groups: dict[int, list[int]] = {}
        for v in order:
            groups.setdefault(layer_counts[v] * q_num // q_den, []).append(v)
        table = {}
        for members in groups.values():
            lo = min(members, key=lambda v: ranks[i][v])
            hi = max(members, key=lambda v: ranks[i][v])
            for v in members:
                table[v] = (lo, hi)
        reps.append(table)

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
