"""The generators: bucket-hashed bounded independence, and Nisan's PRG.

Both share one seed interface (``seed_bits``, ``random_seeds``,
``expand``) and read each coordinate's sorted, power-of-two-sized
alphabet through the low bits of a word.

In the bucket-hashed generator, coordinates are hashed into t buckets;
within a bucket the values are k-wise independent (k = 5 in general, 4
suffices for regular-only experiments); distinct buckets draw from
disjoint seed segments and are fully independent.  Each coordinate's
alphabet is the upper sandwich of its discretized law, indexed by the low
bits of the k-wise word.

Seed layout, low bits first: [hash index][bucket 0 seed]...[bucket t-1
seed], every bucket consuming k*m bits whether or not it is empty, with
m = log2 max(hash domain, alphabet size).

A coordinate's k-wise word is its bucket's polynomial in GF(2^m) at the
coordinate's rank r within the bucket.  Only its low label bits are read,
and each is GF(2)-linear in the bucket seed C: bit j is parity(C & M[j][r])
for masks M that depend on the shape alone (``_parity_masks``).

C is the bucket's seed field cut into words of q = 63 // m coefficients
each, so ``expand`` takes every bucket's words straight from the seed,
one 64-bit word read per word (``seeds.seed_fields``); ``sample_batch``
draws the coefficients and packs them into the same words (``_pack``).

The buckets and masks of a shape come in one of two forms
(``_shared_tables``): a table with one row per multiplier a seed can
pick, which the benchmark's mc_cli and mc_batch read for every
multiplier and exact_enum (t = 1) for its one multiplier; or, when
every multiplier's table would pass ``_TABLE_CELLS``, partitions
computed per row, which no workload reaches.

Since every label bit read is linear in the bucket seeds, a uniform seed
under one hash multiplier a gives label rows uniform on the image V_a of
a linear map over GF(2); the offset c only permutes the iid bucket seeds.
``image_seeds`` names one seed per point of each V_a, with its weight, so
an exact pass reads f once per point of V_a instead of once per seed; it
counts the points first, and only until they pass the caller's cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .gf2 import field
from .hashing import (
    AFFINE,
    MULTIPLICATIVE,
    HashFamily,
    HashFunction,
    is_power_of_two,
    multiplier_buckets,
)
from .robp import nisan_expand, nisan_seed_bits
from .seeds import (
    check_seeds,
    random_seed,
    random_seeds,
    seed_bytes,
    seed_fields,
    seed_from_int,
)

# Cells (rows x coordinates) per pass of the expansion kernel, and the
# largest table (of masks or of partitions, by multiplier) kept per generator.
_CHUNK_CELLS = 1 << 14
_TABLE_CELLS = 1 << 21
# Cells (label bits x coefficients x ranks) per pass of the mask builder.
_MASK_BLOCK_CELLS = 1 << 16
# Rows per sample_batch draw; it fixes the order of draws from the stream.
_BATCH_ROWS = 1 << 15


def _next_pow2(v: int) -> int:
    return 1 << max(0, (v - 1).bit_length())


@dataclass(frozen=True)
class MZParams:
    """The analysis parameter schedule; every field can be overridden."""

    d: int
    eps: float
    eta: float
    s_param: float
    delta: float
    b_blocks: int
    r_blocks: int
    L: int
    t: int
    k: int = 5

    def __post_init__(self):
        if not is_power_of_two(self.t):
            raise ValueError("bucket count t must be a power of 2")
        if self.k not in (4, 5):
            raise ValueError("within-bucket independence k must be 4 or 5")


def derive_params(d: int, eps: float, eta: float, **overrides) -> MZParams:
    """Schedule s = 1/(eta^2 sqrt(eps)), delta = eta^4 eps^8 / d^7, L = b*r,
    t = smallest power of 2 at least (dL)^2/eps.

    b = ceil((2/eta^4) ln(1/eps)) and r = ceil((1/(eta^4 delta)) ln(1+16 s^2))
    are the explicit block counts behind L.  Any keyword overrides the
    derived value (shrinking t below the isolation schedule is the caller's
    responsibility; empirical runs do exactly that).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    if not 0 < eta <= 1 / math.sqrt(3) + 1e-12:
        raise ValueError("need 0 < eta <= 1/sqrt(3)")
    s = overrides.pop("s_param", 1.0 / (eta * eta * math.sqrt(eps)))
    delta = overrides.pop("delta", eta ** 4 * eps ** 8 / d ** 7)
    b = overrides.pop("b_blocks", math.ceil((2.0 / eta ** 4) * math.log(1.0 / eps)))
    r = overrides.pop("r_blocks", math.ceil(math.log(1.0 + 16.0 * s * s) / (eta ** 4 * delta)))
    L = overrides.pop("L", b * r)
    t = overrides.pop("t", _next_pow2(math.ceil((d * L) ** 2 / eps)))
    k = overrides.pop("k", 5)
    if overrides:
        raise TypeError(f"unknown overrides: {sorted(overrides)}")
    return MZParams(d=d, eps=eps, eta=eta, s_param=s, delta=delta,
                    b_blocks=b, r_blocks=r, L=L, t=t, k=k)


def gather_letters(alpha: np.ndarray, labels: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``alpha[j, labels[:, j] mod size]`` for every row, as one flat gather.

    `alpha` is the (n, size) stack of the coordinates' sorted alphabets,
    size a power of two, and `labels` a (rows, n) integer array.
    """
    n, size = alpha.shape
    idx = np.bitwise_and(labels, size - 1, dtype=np.int64)
    idx += np.arange(0, n * size, size)
    return np.take(alpha.ravel(), idx, out=out)


def _parity_masks(m: int, k: int, label_bits: int, n: int) -> np.ndarray:
    """Masks M with bit j of p(r) = parity(C & M[j, w, r]) summed over words w.

    p(r) = sum_kk c_kk r^kk in GF(2^m), and C is its coefficients packed
    into words as ``MZGenerator._pack`` does: coefficient kk at bit
    (kk % q) * m of word kk // q, q = 63 // m, so no word uses bit 63.
    Bit j of c * y is linear in the bits of c: bit i of c contributes bit j
    of x^i * y.  Shape (label_bits, words, n).
    """
    f = field(m)
    q = 63 // m
    shift = np.arange(k) % q * m  # where coefficient kk starts in its word
    masks = np.zeros((label_bits, -(-k // q), n), dtype=np.int64)
    step = max(1, _MASK_BLOCK_CELLS // (label_bits * k))
    for lo in range(0, n, step):
        ranks = np.arange(lo, min(lo + step, n))
        y = np.ones((k, len(ranks)), dtype=np.int64)  # x^i * r^kk, from i = 0
        for kk in range(1, k):
            y[kk] = f.mul_array(y[kk - 1], ranks)
        for i in range(m):
            bits = y >> np.arange(label_bits)[:, None, None] & 1
            bits <<= (shift + i)[:, None]
            for w in range(masks.shape[1]):
                masks[:, w, lo:lo + len(ranks)] |= bits[:, w * q:(w + 1) * q].sum(axis=1)
            y <<= 1
            y ^= (y >> m) * f.modulus
    return masks


def _ranks(bucket: np.ndarray) -> np.ndarray:
    """Rank of each column among the columns of its row sharing its bucket."""
    cols = np.arange(bucket.shape[1])
    order = np.argsort(bucket, axis=1, kind="stable")
    ordered = np.take_along_axis(bucket, order, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    sorted_rank = cols - np.maximum.accumulate(np.where(first, cols, 0), axis=1)
    rank = np.empty_like(sorted_rank)
    np.put_along_axis(rank, order, sorted_rank, axis=1)
    return rank


def _multiplier_partitions(hash_m: int, t: int, n: int,
                           a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Buckets (a*j) mod t of coordinates j < n in GF(2^hash_m), and their ranks."""
    bucket = multiplier_buckets(hash_m, t, a, np.arange(n))
    return bucket, _ranks(bucket)


def _prefix_pivots(masks: np.ndarray, m: int) -> list[tuple[int, ...]]:
    """Pivot bits of the label rows of ranks 0, ..., c - 1 in one bucket, for each c.

    Row (j, r), label bit j of the coordinate at rank r, is the functional
    sum_w masks[j, w, r] << (w * q * m) on the bucket's seed field (word w
    starts at bit w * q * m, q = 63 // m).  The rows are reduced rank by
    rank into a GF(2) basis of packed ints, one vector per leading bit, so
    entry c lists the leading bits found below rank c.  The basis is
    triangular on them: the seeds supported there map one-to-one onto the
    image of those rows.
    """
    q = 63 // m
    basis: dict[int, int] = {}
    found = [()]
    for rank_rows in masks.transpose(2, 0, 1).tolist():
        pivots = found[-1]
        for words in rank_rows:
            v = sum(word << (w * q * m) for w, word in enumerate(words))
            while v:
                top = v.bit_length() - 1
                if top not in basis:
                    basis[top] = v
                    pivots += (top,)
                    break
                v ^= basis[top]
        found.append(pivots)
    return found


@lru_cache(maxsize=1)
def _shared_tables(n: int, t: int, k: int, m_word: int, label_bits: int, n_dom: int,
                   hash_m: int, constant_hash: tuple[int, int] | None,
                   table_cells: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The read-only (bucket, masks) that ``_partition_rows`` reads, in one of two forms.

    - A table, with one row per multiplier a seed can pick: bucket[a] the
      buckets of multiplier a, and masks[j, w, a] its masks gathered by
      rank.  That is every multiplier, or the one multiplier of a constant
      hash (a fixed hash, or t = 1) with c0 folded into its bucket row.
      mc_cli and mc_batch read every multiplier's table, exact_enum the
      one-multiplier table.  A one-multiplier table holds as many cells as
      the masks themselves, so it is always kept; every multiplier's is
      kept when it fits in ``table_cells``.
    - Otherwise no buckets and the masks by rank, (label_bits, words, n),
      and partitions are computed for the rows at hand: the only form
      whose memory fits at large n.  No workload reaches it.

    The key is everything the choice reads, so generators of one shape (one
    per ``hsprg estimate`` or ``hsprg gen`` call in a process) share their
    tables.  Only the last shape is kept: a table can reach 2^21 cells of
    int64 masks, and a process runs one shape at a time.
    """
    masks = _parity_masks(m_word, k, label_bits, n)
    if constant_hash is not None:
        a0, c0 = constant_hash
        bucket, rank = _multiplier_partitions(hash_m, t, n, np.array([a0]))
        bucket ^= c0 & (t - 1)
    elif masks.size * n_dom <= table_cells:
        bucket, rank = _multiplier_partitions(hash_m, t, n, np.arange(n_dom))
        bucket = bucket.astype(np.min_scalar_type(t - 1))
    else:
        bucket = None
    if bucket is not None:
        masks = np.take(masks, rank, axis=2)
        bucket.flags.writeable = False
    masks.flags.writeable = False
    return bucket, masks


class _Generator:
    """What every generator shares: the alphabets and the seed interface.

    ``alphabets`` is one read-only (n, size) float array, each row sorted
    (stably, so -0.0 and 0.0 keep their given order, as ``sorted`` keeps
    them).  A subclass sets ``seed_bits`` and defines ``expand(seeds)``,
    one row per seed row; ``generate`` expands one seed and ``random_seed``
    is one draw of ``random_seeds``.
    """

    def __init__(self, alphabets: Sequence[Sequence[float]]):
        if len(alphabets) == 0:
            raise ValueError("need at least one coordinate")
        sizes = {len(a) for a in alphabets}
        if len(sizes) != 1:
            raise ValueError("all alphabets must share one size")
        (size,) = sizes
        if not is_power_of_two(size):
            raise ValueError("alphabet size must be a power of 2")
        self.alphabets = np.sort(np.asarray(alphabets, dtype=float), axis=1, kind="stable")
        self.alphabets.flags.writeable = False
        self.n = len(alphabets)
        self.alphabet_size = size
        self.label_bits = max(1, (size - 1).bit_length())  # a one-letter alphabet reads 1 bit

    def random_seed(self, rng: np.random.Generator) -> int:
        return random_seed(rng, self.seed_bits)

    def random_seeds(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return random_seeds(rng, self.seed_bits, size)

    def generate(self, seed: int) -> np.ndarray:
        return self.expand(seed_from_int(seed, self.seed_bits))[0]


class MZGenerator(_Generator):
    """Concrete sampler for a list of per-coordinate alphabets."""

    def __init__(self, alphabets: Sequence[Sequence[float]], t: int, k: int = 5,
                 hash_variant: str = AFFINE, fixed_hash: HashFunction | None = None):
        super().__init__(alphabets)
        if not is_power_of_two(t):
            raise ValueError("t must be a power of 2")
        if fixed_hash is not None and fixed_hash.t != t:
            raise ValueError(f"fixed hash has {fixed_hash.t} buckets, the generator t={t}")
        if k < 1:
            raise ValueError("independence order k must be >= 1")
        self.t = t
        self.k = k
        self.n_dom = max(_next_pow2(self.n), t)
        self.m_word = max((self.n_dom - 1).bit_length(), self.label_bits)
        self.hash_family = HashFamily(self.n_dom, t, variant=hash_variant)
        if fixed_hash is not None and fixed_hash.m != self.hash_family.m:
            raise ValueError(f"fixed hash works in GF(2^{fixed_hash.m}), "
                             f"the generator's hash family in GF(2^{self.hash_family.m})")
        self.fixed_hash = fixed_hash
        # (a, c) of the one partition every seed shares, when the seed picks no hash
        self._constant_hash = ((fixed_hash.a, fixed_hash.c) if fixed_hash is not None
                               else (0, 0) if t == 1 else None)
        self.hash_bits = 0 if self._constant_hash is not None else self.hash_family.index_bits
        self.bucket_seed_bits = self.k * self.m_word
        self._tables: tuple | None = None

    @property
    def seed_bits(self) -> int:
        return self.hash_bits + self.t * self.bucket_seed_bits

    def seed_bits_report(self) -> dict:
        """Actual layout plus the two hash-accounting variants."""
        per_bucket = self.t * self.k * self.m_word
        return {
            "seed_bits": self.seed_bits,
            "hash_bits": self.hash_bits,
            "bucket_bits": per_bucket,
            **{f"{variant}_hash_total": HashFamily(self.n_dom, self.t, variant).index_bits
               + per_bucket for variant in (MULTIPLICATIVE, AFFINE)},
        }

    def expand(self, seeds: np.ndarray) -> np.ndarray:
        """One generator row per seed row, shape (size, n)."""
        seeds = check_seeds(seeds, self.seed_bits)
        index = seed_fields(seeds, 0, self.hash_bits, 1)[:, 0]
        # word w of every bucket: its coefficients w*q, ..., as _pack places them
        q = 63 // self.m_word
        words = [seed_fields(seeds, self.hash_bits + w * q * self.m_word,
                             min(q, self.k - w * q) * self.m_word, self.t,
                             stride=self.bucket_seed_bits)
                 for w in range(-(-self.k // q))]
        out = np.empty((len(seeds), self.n))
        self._fill(*self.hash_family.coefficients(index), words, out)
        return out

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized fresh draws: hash (a, c) and bucket seeds sampled directly.

        Equivalent in law to generate() over uniform seeds; used for Monte
        Carlo scale.  Rows are drawn _BATCH_ROWS at a time, which fixes the
        order of draws from `rng`.
        """
        out = np.empty((size, self.n))
        done = 0
        while done < size:
            m = min(_BATCH_ROWS, size - done)
            if self._constant_hash is not None:
                a = c = np.zeros(m, dtype=np.int64)  # unused: one partition
            elif self.hash_family.variant == AFFINE:
                a = rng.integers(0, self.n_dom, size=m)
                c = rng.integers(0, self.n_dom, size=m)
            else:
                a, c = self.hash_family.coefficients(
                    rng.integers(0, 1 << self.hash_family.index_bits, size=m))
            # as uint32, the same values as the int64 draw, leaving the stream in the same state
            words = self._pack(rng.integers(0, 1 << self.m_word, size=(m, self.t, self.k),
                                            dtype=np.uint32))
            self._fill(a, c, words, out[done:done + m])
            done += m
        return out

    def _pack(self, coeffs: np.ndarray) -> np.ndarray:
        """(rows, t, k) bucket coefficients as (words, rows, t) int64 seed words.

        Coefficient kk moves to bit (kk % q) * m_word of word kk // q, with
        q = 63 // m_word: word w is the piece of the bucket's seed field
        that ``expand`` reads from the seed.
        """
        q = 63 // self.m_word
        words = np.zeros((-(-self.k // q),) + coeffs.shape[:2], dtype=np.int64)
        for kk in range(self.k):
            words[kk // q] |= np.left_shift(coeffs[:, :, kk], kk % q * self.m_word, dtype=np.int64)
        return words

    def _fill(self, a: np.ndarray, c: np.ndarray, words: Sequence[np.ndarray],
              out: np.ndarray) -> None:
        """The expansion kernel: rows of hash (a, c), and words[w] the (rows, t) seed word w.

        A coordinate takes its bucket's polynomial at its within-bucket rank
        r, and the low label_bits of that word index its alphabet.  Each of
        those bits is GF(2)-linear in the bucket's packed seed C, so label
        bit j is parity(C & M[j][r]) over the seed words, with the masks M
        of ``_parity_masks``: one mask gather, AND and popcount per bit and
        word, with no field arithmetic.
        """
        step = max(1, _CHUNK_CELLS // self.n)
        dtype = np.min_scalar_type((1 << self.label_bits) - 1)
        for lo in range(0, len(out), step):
            hi = min(lo + step, len(out))
            bucket, masks, index = self._partition_rows(a[lo:hi], c[lo:hi])
            where = np.arange(hi - lo)[:, None] * self.t + bucket
            seed = [np.take(w[lo:hi], where) for w in words]
            label = np.zeros(where.shape, dtype)
            bit = np.empty_like(label)
            for j, bit_masks in enumerate(masks):
                x = seed[0] & np.take(bit_masks[0], index, axis=0)
                for s, mask in zip(seed[1:], bit_masks[1:]):
                    x ^= s & np.take(mask, index, axis=0)
                # counted into a label-wide integer, so shifting by j cannot overflow
                np.bitwise_count(x, out=bit)
                bit &= 1
                bit <<= j
                label |= bit
            gather_letters(self.alphabets, label, out[lo:hi])

    def _partition_rows(self, a: np.ndarray,
                        c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bucket, masks, index) of every coordinate under each row's hash (a, c).

        The mask of label bit j and seed word w is
        ``np.take(masks[j, w], index, axis=0)``, shaped like bucket.  c only
        relabels the buckets by xor, which keeps the ranks, so all of it
        depends on the multiplier a alone.  Over a table, index picks each
        row's multiplier row (row 0 of a constant hash, whose one row
        broadcasts over every row); otherwise it is each row's ranks.
        """
        if self._tables is None:
            self._tables = _shared_tables(self.n, self.t, self.k, self.m_word,
                                          self.label_bits, self.n_dom, self.hash_family.m,
                                          self._constant_hash, _TABLE_CELLS)
        bucket, masks = self._tables
        if self._constant_hash is not None:
            return bucket, masks, np.zeros(1, dtype=np.intp)
        if bucket is None:
            bucket, index = _multiplier_partitions(self.hash_family.m, self.t, self.n, a)
        else:
            bucket, index = bucket[a], a
        return bucket ^ (c & (self.t - 1)).astype(bucket.dtype)[:, None], masks, index

    def image_seeds(self, chunk: int,
                    cap: int) -> tuple[int, Iterator[tuple[np.ndarray, int]] | None]:
        """One seed per point of each multiplier's image: ``(points, blocks)``.

        Under multiplier a, the label rows are A_a times the bucket seeds
        over GF(2).  A_a is block diagonal by bucket, and the rows of a
        bucket holding c coordinates are those of ranks 0, ..., c - 1, so
        one reduction of the rank rows (``_prefix_pivots``) gives the pivot
        bits each coordinate adds at its rank in its bucket (the partition
        of ``_multiplier_partitions``), and their union J_a has rank_a bits.
        The seeds whose bucket bits lie in J_a, with the hash field set to
        an index of a with offset 0, map one-to-one onto V_a.  An offset
        only permutes the iid bucket seeds, so every hash with multiplier a
        has the same image; a constant hash is its own one multiplier.
        Only the alphabet's index bits count, so a one-letter alphabet has
        one point per multiplier.

        `points` is the sum of 2^rank_a, counted before any block is built
        and only until it passes `cap`: every multiplier has a point, so
        more multipliers than `cap` stop it at once, and otherwise it stops
        after the first pass of multipliers that passes `cap`.  A count
        above `cap` is a lower bound, and `blocks` is then None.  Else
        `blocks` yields ``(seeds, weight)``: at most `chunk` seeds of one
        multiplier, each standing for `weight` of the 2^seed_bits seeds,
        that is 2^(bucket bits - rank_a) times the number of hash indices
        that pick a.  The count and the blocks each build the multipliers
        and their partitions a pass at a time, so memory stays one pass and
        one block.
        """
        if self._constant_hash is None:
            n_mult, c0 = self.hash_family.multiplier_count, 0
            indices = self.hash_family.multiplier_indices
        else:
            (a0, c0), n_mult = self._constant_hash, 1
            indices = lambda lo, hi: np.array([[a0], [0], [1]])
        if n_mult > cap:
            return n_mult, None
        masks = _parity_masks(self.m_word, self.k, self.label_bits, self.n)
        pivots = _prefix_pivots(masks[:(self.alphabet_size - 1).bit_length()], self.m_word)
        added = [pivots[r + 1][len(pivots[r]):] for r in range(self.n)]  # new pivots at rank r
        step = max(1, _CHUNK_CELLS // self.n)

        def partitions():
            """(index, picks, bucket, rank) of each pass of `step` multipliers."""
            for lo in range(0, n_mult, step):
                mult, index, picks = indices(lo, lo + step)
                bucket, rank = _multiplier_partitions(self.hash_family.m, self.t, self.n, mult)
                yield index, picks, bucket ^ (c0 & (self.t - 1)), rank

        gain = np.array([len(p) for p in added])
        points = 0
        for *_, rank in partitions():
            points += sum(1 << r for r in gain[rank].sum(axis=1).tolist())
            if points > cap:
                return points, None
        bucket_bits = self.t * self.bucket_seed_bits

        def blocks():
            for index, picks, bucket, rank in partitions():
                for row_bucket, row_rank, idx, pick in zip(bucket.tolist(), rank.tolist(),
                                                           index.tolist(), picks.tolist()):
                    bits = [self.hash_bits + b * self.bucket_seed_bits + p
                            for b, r in zip(row_bucket, row_rank) for p in added[r]]
                    weight = pick << (bucket_bits - len(bits))
                    head = np.frombuffer(idx.to_bytes(seed_bytes(self.seed_bits), "little"),
                                         dtype=np.uint8)
                    for start in range(0, 1 << len(bits), chunk):
                        i = np.arange(start, min(start + chunk, 1 << len(bits)))
                        seeds = np.tile(head, (len(i), 1))
                        for j, pos in enumerate(bits):
                            seeds[:, pos >> 3] |= (i >> j & 1).astype(np.uint8) << (pos & 7)
                        yield seeds, weight

        return points, blocks()

    def with_fixed_hash(self, h: HashFunction) -> "MZGenerator":
        return MZGenerator(self.alphabets, self.t, self.k,
                           self.hash_family.variant, fixed_hash=h)


class NisanProductGenerator(_Generator):
    """Product-space sampler driven by the small-width recursive PRG.

    Each coordinate reads one ``label_bits``-bit label as an index into its
    sorted alphabet; `space` is the width exponent of the branching
    programs the stream is meant to fool.
    """

    def __init__(self, alphabets: Sequence[Sequence[float]], space: int):
        super().__init__(alphabets)
        self.space = space
        self.seed_bits = nisan_seed_bits(space, self.label_bits, self.n)

    def expand(self, seeds: np.ndarray) -> np.ndarray:
        return gather_letters(self.alphabets, nisan_expand(self.space, self.label_bits, self.n, seeds))


def alphabets_from_distribution(dist) -> list[list[float]]:
    """Per-coordinate generator alphabets from a discrete product distribution.

    Coordinates must be uniform multisets (or uniform discrete laws); the
    generators check that the alphabets share one power-of-two size.
    """
    from .distributions import DiscreteCoordinate, UniformMultisetCoordinate

    out = []
    for i, c in enumerate(dist.coords):
        if isinstance(c, UniformMultisetCoordinate):
            out.append(list(c.multiset))
        elif isinstance(c, DiscreteCoordinate):
            if len(set(c.numerators)) != 1:
                raise ValueError(f"coordinate {i} is not a uniform law")
            out.append(list(c.values))
        else:
            raise ValueError(f"coordinate {i} is not discrete")
    return out
