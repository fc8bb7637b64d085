"""The shared seed format and the batch generator protocol.

Every generator exposes seed_bits, random_seeds(rng, size) and
expand(seeds); generate(seed) is expand of one row and random_seed is one
draw of random_seeds.
"""

import json

import numpy as np
import pytest

from conftest import philox
from hsprg.gf2 import KWiseFamily
from hsprg.hashing import MULTIPLICATIVE, HashFunction
from hsprg.mzgen import MZGenerator, NisanProductGenerator
from hsprg.robp import nisan_expand, nisan_generate, nisan_seed_bits
from hsprg.seeds import (
    check_seeds,
    random_seed,
    random_seeds,
    seed_fields,
    seed_from_int,
    seed_range,
)


def rng_state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def alphabet(size):
    return list(np.linspace(-1.0, 1.0, size) ** 3)


def fixed_hash_generator():
    base = MZGenerator([alphabet(4)] * 9, t=4, k=3)
    return base.with_fixed_hash(HashFunction(a=3, c=5, m=base.hash_family.m, t=4))


GENERATORS = {
    "affine": lambda: MZGenerator([alphabet(4)] * 12, t=4, k=5),
    "multiplicative": lambda: MZGenerator([alphabet(4)] * 12, t=4, k=5,
                                          hash_variant=MULTIPLICATIVE),
    "fixed-hash": fixed_hash_generator,
    "t1": lambda: MZGenerator([alphabet(2)] * 10, t=1, k=4),
    "wide-alphabet": lambda: MZGenerator([alphabet(16)] * 4, t=2, k=2),
    "odd-n": lambda: MZGenerator([alphabet(8)] * 37, t=8, k=4),
    "nisan": lambda: NisanProductGenerator([alphabet(4)] * 11, space=5),
    "nisan-shift-xor": lambda: NisanProductGenerator([alphabet(256)] * 6, space=10),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestProtocol:
    def test_random_seeds_match_repeated_random_seed(self, name):
        gen = GENERATORS[name]()
        one, batch = philox(3), philox(3)
        one.random(5)
        batch.random(5)
        ints = [gen.random_seed(one) for _ in range(23)]
        seeds = gen.random_seeds(batch, 23)
        assert seeds.shape == (23, (gen.seed_bits + 7) // 8)
        assert [int.from_bytes(row.tobytes(), "little") for row in seeds] == ints
        assert rng_state(one) == rng_state(batch)

    def test_expand_matches_generate(self, name):
        gen = GENERATORS[name]()
        seeds = gen.random_seeds(philox(4), 40)
        rows = gen.expand(seeds)
        assert rows.shape == (40, gen.n)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, gen.generate(int.from_bytes(seed.tobytes(), "little")))

    def test_expand_rejects_bad_seeds(self, name):
        gen = GENERATORS[name]()
        seeds = gen.random_seeds(philox(5), 2)
        with pytest.raises(ValueError):
            gen.expand(seeds[:, :-1])
        with pytest.raises(ValueError):
            gen.expand(seeds.astype(np.int64))
        with pytest.raises(ValueError):
            gen.generate(1 << gen.seed_bits)
        if gen.seed_bits % 8:
            seeds[1, -1] |= 0x80
            with pytest.raises(ValueError):
                gen.expand(seeds)


class TestWideAlphabet:
    @pytest.mark.parametrize("size", [4096, 8192])
    def test_matches_kwise_expand_all(self, size):
        # m_word = 12 (log/exp tables) and 13 (shift-xor), past the old cap of 11
        letters = list(range(size))
        gen = MZGenerator([letters] * 4, t=1, k=2)
        assert gen.m_word == size.bit_length() - 1
        fam = KWiseFamily(gen.m_word, 2, 4)
        seeds = gen.random_seeds(philox(6), 30)
        for row, seed in zip(gen.expand(seeds), seeds):
            words = fam.expand_all(fam.seed_from_int(int.from_bytes(seed.tobytes(), "little")))
            assert list(row) == [float(w) for w in words]

    def test_sample_batch_accepts_wide_words(self):
        gen = MZGenerator([list(range(4096))] * 4, t=2, k=3)
        X = gen.sample_batch(philox(7), 50)
        assert X.shape == (50, 4) and np.all((X >= 0) & (X < 4096))


class TestSeedFormat:
    def test_seed_range_matches_seed_from_int(self):
        for bits in (9, 16, 70):
            want = np.vstack([seed_from_int(v, bits) for v in range(250, 300)])
            assert np.array_equal(seed_range(250, 300, bits), want)

    def test_random_seed_clears_high_bits(self):
        rng = philox(8)
        assert all(random_seed(rng, 11) < 1 << 11 for _ in range(200))
        assert not np.any(random_seeds(rng, 11, 200)[:, 1] >> 3)

    def test_fields_read_little_endian_bit_strings(self):
        value = 0b1_0110_1100_0111_0
        seeds = seed_from_int(value, 17)
        assert seed_fields(seeds, 1, 4, 4).tolist() == [[0b0111, 0b1100, 0b0110, 0b1]]
        assert seed_fields(seeds, 0, 0, 1).tolist() == [[0]]

    def test_zero_seeds_is_an_empty_batch(self):
        for bits in (1, 11, 70):
            rng = philox(8)
            before = rng_state(rng)
            seeds = random_seeds(rng, bits, 0)
            assert seeds.shape == (0, (bits + 7) // 8) and seeds.dtype == np.uint8
            assert rng_state(rng) == before

    def test_check_seeds(self):
        with pytest.raises(ValueError):
            check_seeds(np.zeros(2, dtype=np.uint8), 16)
        with pytest.raises(ValueError):
            check_seeds(np.full((1, 2), 0xFF, dtype=np.uint8), 12)
        assert check_seeds(np.full((1, 2), 0x0F, dtype=np.uint8), 12).shape == (1, 2)
        with pytest.raises(ValueError):
            seed_from_int(-1, 8)
        with pytest.raises(TypeError):
            seed_from_int(1.0, 8)


def test_nisan_expand_is_nisan_generate_per_row():
    for S, D, T in [(1, 1, 4), (3, 2, 5), (12, 4, 17)]:
        bits = nisan_seed_bits(S, D, T)
        seeds = random_seeds(philox(9), bits, 20)
        rows = nisan_expand(S, D, T, seeds)
        assert rows.shape == (20, T)
        for row, seed in zip(rows.tolist(), seeds):
            assert row == nisan_generate(S, D, T, int.from_bytes(seed.tobytes(), "little"))
