"""Branching programs: compilation, monotonicity, sandwiching, the PRG."""

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import acc_bitsets, all_inputs, philox, random_monotone_robp, random_robp
from hsprg.robp import (
    ROBP,
    MonotoneCertificate,
    MonotoneCounterexample,
    NotMonotoneError,
    ResourceError,
    check_monotone,
    TreeErrorBound,
    compose_monotone_sandwich,
    halfspace_to_robp,
    nisan_expand,
    nisan_generate,
    nisan_seed_bits,
    product_robp,
    sandwich_monotone,
)
from hsprg.seeds import seed_range

PM1 = [[-1, 1]]


def sign_eval(w, theta, x, strict=False):
    s = sum(wi * xi for wi, xi in zip(w, x))
    return int(s > theta if strict else s >= theta)


class TestEval:
    def test_width1_all_accept(self):
        B = ROBP([[[0, 0]]] * 3, [1], D=1)
        assert all(B.eval(z) == 1 for z in all_inputs(1, 3))

    def test_two_term_halfspace_accepts_three_of_four(self):
        B, _ = halfspace_to_robp([1, 1], 0, PM1 * 2)
        acc = [B.eval(z) for z in all_inputs(1, 2)]
        assert sum(acc) == 3  # sgn(0) = 1 keeps the two boundary points

    def test_replay_deterministic(self):
        B = random_robp(philox(1), T=10, max_width=6)
        z = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        assert B.eval(z) == B.eval(z)

    def test_malformed_transitions_rejected(self):
        with pytest.raises(ValueError):
            ROBP([[[0]]], [1], D=1)  # only one label on a 1-bit step

    @pytest.mark.parametrize("successor", [2, -1], ids=["past-width", "negative"])
    def test_successor_out_of_range_rejected(self, successor):
        trans = [[[0, 1]], [[0, 1], [1, successor]]]
        with pytest.raises(ValueError, match=r"^layer 1: successor out of range$"):
            ROBP(trans, [0, 1], D=1)
        with pytest.raises(ValueError, match=r"^layer 1: transitions must be total on 2 labels$"):
            ROBP([[[0, 1]], [[0, 1], [successor]]], [0, 1], D=1)

    @pytest.mark.parametrize("bit", [2, -1, 0.5, "1", None])
    def test_accept_bits_must_be_zero_or_one(self, bit):
        with pytest.raises(ValueError, match=rf"^accept bits must be 0 or 1, got {bit!r}$"):
            ROBP([[[0, 1]]], [0, bit], D=1)
        with pytest.raises(ValueError, match="accept bits must be 0 or 1"):
            ROBP.from_json({"D": 1, "trans": [], "accept": [bit]})

    def test_bool_and_integer_accept_bits_kept(self):
        B = ROBP([[[0, 1]]], [False, np.int64(1)], D=1)
        assert B.accept == (0, 1) and B.accept_probability() == Fraction(1, 2)

    def test_negative_label_bits_rejected(self):
        with pytest.raises(ValueError, match=r"^D must be nonnegative, got -1$"):
            ROBP([], [1], D=-1)

    @pytest.mark.parametrize("successor", [1.5, 1.0, "1", None])
    def test_non_integer_successor_rejected(self, successor):
        # these used to build, and fail later with a bare TypeError
        with pytest.raises(ValueError, match=r"^layer 0: successors must be integers$"):
            ROBP([[[0, successor]]], [0, 1], 1)
        with pytest.raises(ValueError, match=r"^layer 1: successors must be integers$"):
            ROBP.from_json({"D": 1, "trans": [[[0, 1]], [[0, 0], [0, successor]]],
                            "accept": [0, 1]})

    @pytest.mark.parametrize("D", [1.5, 1.0, "1"])
    def test_non_integer_label_bits_rejected(self, D):
        with pytest.raises(ValueError, match=rf"^D must be an integer, got {D!r}$"):
            ROBP([[[0, 1]]], [0, 1], D)

    @pytest.mark.parametrize("trans,accept", [([[0, 1]], [0, 1]), ([[[0, 1]]], 1), (3, [1])])
    def test_non_sequence_structure_rejected(self, trans, accept):
        # these used to fail with a bare TypeError
        with pytest.raises(ValueError, match=r"^trans must be a list of layers of rows"):
            ROBP(trans, accept, 1)

    def test_from_json_names_missing_keys(self):
        with pytest.raises(ValueError, match=r"^program has no trans, D$"):
            ROBP.from_json({"accept": [1]})
        with pytest.raises(ValueError, match=r"^a program must be a JSON object$"):
            ROBP.from_json([[[0, 1]]])

    def test_numpy_integers_accepted(self):
        B = ROBP([[[np.int64(0), np.int32(1)]]], [0, 1], np.int64(1))
        assert B.accept_probability() == Fraction(1, 2)


class TestHalfspaceCompile:
    def test_two_var_theta_one(self):
        B, cert = halfspace_to_robp([1, 1], 1, PM1 * 2)
        assert B.widths == [1, 2, 3]
        accepted = [z for z in all_inputs(1, 2) if B.eval(z)]
        assert accepted == [(1, 1)]  # only +1,+1 reaches sum 2 >= 1
        assert isinstance(cert, MonotoneCertificate)

    def test_zero_weights_all_accept_width1(self):
        B, _ = halfspace_to_robp([0, 0, 0], -1, PM1 * 3)
        assert B.width == 1
        assert all(B.eval(z) == 1 for z in all_inputs(1, 3))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sign_evaluation_exhaustively(self, seed):
        rng = philox(seed + 100)
        n = 10
        w = rng.normal(size=n).round(3)
        theta = round(float(rng.normal()), 3)
        B, _ = halfspace_to_robp(w, theta, PM1 * n)
        for z in all_inputs(1, n):
            x = [PM1[0][zi] for zi in z]
            assert B.eval(z) == sign_eval(w, theta, x)

    def test_strict_variant(self):
        B, _ = halfspace_to_robp([1, 1], 0, PM1 * 2, strict=True)
        assert [B.eval(z) for z in all_inputs(1, 2)] == [0, 0, 0, 1]

    def test_state_cap(self):
        rng = philox(3)
        w = rng.normal(size=16)
        with pytest.raises(ResourceError):
            halfspace_to_robp(w, 0.0, PM1 * 16, max_states=50)

    def test_wider_alphabet_uses_label_mod_size(self):
        B, _ = halfspace_to_robp([1, 1], 0, [[-1, 0, 1, 2], [-1, 1]])
        # second step reads 2-bit labels; label 2 maps to value -1 (2 mod 2 = 0)
        assert B.D == 2
        assert B.eval([0, 0]) == B.eval([0, 2])

    def test_zero_steps_constant_program(self):
        for theta, bit in [(0, 1), (Fraction(-1, 2), 1), (1, 0)]:
            B, cert = halfspace_to_robp([], theta, [])
            assert B.to_json() == {"D": 1, "trans": [], "accept": [bit]}
            assert cert.orders == ((0,),)
            assert B.eval([]) == bit

    def test_json_round_trip(self):
        B, _ = halfspace_to_robp([1, -2, 3], 1, PM1 * 3)
        again = ROBP.from_json(B.to_json())
        assert all(B.eval(z) == again.eval(z) for z in all_inputs(1, 3))


class TestCheckMonotone:
    def test_compiled_halfspace_certified(self):
        B, _ = halfspace_to_robp([3, 1, -2, 1], 0.5, PM1 * 4)
        cert = check_monotone(B)
        assert isinstance(cert, MonotoneCertificate)
        # certificate order really is an inclusion chain
        sets = acc_bitsets(B)
        for layer_sets, order in zip(sets, cert.orders):
            for a, b in zip(order, order[1:]):
                assert layer_sets[a] & ~layer_sets[b] == 0

    def test_intersection_product_not_monotone(self):
        B1, _ = halfspace_to_robp([-2, -2, -2], 0, PM1 * 3)
        B2, _ = halfspace_to_robp([-2, 1, 1], 1, PM1 * 3)
        prod = product_robp([B1, B2], lambda bits: int(all(bits)))
        res = check_monotone(prod)
        # states 0 and 1 of layer 2 both accept one suffix; ties go by index
        assert res == MonotoneCounterexample(2, 0, 1, (1,), (0,))
        # the returned suffixes genuinely witness incomparability
        sets = acc_bitsets(prod)
        layer = sets[res.layer]

        def contains(state, suffix):
            idx = 0
            for lab in suffix:
                idx = (idx << prod.D) | lab
            return layer[state] >> idx & 1

        assert contains(res.v, res.suffix_v) and not contains(res.w, res.suffix_v)
        assert contains(res.w, res.suffix_w) and not contains(res.v, res.suffix_w)

    def test_width1_chain_monotone(self):
        B = ROBP([[[0, 0]]] * 4, [0], D=1)
        assert isinstance(check_monotone(B), MonotoneCertificate)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_monotone_generator_is_monotone(self, seed):
        B = random_monotone_robp(philox(seed), T=6, max_width=8)
        assert isinstance(check_monotone(B), MonotoneCertificate)

    @pytest.mark.parametrize("D", [1, 2])
    @pytest.mark.parametrize("make", [random_monotone_robp, random_robp])
    def test_agrees_with_bitset_oracle(self, make, D):
        rng = philox(800 + D)
        for _ in range(60):
            T = int(rng.integers(1, 6 if D == 1 else 4))
            B = make(rng, T=T, max_width=int(rng.integers(2, 6)), D=D)
            sets = acc_bitsets(B)
            orders = [sorted(range(len(layer)), key=lambda v: (bin(layer[v]).count("1"),
                                                                layer[v]))
                      for layer in sets]
            broken = [i for i, (layer, order) in enumerate(zip(sets, orders))
                      if any(layer[a] & ~layer[b] for a, b in zip(order, order[1:]))]
            res = check_monotone(B)
            if not broken:
                assert res == MonotoneCertificate(tuple(map(tuple, orders)))
                continue
            # the last layer that is not a chain; its first pair along the
            # count order that is not an inclusion, with the smallest suffixes
            assert isinstance(res, MonotoneCounterexample)
            layer = sets[res.layer]
            assert res.layer == broken[-1]
            by_count = sorted(range(len(layer)), key=lambda v: bin(layer[v]).count("1"))
            first = next((a, b) for a, b in zip(by_count, by_count[1:]) if layer[a] & ~layer[b])
            assert (res.v, res.w) == first
            steps = B.T - res.layer
            for x, y, suffix in ((res.v, res.w, res.suffix_v), (res.w, res.v, res.suffix_w)):
                only = layer[x] & ~layer[y]
                low = (only & -only).bit_length() - 1
                assert suffix == tuple(low >> (B.D * (steps - 1 - j)) & ((1 << B.D) - 1)
                                       for j in range(steps))


def assert_sandwich_sound(pair, B, eps_budget):
    for z in all_inputs(B.D, B.T):
        d, m, u = pair.down.eval(z), B.eval(z), pair.up.eval(z)
        assert d <= m <= u
    assert pair.gap() <= Fraction(eps_budget)


class TestSandwichMonotone:
    def test_two_state_layers_identity_gap_zero(self):
        B, cert = halfspace_to_robp([1, 1], 1, PM1 * 2)
        pair = sandwich_monotone(B, eps=0.25, cert=cert)
        assert pair.gap() == 0
        assert_sandwich_sound(pair, B, 0.25)

    def test_large_eps_still_sound(self):
        B = random_monotone_robp(philox(42), T=4, max_width=6)
        pair = sandwich_monotone(B, eps=1.5)
        assert_sandwich_sound(pair, B, 1.5)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_random_monotone_programs_sound(self, seed, eps):
        B = random_monotone_robp(philox(200 + seed), T=6, max_width=8)
        pair = sandwich_monotone(B, eps=eps)
        assert_sandwich_sound(pair, B, eps)
        assert pair.down.width <= 4 * B.T / eps
        assert pair.up.width <= 4 * B.T / eps

    def test_rejects_non_monotone(self):
        B1, _ = halfspace_to_robp([-2, -2, -2], 0, PM1 * 3)
        B2, _ = halfspace_to_robp([-2, 1, 1], 1, PM1 * 3)
        prod = product_robp([B1, B2], lambda bits: int(all(bits)))
        with pytest.raises(NotMonotoneError):
            sandwich_monotone(prod, eps=0.5)

    def test_zero_step_program_is_its_own_sandwich(self):
        for bit in (0, 1):
            B = ROBP([], [bit], 1)
            pair = sandwich_monotone(B, 0.1)
            assert pair.down.to_json() == pair.up.to_json() == B.to_json()
            assert pair.gap() == 0

    @pytest.mark.parametrize("eps", [float("inf"), float("nan"), 0.0, -0.5])
    def test_eps_must_be_finite_and_positive(self, eps):
        B, cert = halfspace_to_robp([1, 1], 1, PM1 * 2)
        with pytest.raises(ValueError, match="finite and positive"):
            sandwich_monotone(B, eps, cert)


class TestCallerCertificate:
    W6 = [0.5, 1.25, -0.75, 2, 1, -1.5]

    def compiled(self):
        return halfspace_to_robp(self.W6, 0.3, PM1 * 6)

    def test_reversed_orders_rejected(self):
        # trusted, this pair was unsound on 16 of 64 inputs with gap -1/4
        B, cert = self.compiled()
        rev = MonotoneCertificate(tuple(o[::-1] for o in cert.orders))
        with pytest.raises(NotMonotoneError):
            sandwich_monotone(B, 3, rev)
        # a good last layer alone is not enough
        rev = MonotoneCertificate(tuple(o[::-1] for o in cert.orders[:-1])
                                  + cert.orders[-1:])
        with pytest.raises(NotMonotoneError, match="layer 5"):
            sandwich_monotone(B, 3, rev)

    def test_one_layer_certificate_rejected(self):
        B, _ = self.compiled()
        with pytest.raises(ValueError, match="1 orders, program has 7 layers"):
            sandwich_monotone(B, 0.5, MonotoneCertificate(((0,),)))

    def test_repeated_state_rejected(self):
        B, cert = self.compiled()
        orders = list(cert.orders)
        orders[3] = (0,) + orders[3][:-1]
        with pytest.raises(ValueError, match="order 3 is not a permutation"):
            sandwich_monotone(B, 0.5, MonotoneCertificate(tuple(orders)))

    @pytest.mark.parametrize("seed", range(8))
    def test_accepts_exactly_the_chain_orders(self, seed):
        # every order is accepted iff its Acc sets grow along it, on
        # monotone programs and on programs that need not be
        for make in (random_monotone_robp, random_robp):
            rng = philox(500 + seed)
            B = make(rng, T=4, max_width=4)
            sets = acc_bitsets(B)
            counted = tuple(tuple(sorted(range(len(c)), key=c.__getitem__))
                            for c in B.accept_counts())
            for orders in [counted] + [tuple(tuple(int(v) for v in rng.permutation(len(layer)))
                                             for layer in sets) for _ in range(20)]:
                chain = all(not layer[a] & ~layer[b] for layer, order in zip(sets, orders)
                            for a, b in zip(order, order[1:]))
                try:
                    sandwich_monotone(B, 0.5, MonotoneCertificate(orders))
                    assert chain
                except NotMonotoneError:
                    assert not chain

    def test_compose_needs_one_certificate_per_program(self):
        B, cert = self.compiled()
        with pytest.raises(ValueError, match="one certificate per program"):
            compose_monotone_sandwich([0, 0, 0, 1], [B, B], 0.5, certs=[cert])

    def test_compose_checks_certificates(self):
        B, cert = self.compiled()
        rev = MonotoneCertificate(tuple(o[::-1] for o in cert.orders))
        with pytest.raises(NotMonotoneError):
            compose_monotone_sandwich([0, 0, 0, 1], [B, B], 0.5, certs=[cert, rev])


class TestCompose:
    def test_identity_reduces_to_plain_sandwich(self):
        B = random_monotone_robp(philox(7), T=5, max_width=6)
        pair = compose_monotone_sandwich([0, 1], [B], eps=0.5)
        single = sandwich_monotone(B, eps=0.5)
        for z in all_inputs(1, 5):
            assert pair.down.eval(z) == single.down.eval(z)
            assert pair.up.eval(z) == single.up.eval(z)

    def test_and_of_two_halfspaces(self):
        rng = philox(9)
        w1 = rng.normal(size=6).round(2)
        w2 = rng.normal(size=6).round(2)
        B1, c1 = halfspace_to_robp(w1, 0.1, PM1 * 6)
        B2, c2 = halfspace_to_robp(w2, -0.2, PM1 * 6)
        pair = compose_monotone_sandwich([0, 0, 0, 1], [B1, B2], eps=0.25,
                                         certs=[c1, c2])
        for z in all_inputs(1, 6):
            f = B1.eval(z) & B2.eval(z)
            assert pair.down.eval(z) <= f <= pair.up.eval(z)
        assert pair.gap() <= Fraction(1, 2)

    def test_constant_one_combiner(self):
        B = random_monotone_robp(philox(11), T=4, max_width=5)
        pair = compose_monotone_sandwich([1, 1], [B], eps=0.5)
        assert pair.gap() == 0
        assert all(pair.down.eval(z) == 1 for z in all_inputs(1, 4))

    def test_monotone_table_required(self):
        B = random_monotone_robp(philox(13), T=3, max_width=4)
        with pytest.raises(NotMonotoneError):
            compose_monotone_sandwich([1, 0], [B], eps=0.5)  # NOT gate

    @pytest.mark.parametrize("seed", range(5))
    def test_random_triples_sound(self, seed):
        rng = philox(300 + seed)
        programs = [random_monotone_robp(rng, T=5, max_width=4) for _ in range(3)]
        table = [0, 0, 0, 1, 0, 1, 1, 1]  # majority, monotone
        pair = compose_monotone_sandwich(table, programs, eps=0.25)
        for z in all_inputs(1, 5):
            bits = tuple(p.eval(z) for p in programs)
            f = table[bits[0] | bits[1] << 1 | bits[2] << 2]
            assert pair.down.eval(z) <= f <= pair.up.eval(z)
        assert pair.gap() <= Fraction(3, 4)


class TestProduct:
    def test_state_cap(self):
        rng = philox(17)
        B1, _ = halfspace_to_robp(rng.normal(size=8).round(3), 0.1, PM1 * 8)
        B2, _ = halfspace_to_robp(rng.normal(size=8).round(3), -0.3, PM1 * 8)
        width = product_robp([B1, B2], lambda bits: int(all(bits))).width
        assert width > 8
        assert product_robp([B1, B2], lambda bits: int(all(bits)), max_states=width).width == width
        with pytest.raises(ResourceError):
            product_robp([B1, B2], lambda bits: int(all(bits)), max_states=width - 1)


# to_json() of small programs, recorded before the three constructions
# shared one layered builder; every state numbering must stay as it was.
GOLDEN_PM1 = {
    "D": 1,
    "accept": [0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
    "trans": [[[0, 1]], [[1, 0], [3, 2]], [[0, 2], [1, 3], [3, 5], [4, 6]],
              [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7]],
              [[2, 0], [3, 1], [4, 2], [5, 3], [6, 4], [7, 5], [8, 6], [9, 7]]]}
GOLDEN_MIXED = {
    "D": 2,
    "accept": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    "trans": [[[0, 1, 2, 0]], [[3, 0, 3, 0], [4, 1, 4, 1], [5, 2, 5, 2]],
              [[0, 5, 10, 0], [1, 6, 11, 1], [2, 7, 12, 2], [3, 8, 13, 3], [4, 9, 14, 4],
               [5, 10, 15, 5]]]}
GOLDEN_STRICT = {
    "D": 1,
    "accept": [0, 0, 0, 0, 1, 1],
    "trans": [[[0, 1]], [[0, 1], [1, 2]], [[1, 0], [2, 1], [3, 2]],
              [[0, 2], [1, 3], [2, 4], [3, 5]]]}
GOLDEN_HS6 = {
    "D": 1,
    "accept": [0] * 14 + [1] * 13,
    "trans": [[[0, 1]], [[0, 2], [1, 3]], [[2, 0], [3, 1], [5, 3], [6, 4]],
              [[0, 5], [1, 6], [2, 7], [3, 8], [4, 9], [5, 10], [6, 11]],
              [[0, 3], [1, 5], [2, 6], [4, 8], [6, 10], [7, 11], [9, 13], [10, 14], [12, 16],
               [14, 18], [15, 19], [17, 20]],
              [[5, 0], [7, 1], [8, 2], [9, 3], [10, 4], [11, 5], [12, 6], [13, 7], [14, 8],
               [15, 9], [16, 10], [17, 11], [18, 12], [19, 13], [20, 14], [21, 15], [22, 16],
               [23, 17], [24, 18], [25, 19], [26, 21]]]}
GOLDEN_SANDWICH_HS6 = (
    {"D": 1,
     "accept": [0, 1],
     "trans": [[[0, 1]], [[0, 1], [0, 1]], [[0, 1], [2, 2]], [[0, 1], [0, 2], [2, 3]],
               [[0, 0], [1, 1], [0, 1], [1, 2]], [[0, 0], [1, 0], [1, 1]]]},
    {"D": 1,
     "accept": [0, 1],
     "trans": [[[0, 1]], [[0, 1], [0, 1]], [[0, 1], [2, 0]], [[0, 1], [2, 3], [4, 1]],
               [[0, 1], [2, 2], [0, 0], [1, 2], [1, 1]], [[0, 0], [1, 0], [1, 1]]]},
    Fraction(1, 4))
GOLDEN_SANDWICH_MIXED = {
    "D": 2,
    "accept": [0, 1],
    "trans": [[[0, 0, 0, 0]], [[0, 1, 0, 1]], [[0, 1, 1, 0], [0, 0, 1, 0]]]}
GOLDEN_PRODUCT = {
    "D": 1,
    "accept": [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1],
    "trans": [[[0, 1]], [[0, 1], [2, 3]], [[0, 1], [2, 0], [3, 4], [5, 3]],
              [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]]}
GOLDEN_COMPOSE = (
    {"D": 1,
     "accept": [0, 1, 1, 1],
     "trans": [[[0, 1]], [[0, 1], [2, 3]], [[0, 1], [2, 2], [3, 4], [5, 5]],
               [[0, 1], [0, 2], [3, 4], [5, 6], [5, 7], [8, 9]],
               [[0, 0], [1, 2], [3, 2], [0, 2], [1, 4], [3, 0], [1, 1], [3, 1], [5, 2],
                [1, 6]],
               [[0, 0], [1, 2], [3, 0], [2, 2], [3, 3], [0, 2], [3, 1]]]},
    {"D": 1,
     "accept": [0, 1, 1, 1],
     "trans": [[[0, 1]], [[0, 1], [2, 3]], [[0, 1], [2, 3], [4, 5], [6, 3]],
               [[0, 1], [2, 3], [4, 1], [5, 6], [7, 6], [8, 3], [9, 6]],
               [[0, 1], [2, 3], [4, 0], [5, 2], [1, 1], [4, 1], [2, 2], [6, 7], [6, 4],
                [7, 1]],
               [[0, 0], [1, 0], [2, 2], [1, 2], [0, 3], [2, 3], [3, 3], [1, 3]]]},
    Fraction(5, 32))

HS6 = ([0.5, 1.25, -0.75, 2, 1, -1.5], 0.3, PM1 * 6)
MIXED = ([1, -2, 3], Fraction(1, 2), [[-1, 0, 1], [0, 2], [-1, 1, 3]])


class TestGolden:
    @pytest.mark.parametrize("args, kwargs, expected", [
        (([3, -1, 2, 1, -2], 1, PM1 * 5), {}, GOLDEN_PM1),
        (MIXED, {}, GOLDEN_MIXED),
        (([1, 1, -1, 2], 1, PM1 * 4), {"strict": True}, GOLDEN_STRICT),
        (HS6, {}, GOLDEN_HS6),
    ], ids=["pm1", "mixed", "strict", "hs6"])
    def test_halfspace_to_robp(self, args, kwargs, expected):
        B, cert = halfspace_to_robp(*args, **kwargs)
        assert B.to_json() == expected
        assert cert.orders == tuple(tuple(range(wd)) for wd in B.widths)

    def test_sandwich_monotone(self):
        B, cert = halfspace_to_robp(*HS6)
        pair = sandwich_monotone(B, 3, cert)
        assert (pair.down.to_json(), pair.up.to_json(), pair.gap()) == GOLDEN_SANDWICH_HS6
        B, cert = halfspace_to_robp(*MIXED)
        pair = sandwich_monotone(B, 1, cert)
        assert pair.down.to_json() == pair.up.to_json() == GOLDEN_SANDWICH_MIXED

    def test_product_robp(self):
        B1, _ = halfspace_to_robp([2, -1, 1, 1], 0, PM1 * 4)
        B2, _ = halfspace_to_robp([1, 1, -1, 1], 1, PM1 * 4)
        assert product_robp([B1, B2], lambda bits: int(all(bits))).to_json() == GOLDEN_PRODUCT

    def test_compose_monotone_sandwich(self):
        Bs, cs = halfspace_to_robp(*HS6)
        Bt, ct = halfspace_to_robp([1, -0.5, 0.25, 1.5, -1, 0.75], -0.2, PM1 * 6)
        pair = compose_monotone_sandwich([0, 1, 1, 1], [Bs, Bt], eps=3, certs=[cs, ct])
        assert (pair.down.to_json(), pair.up.to_json(), pair.gap()) == GOLDEN_COMPOSE


# The rational construction that integer states replaced, kept as the
# reference: partial sums, acceptance probabilities and sandwich groups are
# all Fractions here.

def _ref_layered(T, D, start, successors, accept, ordered):
    cur = [start]
    trans = []
    for i in range(T):
        index = {}
        rows = [[index.setdefault(t, len(index)) for t in successors(i, s)] for s in cur]
        cur = list(index)
        if ordered:
            order = sorted(range(len(cur)), key=cur.__getitem__)
            rank = {old: new for new, old in enumerate(order)}
            rows = [[rank[x] for x in row] for row in rows]
            cur = [cur[j] for j in order]
        trans.append(rows)
    return ROBP(trans, [accept(s) for s in cur], D)


def ref_compile(w, theta, alphabets, strict=False):
    D = max([(len(a) - 1).bit_length() for a in alphabets] + [1])
    thetaq = Fraction(theta)
    incs = [[Fraction(wi) * Fraction(a[z % len(a)]) for z in range(1 << D)]
            for wi, a in zip(w, alphabets)]
    return _ref_layered(len(w), D, Fraction(0), lambda i, s: [s + q for q in incs[i]],
                        lambda s: int(s > thetaq if strict else s >= thetaq), ordered=True)


def ref_probabilities(B):
    probs = [[Fraction(b) for b in B.accept]]
    n_labels = 1 << B.D
    for layer in reversed(B.trans):
        nxt = probs[0]
        probs.insert(0, [sum(nxt[row[z]] for z in range(n_labels)) / n_labels
                         for row in layer])
    return probs


def ref_sandwich(B, eps):
    """Down and up to_json() for a program whose certificate is the identity."""
    width = Fraction(eps) / (2 * max(B.T, 1))
    reps = []
    for layer in ref_probabilities(B):
        groups = {}
        for v, p in enumerate(layer):
            groups.setdefault(int(p / width), []).append(v)
        reps.append({v: (min(m), max(m)) for m in groups.values() for v in m})
    out = []
    for which in (0, 1):
        out.append(_ref_layered(B.T, B.D, reps[0][0][which],
                                lambda i, v: [reps[i + 1][u][which] for u in B.trans[i][v]],
                                B.accept.__getitem__, ordered=False).to_json())
    return tuple(out)


FLOATS = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([3, 7, 9, 21])),
    st.sampled_from([Fraction(1, 3), Fraction(2, 7)]))


@st.composite
def halfspace_cases(draw):
    n = draw(st.integers(0, 5))
    w = draw(st.lists(SCALARS, min_size=n, max_size=n))
    alphabets = draw(st.lists(st.lists(SCALARS, min_size=1, max_size=4),
                              min_size=n, max_size=n))
    if n and draw(st.booleans()):  # theta on a reachable partial sum: a tie
        picks = [draw(st.integers(0, len(a) - 1)) for a in alphabets]
        theta = sum((Fraction(wi) * Fraction(a[j]) for wi, a, j in zip(w, alphabets, picks)),
                    Fraction(0))
    else:
        theta = draw(SCALARS)
    return w, theta, alphabets, draw(st.booleans())


class TestIntegerStates:
    @settings(max_examples=150, deadline=None)
    @given(halfspace_cases())
    def test_matches_rational_reference(self, case):
        w, theta, alphabets, strict = case
        B, cert = halfspace_to_robp(w, theta, alphabets, strict=strict)
        ref = ref_compile(w, theta, alphabets, strict)
        assert B.to_json() == ref.to_json()
        assert cert.orders == tuple(tuple(range(wd)) for wd in ref.widths)
        probs = ref_probabilities(ref)
        for i, (counts, want) in enumerate(zip(B.accept_counts(), probs)):
            assert [Fraction(c, 1 << (B.D * (B.T - i))) for c in counts] == want
        assert B.accept_probability() == probs[0][0]
        for eps in (0.1, 1 / 3):
            pair = sandwich_monotone(B, eps, cert)
            assert (pair.down.to_json(), pair.up.to_json()) == ref_sandwich(ref, eps)

    def test_count_on_group_boundary(self):
        # T = 3 and eps = 3/4 give groups of width 1/8, and every layer's
        # probabilities are multiples of 1/8: each count sits on a boundary
        B, cert = halfspace_to_robp([1, 2, 1], 0, PM1 * 3)
        width = Fraction(3, 4) / 6
        inner = [p for layer in ref_probabilities(B) for p in layer if 0 < p < 1]
        assert inner and all((p / width).denominator == 1 for p in inner)
        pair = sandwich_monotone(B, 0.75, cert)
        assert (pair.down.to_json(), pair.up.to_json()) == ref_sandwich(B, 0.75)


def _json_digest(B):
    return hashlib.sha256(json.dumps(B.to_json(), sort_keys=True).encode()).hexdigest()


class TestGoldenLarge:
    """Digests of to_json(), recorded while states were still Fractions."""

    def test_pm1_n256_and_sandwich(self):
        w = philox(700).choice([-1.0, 1.0], 256)
        B, cert = halfspace_to_robp(list(w), 4, PM1 * 256)
        assert _json_digest(B) == \
            "2c9a470cf93e588d493aa51a2dec6ff51007c844de91ce08d4ab32d83ab7d342"
        assert B.accept_probability() == Fraction(
            49287774668937382827426759489704494811208707428710059606727830459782767459293,
            1 << 256)
        assert check_monotone(B) == cert
        pair = sandwich_monotone(B, 0.1, cert)
        again = sandwich_monotone(B, 0.1)
        assert (again.down.to_json(), again.up.to_json()) == \
            (pair.down.to_json(), pair.up.to_json())
        assert _json_digest(pair.down) == \
            "7ab9fb82c3b91958ef010f360764c960de8be28f2a5fe26b24d1e55e27fbc5ef"
        assert _json_digest(pair.up) == \
            "3861f366caff966f50039bd84cbda09ddab586ab17cfa978773768899085b4f9"
        assert pair.gap() == Fraction(
            15117977774227966606423825407945225423533579760081855135067611580678337445,
            1 << 255)

    def test_gauss_n13(self):
        w = philox(701).standard_normal(13)
        B, _ = halfspace_to_robp(list(w), 0.25, PM1 * 13)
        assert B.width == 8192
        assert _json_digest(B) == \
            "53d9cf6b2cf4d4b7d4b9a78af8dd41bba5941f12f3b907fa6afbbf8dda04f3cc"
        assert B.accept_probability() == Fraction(3837, 8192)


class TestNisan:
    def test_t1_returns_low_bits_of_seed_word(self):
        assert nisan_generate(2, 2, 1, 0b110110) == [0b10]
        assert nisan_seed_bits(2, 2, 1) == 6

    def test_t2_reference_transcript(self):
        # w = 6; x = 5, a = 3, b = 33: output = (x mod 4, (3*x xor 33) mod 4)
        # 3*5 in GF(64) is (x+1)(x^2+1) = x^3+x^2+x+1 = 15; 15 xor 33 = 46 -> 2
        seed = 5 | (3 << 6) | (33 << 12)
        assert nisan_generate(2, 2, 2, seed) == [1, 2]

    def test_seed_bits_schedule(self):
        # w + 2w*ceil(log2 T)
        assert nisan_seed_bits(1, 1, 4) == 4 + 2 * 4 * 2
        assert nisan_seed_bits(5, 2, 16) == 9 + 2 * 9 * 4

    def test_output_length_padding(self):
        out = nisan_generate(1, 1, 3, 0)
        assert len(out) == 3

    def test_exhaustive_width2_fooling_audit(self):
        # frozen from an exact audit: every width-2 (1,1,4)-program is fooled
        # to exactly <= 1/32; the configured ceiling for this instance is 1/16
        S, D, T = 1, 1, 4
        bits = nisan_seed_bits(S, D, T)
        counts = nisan_output_counts(S, D, T)
        worst = Fraction(0)
        for B in _all_width2_programs():
            acc = sum(Fraction(counts.get(z, 0), 1 << bits) - Fraction(1, 16)
                      for z in all_inputs(1, 4) if B.eval(z))
            worst = max(worst, abs(acc))
        assert worst == Fraction(1, 32)
        assert worst <= Fraction(1, 16)


def nisan_output_counts(S, D, T):
    """How many seeds give each output string, over the whole seed space."""
    bits = nisan_seed_bits(S, D, T)
    counts = {}
    for z in map(tuple, nisan_expand(S, D, T, seed_range(0, 1 << bits, bits)).tolist()):
        counts[z] = counts.get(z, 0) + 1
    return counts


def _all_width2_programs():
    layer0 = list(itertools.product(range(2), repeat=2))
    layerk = list(itertools.product(range(2), repeat=4))
    for t0 in layer0:
        for t1 in layerk:
            for t2 in layerk:
                for t3 in layerk:
                    for acc in itertools.product(range(2), repeat=2):
                        yield ROBP([[t0], [t1[:2], t1[2:]], [t2[:2], t2[2:]],
                                    [t3[:2], t3[2:]]], acc, 1)


class TestTreeBound:
    def test_arithmetic(self):
        b = TreeErrorBound(0.05, 0.05, zero_leaves=1, one_leaves=1)
        assert b.bound == pytest.approx(0.2)
        assert TreeErrorBound(0.1, 0.0, 1, 0).bound == pytest.approx(0.1)

    def test_min_leaf_variant(self):
        b = TreeErrorBound(0.05, 0.05, zero_leaves=1, one_leaves=3)
        assert b.bound_min_leaves == pytest.approx(0.1)
        assert b.bound == pytest.approx(0.4)

    def test_depth2_tree_measured_error_within_bound(self):
        # Exact instantiation at enumerable scale: T=4 coordinates, Nisan PRG
        # seeds enumerated, tree of two monotone halfspace programs.
        S, D, T = 1, 1, 4
        B1, c1 = halfspace_to_robp([1, 1, -1, 1], 1, PM1 * 4)
        B2, c2 = halfspace_to_robp([2, -1, 1, 1], 0, PM1 * 4)
        eps = 0.5
        p1 = sandwich_monotone(B1, eps, c1)
        p2 = sandwich_monotone(B2, eps, c2)

        def tree(z):  # root B1; left subtree queries B2
            return 1 if B1.eval(z) else B2.eval(z)

        bits = nisan_seed_bits(S, D, T)
        counts = nisan_output_counts(S, D, T)
        n_seeds = 1 << bits

        def prg_error(f):
            acc = sum((Fraction(counts.get(z, 0), n_seeds) - Fraction(1, 16)) * f(z)
                      for z in all_inputs(D, T))
            return abs(acc)

        measured = prg_error(tree)
        delta = max(prg_error(p.eval) for pair in (p1, p2)
                    for p in (pair.down, pair.up))
        eps_meas = max(float(p1.gap()), float(p2.gap()))
        bound = TreeErrorBound(eps_meas, float(delta), 1, 2).bound
        assert float(measured) <= bound + 1e-12
