"""Sign conventions, combiners, negation closure, normalization invariance."""

import itertools

import numpy as np
import pytest

from hsprg.halfspace import (
    CombinerSpec,
    DecisionTree,
    Halfspace,
    HalfspaceSystem,
    evaluate,
    evaluate_batch,
    is_monotone_table,
    normalize,
)

CUBE6 = np.array(list(itertools.product([-1.0, 1.0], repeat=6)))


class TestSignConvention:
    def test_boundary_is_one(self):
        sys1 = HalfspaceSystem([[1.0], [1.0]], [0.0])
        assert evaluate(sys1, CombinerSpec.single(), [1.0, -1.0]) == 1

    def test_strict_boundary_is_zero(self):
        sys1 = HalfspaceSystem([[1.0], [1.0]], [0.0], strict=[True])
        assert evaluate(sys1, CombinerSpec.single(), [1.0, -1.0]) == 0

    def test_intersection_with_all_accept(self):
        # one real halfspace and one satisfied everywhere on the cube
        W = np.column_stack([[1.0, 1.0], [0.0, 0.0]])
        sys2 = HalfspaceSystem(W, [1.0, -1.0])
        inter = CombinerSpec.intersection()
        single = CombinerSpec.single(0)
        for x in itertools.product([-1.0, 1.0], repeat=2):
            assert evaluate(sys2, inter, x) == evaluate(sys2, single, x)


@pytest.mark.parametrize("W,Theta", [([[np.nan], [1.0]], [0.0]),
                                     ([[1.0], [np.inf]], [0.0]),
                                     ([[1.0], [1.0]], [np.nan])])
def test_non_finite_system_rejected(W, Theta):
    with pytest.raises(ValueError, match="must be finite"):
        HalfspaceSystem(W, Theta)


class TestNegation:
    def test_negation_exact_on_discrete_support(self):
        h = Halfspace((1.0, 1.0, 1.0), 1.0)
        neg = h.negation()
        for x in itertools.product([-1.0, 1.0], repeat=3):
            assert neg.evaluate(x) == 1 - h.evaluate(x)

    def test_double_negation(self):
        h = Halfspace((0.5, -2.0), 0.25, strict=False)
        assert h.negation().negation() == h


class TestDecisionTree:
    def build(self):
        # root on hs0; left subtree queries hs1, right is a 1-leaf
        tree = DecisionTree.branch(
            0,
            DecisionTree.branch(1, DecisionTree.leaf_node(0), DecisionTree.leaf_node(1)),
            DecisionTree.leaf_node(1),
        )
        return CombinerSpec.decision_tree(tree)

    def test_depth2_tree_agrees_with_path_evaluation(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(6, 2))
        sysd = HalfspaceSystem(W, [0.25, -0.5])
        comb = self.build()
        for x in CUBE6:
            signs = sysd.sign_vector(x)
            want = 1 if signs[0] else (1 if signs[1] else 0)
            assert evaluate(sysd, comb, x) == want

    def test_leaf_bookkeeping(self):
        comb = self.build()
        assert sorted(comb.tree.leaves()) == [0, 1, 1]
        assert comb.tree.depth() == 2
        assert len(comb.tree.paths()) == 3

    def test_json_round_trip(self):
        comb = self.build()
        assert CombinerSpec.from_json(comb.to_json()).tree == comb.tree


class TestMonotoneTable:
    def test_and_or_are_monotone(self):
        assert is_monotone_table([0, 0, 0, 1], 2)  # AND
        assert is_monotone_table([0, 1, 1, 1], 2)  # OR

    def test_xor_rejected(self):
        assert not is_monotone_table([0, 1, 1, 0], 2)
        with pytest.raises(ValueError):
            CombinerSpec.monotone_table([0, 1, 1, 0], 2)

    def test_table_evaluation(self):
        maj = CombinerSpec.monotone_table([0, 0, 0, 1, 0, 1, 1, 1], 3)
        assert maj.apply((1, 1, 0)) == 1
        assert maj.apply((1, 0, 0)) == 0


class TestNormalize:
    def test_identity_when_normalized(self):
        W = np.array([[0.6], [0.8]])
        sys1 = HalfspaceSystem(W, [0.1])
        out = normalize(sys1, [1.0, 1.0])
        assert np.allclose(out.W, W)

    def test_sign_invariance_exhaustive(self):
        rng = np.random.default_rng(17)
        W = rng.normal(size=(6, 2)) * 10
        sysd = HalfspaceSystem(W, [1.0, -2.0])
        out = normalize(sysd, np.full(6, 1.0))
        for x in CUBE6:
            assert sysd.sign_vector(x) == out.sign_vector(x)
        col_norms = (out.W ** 2).sum(axis=0)
        assert np.allclose(col_norms, 1.0)

    def test_rademacher_unit_weights_scale(self):
        sysd = HalfspaceSystem(np.ones((4, 1)), [1.0])
        out = normalize(sysd, np.ones(4))
        assert np.allclose(out.W, 0.5)
        assert out.Theta[0] == pytest.approx(0.5)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            normalize(HalfspaceSystem(np.zeros((3, 1)), [0.0]), np.ones(3))


def test_batch_matches_pointwise():
    rng = np.random.default_rng(23)
    W = rng.normal(size=(6, 3))
    sysd = HalfspaceSystem(W, [0.0, 0.5, -0.5])
    comb = CombinerSpec.intersection()
    batch = evaluate_batch(sysd, comb, CUBE6)
    for row, x in zip(batch, CUBE6):
        assert row == evaluate(sysd, comb, x)
