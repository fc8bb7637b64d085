"""Sign conventions, combiners, negation closure, normalization invariance."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import philox
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


@pytest.mark.parametrize("strict", [[False, True], []])
def test_strict_flags_must_match_d(strict):
    with pytest.raises(ValueError, match=f"got {len(strict)} for d=1"):
        HalfspaceSystem([[1.0], [1.0]], [0.5], strict)


class TestNegation:
    def test_negation_exact_on_discrete_support(self):
        h = Halfspace((1.0, 1.0, 1.0), 1.0)
        neg = h.negation()
        for x in itertools.product([-1.0, 1.0], repeat=3):
            assert neg.evaluate(x) == 1 - h.evaluate(x)

    def test_double_negation(self):
        h = Halfspace((0.5, -2.0), 0.25, strict=False)
        assert h.negation().negation() == h

    def test_call_is_evaluate_on_a_tie(self):
        # x = (1, -1) sits on the boundary: the strict side and its negation split it
        h = Halfspace((1.0, 1.0), 0.0, strict=True)
        for g, want in ((h, 0), (h.negation(), 1)):
            assert g((1.0, -1.0)) == g.evaluate((1.0, -1.0)) == want
            for x in itertools.product([-1.0, 1.0], repeat=2):
                assert g(x) == g.evaluate(x)


class TestHalfspaceRows:
    """A point as a tuple or as a float64 ndarray row gives the same margin."""

    @staticmethod
    def assert_rows_agree(h, X):
        for x in X:
            m = h.margin(tuple(x.tolist()))
            assert type(m) is float and h.margin(x) == m
            assert h.evaluate(x) == h.evaluate(tuple(x.tolist()))

    def test_constructed_ties(self):
        # every margin is exactly 0 on half of the cube: the boundary decides
        for h in [Halfspace((1.0,) * 6, 0.0), Halfspace((0.5, -0.5, 1.0, 1.0, -1.0, 1.0), 1.0)]:
            for g in (h, h.negation()):
                self.assert_rows_agree(g, CUBE6)
            assert sum(h.margin(x) == 0.0 for x in CUBE6) > 0

    def test_random_non_dyadic_weights(self):
        rng = philox(26)
        for _ in range(20):
            w = tuple(rng.standard_normal(16).tolist())
            X = rng.choice([-1.0, -0.3, 0.1, 0.7, 1.0], size=(64, 16))
            theta = Halfspace(w, 0.0).margin(tuple(X[0].tolist()))  # row 0 ties
            for strict in (False, True):
                h = Halfspace(w, theta, strict)
                assert h.margin(X[0]) == 0.0
                self.assert_rows_agree(h, X)


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

    @pytest.mark.parametrize("leaf", [3, 0.5, -1, "1", None])
    def test_leaf_must_be_0_or_1(self, leaf):
        with pytest.raises(ValueError, match="a leaf must be 0 or 1"):
            DecisionTree.leaf_node(leaf)
        with pytest.raises(ValueError, match="a leaf must be 0 or 1"):
            DecisionTree.from_json({"hs": 0, "low": {"leaf": 0}, "high": {"leaf": leaf}})


class TestMonotoneTable:
    def test_and_or_are_monotone(self):
        assert is_monotone_table([0, 0, 0, 1], 2)  # AND
        assert is_monotone_table([0, 1, 1, 1], 2)  # OR

    def test_xor_rejected(self):
        assert not is_monotone_table([0, 1, 1, 0], 2)
        with pytest.raises(ValueError):
            CombinerSpec.monotone_table([0, 1, 1, 0], 2)

    @pytest.mark.parametrize("table", [[0, 2], [0, 1.5], [-1, 0], [0, "1"]])
    def test_entries_must_be_0_or_1(self, table):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            CombinerSpec.monotone_table(table, 1)

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


def old_signs(margins, strict):
    """The sign rule before the shared threshold compare, on precomputed margins."""
    return tuple(int(m > 0 if s else m >= 0) for m, s in zip(margins, strict))


# magnitudes that stress the compare: signed zeros, subnormals, near-overflow
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e300, -1e300,
               1.7e308, -1.7e308, 1.0, -1.0, 0.1, 0.2, 0.3]
floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def sign_cases(draw):
    """(system, points): float or integer data, W contiguous, Fortran or a column slice."""
    n, d, rows = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    # small integers make products and sums exact, so ties are exact too
    exact = draw(st.booleans())
    values = st.integers(-3, 3).map(float) if exact else floats
    W = np.array(draw(st.lists(values, min_size=n * (d + 1), max_size=n * (d + 1))))
    X = np.array(draw(st.lists(values, min_size=rows * n, max_size=rows * n)))
    W, X = W.reshape(n, d + 1), X.reshape(rows, n)
    if exact:
        Theta = X[draw(st.integers(0, rows - 1))] @ W[:, :d]   # a tie on some row
    else:
        Theta = np.array(draw(st.lists(floats, min_size=d, max_size=d)))
    layout = draw(st.sampled_from(["C", "F", "slice"]))
    W = {"C": np.ascontiguousarray, "F": np.asfortranarray,
         "slice": lambda a: a}[layout](W[:, :d])
    strict = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    return HalfspaceSystem(W, Theta, strict), X


@st.composite
def column_cases(draw):
    """(system, points): n up to 300, d up to 6, points C, Fortran or strided,
    mixed strict flags, each threshold on a tie of some row under the margin
    rule (the column's own 1-D dot), the old whole-row product, or neither."""
    n, d, rows = draw(st.integers(1, 300)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = philox(draw(st.integers(0, 2 ** 32 - 1)))
    W = rng.standard_normal((n, d))
    X = rng.choice([-1.0, -0.5, 0.5, 1.0, 0.1, 0.3], (rows, n))
    x = X[draw(st.integers(0, rows - 1))]
    old = x @ W
    Theta = []
    for i in range(d):
        rule = draw(st.sampled_from(["margin", "row", "free"]))
        Theta.append(x @ np.ascontiguousarray(W[:, i]) if rule == "margin"
                     else old[i] if rule == "row" else rng.standard_normal())
    strict = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        wide = np.zeros((rows, 2 * n))
        wide[:, ::2] = X
        X = wide[:, ::2]
    return HalfspaceSystem(W, Theta, strict), X


class TestColumnStability:
    """Every margin is its own contiguous dot: a column's signs do not depend on
    the other columns, the other rows, or the layout of the points."""

    @settings(max_examples=300, deadline=None)
    @given(column_cases())
    def test_columns_rows_and_prefixes_agree(self, case):
        system, X = case
        signs = system.sign_matrix(X)
        for i in range(system.d):
            w = np.ascontiguousarray(system.W[:, i])
            theta, strict = float(system.Theta[i]), system.strict[i]
            oracle = [int(m > theta if strict else m >= theta)
                      for m in (np.ascontiguousarray(x) @ w for x in X)]
            assert signs[:, i].tolist() == oracle
            assert system.halfspace(i).evaluate_batch(X).tolist() == oracle
            assert Halfspace(tuple(system.W[:, i]), theta, strict).evaluate_batch(X).tolist() \
                == oracle
        for r, x in enumerate(X):
            assert system.sign_vector(x) == tuple(signs[r].tolist())
        for k in range(1, len(X)):
            assert np.array_equal(system.sign_matrix(X[:k]), signs[:k])


class TestSignPaths:
    """sign_vector and sign_matrix keep the signs of each margin, a row's 1-D dot with
    one contiguous column minus its threshold, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(sign_cases())
    def test_signs_equal_the_margin_rule(self, case):
        system, X = case
        with np.errstate(all="ignore"):
            rows = []
            for x in X:
                margins = np.array([x @ np.ascontiguousarray(system.W[:, i])
                                    for i in range(system.d)]) - system.Theta
                assert system.sign_vector(x) == old_signs(margins, system.strict)
                assert system.sign_vector(tuple(x.tolist())) == old_signs(margins, system.strict)
                rows.append(list(old_signs(margins, system.strict)))
            assert system.sign_matrix(X).tolist() == rows

    @pytest.mark.parametrize("strict", [False, True])
    def test_ties(self, strict):
        system = HalfspaceSystem([[1.0, -1.0], [2.0, 0.0]], [3.0, -0.0], [strict, strict])
        X = np.array([[1.0, 1.0], [-0.0, 0.0], [1.0, 2.0]])
        # dots: (3, -1) on the first threshold, (0, 0) against (3, -0), (5, -1)
        want = [[0, 0], [0, 0], [1, 0]] if strict else [[1, 0], [0, 1], [1, 0]]
        assert system.sign_matrix(X).tolist() == want
        assert [list(system.sign_vector(x)) for x in X] == want

    def test_nan_point_gives_zero(self):
        system = HalfspaceSystem([[1.0, 1.0], [1.0, -1.0]], [-5.0, 0.0], [False, True])
        x = [float("nan"), 1.0]
        assert system.sign_vector(x) == (0, 0)
        assert system.sign_matrix(np.array([x])).tolist() == [[0, 0]]

    def test_wrong_shape_raises(self):
        system = HalfspaceSystem(np.ones((4, 2)), [0.0, 1.0])
        with pytest.raises(ValueError, match=r"point has dimension \(3,\), expected 4"):
            system.sign_vector([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"point has dimension \(1, 4\), expected 4"):
            system.sign_vector(np.ones((1, 4)))

    def test_column_slice_agrees_with_its_json_round_trip(self):
        # a view of W must not change the last bits of any margin
        for seed in range(20):
            rng = philox(900 + seed)
            n, d = int(rng.integers(4, 200)), int(rng.integers(2, 5))
            W = rng.standard_normal((n, d + 2))
            X = rng.choice([-1.0, -0.5, 0.5, 1.0], (8, n))
            # row 0 sits on every threshold by the slice's own product
            view = HalfspaceSystem(W[:, 1:d + 1], X[0] @ W[:, 1:d + 1])
            copy = HalfspaceSystem.from_json(view.to_json())
            assert view.W.flags.c_contiguous
            assert [view.sign_vector(x) for x in X] == [copy.sign_vector(x) for x in X]
            assert np.array_equal(view.sign_matrix(X), copy.sign_matrix(X))

    def test_result_types(self):
        system = HalfspaceSystem(np.eye(3), [0.5, 0.5, 0.5], [False, True, False])
        signs = system.sign_vector(np.array([1.0, 0.0, 1.0]))
        assert signs == (1, 0, 1) and all(type(b) is int for b in signs)
        out = system.sign_matrix(patterns(3))
        assert out.dtype == np.int8 and out.shape == (8, 3)
        assert system.sign_matrix(np.empty((0, 3))).shape == (0, 3)


def tie_case(seed):
    """A seeded system with Theta on one row's own margin, and its points (C order)."""
    rng = philox(seed)
    n, d, rows = int(rng.integers(1, 65)), int(rng.integers(1, 5)), int(rng.integers(2, 17))
    W = rng.standard_normal((n, d))
    X = rng.choice([-1.0, -0.3, 0.1, 0.7, 1.0], (rows, n))
    strict = rng.integers(0, 2, d).astype(bool).tolist()
    return HalfspaceSystem(W, X[int(rng.integers(rows))] @ W, strict), X


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
           "strided": lambda X: np.repeat(X, 2, axis=1)[:, ::2]}


class TestOneSignRule:
    """Every row's signs come from its own product, whatever shares the call."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rows_and_prefixes_follow_sign_vector(self, layout):
        for seed in range(300):
            system, X = tie_case(seed)
            want = [list(system.sign_vector(x)) for x in X]
            X = LAYOUTS[layout](X)
            assert [list(system.sign_vector(x)) for x in X] == want, seed
            signs = system.sign_matrix(X)
            assert signs.tolist() == want, seed
            for k in range(len(X) + 1):
                assert np.array_equal(system.sign_matrix(X[:k]), signs[:k]), (seed, k)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 39), rows=st.integers(1, 16),
           tie=st.sampled_from(["left-to-right", "product"]), strict=st.booleans())
    def test_halfspace_is_its_one_column_system(self, seed, n, rows, tie, strict):
        # theta sits on row 0's margin, summed left to right in Python or by
        # the system's own product: the two orders round apart on some rows
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(n)
        X = rng.choice([-1.0, 1.0], size=(rows, n))
        theta = (sum(wi * xi for wi, xi in zip(w.tolist(), X[0].tolist()))
                 if tie == "left-to-right" else float((X[0] @ w[:, None])[0]))
        h = Halfspace(tuple(w.tolist()), theta, strict)
        system = HalfspaceSystem(w[:, None], [theta], [strict])
        want = system.sign_matrix(X)[:, 0]
        assert [h.evaluate(x) for x in X] == [system.sign_vector(x)[0] for x in X] == want.tolist()
        assert [h.evaluate(tuple(x.tolist())) for x in X] == want.tolist()
        assert np.array_equal(h.evaluate_batch(X), want)
        margins = [h.margin(x) for x in X]
        assert [int(m > 0 if strict else m >= 0) for m in margins] == want.tolist()
        neg = h.negation()
        assert [neg.evaluate(x) for x in X] == (1 - want).tolist()
        assert np.array_equal(neg.evaluate_batch(X), 1 - want)


def patterns(d):
    """Every 0/1 sign pattern of length d, row i with bit j in column j."""
    return (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(float)


def identity_system(d):
    """A system whose sign vector at a 0/1 point is the point itself."""
    return HalfspaceSystem(np.eye(d), [0.5] * d)


@st.composite
def trees(draw, d, depth=4):
    if depth == 0 or draw(st.booleans()):
        return DecisionTree.leaf_node(draw(st.integers(0, 1)))
    return DecisionTree.branch(draw(st.integers(0, d - 1)),
                               draw(trees(d, depth - 1)), draw(trees(d, depth - 1)))


@st.composite
def combiners(draw):
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["single", "intersection", "monotone-table",
                                 "decision-tree"]))
    if kind == "single":
        return d, CombinerSpec.single(draw(st.integers(0, d - 1)))
    if kind == "intersection":
        return d, CombinerSpec.intersection()
    if kind == "monotone-table":
        # the up-set generated by a few random patterns is monotone
        gens = draw(st.lists(st.integers(0, (1 << d) - 1), max_size=4))
        table = [int(any(x & g == g for g in gens)) for x in range(1 << d)]
        return d, CombinerSpec.monotone_table(table, d)
    return d, CombinerSpec.decision_tree(draw(trees(d)))


class TestBatchCombiners:
    @settings(max_examples=200, deadline=None)
    @given(combiners())
    def test_batch_equals_per_row_apply_on_every_pattern(self, case):
        d, comb = case
        X = patterns(d)
        batch = evaluate_batch(identity_system(d), comb, X)
        assert batch.dtype == np.int8
        assert batch.tolist() == [comb.apply(row) for row in X.astype(int).tolist()]

    @staticmethod
    def sign_forms(row):
        """One sign vector as each type callers pass: ints, bools, an int8 array."""
        return (tuple(row), [bool(b) for b in row], np.array(row, dtype=np.int8))

    @pytest.mark.parametrize("d", range(1, 11))
    def test_monotone_table_apply_equals_apply_rows(self, d):
        rng = np.random.default_rng(d)
        gens = rng.integers(0, 1 << d, size=3).tolist()
        comb = CombinerSpec.monotone_table(
            [int(any(x & g == g for g in gens)) for x in range(1 << d)], d)
        rows = patterns(d).astype(int)
        batch = comb.apply_rows(rows).tolist()
        for row, want in zip(rows.tolist(), batch):
            assert [comb.apply(signs) for signs in self.sign_forms(row)] == [want] * 3

    @pytest.mark.parametrize("d", range(1, 11))
    def test_monotone_table_index_is_the_pattern(self, d):
        # a table holding its own indices hands back the index apply computed
        comb = CombinerSpec("monotone-table", table=tuple(range(1 << d)))
        for i, row in enumerate(patterns(d).astype(int).tolist()):
            for signs in self.sign_forms(row):
                idx = comb.apply(signs)
                assert type(idx) is int and idx == i

    @staticmethod
    def every_combiner(d):
        """single at every index, intersection, monotone tables, seeded trees."""
        yield from map(CombinerSpec.single, range(d))
        yield CombinerSpec.intersection()
        rng = philox(40 + d)
        for _ in range(4):
            gens = rng.integers(0, 1 << d, size=int(rng.integers(0, 4))).tolist()
            yield CombinerSpec.monotone_table(
                [int(any(x & g == g for g in gens)) for x in range(1 << d)], d)

        def tree(depth):
            if depth == 0 or rng.random() < 0.25:
                return DecisionTree.leaf_node(int(rng.integers(0, 2)))
            # indices drawn with replacement, so a path can read one halfspace twice
            return DecisionTree.branch(int(rng.integers(0, d)), tree(depth - 1), tree(depth - 1))

        for _ in range(8):
            yield CombinerSpec.decision_tree(tree(4))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_apply_rows_equals_apply_for_every_kind(self, d):
        rows = patterns(d).astype(int)
        for comb in self.every_combiner(d):
            batch = comb.apply_rows(rows).tolist()
            for row, want in zip(rows.tolist(), batch):
                assert [comb.apply(signs) for signs in self.sign_forms(row)] == [want] * 3, comb

    @pytest.mark.parametrize("comb", [
        CombinerSpec.single(1), CombinerSpec.intersection(),
        CombinerSpec.monotone_table([0, 0, 0, 1, 0, 1, 1, 1], 3),
        CombinerSpec.decision_tree(DecisionTree.branch(
            2, DecisionTree.leaf_node(0), DecisionTree.leaf_node(1))),
    ], ids=lambda c: c.kind)
    def test_empty_batch(self, comb):
        out = evaluate_batch(identity_system(3), comb, np.empty((0, 3)))
        assert out.shape == (0,) and out.dtype == np.int8


class TestCombinerFitsSystem:
    SYS3 = HalfspaceSystem(np.ones((6, 3)), [0.0, 0.5, -0.5])

    @pytest.mark.parametrize("comb, kind", [
        (CombinerSpec("monotone-table", table=(0, 0, 0, 1)), "monotone-table"),
        (CombinerSpec.single(5), "single"),
        (CombinerSpec.decision_tree(DecisionTree.branch(
            0, DecisionTree.leaf_node(0),
            DecisionTree.branch(4, DecisionTree.leaf_node(0), DecisionTree.leaf_node(1)))),
         "decision-tree"),
    ], ids=["table-4-entries", "single-index-5", "tree-reads-hs-4"])
    def test_misfit_rejected_before_any_row(self, comb, kind):
        with pytest.raises(ValueError, match=f"{kind} combiner .* d=3 halfspaces"):
            evaluate_batch(self.SYS3, comb, CUBE6)

    def test_fitting_combiners_accepted(self):
        tree = DecisionTree.branch(2, DecisionTree.leaf_node(0), DecisionTree.leaf_node(1))
        for comb in (CombinerSpec.single(2), CombinerSpec.intersection(),
                     CombinerSpec.monotone_table([0] * 7 + [1], 3),
                     CombinerSpec.decision_tree(tree)):
            comb.check_fits(3)

    @pytest.mark.parametrize("size", [0, 1, 3, 6])
    def test_table_length_must_be_power_of_two(self, size):
        with pytest.raises(ValueError, match=f"2\\^d >= 2 entries, got {size}"):
            CombinerSpec.from_json({"kind": "monotone-table", "table": [0] * size})
