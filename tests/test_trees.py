"""Regression trees: split search against a brute-force oracle, routing,
and structural determinism."""

import numpy as np
import pytest

from skewcast.errors import ConfigError
from skewcast.trees import Tree, grow_tree


def brute_force_root_split(X, grad, hess, min_child_weight, l2_reg):
    """Exhaustive O(n^2) search for the best root split.

    Returns (gain, feature, threshold) of the first maximizer in
    (feature, threshold) order, or None when no candidate clears the
    constraints with positive gain.
    """
    n, k = X.shape
    g_total, h_total = grad.sum(), hess.sum()
    parent = g_total * g_total / (h_total + l2_reg)
    best = None
    for feat in range(k):
        for raw in np.unique(X[:, feat])[:-1]:
            above = X[X[:, feat] > raw, feat].min()
            thr = 0.5 * (raw + above)
            if not (raw <= thr < above):
                thr = raw
            mask = X[:, feat] <= thr
            gl, hl = grad[mask].sum(), hess[mask].sum()
            gr, hr = g_total - gl, h_total - hl
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gain = 0.5 * (gl * gl / (hl + l2_reg) + gr * gr / (hr + l2_reg) - parent)
            if gain > 0.0 and (best is None or gain > best[0] + 1e-12):
                best = (gain, feat, thr)
    return best


class TestSplitSearch:
    def test_root_split_matches_brute_force(self, rng):
        for trial in range(20):
            X = rng.normal(size=(40, 3))
            grad = rng.normal(size=40)
            hess = rng.uniform(0.5, 2.0, size=40)
            tree = grow_tree(X, grad, hess, max_depth=1,
                             min_child_weight=1.0, l2_reg=1.0)
            oracle = brute_force_root_split(X, grad, hess, 1.0, 1.0)
            assert oracle is not None
            gain, feat, thr = oracle
            assert tree.feature[0] == feat
            assert tree.threshold[0] == pytest.approx(thr, rel=1e-12)

    def test_leaf_values_are_newton_steps(self, rng):
        X = rng.normal(size=(30, 2))
        grad = rng.normal(size=30)
        hess = rng.uniform(0.5, 2.0, size=30)
        l2 = 1.5
        tree = grow_tree(X, grad, hess, max_depth=1, min_child_weight=1.0, l2_reg=l2)
        thr, feat = tree.threshold[0], tree.feature[0]
        mask = X[:, feat] <= thr
        expect_left = -grad[mask].sum() / (hess[mask].sum() + l2)
        expect_right = -grad[~mask].sum() / (hess[~mask].sum() + l2)
        pred = tree.predict(X)
        np.testing.assert_allclose(pred[mask], expect_left, rtol=1e-12)
        np.testing.assert_allclose(pred[~mask], expect_right, rtol=1e-12)

    def test_no_split_when_gain_is_zero(self):
        """Constant gradient and hessian with no regularization: every
        split scores exactly zero gain, so the root stays a leaf."""
        X = np.arange(10.0).reshape(-1, 1)
        grad = np.full(10, 2.0)
        hess = np.full(10, 1.0)
        tree = grow_tree(X, grad, hess, max_depth=3, min_child_weight=0.0, l2_reg=0.0)
        assert tree.n_nodes == 1
        assert tree.n_leaves == 1
        np.testing.assert_allclose(tree.predict(X), -2.0)

    def test_min_child_weight_blocks_splits(self):
        X = np.arange(8.0).reshape(-1, 1)
        grad = np.array([-1.0] * 4 + [1.0] * 4)
        hess = np.ones(8)
        free = grow_tree(X, grad, hess, max_depth=1, min_child_weight=1.0, l2_reg=1.0)
        assert free.n_leaves == 2
        blocked = grow_tree(X, grad, hess, max_depth=1,
                            min_child_weight=8.0, l2_reg=1.0)
        assert blocked.n_nodes == 1

    def test_tie_breaks_to_lowest_feature(self, rng):
        """Two identical columns produce identical gains; the split must
        land on the lower feature index."""
        col = rng.normal(size=(25, 1))
        X = np.hstack([col, col])
        grad = rng.normal(size=25)
        hess = np.ones(25)
        tree = grow_tree(X, grad, hess, max_depth=1, min_child_weight=1.0, l2_reg=1.0)
        assert tree.feature[0] == 0

    def test_constant_feature_never_split(self):
        X = np.ones((12, 1))
        grad = np.linspace(-1, 1, 12)
        hess = np.ones(12)
        tree = grow_tree(X, grad, hess, max_depth=2, min_child_weight=0.5, l2_reg=1.0)
        assert tree.n_nodes == 1

    def test_depth_zero_is_a_stump(self, rng):
        X = rng.normal(size=(20, 2))
        tree = grow_tree(X, rng.normal(size=20), np.ones(20),
                         max_depth=0, min_child_weight=1.0, l2_reg=1.0)
        assert tree.n_nodes == 1

    def test_depth_limit_respected(self, rng):
        X = rng.normal(size=(200, 3))
        grad = rng.normal(size=200)
        hess = np.ones(200)
        tree = grow_tree(X, grad, hess, max_depth=2, min_child_weight=1.0, l2_reg=1.0)
        assert tree.n_leaves <= 4
        assert tree.n_nodes <= 7

    def test_identical_inputs_grow_identical_trees(self, rng):
        X = rng.normal(size=(80, 4))
        grad = rng.normal(size=80)
        hess = rng.uniform(0.5, 2.0, size=80)
        a = grow_tree(X, grad, hess, max_depth=4, min_child_weight=1.0, l2_reg=1.0)
        b = grow_tree(X, grad, hess, max_depth=4, min_child_weight=1.0, l2_reg=1.0)
        for field in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestRouting:
    def test_boundary_goes_left(self):
        tree = Tree(
            feature=np.array([0, -1, -1], dtype=np.int64),
            threshold=np.array([1.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int64),
            right=np.array([2, -1, -1], dtype=np.int64),
            value=np.array([0.0, 10.0, 20.0]),
        )
        X = np.array([[1.5], [1.5000001], [0.0], [99.0]])
        np.testing.assert_array_equal(tree.predict(X), [10.0, 20.0, 10.0, 20.0])

    def test_deep_tree_routes_like_a_reference_walk(self, rng):
        X = rng.normal(size=(300, 3))
        grad = rng.normal(size=300)
        hess = np.ones(300)
        tree = grow_tree(X, grad, hess, max_depth=5, min_child_weight=1.0, l2_reg=1.0)

        def walk(x):
            node = 0
            while tree.feature[node] != -1:
                if x[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            return tree.value[node]

        expect = np.array([walk(x) for x in X])
        np.testing.assert_array_equal(tree.predict(X), expect)


class TestSerialization:
    def test_json_round_trip(self, rng):
        X = rng.normal(size=(60, 3))
        tree = grow_tree(X, rng.normal(size=60), np.ones(60),
                         max_depth=3, min_child_weight=1.0, l2_reg=1.0)
        back = Tree.from_json(tree.to_json())
        np.testing.assert_array_equal(back.predict(X), tree.predict(X))
        assert back.n_nodes == tree.n_nodes

    @pytest.mark.parametrize("change", [
        {"feature": [0], "threshold": [0.0], "left": [0], "right": [0], "value": [1.0]},
        {"left": [5, -1, -1]},
        {"right": [2, -1, -7]},
        {"feature": [0, 0, -1], "left": [1, 0, -1], "right": [2, 2, -1]},
        {"value": [0.0, 10.0]},
        {"feature": [[0, -1, -1]]},
        {"feature": 0},
        {"feature": [], "threshold": [], "left": [], "right": [], "value": []},
        {"left": [1, 2, -1]},
        {"feature": [0, -2, -1]},
        {"value": [0.0, float("nan"), 20.0]},
        {"threshold": [float("inf"), 0.0, 0.0]},
        {"value": ["ten", 10.0, 20.0]},
    ], ids=["self-loop", "child-out-of-range", "negative-child", "child-points-back",
            "unequal-lengths", "not-one-dimensional", "scalar", "empty", "leaf-with-child",
            "bad-leaf-marker", "nan-value", "inf-threshold", "non-numeric"])
    def test_corrupt_tree_rejected(self, change):
        obj = {"feature": [0, -1, -1], "threshold": [1.5, 0.0, 0.0],
               "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, 10.0, 20.0]}
        Tree.from_json(obj)  # the unchanged tree loads
        obj.update(change)
        with pytest.raises(ConfigError):
            Tree.from_json(obj)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            Tree.from_json({"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1]})
