"""Regression trees: split search against a brute-force oracle, the
presorted engine against the per-node-sort grower it replaced, routing,
and structural determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import skewcast as sc
from skewcast import learner
from skewcast.errors import ConfigError, ShapeMismatch
from skewcast.losses import HESS_FLOOR, WEIGHT_FLOOR
from skewcast.trees import Tree, grow_tree, presort

TREE_FIELDS = ("feature", "threshold", "left", "right", "value")

# the smallest hessian a fit passes to ``grow_tree``: the loss's floor times
# the weight scheme's
FIT_HESS_FLOOR = HESS_FLOOR * WEIGHT_FLOOR


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


def _reference_grow_tree(X, grad, hess, max_depth, min_child_weight, l2_reg):
    """The grower before presorting: every node argsorts its own rows."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    n_features = X.shape[1]
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(len(X)), 0)]
    while stack:
        node_id, rows, depth = stack.pop()
        g_sum = float(np.sum(grad[rows]))
        h_sum = float(np.sum(hess[rows]))
        value[node_id] = -g_sum / (h_sum + l2_reg)
        if depth >= max_depth or len(rows) < 2:
            continue
        split = _reference_best_split(X, grad, hess, rows, g_sum, h_sum, n_features,
                                      min_child_weight, l2_reg)
        if split is None:
            continue
        feat, thr, left_rows, right_rows = split
        feature[node_id] = feat
        threshold[node_id] = thr
        left_id = new_node()
        right_id = new_node()
        left[node_id] = left_id
        right[node_id] = right_id
        stack.append((right_id, right_rows, depth + 1))
        stack.append((left_id, left_rows, depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def _reference_best_split(X, grad, hess, rows, g_sum, h_sum, n_features,
                          min_child_weight, l2_reg):
    best_gain = 0.0
    best = None
    parent_score = g_sum * g_sum / (h_sum + l2_reg)
    for feat in range(n_features):
        xs = X[rows, feat]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        if xs_sorted[0] == xs_sorted[-1]:
            continue
        g_cum = np.cumsum(grad[rows][order])[:-1]
        h_cum = np.cumsum(hess[rows][order])[:-1]
        g_rest = g_sum - g_cum
        h_rest = h_sum - h_cum
        ok = (
            (xs_sorted[1:] != xs_sorted[:-1])
            & (h_cum >= min_child_weight)
            & (h_rest >= min_child_weight)
        )
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (
                g_cum * g_cum / (h_cum + l2_reg)
                + g_rest * g_rest / (h_rest + l2_reg)
                - parent_score
            )
        gain[~ok] = -np.inf
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            thr = 0.5 * (xs_sorted[k] + xs_sorted[k + 1])
            if not (xs_sorted[k] <= thr < xs_sorted[k + 1]):
                thr = float(xs_sorted[k])
            go_left = xs <= thr
            best = (feat, float(thr), rows[go_left], rows[~go_left])
    return best


def _reference_in_a_fit(X, grad, hess, presorted, out=None):
    """``grow_tree`` as a fit calls it, growing the reference's tree."""
    tree = _reference_grow_tree(X, grad, hess, presorted.max_depth,
                                presorted.min_child_weight, presorted.l2_reg)
    if out is not None:
        out[:] = tree.predict(X)
    return tree


def _depth(tree, node=0):
    if tree.feature[node] == -1:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def assert_matches_reference(X, grad, hess, max_depth, min_child_weight, l2_reg):
    """The presorted engine grows the reference's tree exactly, and the
    leaf values it writes are exactly what ``predict`` returns."""
    expect = _reference_grow_tree(X, grad, hess, max_depth, min_child_weight, l2_reg)
    leaf = np.full(len(X), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        tree = grow_tree(X, grad, hess, presort(X, max_depth, min_child_weight, l2_reg),
                         out=leaf)
    for field in TREE_FIELDS:
        assert np.array_equal(getattr(tree, field), getattr(expect, field)), field
    assert np.array_equal(leaf, tree.predict(X))
    return tree


class TestSplitSearch:
    def test_root_split_matches_brute_force(self, rng):
        for trial in range(20):
            X = rng.normal(size=(40, 3))
            grad = rng.normal(size=40)
            hess = rng.uniform(0.5, 2.0, size=40)
            tree = grow_tree(X, grad, hess,
                             presort(X, max_depth=1, min_child_weight=1.0, l2_reg=1.0))
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
        tree = grow_tree(X, grad, hess, presort(X, max_depth=1, min_child_weight=1.0, l2_reg=l2))
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
        tree = grow_tree(X, grad, hess, presort(X, max_depth=3, min_child_weight=0.0, l2_reg=0.0))
        assert tree.n_nodes == 1
        assert tree.n_leaves == 1
        np.testing.assert_allclose(tree.predict(X), -2.0)

    def test_min_child_weight_blocks_splits(self):
        X = np.arange(8.0).reshape(-1, 1)
        grad = np.array([-1.0] * 4 + [1.0] * 4)
        hess = np.ones(8)
        free = grow_tree(X, grad, hess, presort(X, max_depth=1, min_child_weight=1.0, l2_reg=1.0))
        assert free.n_leaves == 2
        blocked = grow_tree(X, grad, hess,
                            presort(X, max_depth=1, min_child_weight=8.0, l2_reg=1.0))
        assert blocked.n_nodes == 1

    def test_tie_breaks_to_lowest_feature(self, rng):
        """Two identical columns produce identical gains; the split must
        land on the lower feature index."""
        col = rng.normal(size=(25, 1))
        X = np.hstack([col, col])
        grad = rng.normal(size=25)
        hess = np.ones(25)
        tree = grow_tree(X, grad, hess, presort(X, max_depth=1, min_child_weight=1.0, l2_reg=1.0))
        assert tree.feature[0] == 0

    def test_threshold_between_adjacent_floats_is_the_lower_value(self):
        """The midpoint of two adjacent floats can round up to the upper one,
        which would send the upper rows left; the threshold then takes the
        lower value."""
        lo, hi = 1.0000000000000002, 1.0000000000000004
        assert np.nextafter(lo, 2.0) == hi and 0.5 * (lo + hi) == hi
        X = np.array([[lo]] * 5 + [[hi]] * 5)
        grad = np.array([-1.0] * 5 + [1.0] * 5)
        leaf = np.empty(10)
        tree = grow_tree(X, grad, np.ones(10),
                         presort(X, max_depth=1, min_child_weight=1.0, l2_reg=1.0), out=leaf)
        assert tree.n_leaves == 2 and tree.threshold[0] == lo
        assert np.array_equal(tree.predict(X), leaf)
        np.testing.assert_array_equal(leaf, [5.0 / 6] * 5 + [-5.0 / 6] * 5)  # -G / (H + l2)

    def test_constant_feature_never_split(self):
        X = np.ones((12, 1))
        grad = np.linspace(-1, 1, 12)
        hess = np.ones(12)
        tree = grow_tree(X, grad, hess, presort(X, max_depth=2, min_child_weight=0.5, l2_reg=1.0))
        assert tree.n_nodes == 1

    def test_depth_zero_is_a_stump(self, rng):
        X = rng.normal(size=(20, 2))
        tree = grow_tree(X, rng.normal(size=20), np.ones(20),
                         presort(X, max_depth=0, min_child_weight=1.0, l2_reg=1.0))
        assert tree.n_nodes == 1

    def test_depth_limit_respected(self, rng):
        X = rng.normal(size=(200, 3))
        grad = rng.normal(size=200)
        hess = np.ones(200)
        tree = grow_tree(X, grad, hess, presort(X, max_depth=2, min_child_weight=1.0, l2_reg=1.0))
        assert tree.n_leaves <= 4
        assert tree.n_nodes <= 7

    def test_identical_inputs_grow_identical_trees(self, rng):
        X = rng.normal(size=(80, 4))
        grad = rng.normal(size=80)
        hess = rng.uniform(0.5, 2.0, size=80)
        a = grow_tree(X, grad, hess, presort(X, max_depth=4, min_child_weight=1.0, l2_reg=1.0))
        b = grow_tree(X, grad, hess, presort(X, max_depth=4, min_child_weight=1.0, l2_reg=1.0))
        for field in TREE_FIELDS:
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestPresortedEngine:
    def test_presort_is_a_stable_argsort_of_every_column(self, rng):
        X = rng.integers(0, 3, size=(50, 4)).astype(float)
        sorted_ = presort(X, max_depth=1, min_child_weight=1.0, l2_reg=1.0)
        order, values = sorted_.order, sorted_.values
        assert order.shape == values.shape == (4, 50)
        for feat in range(4):
            np.testing.assert_array_equal(order[feat], np.argsort(X[:, feat], kind="stable"))
            np.testing.assert_array_equal(values[feat], X[order[feat], feat])

    def test_heavy_ties_and_a_constant_feature(self, rng):
        X = rng.integers(0, 4, size=(300, 4)).astype(float)
        X[:, 2] = 7.0
        grad = rng.normal(size=300)
        hess = rng.uniform(0.5, 2.0, size=300)
        tree = assert_matches_reference(X, grad, hess, 4, 1.0, 1.0)
        assert tree.n_nodes > 1
        assert 2 not in tree.feature

    def test_min_child_weight_blocking_every_split(self, rng):
        X = rng.normal(size=(40, 3))
        grad = rng.normal(size=40)
        hess = np.ones(40)
        tree = assert_matches_reference(X, grad, hess, 3, 25.0, 1.0)
        assert tree.n_nodes == 1

    def test_zero_hessians_without_regularization(self):
        """Rows with zero weight carry zero gradient and hessian.  With
        l2_reg=0, feature 0's first split isolates them and scores 0/0 =
        NaN, which skips feature 0 in both engines although its second
        split is the best one; the weaker feature 1 wins."""
        X = np.column_stack([np.repeat([0.0, 1.0, 2.0], 10), np.repeat([0.0, 1.0], [15, 15])])
        grad = np.concatenate([np.zeros(10), np.full(10, -3.0), np.full(10, 2.0)])
        hess = np.concatenate([np.zeros(10), np.ones(20)])
        tree = assert_matches_reference(X, grad, hess, 3, 0.0, 0.0)
        assert tree.feature[0] == 1

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_depths(self, rng, depth):
        n = 400
        X = np.column_stack([
            rng.normal(size=n),
            rng.integers(0, 7, size=n),
            rng.choice([1.0, 2.5, 4.0], size=n),
            np.repeat(rng.normal(size=8), n // 8),
        ])
        grad = rng.normal(size=n)
        hess = rng.uniform(0.1, 2.0, size=n)
        tree = assert_matches_reference(X, grad, hess, depth, 1.0, 1.0)
        assert _depth(tree) == depth

    @settings(max_examples=200)
    @given(data=st.data())
    def test_small_matrices(self, data):
        n = data.draw(st.integers(1, 30), label="n")
        k = data.draw(st.integers(1, 3), label="k")
        values = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                           st.floats(-1e3, 1e3, allow_nan=False))
        X = data.draw(hnp.arrays(np.float64, (n, k), elements=values), label="X")
        grad = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-10, 10)), label="grad")
        # per-row hessians, or one shared value: a power of two takes the
        # exact constant-hessian prefix, any other the general one
        hess = data.draw(st.one_of(
            hnp.arrays(np.float64, n, elements=st.floats(0, 2)),
            st.sampled_from([0.5, 1.0, 2.0, 4.0, 0.1, 3.0]).map(lambda c: np.full(n, c)),
        ), label="hess")
        # no l2_reg = 0 with a zero or tiny hessian: a node of zero-hessian
        # rows divides by zero in both growers and a subnormal one overflows
        # g * g / h; no fit has either, as every hessian is at least the floor
        l2_choices = [0.0, 0.5, 1.0] if (hess >= FIT_HESS_FLOOR).all() else [0.5, 1.0]
        assert_matches_reference(
            X, grad, hess,
            max_depth=data.draw(st.integers(1, 6), label="max_depth"),
            min_child_weight=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="mcw"),
            l2_reg=data.draw(st.sampled_from(l2_choices), label="l2_reg"),
        )

    # a full step and the default shrinkage
    @pytest.mark.parametrize("learning_rate", [1.0, 0.1])
    def test_fit_matches_a_fit_with_the_reference_grower(self, small_panel, monkeypatch,
                                                         learning_rate):
        cfg = sc.LearnerConfig(rounds=8, max_depth=4, learning_rate=learning_rate)
        args = (small_panel, sc.TargetTransform(kind="log"), sc.LossSpec.mse(),
                sc.WeightScheme(kind="sqrt_sales"), cfg)
        model = sc.fit(*args)
        monkeypatch.setattr(learner, "grow_tree", _reference_in_a_fit)
        assert model.to_json() == sc.fit(*args).to_json()

    def test_a_tree_fit_sorts_its_features_once(self, small_panel, monkeypatch):
        calls = []

        def counted(X, *settings):
            calls.append((X.shape, settings))
            return presort(X, *settings)

        monkeypatch.setattr(learner, "presort", counted)
        model = sc.fit(small_panel, sc.TargetTransform(kind="log"), sc.LossSpec.mse(),
                       sc.WeightScheme(kind="unit"), sc.LearnerConfig(rounds=6, max_depth=3))
        assert len(model.trees) == 6
        assert calls == [(small_panel.feature_matrix.shape, (3, 1.0, 1.0))]


def _assert_same_tree(tree, leaf, expect, X):
    for field in TREE_FIELDS:
        assert np.array_equal(getattr(tree, field), getattr(expect, field)), field
    assert np.array_equal(leaf, expect.predict(X))


def _carried_nodes(sorted_):
    """The nodes a presort carries, by path of (feature, rows going left, side)."""
    found, stack = {}, [((), sorted_.root)]
    while stack:
        path, node = stack.pop()
        found[path] = node
        if node.split is not None:
            feat, n_left, left, right = node.split
            stack += [(path + ((feat, n_left, True),), left),
                      (path + ((feat, n_left, False),), right)]
    return found


class TestCarriedPartitions:
    """A presort carries each tree's partitions to the next ``grow_tree``
    call; every tree must still be the one a fresh reference grows."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_a_sequence_of_trees_matches_fresh_growth(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        k = data.draw(st.integers(1, 3), label="k")
        values = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                           st.floats(-1e3, 1e3, allow_nan=False))
        X = data.draw(hnp.arrays(np.float64, (n, k), elements=values), label="X")
        grads = hnp.arrays(np.float64, n, elements=st.floats(-10, 10))
        general = hnp.arrays(np.float64, n, elements=st.floats(0, 2))
        unit = data.draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]), label="unit")
        a, b = data.draw(general, label="hess a"), data.draw(general, label="hess b")
        # unit, then a general hessian, the same one again, and a changed one
        hessians = [np.full(n, unit), np.full(n, unit), a, a.copy(), a, b, np.full(n, unit)]
        l2_choices = [0.0, 0.5, 1.0] if all((h > 0).all() for h in hessians) else [0.5, 1.0]
        settings_ = (data.draw(st.integers(1, 5), label="max_depth"),
                     data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="mcw"),
                     data.draw(st.sampled_from(l2_choices), label="l2_reg"))
        sorted_ = presort(X, *settings_)
        grad = data.draw(grads, label="grad")
        for step, hess in enumerate(hessians):
            # the same gradient or a scaled one mostly repeats the last tree's
            # splits; a zero one grows a single leaf
            change = data.draw(st.sampled_from(["same", "scaled", "new", "zero"]),
                               label=f"grad {step}")
            if change == "scaled":
                grad = 0.5 * grad
            elif change == "new":
                grad = data.draw(grads, label=f"new grad {step}")
            step_grad = np.zeros(n) if change == "zero" else grad
            leaf = np.full(n, np.nan)
            with np.errstate(all="ignore"):  # a subnormal hessian overflows both growers alike
                expect = _reference_grow_tree(X, step_grad, hess, *settings_)
                tree = grow_tree(X, step_grad, hess, sorted_, out=leaf)
                _assert_same_tree(tree, leaf, expect, X)

    def test_a_repeated_tree_reuses_every_partition(self, rng):
        X = rng.normal(size=(200, 3))
        grad = rng.normal(size=200)
        hess = rng.uniform(0.5, 2.0, size=200)
        sorted_ = presort(X, 4, 1.0, 1.0)
        first = grow_tree(X, grad, hess, sorted_)
        before = _carried_nodes(sorted_)
        scorable = {path: node.scorable for path, node in before.items()}
        second = grow_tree(X, grad, hess.copy(), sorted_)
        after = _carried_nodes(sorted_)
        assert first.to_json() == second.to_json()
        assert len(after) == first.n_nodes
        assert all(after[path] is node for path, node in before.items())
        assert all(after[path].scorable is parts for path, parts in scorable.items())

    def test_a_changed_hessian_carries_less(self, rng):
        X = rng.normal(size=(200, 3))
        grad = rng.normal(size=200)
        hess = rng.uniform(0.5, 2.0, size=200)
        sorted_ = presort(X, 3, 1.0, 1.0)
        grow_tree(X, grad, hess, sorted_)
        # one row's hessian one ulp higher: the partitions carry over, the sums do not
        nudged = hess.copy()
        nudged[0] = np.nextafter(nudged[0], 3.0)
        before = _carried_nodes(sorted_)
        scorable = {path: node.scorable for path, node in before.items()
                    if node.scorable is not None}
        tree = grow_tree(X, grad, nudged, sorted_)
        _assert_same_tree(tree, tree.predict(X),
                          _reference_grow_tree(X, grad, nudged, 3, 1.0, 1.0), X)
        after = _carried_nodes(sorted_)
        assert any(after.get(path) is node for path, node in before.items())
        assert not any(after[path].scorable is parts for path, parts in scorable.items()
                       if path in after)

    def test_a_leaf_keeps_no_children_from_an_older_tree(self):
        """The first tree splits at 1.5 under hessian A, the second is one
        leaf under B, and the third makes the first one's split under B:
        its right leaf sums B's hessians, 4 + l2_reg, not A's 2 + l2_reg."""
        X = np.arange(4.0).reshape(-1, 1)
        grad = np.array([1.0, 1.0, -1.0, -1.0])
        a, b = np.ones(4), np.array([1.0, 1.0, 1.0, 3.0])
        sorted_ = presort(X, 1, 0.0, 1.0)
        for step_grad, hess in [(grad, a), (np.zeros(4), b), (grad, b)]:
            tree = grow_tree(X, step_grad, hess, sorted_)
            _assert_same_tree(tree, tree.predict(X),
                              _reference_grow_tree(X, step_grad, hess, 1, 0.0, 1.0), X)
        assert tree.value[2] == 2.0 / 5.0

    def test_a_signed_zero_is_not_the_same_input(self):
        """-0.0 equals 0.0, but a zero-hessian side whose hessian sum plus
        ``l2_reg`` (-0.0 here) is -0.0 scores -inf, and +inf if it is 0.0.
        The first tree, under -0.0 hessians, splits at 2.5; the second,
        under 0.0 ones, isolates a zero-hessian row, whose leaf then
        divides by zero in both growers."""
        X = np.arange(4.0).reshape(-1, 1)
        grad = np.array([1.0, 1.0, 1.0, -3.0])
        first = np.array([-0.0, -0.0, 1.0, 1.0])
        second = np.array([0.0, 0.0, 1.0, 1.0])
        sorted_ = presort(X, 1, 0.0, -0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tree = grow_tree(X, grad, first, sorted_)
            _assert_same_tree(tree, tree.predict(X),
                              _reference_grow_tree(X, grad, first, 1, 0.0, -0.0), X)
            assert tree.threshold[0] == 2.5
            with pytest.raises(ZeroDivisionError):
                _reference_grow_tree(X, grad, second, 1, 0.0, -0.0)
            with pytest.raises(ZeroDivisionError):
                grow_tree(X, grad, second, sorted_)
        assert sorted_.root is None  # a failed call carries nothing

    @pytest.mark.parametrize("arm_id", ["E3.5", "E5"])  # Tweedie 1.5: a new hessian each round
    def test_long_fits_match_a_fit_with_the_reference_grower(self, small_panel, monkeypatch,
                                                             arm_id):
        arm = sc.arm_by_id(arm_id)
        args = (small_panel, arm.transform, arm.loss, arm.weight_scheme,
                sc.LearnerConfig(rounds=20, max_depth=4))
        model = sc.fit(*args)
        assert len(model.trees) == 20
        monkeypatch.setattr(learner, "grow_tree", _reference_in_a_fit)
        assert model.to_json() == sc.fit(*args).to_json()


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
        with pytest.raises(ShapeMismatch):  # no column for the split's feature
            tree.predict(np.zeros((4, 0)))

    def test_deep_tree_routes_like_a_reference_walk(self, rng):
        X = rng.normal(size=(300, 3))
        grad = rng.normal(size=300)
        hess = np.ones(300)
        deep = grow_tree(X, grad, hess, presort(X, max_depth=5, min_child_weight=1.0, l2_reg=1.0))
        # one row exactly on each split's threshold
        internal = np.flatnonzero(deep.feature != -1)
        on_threshold = rng.normal(size=(len(internal), 3))
        on_threshold[np.arange(len(internal)), deep.feature[internal]] = deep.threshold[internal]
        X = np.vstack([X, on_threshold])
        leaf = Tree(feature=np.array([-1]), threshold=np.array([0.0]), left=np.array([-1]),
                    right=np.array([-1]), value=np.array([3.5]))

        for tree in (deep, leaf):
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
                         presort(X, max_depth=3, min_child_weight=1.0, l2_reg=1.0))
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
        {"feature": [2**70, -1, -1]},
        {"feature": [float("inf"), -1, -1]},
    ], ids=["self-loop", "child-out-of-range", "negative-child", "child-points-back",
            "unequal-lengths", "not-one-dimensional", "scalar", "empty", "leaf-with-child",
            "bad-leaf-marker", "nan-value", "inf-threshold", "non-numeric", "huge-feature",
            "infinite-feature"])
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
