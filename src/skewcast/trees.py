"""Regression trees for second-order boosting.

Each tree is grown by exact greedy search over all split points, scoring
candidates with the standard second-order gain

    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg))

and assigning leaf values -G / (H + reg), where G and H are sums of
per-row gradients and hessians.  Nodes are stored in flat parallel
arrays so prediction is a vectorized level-by-level descent.

Determinism: features are scanned in index order, sorts are stable, and
ties in gain resolve to the lowest feature index and then the lowest
threshold, so the same inputs always grow the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_LEAF = -1


@dataclass
class Tree:
    """Flat-array binary tree; ``feature[i] == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == _LEAF))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf; rows go left when x <= threshold."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = self.feature[node]
            live = feat != _LEAF
            if not live.any():
                break
            rows = np.nonzero(live)[0]
            vals = X[rows, feat[rows]]
            go_left = vals <= self.threshold[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]], self.right[node[rows]])
        return self.value[node].copy()

    def to_json(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Tree":
        """Load a tree, rejecting any structure ``predict`` cannot walk.

        Children of internal nodes must point forward (and so every walk
        ends in a leaf), leaves must carry no children, and thresholds
        and values must be finite.
        """
        try:
            tree = cls(
                feature=np.asarray(obj["feature"], dtype=np.int64),
                threshold=np.asarray(obj["threshold"], dtype=np.float64),
                left=np.asarray(obj["left"], dtype=np.int64),
                right=np.asarray(obj["right"], dtype=np.int64),
                value=np.asarray(obj["value"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad tree JSON: {exc!r}") from None
        n = tree.feature.size
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ConfigError("tree arrays must be one-dimensional, non-empty and of equal length")
        if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
            raise ConfigError("tree thresholds and values must be finite")
        leaf = tree.feature == _LEAF
        childless = (tree.left[leaf] == _LEAF) & (tree.right[leaf] == _LEAF)
        if (tree.feature < _LEAF).any() or not childless.all():
            raise ConfigError("tree leaves must have feature, left and right all -1")
        node = np.nonzero(~leaf)[0]
        for child in (tree.left[~leaf], tree.right[~leaf]):
            if ((child <= node) | (child >= n)).any():
                raise ConfigError("tree children must point forward to an existing node")
        return tree


def grow_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    min_child_weight: float,
    l2_reg: float,
) -> Tree:
    """Grow one tree to ``max_depth`` by exact greedy splitting."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    n_features = X.shape[1]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    # stack of (node_id, row indices, depth); children pushed right-first so
    # nodes are numbered in depth-first left-to-right order
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(len(X)), 0)]
    while stack:
        node_id, rows, depth = stack.pop()
        g_sum = float(np.sum(grad[rows]))
        h_sum = float(np.sum(hess[rows]))
        value[node_id] = -g_sum / (h_sum + l2_reg)
        if depth >= max_depth or len(rows) < 2:
            continue
        split = _best_split(X, grad, hess, rows, g_sum, h_sum, n_features,
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


def _best_split(X, grad, hess, rows, g_sum, h_sum, n_features, min_child_weight, l2_reg):
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
        gain = 0.5 * (
            g_cum * g_cum / (h_cum + l2_reg)
            + g_rest * g_rest / (h_rest + l2_reg)
            - parent_score
        )
        gain[~ok] = -np.inf
        k = int(np.argmax(gain))  # first max: lowest threshold on gain ties
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            thr = 0.5 * (xs_sorted[k] + xs_sorted[k + 1])
            if not (xs_sorted[k] <= thr < xs_sorted[k + 1]):
                thr = float(xs_sorted[k])  # guard rounding on adjacent floats
            go_left = xs <= thr
            best = (feat, float(thr), rows[go_left], rows[~go_left])
    return best
