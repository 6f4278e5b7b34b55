"""Regression trees for second-order boosting.

Each tree is grown by exact greedy search over all split points, scoring
candidates with the standard second-order gain

    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg))

and assigning leaf values -G / (H + reg), where G and H are sums of
per-row gradients and hessians.  Nodes are stored in flat parallel
arrays so prediction is a vectorized level-by-level descent.

Growth sorts each feature once (``presort``, the "column block" layout
of XGBoost) instead of once per node.  Every node carries its rows in
ascending order plus, per feature, its rows sorted by that feature; a
split filters both with the chosen ``x <= threshold`` mask, so no node
sorts again.  A stable sort filtered to a subset is that subset's own
stable sort: the node sees its rows in (value, row) order, exactly as a
per-node stable argsort would give them, so prefix sums, gains, chosen
splits and leaf values are the same bits.  All candidates of a node are
scored in one pass over a (features, rows) block.  A leaf can also
write its value to its rows, which saves the boosting loop a ``predict``
over its own training rows.

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


def presort(X: np.ndarray) -> np.ndarray:
    """Rows of every column in ascending (value, row) order: shape (n_features, n)."""
    X = np.asarray(X, dtype=np.float64)
    return np.argsort(X.T, axis=1, kind="stable")


def grow_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    min_child_weight: float,
    l2_reg: float,
    order: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> Tree:
    """Grow one tree to ``max_depth`` by exact greedy splitting.

    ``order`` is ``presort(X)`` when the caller already has it.  If ``out``
    is given, each row's leaf value is written to it: what ``predict(X)``
    would return.
    """
    X = np.asarray(X, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    if order is None:
        order = presort(X)
    XT = np.ascontiguousarray(X.T)
    went_left = np.empty(len(X), dtype=bool)  # per row: side of its node's split

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
    # stack of (node_id, ascending rows, the rows sorted per feature, depth);
    # children pushed right-first so nodes are numbered in depth-first
    # left-to-right order
    stack = [(root, np.arange(len(X)), order, 0)]
    while stack:
        node_id, rows, idx, depth = stack.pop()
        g_sum = float(np.sum(grad[rows]))
        h_sum = float(np.sum(hess[rows]))
        value[node_id] = -g_sum / (h_sum + l2_reg)
        split = None
        if depth < max_depth and len(rows) >= 2:
            split = _best_split(XT, grad, hess, idx, g_sum, h_sum, min_child_weight, l2_reg)
        if split is None:
            if out is not None:
                out[rows] = value[node_id]
            continue
        feat, thr = split
        go_left = XT[feat, rows] <= thr
        left_idx = right_idx = None  # children at max_depth never split
        if depth + 1 < max_depth:
            went_left[rows] = go_left
            mask = went_left[idx]
            left_idx = idx[mask].reshape(len(idx), -1)
            right_idx = idx[~mask].reshape(len(idx), -1)
        feature[node_id] = feat
        threshold[node_id] = thr
        left_id = new_node()
        right_id = new_node()
        left[node_id] = left_id
        right[node_id] = right_id
        stack.append((right_id, rows[~go_left], right_idx, depth + 1))
        stack.append((left_id, rows[go_left], left_idx, depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def _best_split(XT, grad, hess, idx, g_sum, h_sum, min_child_weight, l2_reg):
    """(feature, threshold) of the best split of a node, or None.

    ``idx`` holds the node's rows once per feature, each sorted by that
    feature; every candidate of every feature is scored in one pass.
    """
    xs = XT.take(idx + np.arange(len(idx))[:, None] * XT.shape[1])  # XT[f, idx[f]]
    g_cum = np.cumsum(grad[idx], axis=1)[:, :-1]
    h_cum = np.cumsum(hess[idx], axis=1)[:, :-1]
    h_rest = h_sum - h_cum
    ok = (
        (xs[:, 1:] != xs[:, :-1])
        & (h_cum >= min_child_weight)
        & (h_rest >= min_child_weight)
    )
    # gains only where a split is allowed; tied features have few such places
    g_left, h_left, h_right = g_cum[ok], h_cum[ok], h_rest[ok]
    g_right = g_sum - g_left
    parent_score = g_sum * g_sum / (h_sum + l2_reg)
    gain = np.full(ok.shape, -np.inf)
    gain[ok] = 0.5 * (
        g_left * g_left / (h_left + l2_reg)
        + g_right * g_right / (h_right + l2_reg)
        - parent_score
    )
    # first max per feature: lowest threshold on gain ties (and a NaN gain
    # wins argmax, then loses the comparison below, skipping the feature)
    at = np.argmax(gain, axis=1)
    best_gain = 0.0
    best = None
    for feat, k in enumerate(at.tolist()):
        if gain[feat, k] > best_gain:  # strict: lowest feature on gain ties
            best_gain = gain[feat, k]
            best = (feat, k)
    if best is None:
        return None
    feat, k = best
    lo, hi = xs[feat, k], xs[feat, k + 1]
    thr = 0.5 * (lo + hi)
    if not (lo <= thr < hi):
        thr = lo  # guard rounding on adjacent floats
    return feat, float(thr)
