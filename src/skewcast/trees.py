"""Regression trees for second-order boosting.

Each tree is grown by exact greedy search over all split points, scoring
candidates with the standard second-order gain

    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg))

and assigning leaf values -G / (H + reg), where G and H are sums of
per-row gradients and hessians.  Nodes are stored in flat parallel
arrays.  Prediction is a fixed-step descent: leaves point to themselves,
so every row takes as many steps as the tree is deep and no step has to
pick out the rows still moving.

Growth sorts each feature once per fit (``presort``, the "column block"
layout of XGBoost), not once per node or per tree.  Every node carries
its rows in ascending order plus, per feature, its rows sorted by that
feature and their values; a split keeps each side's entries of both
with one mask, so no node sorts or looks up feature values again.  A
stable sort filtered to a subset is that subset's own stable sort: the
node sees its rows in (value, row) order, exactly as a per-node stable
argsort would give them, so prefix sums, gains, chosen splits and leaf
values are the same bits.

Only real candidates are scored: the positions of a node's (features,
rows) block, in feature-major order, where the sorted value changes.
Their prefix sums are read from the block's cumulative sums,
``min_child_weight`` is applied there, and one argmax picks the first
maximum, which must be strictly positive: the lowest feature, then the
lowest threshold, as a scan of each feature's first maximum would.  A
NaN gain rules out its whole feature, as it does when it is the first
maximum of a per-feature argmax and then fails ``> 0``.

When every row has the same hessian ``c`` and ``c`` is a power of two
(unit-weight squared error gives 2), each sum of ``j`` hessians is
exactly ``c * j`` whatever the order of the additions: every partial
sum is some ``c * i`` with ``i`` below 2**53, which a float holds
without rounding.  Growth then uses ``c * j`` and skips the hessian
lookups and cumulative sums; any other constant can round in its sums
and takes the general path.  A leaf can also write its value to its
rows, which saves the boosting loop a ``predict`` over its own training
rows.

Determinism: features are scanned in index order, sorts are stable, and
ties in gain resolve to the lowest feature index and then the lowest
threshold, so the same inputs always grow the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeMismatch

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
        """Route every row to its leaf; rows go left when x <= threshold.

        Leaves point to themselves, so every row takes as many steps as
        the tree is deep and a row that reaches its leaf early stays there.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or self.feature.max() >= X.shape[1]:
            raise ShapeMismatch(
                f"tree splits on feature {self.feature.max()}, X has shape {X.shape}"
            )
        leaf = self.feature == _LEAF
        ids = np.arange(self.n_nodes)
        feature = np.where(leaf, 0, self.feature)  # any column: a leaf's children are itself
        # child[2 * node + goes_left]
        child = np.column_stack([np.where(leaf, ids, self.right),
                                 np.where(leaf, ids, self.left)]).reshape(-1)
        cells = X.reshape(-1)
        row_start = np.arange(len(X)) * X.shape[1]
        node = np.zeros(len(X), dtype=np.int64)
        for _ in range(self._depth()):
            goes_left = cells.take(row_start + feature.take(node)) <= self.threshold.take(node)
            node = child.take(2 * node + goes_left)
        return self.value.take(node)

    def _depth(self) -> int:
        depth, level = 0, np.zeros(1, dtype=np.int64)
        while True:
            level = level[self.feature[level] != _LEAF]
            if not level.size:
                return depth
            depth += 1
            level = np.concatenate([self.left[level], self.right[level]])

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


class Presorted(NamedTuple):
    """A fit's feature columns sorted once, both ``(n_features, n)``:
    ``order[f]`` lists the rows in ascending (value, row) order of feature
    ``f`` and ``values[f]`` their values."""

    order: np.ndarray
    values: np.ndarray


def presort(X: np.ndarray) -> Presorted:
    """Sort every column of ``X`` once, for all the trees grown on its rows."""
    XT = np.asarray(X, dtype=np.float64).T
    order = np.argsort(XT, axis=1, kind="stable")
    return Presorted(order, np.take_along_axis(XT, order, axis=1))


def grow_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    max_depth: int,
    min_child_weight: float,
    l2_reg: float,
    presorted: Presorted | None = None,
    out: np.ndarray | None = None,
) -> Tree:
    """Grow one tree to ``max_depth`` by exact greedy splitting.

    ``X`` is read only through ``presorted``, which is ``presort(X)``
    when the caller already has it.  If ``out`` is given, each row's leaf
    value is written to it: what ``predict(X)`` would return.
    """
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    if presorted is None:
        presorted = presort(X)
    unit = _unit_hessian(hess)
    went_left = np.empty(len(grad), dtype=bool)  # per row: side of its node's split

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
    # stack of (node_id, ascending rows, the rows sorted per feature, their
    # values, depth); children pushed right-first so nodes are numbered in
    # depth-first left-to-right order
    stack = [(root, np.arange(len(grad)), presorted.order, presorted.values, 0)]
    while stack:
        node_id, rows, idx, xs, depth = stack.pop()
        g_sum = float(grad.take(rows).sum())
        h_sum = unit * len(rows) if unit is not None else float(hess.take(rows).sum())
        value[node_id] = -g_sum / (h_sum + l2_reg)
        split = None
        if depth < max_depth and len(rows) >= 2:
            split = _best_split(idx, xs, grad, hess, unit, g_sum, h_sum,
                                min_child_weight, l2_reg)
        if split is None:
            if out is not None:
                out[rows] = value[node_id]
            continue
        feat, n_left, thr = split
        went_left[idx[feat, :n_left]] = True
        went_left[idx[feat, n_left:]] = False
        go_left = went_left[rows]
        left_block = right_block = (None, None)  # children at max_depth never split
        if depth + 1 < max_depth:
            mask = went_left[idx].reshape(-1)
            left_block = _keep(mask, idx, xs)
            right_block = _keep(np.logical_not(mask, out=mask), idx, xs)
        feature[node_id] = feat
        threshold[node_id] = thr
        left_id = new_node()
        right_id = new_node()
        left[node_id] = left_id
        right[node_id] = right_id
        stack.append((right_id, rows.compress(~go_left), *right_block, depth + 1))
        stack.append((left_id, rows.compress(go_left), *left_block, depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def _keep(mask, idx, xs):
    """The entries of ``idx`` and ``xs`` where ``mask`` holds, row by row."""
    at = np.flatnonzero(mask)
    return idx.take(at).reshape(len(idx), -1), xs.take(at).reshape(len(idx), -1)


def _unit_hessian(hess: np.ndarray) -> float | None:
    """The hessian every row shares, if it is a power of two; else None."""
    if hess.size == 0:
        return None
    unit = float(hess[0])
    if np.frexp(unit)[0] != 0.5 or not (hess == unit).all():
        return None
    return unit


def _best_split(idx, xs, grad, hess, unit, g_sum, h_sum, min_child_weight, l2_reg):
    """(feature, rows going left, threshold) of a node's best split, or None.

    ``idx`` holds the node's rows once per feature, each sorted by that
    feature, and ``xs`` their values; ``unit`` is the hessian every row
    shares when it is a power of two, else None.  Only positions where a
    feature's sorted value changes are scored, and the first maximum in
    feature-major order wins; a NaN gain rules out its feature (see the
    module docstring).  The left side is the first ``rows going left``
    entries of ``idx[feature]``.
    """
    m = idx.shape[1]
    flat = xs.reshape(-1)
    cut = flat[1:] != flat[:-1]
    cut[m - 1::m] = False  # a feature's last value against the next one's first
    at = np.flatnonzero(cut)
    g_left = np.cumsum(grad[idx], axis=1).reshape(-1)[at]
    if unit is not None:
        h_left = unit * (at % m + 1)
    else:
        h_left = np.cumsum(hess[idx], axis=1).reshape(-1)[at]
    h_right = h_sum - h_left
    ok = np.minimum(h_left, h_right) >= min_child_weight
    if not ok.all():
        at, g_left, h_left, h_right = (a.compress(ok) for a in (at, g_left, h_left, h_right))
    if not at.size:
        return None
    g_right = g_sum - g_left
    gain = 0.5 * (
        g_left * g_left / (h_left + l2_reg)
        + g_right * g_right / (h_right + l2_reg)
        - g_sum * g_sum / (h_sum + l2_reg)
    )
    best = int(np.argmax(gain))
    if np.isnan(gain[best]):  # argmax stops at the first NaN
        feats = at // m
        gain[np.isin(feats, feats[np.isnan(gain)])] = -np.inf
        best = int(np.argmax(gain))
    if not gain[best] > 0.0:
        return None
    pos = int(at[best])
    lo, hi = flat[pos], flat[pos + 1]
    thr = 0.5 * (lo + hi)
    if not (lo <= thr < hi):
        thr = lo  # guard rounding on adjacent floats
    feat, n_left = divmod(pos + 1, m)
    return feat, n_left, float(thr)
