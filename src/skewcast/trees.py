"""Regression trees for second-order boosting.

Each tree is grown by exact greedy search over all split points, scoring
candidates with the standard second-order gain

    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg))

and assigning leaf values -G / (H + reg), where G and H are sums of
per-row gradients and hessians.  Nodes are stored in the flat parallel
arrays of a frozen ``Tree``, whose structure is checked when it is
built, in code as from JSON.  Prediction is a fixed-step descent: leaves
point to themselves, so every row takes as many steps as the tree is
deep and no step has to pick out the rows still moving.

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

Most nodes are small, so a node's cost is mostly its count of numpy
calls, and each node makes few: gathers are ``ndarray.take`` (flat
indices, no 2-D fancy indexing), sums ``np.add.reduce``, and the gain
is scored in place, in the fresh buffer the node's candidate read
returns, with the same operations in the same order as the formula
above.  Nothing a node carries (its rows, sorted block, candidates and
denominators) is written after it is built, so a later tree reads it
unchanged.

When every row has the same hessian ``c`` and ``c`` is a power of two
(unit-weight squared error gives 2), each sum of ``j`` hessians is
exactly ``c * j`` whatever the order of the additions: every partial
sum is some ``c * i`` with ``i`` below 2**53, which a float holds
without rounding.  Growth then uses ``c * j`` and skips the hessian
lookups and cumulative sums; any other constant can round in its sums
and takes the general path.  A leaf can also write its value to its
rows, which saves the boosting loop a ``predict`` over its own training
rows.

Consecutive boosting rounds mostly make the same top splits, so each
tree leaves its nodes on the fit's ``Presorted`` for the next one: a
node holds the split the tree made there and its two children, so a node
is found by its path of (feature, rows going left, side) decisions from
the root.  A node holds its ascending rows, its per-feature sorted rows
and values (none at the deepest level, whose nodes never split) and its
candidate positions: all pure functions of the path.  A split the
previous tree also made takes its children from there instead of
partitioning again, and a node found there skips finding its candidates.
A node's hessian sum and its candidates' hessian prefix sums (after
``min_child_weight``, plus ``l2_reg``) also depend on the hessian, so
they are reused only when this call's hessian equals the previous
call's bit for bit, as it does in every round of a squared error fit
with fixed weights; a unit hessian and a general one never mix.  The
tree settings (``max_depth``, ``min_child_weight``, ``l2_reg``) live on
the presort, so every tree grown on it uses the same ones and what it
carries is always valid for them.  So a tree is the same bits whatever
was grown before it.  Only the previous tree's nodes are kept: a split
that changes drops the old children, and a node that becomes a leaf
drops its children, so a presort holds at most the previous tree's and
the current tree's partitions.  It belongs to one fit and must not be
shared between threads.

Determinism: features are scanned in index order, sorts are stable, and
ties in gain resolve to the lowest feature index and then the lowest
threshold, so the same inputs always grow the same tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, IntArray, JsonRecord

_LEAF = -1


@dataclass(frozen=True)
class Tree(JsonRecord):
    """Flat-array binary tree; ``feature[i] == -1`` marks a leaf.

    Construction rejects any structure ``predict`` cannot walk: the
    arrays must be non-empty, one-dimensional and of equal length, a
    leaf's feature, left and right all -1, and a split's children later
    nodes, so every walk ends in a leaf.
    """

    JSON_NAME = "tree"

    feature: IntArray
    threshold: np.ndarray
    left: IntArray
    right: IntArray
    value: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        n = self.feature.size
        if not n or not (self.feature.shape == self.threshold.shape == self.left.shape
                         == self.right.shape == self.value.shape == (n,)):
            raise ConfigError("tree arrays must be non-empty, one-dimensional and of equal length")
        for node, (feature, left, right) in enumerate(zip(
                self.feature.tolist(), self.left.tolist(), self.right.tolist())):
            if not (feature == left == right == _LEAF
                    or (feature >= 0 and node < left < n and node < right < n)):
                raise ConfigError(f"tree node {node} must be a leaf, with feature, left and "
                                  "right all -1, or a split whose children are later nodes")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf; rows go left when x <= threshold.

        Leaves point to themselves, so every row takes as many steps as
        the tree is deep and a row that reaches its leaf early stays there.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or self.feature.max() >= X.shape[1]:
            raise DataError(
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


@dataclass(slots=True, eq=False)
class _Node:
    """A node's partition: its rows in ascending order and, above the
    deepest split level, its rows sorted per feature (``idx``) with their
    values (``xs``); ``at``, its candidate positions, once found.

    ``h_sum`` and ``scorable`` are its hessian sum and ``_scorable``
    candidates under the hessian of the tree that last grew it, and
    ``split`` that tree's (feature, rows going left, left child, right
    child) here, or None where it made a leaf.
    """

    rows: np.ndarray
    idx: np.ndarray | None = None
    xs: np.ndarray | None = None
    at: np.ndarray | None = None
    h_sum: float | None = None
    scorable: tuple | None = None
    split: tuple | None = None


@dataclass(eq=False)
class Presorted:
    """A fit's feature columns sorted once, both ``(n_features, n)``
    (``order[f]`` lists the rows in ascending (value, row) order of
    feature ``f``, ``values[f]`` their values), and the settings of every
    tree grown on them.  ``root`` is the previous tree's partitions, with
    hessian sums under ``hess``; ``grow_tree`` reads and replaces both."""

    order: np.ndarray
    values: np.ndarray
    max_depth: int
    min_child_weight: float
    l2_reg: float
    root: _Node | None = field(default=None, repr=False)
    hess: np.ndarray | None = field(default=None, repr=False)


def presort(X: np.ndarray, max_depth: int, min_child_weight: float,
            l2_reg: float) -> Presorted:
    """Sort every column of ``X`` once, for all the trees a fit grows on
    its rows with these settings."""
    XT = np.asarray(X, dtype=np.float64).T
    order = np.argsort(XT, axis=1, kind="stable")
    return Presorted(order, np.take_along_axis(XT, order, axis=1),
                     max_depth, min_child_weight, l2_reg)


def grow_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    presorted: Presorted,
    out: np.ndarray | None = None,
) -> Tree:
    """Grow one tree to ``presorted.max_depth`` by exact greedy splitting.

    ``X`` is read only through ``presorted``, which is ``presort(X, ...)``
    and holds the tree settings.  If ``out`` is given, each row's leaf
    value is written to it: what ``predict(X)`` would return.

    ``presorted`` carries each tree's partitions to the next call on it
    (see the module docstring): a split the previous tree made takes its
    children from there, and a node its candidates.  The hessian sums are
    used only if ``hess`` is the previous call's bit for bit, so the tree
    does not depend on what was grown before it.  The presort holds at
    most the previous tree's and this tree's partitions; calls that share
    one must not run at the same time.
    """
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    max_depth, min_child_weight, l2_reg = (
        presorted.max_depth, presorted.min_child_weight, presorted.l2_reg)
    root_node, presorted.root = presorted.root, None  # a failed call leaves none
    if root_node is None:
        root_node = _Node(np.arange(len(grad)), presorted.order, presorted.values)
        same_hess = False
    else:
        same_hess = np.array_equal(hess.view(np.uint64), presorted.hess.view(np.uint64))
    unit = _unit_hessian(hess)
    went_left = np.empty(len(grad), dtype=bool)  # per row: side of its node's split
    add = np.add.reduce  # what ndarray.sum calls

    # per node; a split appends its two children, so nodes are numbered in
    # depth-first left-to-right order
    feature, threshold, left, right, value = [_LEAF], [0.0], [_LEAF], [_LEAF], [0.0]
    stack = [(0, root_node, 0)]  # (node_id, node, depth), right child pushed first
    while stack:
        node_id, node, depth = stack.pop()
        rows = node.rows
        g_sum = float(add(grad.take(rows)))
        if node.h_sum is None or not same_hess:
            node.h_sum = unit * len(rows) if unit is not None else float(add(hess.take(rows)))
            node.scorable = None
        value[node_id] = leaf = -g_sum / (node.h_sum + l2_reg)
        split = None
        if depth < max_depth and len(rows) >= 2:
            if node.at is None:
                node.at = _candidates(node.xs)
            if node.scorable is None:
                node.scorable = _scorable(node.idx, node.at, hess, unit, node.h_sum,
                                          min_child_weight, l2_reg)
            split = _best_split(node.idx, node.xs, grad, g_sum, node.h_sum, node.scorable,
                                l2_reg)
        if split is None:
            node.split = None  # its old children would keep an older tree's sums
            if out is not None:
                out.put(rows, leaf)
            continue
        feat, n_left, thr = split
        if node.split is None or node.split[:2] != (feat, n_left):
            node.split = None  # free the old children first
            idx = node.idx
            went_left[idx[feat, :n_left]] = True
            went_left[idx[feat, n_left:]] = False
            go_left = went_left.take(rows)
            left_block = right_block = ()  # children at max_depth never split
            if depth + 1 < max_depth:
                mask = went_left.take(idx)
                left_block = _keep(mask, idx, node.xs)
                right_block = _keep(np.logical_not(mask, out=mask), idx, node.xs)
            node.split = (feat, n_left, _Node(rows.compress(go_left), *left_block),
                          _Node(rows.compress(np.logical_not(go_left, out=go_left)),
                                *right_block))
        n = len(feature)
        feature[node_id], threshold[node_id], left[node_id], right[node_id] = (
            feat, thr, n, n + 1)
        feature += (_LEAF, _LEAF)
        threshold += (0.0, 0.0)
        left += (_LEAF, _LEAF)
        right += (_LEAF, _LEAF)
        value += (0.0, 0.0)
        stack += ((n + 1, node.split[3], depth + 1), (n, node.split[2], depth + 1))

    presorted.root, presorted.hess = root_node, hess.copy()
    return Tree(feature=_read_only(feature, np.int64), threshold=_read_only(threshold, np.float64),
                left=_read_only(left, np.int64), right=_read_only(right, np.int64),
                value=_read_only(value, np.float64))


def _read_only(values: list, dtype) -> np.ndarray:
    """``values`` as a new read-only array, which a ``Tree`` keeps without a copy."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def _keep(mask, idx, xs):
    """The entries of ``idx`` and ``xs`` where ``mask`` (their shape) holds, row by row."""
    at = mask.reshape(-1).nonzero()[0]
    return idx.take(at).reshape(len(idx), -1), xs.take(at).reshape(len(idx), -1)


def _unit_hessian(hess: np.ndarray) -> float | None:
    """The hessian every row shares, if it is a power of two; else None."""
    if hess.size == 0:
        return None
    unit = float(hess[0])
    if np.frexp(unit)[0] != 0.5 or not (hess == unit).all():
        return None
    return unit


def _candidates(xs):
    """Positions in the flattened ``xs`` whose sorted value differs from the
    next one in the same feature: the last row going left of each split."""
    m = xs.shape[1]
    flat = xs.reshape(-1)
    cut = flat[1:] != flat[:-1]
    cut[m - 1::m] = False  # a feature's last value against the next one's first
    return cut.nonzero()[0]


def _scorable(idx, at, hess, unit, h_sum, min_child_weight, l2_reg):
    """The candidates ``at`` of a node's block that leave ``min_child_weight``
    on both sides, with the hessian sums left and right of each plus
    ``l2_reg``: the gain's denominators."""
    if unit is not None:
        h_left = unit * (at % idx.shape[1] + 1)
    else:
        h_left = hess.take(idx).cumsum(axis=1).take(at)
    h_right = h_sum - h_left
    ok = np.minimum(h_left, h_right) >= min_child_weight
    if not ok.all():
        at, h_left, h_right = at.compress(ok), h_left.compress(ok), h_right.compress(ok)
    h_left += l2_reg
    h_right += l2_reg
    return at, h_left, h_right


def _best_split(idx, xs, grad, g_sum, h_sum, scorable, l2_reg):
    """(feature, rows going left, threshold) of a node's best split, or None.

    ``idx`` holds the node's rows once per feature, each sorted by that
    feature, and ``xs`` their values; ``scorable`` is what ``_scorable``
    returns for them, which is only read.  The first maximum in
    feature-major order wins; a NaN gain rules out its feature (see the
    module docstring).  The left side is the first ``rows going left``
    entries of ``idx[feature]``.
    """
    at, den_left, den_right = scorable
    if not at.size:
        return None
    # the gain, in place in the candidates' own buffer, in the order of
    # 0.5 * (gl * gl / dl + gr * gr / dr - g * g / (h + reg))
    gain = grad.take(idx).cumsum(axis=1).take(at)
    g_right = g_sum - gain
    g_right *= g_right
    g_right /= den_right
    gain *= gain
    gain /= den_left
    gain += g_right
    gain -= g_sum * g_sum / (h_sum + l2_reg)
    gain *= 0.5
    best = gain.argmax()
    top = gain.item(best)
    m = idx.shape[1]
    if math.isnan(top):  # argmax stops at the first NaN
        feats = at // m
        gain[np.isin(feats, feats[np.isnan(gain)])] = -np.inf
        best = gain.argmax()
        top = gain.item(best)
    if not top > 0.0:
        return None
    pos = at.item(best)
    lo, hi = xs.item(pos), xs.item(pos + 1)
    thr = 0.5 * (lo + hi)
    if not (lo <= thr < hi):
        thr = lo  # guard rounding on adjacent floats
    feat, n_left = divmod(pos + 1, m)
    return feat, n_left, thr
