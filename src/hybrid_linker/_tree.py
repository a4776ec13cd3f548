"""Shared sparse CART machinery for the tree-based learners.

One grower serves three criteria. Writing the split score of every mode as

    A_L^2/(B_L + lam) + A_R^2/(B_R + lam)  (maximized, parent term constant)

makes Gini impurity decrease (A = weighted positives, B = weight), MSE
variance reduction on residuals (A = weighted residual sum, B = weight) and
second-order boosting gain (A = gradient sum, B = hessian sum) the same
computation, so the scan, tie-breaking, and threshold rules live here once.

The sorted nonzero triplets (column, value, row) are computed once per fit
and partitioned stably per node; implicit zeros enter each column's scan as
one pseudo-element carrying the aggregated stats of the node rows that have
no entry in that column, inserted at the sorted position of value 0.

A Tree is a packed forest: the node arrays of its trees laid end to end, in
the layout a model bundle stores. Prediction densifies each chunk of rows
once and walks every tree of the forest at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_NEG_INF = -np.inf


@dataclass
class GrowSpec:
    mode: str  # "gini", "mse", or "xgb"
    max_depth: int
    min_rows: float
    lam: float = 0.0
    n_sub_features: int | None = None  # per-node feature sample; None = all


# Each array of a packed forest with its dtype; model bundles store them as is.
TREE_ARRAYS = (
    ("sizes", "<i4"),
    ("feature", "<i4"),
    ("threshold", "<f8"),
    ("left", "<i4"),
    ("right", "<i4"),
    ("value", "<f8"),
)

# Rows per prediction chunk are capped twice: the dense copy of the chunk
# holds at most _DENSE_ENTRIES values, and the walk state (one node per tree
# and row) at most _WALK_ENTRIES, so that scoring a large batch through a
# learner of hundreds of trees does not raise peak memory.
_DENSE_ENTRIES = 4_000_000
_WALK_ENTRIES = 1 << 16


@dataclass
class Tree:
    """Flat-array trees packed end to end; feature -1 marks a leaf.

    sizes[t] is the node count of tree t. The node arrays are concatenated
    over the trees in order, and left/right index nodes within their own
    tree. len() counts trees.
    """

    sizes: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X) -> np.ndarray:
        """Leaf value of every tree for every row, shape (n_trees, n_rows).

        Accepts dense or CSR input, or one dense row. Each chunk of rows is
        densified once and every tree walks it at the same time.
        """
        sparse = sp.issparse(X)
        if sparse:
            X = X.tocsr()
        else:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim == 1:
                X = X.reshape(1, -1)
        n_rows, width = X.shape
        n_trees = len(self)
        out = np.empty((n_trees, n_rows), dtype=np.float64)
        roots = np.cumsum(self.sizes, dtype=np.int64) - self.sizes
        # Children as indices into the packed arrays.
        base = np.repeat(roots, self.sizes)
        left = self.left + base
        right = self.right + base
        chunk = max(
            1, min(_DENSE_ENTRIES // max(1, width), _WALK_ENTRIES // max(1, n_trees))
        )
        for start in range(0, n_rows, chunk):
            block = X[start : start + chunk]
            if sparse:
                block = block.toarray()
            rows = len(block)
            # Tree-major: entry t * rows + r walks row r down tree t.
            nodes = np.repeat(roots, rows)
            walking = np.flatnonzero(self.feature[nodes] >= 0)
            while walking.size:
                current = nodes[walking]
                go_left = (
                    block[walking % rows, self.feature[current]]
                    <= self.threshold[current]
                )
                step = np.where(go_left, left[current], right[current])
                nodes[walking] = step
                walking = walking[self.feature[step] >= 0]
            out[:, start : start + rows] = self.value[nodes].reshape(n_trees, rows)
        return out


def pack(trees) -> Tree:
    """One Tree holding the given trees in order; no trees gives an empty one."""
    return Tree(
        **{
            name: np.concatenate(
                [np.empty(0, dtype), *(getattr(tree, name) for tree in trees)]
            )
            for name, dtype in TREE_ARRAYS
        }
    )


class ColumnIndex:
    """Nonzero triplets of a CSR matrix lexsorted by (column, value)."""

    def __init__(self, X: sp.csr_matrix):
        X = X.tocsr().copy()
        X.eliminate_zeros()
        coo = X.tocoo()
        order = np.lexsort((coo.data, coo.col))
        self.cols = coo.col[order].astype(np.int64)
        self.vals = coo.data[order].astype(np.float64)
        self.rows = coo.row[order].astype(np.int64)
        self.n_rows = X.shape[0]
        self.n_features = X.shape[1]


def _best_split(
    index: ColumnIndex,
    elems: np.ndarray,
    node_a: float,
    node_b: float,
    node_w: float,
    spec: GrowSpec,
    a: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
    rng: np.random.Generator | None,
):
    """Return (feature, threshold) of the best boundary or None.

    Boundaries are scanned in (column, value) order and np.argmax keeps the
    first maximum, so ties resolve to the lowest feature index and then the
    lowest threshold.
    """
    if elems.size == 0:
        return None
    cols = index.cols[elems]
    vals = index.vals[elems]
    rows_nz = index.rows[elems]
    a_nz = a[rows_nz]
    b_nz = b[rows_nz]
    w_nz = w[rows_nz]

    seg_first = np.empty(len(cols), dtype=bool)
    seg_first[0] = True
    seg_first[1:] = cols[1:] != cols[:-1]
    starts = np.flatnonzero(seg_first)
    col_ids = cols[starts]
    counts = np.diff(starts, append=len(cols))

    col_a = np.add.reduceat(a_nz, starts)
    col_b = np.add.reduceat(b_nz, starts)
    col_w = np.add.reduceat(w_nz, starts)
    zero_a = node_a - col_a
    zero_b = node_b - col_b
    zero_w = node_w - col_w
    # Row weights are integer counts, so any implicit-zero mass shows up
    # as at least one full unit.
    has_zero = zero_w > 0.5

    negatives = np.add.reduceat((vals < 0).astype(np.int64), starts)
    if np.any(has_zero):
        ins_pos = (starts + negatives)[has_zero]
        vals_ext = np.insert(vals, ins_pos, 0.0)
        a_ext = np.insert(a_nz, ins_pos, zero_a[has_zero])
        b_ext = np.insert(b_nz, ins_pos, zero_b[has_zero])
        w_ext = np.insert(w_nz, ins_pos, zero_w[has_zero])
        col_ext = np.insert(cols, ins_pos, col_ids[has_zero])
    else:
        vals_ext, a_ext, b_ext, w_ext, col_ext = vals, a_nz, b_nz, w_nz, cols

    inserted_before = np.concatenate(
        [[0], np.cumsum(has_zero.astype(np.int64))[:-1]]
    )
    starts_ext = starts + inserted_before
    counts_ext = counts + has_zero.astype(np.int64)
    total = len(vals_ext)

    cum_a = np.concatenate([[0.0], np.cumsum(a_ext)])
    cum_b = np.concatenate([[0.0], np.cumsum(b_ext)])
    cum_w = np.concatenate([[0.0], np.cumsum(w_ext)])
    base_a = np.repeat(cum_a[starts_ext], counts_ext)
    base_b = np.repeat(cum_b[starts_ext], counts_ext)
    base_w = np.repeat(cum_w[starts_ext], counts_ext)
    left_a = cum_a[1:] - base_a
    left_b = cum_b[1:] - base_b
    left_w = cum_w[1:] - base_w

    valid = np.ones(total, dtype=bool)
    seg_last = starts_ext + counts_ext - 1
    valid[seg_last] = False
    differs = np.empty(total, dtype=bool)
    differs[:-1] = vals_ext[1:] != vals_ext[:-1]
    differs[-1] = False
    valid &= differs
    right_w = node_w - left_w
    valid &= (left_w >= spec.min_rows) & (right_w >= spec.min_rows)

    if spec.n_sub_features is not None and spec.n_sub_features < index.n_features:
        chosen = np.sort(
            rng.choice(index.n_features, size=spec.n_sub_features, replace=False)
        )
        pos = np.searchsorted(chosen, col_ids)
        pos[pos >= len(chosen)] = len(chosen) - 1
        col_ok = chosen[pos] == col_ids
        valid &= np.repeat(col_ok, counts_ext)

    if not np.any(valid):
        return None

    right_a = node_a - left_a
    right_b = node_b - left_b
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = left_a * left_a / (left_b + spec.lam) + right_a * right_a / (
            right_b + spec.lam
        )
    gain[~np.isfinite(gain)] = _NEG_INF
    gain[~valid] = _NEG_INF
    pick = int(np.argmax(gain))
    if gain[pick] == _NEG_INF:
        return None
    if spec.mode != "gini":
        parent = node_a * node_a / (node_b + spec.lam)
        if gain[pick] - parent <= 0.0:
            return None
    v1 = vals_ext[pick]
    v2 = vals_ext[pick + 1]
    threshold = (v1 + v2) / 2.0
    if threshold == v2:
        threshold = v1
    return int(col_ext[pick]), float(threshold)


def grow_tree(
    index: ColumnIndex,
    rows0: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
    spec: GrowSpec,
    leaf_den: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
):
    """Grow one tree; returns (one-tree Tree, per-training-row leaf values).

    a, b, w index by global row id. leaf_den, when given, supplies the leaf
    value denominator (second-order sums for the boosting Newton step);
    otherwise leaves use b. Leaf value is sum(a)/sum(den) with a zero guard.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    train_value = np.zeros(index.n_rows, dtype=np.float64)
    side = np.empty(index.n_rows, dtype=bool)
    den = b if leaf_den is None else leaf_den

    elems0 = np.flatnonzero(np.isin(index.rows, rows0))
    if len(rows0) == index.n_rows:
        elems0 = np.arange(len(index.rows))

    def leaf_value(rows: np.ndarray, node_a: float) -> float:
        total = float(den[rows].sum())
        if abs(total) < 1e-150:
            return 0.0
        return node_a / total

    def build(rows: np.ndarray, elems: np.ndarray, depth: int) -> int:
        node_a = float(a[rows].sum())
        node_b = float(b[rows].sum())
        node_w = float(w[rows].sum())
        node_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)

        split = None
        can_split = depth < spec.max_depth and node_w >= 2 * spec.min_rows
        if can_split and spec.mode == "gini" and (node_a <= 0.0 or node_a >= node_w):
            can_split = False  # pure node
        if can_split:
            split = _best_split(
                index, elems, node_a, node_b, node_w, spec, a, b, w, rng
            )
        if split is None:
            leaf = leaf_value(rows, node_a)
            value[node_id] = leaf
            train_value[rows] = leaf
            return node_id

        feat, thr = split
        feature[node_id] = feat
        threshold[node_id] = thr
        side[rows] = 0.0 <= thr
        mask_f = index.cols[elems] == feat
        elems_f = elems[mask_f]
        side[index.rows[elems_f]] = index.vals[elems_f] <= thr
        row_side = side[rows]
        elem_side = side[index.rows[elems]]
        left[node_id] = build(rows[row_side], elems[elem_side], depth + 1)
        right[node_id] = build(rows[~row_side], elems[~elem_side], depth + 1)
        return node_id

    build(np.asarray(rows0, dtype=np.int64), elems0, 0)
    tree = Tree(
        sizes=np.array([len(feature)], dtype=np.int32),
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )
    return tree, train_value
