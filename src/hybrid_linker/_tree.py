"""Shared sparse CART machinery for the tree-based learners.

One grower serves three criteria. Writing the split score of every mode as

    A_L^2/(B_L + lam) + A_R^2/(B_R + lam)  (maximized, parent term constant)

makes Gini impurity decrease (A = weighted positives, B = weight), MSE
variance reduction on residuals (A = weighted residual sum, B = weight) and
second-order boosting gain (A = gradient sum, B = hessian sum) the same
computation, so the scan, tie-breaking, and threshold rules live here once.

The sorted nonzero triplets (column, value, row) are computed once per fit
and partitioned stably per node. A tree stacks its per-row statistics (a, b
and w, or a and w when b is w) into one matrix, and each node scans all its
columns in one pass over that matrix: implicit zeros enter each column's
scan as one pseudo-element carrying the aggregated stats of the node rows
that have no entry in that column, scattered at the sorted position of
value 0 into a stacked extended buffer.

A Tree is a packed forest: the node arrays of its trees laid end to end, in
the layout a model bundle stores. Prediction densifies each chunk of rows
once and walks every tree of the forest at once. A zero takes the same
branch at every node (0.0 <= threshold), the default direction of XGBoost's
sparsity-aware algorithm, so a sparse row's walk in each tree starts at the
first node of the tree's all-zero path whose feature the row stores; the
dense copy of a sparse chunk holds only the columns the forest tests.
Prediction gives each row one scaled sum of its leaf values, added in tree
order chunk by chunk, so scoring holds one chunk's walk and one value per
row, whatever the number of rows, and a row scores the same bits alone as
in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csr import Csr, as_csr, is_sparse

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
# and row) at most _WALK_ENTRIES, unless one row alone exceeds a cap. Each
# walk position costs about 50 bytes of index and value temporaries per
# level, so a chunk walks in under 1 MiB, and only one sum per row outlives
# its chunk. A CSR chunk's all-zero-path hits number at most one per row and
# path node, so at most _WALK_ENTRIES times the mean path length, unless rows
# store duplicates.
_DENSE_ENTRIES = 4_000_000
_WALK_ENTRIES = 1 << 14


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

    def predict(self, X, scales, base: float = 0.0) -> np.ndarray:
        """Per row, base + scales[0] * leaf_0 + scales[1] * leaf_1 + ...

        The terms are added in tree order one chunk of rows at a time, so
        that memory does not grow with the number of rows, and a row gets
        the same bits whichever chunk it falls in.

        Accepts a 2-D dense array or a Csr or SciPy sparse matrix. Each chunk
        of rows is densified once and every tree walks it at the same time.
        Dense rows start at the roots; a sparse row starts each tree where
        its stored entries first leave the tree's all-zero path, and its
        dense copy holds only the columns the forest tests.
        """
        sparse = is_sparse(X)
        if sparse:
            X = as_csr(X)
        else:
            X = np.asarray(X, dtype=np.float64)
        n_rows, width = X.shape
        n_trees = len(self)
        if n_trees == 0:
            return np.full(n_rows, base, dtype=np.float64)
        scales = np.asarray(scales, dtype=np.float64).reshape(n_trees, 1)
        out = np.empty(n_rows, dtype=np.float64)
        roots = np.cumsum(self.sizes, dtype=np.intp) - self.sizes
        # children[2 * node + went_right] is the next node, as an index into
        # the packed arrays.
        children = np.empty((self.n_nodes, 2), dtype=np.intp)
        offset = np.repeat(roots, self.sizes)
        np.add(self.left, offset, out=children[:, 0])
        np.add(self.right, offset, out=children[:, 1])
        children = children.reshape(-1)
        internal = self.feature >= 0
        if sparse:
            prepare, column = self._sparse_chunks(roots, children, internal, width)
        else:
            column = self.feature
        chunk = max(
            1, min(_DENSE_ENTRIES // max(1, width), _WALK_ENTRIES // max(1, n_trees))
        )
        for start in range(0, n_rows, chunk):
            block = X[start : start + chunk]
            rows = block.shape[0]
            # Tree-major: entry t * rows + r walks row r down tree t.
            if sparse:
                nodes, block = prepare(block)
            else:
                nodes = np.repeat(roots, rows)
            walking = np.flatnonzero(internal[nodes])
            while walking.size:
                current = nodes[walking]
                x = block[walking % rows, column[current]]
                # NaN fails every test and goes right.
                went_right = ~(x <= self.threshold[current])
                step = children[2 * current + went_right]
                nodes[walking] = step
                walking = walking[internal[step]]
            leaves = self.value[nodes].reshape(n_trees, rows)
            leaves *= scales
            leaves[0] += base
            # numpy adds several rows' leaves row by row, in tree order,
            # but a single row's pairwise, which rounds differently. A
            # start of -0.0 adds nothing to any value.
            if rows > 1:
                out[start : start + rows] = np.add.reduce(
                    leaves, axis=0, initial=-0.0
                )
            else:
                out[start] = np.add.accumulate(leaves[:, 0])[-1]
        return out

    def _sparse_chunks(self, roots, children, internal, width):
        """(prepare, column) for walking CSR chunks.

        prepare maps a chunk to the tree-major nodes its walks start at and
        its dense copy; column maps each internal node to its feature's
        column in that copy, which holds only the features the forest tests.

        A zero goes the same way at every node, so each tree has one all-zero
        path. A row follows it until the first path node whose feature the
        row stores, or to the path's leaf when it stores none of them; every
        test above that node sees a zero. Stored zeros and duplicate entries
        count as stored, which only starts a walk earlier on the path.
        """
        n_trees = len(self)
        # slot numbers the tested features in order and marks the rest -1.
        tested = np.zeros(width, dtype=bool)
        tested[self.feature[internal]] = True
        n_tested = int(np.count_nonzero(tested))
        slot = np.where(tested, np.cumsum(tested) - 1, -1)
        column = slot[self.feature]
        # Where a zero goes from each node; a leaf stays where it is.
        node_ids = np.arange(self.n_nodes)
        zero_next = np.where(
            internal, children[2 * node_ids + ~(0.0 <= self.threshold)], node_ids
        )
        levels = [roots]
        while internal[levels[-1]].any():
            levels.append(zero_next[levels[-1]])
        # Internal path nodes in depth-major order, so that within one tree a
        # lower position is a shallower node.
        levels = np.stack(levels)
        on_path = internal[levels]
        path_tree = on_path.nonzero()[1]
        n_path = len(path_tree)
        # The node each position starts a walk at, then each tree's leaf.
        node_at = np.concatenate([levels[on_path], levels[-1]])
        path_feature = self.feature[node_at[:n_path]]
        # Path positions grouped by feature, ascending within each feature.
        by_feature = np.argsort(path_feature, kind="stable")
        per_feature = np.bincount(path_feature, minlength=width)
        feature_start = np.cumsum(per_feature) - per_feature

        def prepare(block):
            rows = block.shape[0]
            cols = block.indices
            entry_rows = np.repeat(np.arange(rows), np.diff(block.indptr))
            # One hit per stored entry and path position of its feature.
            hits = per_feature[cols]
            n_hits = int(hits.sum())
            before = np.cumsum(hits) - hits
            pos = by_feature[
                np.repeat(feature_start[cols] - before, hits) + np.arange(n_hits)
            ]
            hit_rows = np.repeat(entry_rows, hits)
            # Each walk starts at its tree's leaf slot unless a hit comes first.
            first = np.repeat(n_path + np.arange(n_trees), rows)
            np.minimum.at(first, path_tree[pos] * rows + hit_rows, pos)
            # Entries add up from zero in stored order, as toarray sums them.
            at = slot[cols]
            kept = at >= 0
            dense = np.zeros(rows * n_tested)
            np.add.at(dense, entry_rows[kept] * n_tested + at[kept], block.data[kept])
            return node_at[first], dense.reshape(rows, n_tested)

        return prepare, column


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
    """Nonzero triplets of a CSR matrix lexsorted by (column, value).

    Stored zeros are dropped; duplicate entries stay, each its own triplet.
    """

    def __init__(self, X: Csr):
        X = as_csr(X)
        keep = X.data != 0
        cols = X.indices[keep]
        vals = X.data[keep]
        rows = X.row_ids()[keep]
        order = np.lexsort((vals, cols))
        self.cols = cols[order].astype(np.int64)
        self.vals = vals[order]
        self.rows = rows[order]
        self.n_rows, self.n_features = X.shape


def _best_split(
    index: ColumnIndex,
    cols: np.ndarray,
    vals: np.ndarray,
    stats_nz: np.ndarray,
    node_sums: np.ndarray,
    spec: GrowSpec,
    rng: np.random.Generator | None,
):
    """Return (feature, threshold, start, stop) of the best boundary or None.

    cols and vals are the node's nonzero entries in (column, value) order,
    stats_nz the C-contiguous statistics of their rows, one stat per row of
    the array: a, then b unless b is w, then w. node_sums holds the node's
    sum of each stat. start:stop is the winning column's slice of the
    entries.

    Boundaries are scanned in (column, value) order and argmax keeps the
    first maximum, so ties resolve to the lowest feature index and then the
    lowest threshold.
    """
    n = len(cols)
    bound = np.empty(n + 1, dtype=bool)
    bound[0] = bound[n] = True
    np.not_equal(cols[1:], cols[:-1], out=bound[1:n])
    bounds = bound.nonzero()[0]
    starts = bounds[:-1]
    counts = bounds[1:] - starts

    # Along axis 1 of a C-contiguous (k, n) array, reduceat and cumsum give
    # each row the same bits as the 1-D call on that row.
    zero = node_sums[:, None] - np.add.reduceat(stats_nz, starts, axis=1)
    # Row weights are integer counts, so any implicit-zero mass shows up
    # as at least one full unit.
    has_zero = zero[-1] > 0.5
    n_zero = int(np.count_nonzero(has_zero))
    total = n + n_zero
    if n_zero:
        # Scatter the entries and one zero pseudo-entry per column that has
        # one, placed after the column's negative values, into the extended
        # arrays.
        at_zero = starts[has_zero] + np.arange(n_zero)
        negative = vals < 0
        if negative.any():
            at_zero += np.add.reduceat(negative, starts, dtype=np.int64)[has_zero]
        is_nz = np.ones(total, dtype=bool)
        is_nz[at_zero] = False
        at_nz = is_nz.nonzero()[0]
        vals_ext = np.zeros(total)
        vals_ext[at_nz] = vals
        ext = np.empty((len(stats_nz), total))
        # Row by row: fancy assignment along axis 1 of a 2-D array costs
        # several times more than along a 1-D one.
        for row, stat, stat_zero in zip(ext, stats_nz, zero):
            row[at_nz] = stat
            row[at_zero] = stat_zero[has_zero]
    else:
        vals_ext, ext = vals, stats_nz
    counts_ext = counts + has_zero
    ends_ext = counts_ext.cumsum()
    starts_ext = ends_ext - counts_ext

    # Each boundary's left sums: the running sum up to it minus the running
    # sum before its column, read from a zero-led buffer.
    cum = np.zeros((len(ext), total + 1))
    ext.cumsum(axis=1, out=cum[:, 1:])
    left = cum[:, 1:] - cum.take(starts_ext.repeat(counts_ext), axis=1)
    right = node_sums[:, None] - left

    valid = np.empty(total, dtype=bool)
    np.not_equal(vals_ext[1:], vals_ext[:-1], out=valid[:-1])
    valid[ends_ext - 1] = False
    valid &= left[-1] >= spec.min_rows
    valid &= right[-1] >= spec.min_rows

    if spec.n_sub_features is not None and spec.n_sub_features < index.n_features:
        chosen = np.sort(
            rng.choice(index.n_features, size=spec.n_sub_features, replace=False)
        )
        col_ids = cols[starts]
        pos = np.searchsorted(chosen, col_ids)
        pos[pos >= len(chosen)] = len(chosen) - 1
        valid &= np.repeat(chosen[pos] == col_ids, counts_ext)

    with np.errstate(divide="ignore", invalid="ignore"):
        gain = left[0] * left[0] / (left[1] + spec.lam) + right[0] * right[0] / (
            right[1] + spec.lam
        )
    valid &= np.isfinite(gain)
    gain[~valid] = _NEG_INF
    pick = int(gain.argmax())
    if gain[pick] == _NEG_INF:
        return None
    if spec.mode != "gini":
        parent = node_sums[0] * node_sums[0] / (node_sums[1] + spec.lam)
        if gain[pick] - parent <= 0.0:
            return None
    v1 = vals_ext[pick]
    v2 = vals_ext[pick + 1]
    threshold = (v1 + v2) / 2.0
    if threshold == v2:
        threshold = v1
    seg = int(ends_ext.searchsorted(pick, side="right"))
    start = int(starts[seg])
    return int(cols[start]), float(threshold), start, int(bounds[seg + 1])


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
    # Gini and MSE growth pass the weights as b, and then carry one stat less.
    b_is_w = b is w
    stats = np.stack([a, w] if b_is_w else [a, b, w])

    rows0 = np.asarray(rows0, dtype=np.int64)
    if len(rows0) == index.n_rows:
        elems0 = np.arange(len(index.rows))
    else:
        elems0 = np.flatnonzero(np.isin(index.rows, rows0))

    def build(rows: np.ndarray, elems: np.ndarray, depth: int) -> int:
        # Each node sum is a 1-D sum of one array: numpy sums along axis 1
        # of a 2-D array in another order, which changes the bits.
        node_a = float(a[rows].sum())
        node_w = float(w[rows].sum())
        node_b = node_w if b_is_w else float(b[rows].sum())
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
        if can_split and elems.size:
            cols = index.cols[elems]
            vals = index.vals[elems]
            rows_nz = index.rows[elems]
            sums = [node_a, node_w] if b_is_w else [node_a, node_b, node_w]
            # take, unlike stats[:, rows_nz], returns a C-contiguous array.
            stats_nz = stats.take(rows_nz, axis=1)
            split = _best_split(
                index, cols, vals, stats_nz, np.array(sums), spec, rng
            )
        if split is None:
            den = node_b if leaf_den is None else float(leaf_den[rows].sum())
            leaf = 0.0 if abs(den) < 1e-150 else node_a / den
            value[node_id] = leaf
            train_value[rows] = leaf
            return node_id

        feat, thr, start, stop = split
        feature[node_id] = feat
        threshold[node_id] = thr
        side[rows] = 0.0 <= thr
        side[rows_nz[start:stop]] = vals[start:stop] <= thr
        row_side = side[rows]
        elem_side = side[rows_nz]
        left[node_id] = build(rows[row_side], elems[elem_side], depth + 1)
        right[node_id] = build(rows[~row_side], elems[~elem_side], depth + 1)
        return node_id

    build(rows0, elems0, 0)
    # build reaches itself through its closure; dropping the name breaks that
    # cycle, so the index and the row statistics are freed on return rather
    # than by the cyclic collector.
    del build
    tree = Tree(
        sizes=np.array([len(feature)], dtype=np.int32),
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )
    return tree, train_value
