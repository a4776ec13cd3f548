"""The tree grower and the packed-forest walk against the code they replaced.

grow_tree scans each node's split boundaries in one stacked pass over
scattered extended arrays. The reference grower below is the
np.insert-based grower it replaced, kept verbatim; both must build the same
trees and training-row values bit for bit.

Tree.predict walks every tree of a packed forest at once over each densified
chunk of rows, starts a sparse row's walks where its stored entries first
leave each tree's all-zero path, and returns each row's scaled sum of leaf
values. The oracle below walks one tree at a time from the root over the
whole dense matrix and adds the scaled leaves tree by tree; both must agree
bit for bit, and so must the probabilities that predict_proba builds from
them.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_linker import _tree
from hybrid_linker._csr import as_csr
from hybrid_linker._tree import ColumnIndex, GrowSpec, Tree, grow_tree, pack
from hybrid_linker.learn import (
    LearnerParams,
    TrainedLearner,
    predict_proba,
    sigmoid,
    train,
)

# Few distinct values, zeros and negatives included, so that grown trees see
# ties, implicit zeros and splits on both sides of zero.
VALUES = st.sampled_from([0.0, 0.0, 0.0, -1.5, -0.25, 0.25, 0.5, 1.0, 3.0])


# The grower as it was before the stacked split search, kept as the oracle.

_NEG_INF = -np.inf


def _reference_best_split(
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


def _reference_grow_tree(
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
            split = _reference_best_split(
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


def _per_tree_leaves(forest, X: np.ndarray) -> list[np.ndarray]:
    """Leaf values tree by tree: each tree's slice of the packed arrays is
    walked alone over all rows of the dense matrix X."""
    leaves = []
    end = 0
    for size in forest.sizes:
        start, end = end, end + int(size)
        feature, threshold, left, right, value = (
            getattr(forest, name)[start:end]
            for name in ("feature", "threshold", "left", "right", "value")
        )
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = feature[nodes] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            current = nodes[idx]
            go_left = X[idx, feature[current]] <= threshold[current]
            nodes[idx] = np.where(go_left, left[current], right[current])
            active[idx] = feature[nodes[idx]] >= 0
        leaves.append(value[nodes])
    return leaves


@st.composite
def matrices(draw, min_rows=0, max_rows=30, width=None):
    n = draw(st.integers(min_rows, max_rows))
    d = width if width is not None else draw(st.integers(1, 6))
    cells = draw(st.lists(VALUES, min_size=n * d, max_size=n * d))
    return np.array(cells, dtype=np.float64).reshape(n, d)


@st.composite
def forests(draw):
    """A packed forest of 1 to 4 trees grown on one random training set."""
    X = draw(matrices(min_rows=2, max_rows=24))
    n, d = X.shape
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    mode = draw(st.sampled_from(["gini", "mse", "xgb"]))
    spec = GrowSpec(
        mode=mode,
        max_depth=draw(st.integers(1, 6)),
        min_rows=draw(st.integers(1, 4)),
        lam=1.0 if mode == "xgb" else 0.0,
        n_sub_features=draw(st.none() | st.integers(1, d)),
    )
    index = ColumnIndex(sp.csr_matrix(X))
    trees = []
    for seed in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(seed)
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        p = rng.uniform(0.05, 0.95, size=n)
        ones = np.ones(n)
        if mode == "gini":
            args = (np.flatnonzero(weights), y * weights, weights, weights)
            tree, _ = grow_tree(index, *args, spec, rng=rng)
        elif mode == "mse":
            args = (np.arange(n), y - p, ones, ones)
            tree, _ = grow_tree(index, *args, spec, leaf_den=p * (1 - p), rng=rng)
        else:
            args = (np.arange(n), y - p, p * (1 - p), ones)
            tree, _ = grow_tree(index, *args, spec, rng=rng)
        assert len(tree) == 1
        trees.append(tree)
    return pack(trees), d


THRESHOLDS = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.25, 0.75, 2.0])


@st.composite
def drawn_trees(draw, width):
    """One tree of random shape, features and thresholds, in preorder. A
    negative threshold sends a zero right; every leaf value is distinct."""
    feature, threshold, left, right, value = [], [], [], [], []

    def node(depth):
        at = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(at + 0.5)
        if depth < 6 and draw(st.booleans()):
            feature[at] = draw(st.integers(0, width - 1))
            threshold[at] = draw(THRESHOLDS)
            left[at] = node(depth + 1)
            right[at] = node(depth + 1)
        return at

    node(0)
    return Tree(
        sizes=np.array([len(feature)], dtype=np.int32),
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


@st.composite
def drawn_forests(draw):
    """A packed forest of 0 to 5 drawn trees, single leaves included."""
    width = draw(st.integers(1, 6))
    trees = draw(st.lists(drawn_trees(width), max_size=5))
    return pack(trees), width


@st.composite
def csr_matrices(draw, width, min_rows=0, max_rows=12):
    """CSR rows with explicit stored zeros, duplicate entries and negative
    values, in unsorted column order within each row."""
    n = draw(st.integers(min_rows, max_rows))
    entries = []
    if n:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, width - 1), VALUES)
        entries = sorted(draw(st.lists(cell, max_size=4 * n)), key=lambda e: e[0])
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    indices = np.array([e[1] for e in entries], dtype=np.int32)
    data = np.array([e[2] for e in entries], dtype=np.float64)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return sp.csr_matrix((data, indices, indptr), shape=(n, width))


def _inputs(width):
    """Dense rows, their canonical CSR, or CSR rows with stored zeros and
    duplicate entries."""
    return st.one_of(
        matrices(max_rows=12, width=width),
        matrices(max_rows=12, width=width).map(sp.csr_matrix),
        csr_matrices(width),
    )


def _oracle(forest, X, scales, base=0.0) -> np.ndarray:
    """base + scales[0] * leaf_0 + scales[1] * leaf_1 + ... per row, added
    tree by tree."""
    dense = X.toarray() if sp.issparse(X) else X
    want = np.full(dense.shape[0], base)
    for leaves, scale in zip(_per_tree_leaves(forest, dense), scales):
        want += scale * leaves
    return want


@settings(max_examples=400)
@given(
    (forests() | drawn_forests()).flatmap(
        lambda built: st.tuples(
            st.just(built[0]),
            _inputs(built[1]),
            st.sampled_from([1, 2, 5, 1 << 16]),
        )
    )
)
def test_packed_walk_matches_per_tree_walk(case):
    forest, X, walk_entries = case
    ones = np.ones(len(forest))
    want = _oracle(forest, X, ones)
    # A small walk bound splits even a few rows into several chunks.
    with mock.patch.object(_tree, "_WALK_ENTRIES", walk_entries):
        got = forest.predict(X, ones)
    assert got.shape == (X.shape[0],)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(
    (forests() | drawn_forests()).flatmap(
        lambda built: st.tuples(st.just(built[0]), csr_matrices(built[1], min_rows=1))
    )
)
def test_one_csr_row_matches_the_same_row_dense(case):
    forest, X = case
    ones = np.ones(len(forest))
    for i in range(X.shape[0]):
        row = X[i]
        got = forest.predict(row, ones)
        assert got.tobytes() == forest.predict(row.toarray(), ones).tobytes()
        assert got.tobytes() == _oracle(forest, row, ones).tobytes()


# Scales and leaf values with both zeros, so that a sum started from the
# wrong zero shows its sign.
SCALARS = st.sampled_from([-0.0, 0.0, 1.0, 0.1, -2.5, 1e-300, 3.0e8])


@st.composite
def scaled_cases(draw):
    """A forest of up to 20 trees with redrawn leaf values, rows (NaN
    included), one scale per tree, a base, and chunk caps small enough to
    split a few rows into many chunks.

    Past eight terms numpy may sum pairwise, so the forest can be long
    enough to show a sum taken in another order.
    """
    forest, width = draw(forests() | drawn_forests())
    forest = pack([forest] * draw(st.integers(1, 4)))
    forest.value = np.array(
        draw(st.lists(SCALARS, min_size=forest.n_nodes, max_size=forest.n_nodes)),
        dtype=np.float64,
    )
    X = draw(_inputs(width))
    if draw(st.booleans()):
        X = X.copy()
        if sp.issparse(X):
            X.data[X.data == 0.25] = np.nan
        else:
            X[X == 0.25] = np.nan
    scales = draw(st.lists(SCALARS, min_size=len(forest), max_size=len(forest)))
    caps = {
        "_WALK_ENTRIES": draw(st.sampled_from([1, 2, 5, 1 << 14])),
        "_DENSE_ENTRIES": draw(st.sampled_from([1, 3, 4_000_000])),
    }
    return forest, X, scales, draw(SCALARS), caps


def _leaf_forest(values) -> Tree:
    """A forest of one-leaf trees, one per value."""
    return pack([
        Tree(
            sizes=np.array([1], dtype=np.int32),
            feature=np.array([-1], dtype=np.int32),
            threshold=np.zeros(1),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            value=np.array([value]),
        )
        for value in values
    ])


@settings(max_examples=400)
@given(scaled_cases())
# -0.0 + -0.0 is -0.0, where a sum started from 0.0 gives 0.0.
@example(
    (_leaf_forest([-0.0]), np.zeros((2, 1)), [1.0], -0.0, {"_WALK_ENTRIES": 2})
)
def test_scaled_walk_matches_per_tree_loop(case):
    forest, X, scales, base, caps = case
    want = _oracle(forest, X, scales, base)
    with mock.patch.multiple(_tree, **caps):
        got = forest.predict(X, scales, base)
    assert got.shape == (X.shape[0],)
    assert got.tobytes() == want.tobytes()


def test_one_dense_row_gives_one_column():
    # One of the dense rows two copies of a grown tree grew on: the walk
    # returns that row's one summed value, as the per-tree loop adds it.
    rng = np.random.default_rng(3)
    X = rng.random((20, 3))
    index = ColumnIndex(sp.csr_matrix(X))
    spec = GrowSpec(mode="gini", max_depth=3, min_rows=1)
    ones = np.ones(20)
    tree, _ = grow_tree(index, np.arange(20), (X[:, 0] > 0.5) * ones, ones, ones, spec)
    forest = pack([tree, tree])
    got = forest.predict(X[4:5], [1.0, 1.0])
    assert got.shape == (1,)
    assert got.tobytes() == _oracle(forest, X[4:5], [1.0, 1.0]).tobytes()


def test_forest_mean_is_the_tree_order_sum_for_one_row_and_many():
    # Sixty one-leaf trees of assorted values: numpy's mean of one row's
    # leaves would sum them pairwise. Every row count sums from 0.0 in tree
    # order, so that a forest of -0.0 leaves averages to 0.0.
    rng = np.random.default_rng(2)
    for values in (rng.normal(size=60) * 10.0 ** rng.integers(-8, 8, 60), [-0.0] * 60):
        forest = _leaf_forest(values)
        model = TrainedLearner(
            variant="random_forest", params=LearnerParams(variant="random_forest"),
            width=2, trees=forest, tree_scales=(1.0,) * 60,
        )
        for n_rows in (1, 2, 5):
            X = np.zeros((n_rows, 2))
            want = _oracle(forest, X, np.ones(60)) / 60
            assert predict_proba(model, X).tobytes() == want.tobytes()


def _scoring_peak(model, X) -> int:
    tracemalloc.start()
    try:
        predict_proba(model, X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_memory_does_not_grow_with_the_batch():
    rng = np.random.default_rng(11)
    X = np.where(rng.random((400, 40)) < 0.7, 0.0, rng.normal(size=(400, 40)))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    ones = np.ones(len(X))
    spec = GrowSpec(mode="mse", max_depth=8, min_rows=2)
    tree, _ = grow_tree(ColumnIndex(as_csr(X)), np.arange(len(X)), y - 0.5, ones, ones, spec)
    # Two hundred trees, as many as the default textual booster grows.
    forest = pack([tree] * 200)
    big = as_csr(np.tile(X, (50, 1)))
    small = big[:2000]
    for variant, scales in (
        ("gradient_boosting", (0.1,) * 200),
        ("random_forest", (1.0,) * 200),
    ):
        model = TrainedLearner(
            variant=variant, params=LearnerParams(variant=variant), width=40,
            trees=forest, tree_scales=scales,
        )
        # Scoring 20,000 rows once held a (trees, rows) array of 32 MB.
        assert _scoring_peak(model, big) < 3 * _scoring_peak(model, small), variant


TREE_VARIANTS = (
    "decision_tree",
    "random_forest",
    "gradient_boosting",
    "regularized_gradient_boosting",
)


@settings(max_examples=40)
@given(
    st.sampled_from(TREE_VARIANTS),
    st.integers(0, 2**16),
    st.integers(0, 40),
    st.booleans(),
)
def test_predict_proba_keeps_the_per_tree_formulas(variant, seed, n_query, sparse):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((40, 5)) < 0.5, 0.0, rng.normal(size=(40, 5)))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    y[:2] = (0.0, 1.0)
    # Past eight values numpy sums pairwise, so twelve trees show a mean or
    # sum taken in another order.
    params = LearnerParams(
        variant=variant, n_trees=12, n_estimators=12, max_depth=4, min_rows=2,
        seed=seed,
    )
    model = train(params, X, y)
    query = X[:n_query]
    n_trees = len(model.trees)
    if variant in ("decision_tree", "random_forest"):
        want = _oracle(model.trees, query, np.ones(n_trees)) / n_trees
    else:
        want = sigmoid(_oracle(model.trees, query, model.tree_scales, model.base_score))
    got = predict_proba(model, sp.csr_matrix(query) if sparse else query)
    assert got.tobytes() == np.asarray(want).tobytes()


def test_training_packs_one_forest_per_learner():
    rng = np.random.default_rng(5)
    X = rng.random((30, 4))
    y = (X[:, 0] > 0.5).astype(float)
    for variant, trees in (("decision_tree", 1), ("random_forest", 7)):
        model = train(LearnerParams(variant=variant, n_trees=7, max_depth=3), X, y)
        assert len(model.trees) == trees
        assert model.trees.sizes.sum() == model.trees.n_nodes
    boosted = train(LearnerParams(variant="gradient_boosting", n_estimators=6), X, y)
    assert 1 <= len(boosted.trees) == len(boosted.tree_scales) <= 6
    linear = train(LearnerParams(variant="logistic_regression", epochs=1), X, y)
    assert len(linear.trees) == 0


@st.composite
def grower_cases(draw):
    """A random sparse training set with the statistics one learner passes.

    Some columns are forced empty. Gini and MSE pass the weights as b, either
    the same array as w or an equal copy; xgb passes hessians. Weights are
    bootstrap counts or all ones (then rows0 covers every row).
    """
    X = draw(matrices(min_rows=1, max_rows=40))
    n, d = X.shape
    X[:, draw(st.lists(st.integers(0, d - 1), max_size=d))] = 0.0
    mode = draw(st.sampled_from(["gini", "mse", "xgb"]))
    spec = GrowSpec(
        mode=mode,
        max_depth=draw(st.integers(1, 8)),
        min_rows=draw(st.integers(1, 4)),
        lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
        n_sub_features=draw(st.none() | st.integers(1, d)),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
    else:
        weights = np.ones(n)
    y = (rng.random(n) < 0.5).astype(float)
    p = rng.uniform(0.05, 0.95, size=n)
    w = weights
    if mode == "gini":
        a = y * weights
    else:
        a = y - p
    if mode == "xgb":
        b = p * (1.0 - p)
    else:
        b = w.copy() if draw(st.booleans()) else w
    leaf_den = draw(st.sampled_from([None, p * (1.0 - p)]))
    rows0 = np.flatnonzero(weights)
    return ColumnIndex(sp.csr_matrix(X)), rows0, a, b, w, spec, leaf_den, seed


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@settings(max_examples=400)
@given(grower_cases())
def test_grower_matches_reference_grower(case):
    index, rows0, a, b, w, spec, leaf_den, seed = case
    want_tree, want_values = _reference_grow_tree(
        index, rows0, a, b, w, spec, leaf_den, np.random.default_rng(seed)
    )
    got_tree, got_values = grow_tree(
        index, rows0, a, b, w, spec, leaf_den, np.random.default_rng(seed)
    )
    for name, _ in _tree.TREE_ARRAYS:
        _assert_same_bits(getattr(got_tree, name), getattr(want_tree, name))
    _assert_same_bits(got_values, want_values)


def test_a_fit_frees_its_column_index_without_the_cyclic_collector():
    rng = np.random.default_rng(3)
    X = rng.random((40, 5))
    y = (X[:, 0] > 0.5).astype(float)
    indexes = []

    class Recording(ColumnIndex):
        def __init__(self, X):
            super().__init__(X)
            indexes.append(weakref.ref(self))

    for variant in ("decision_tree", "random_forest", "gradient_boosting"):
        params = LearnerParams(variant=variant, n_trees=3, n_estimators=3)
        gc.collect()
        gc.disable()
        try:
            with mock.patch("hybrid_linker.learn.ColumnIndex", Recording):
                train(params, X, y)
            assert indexes and all(ref() is None for ref in indexes), variant
        finally:
            gc.enable()
        indexes.clear()
