"""Packed-forest prediction against the per-tree walk it replaced.

Tree.predict walks every tree of a packed forest at once over each densified
chunk of rows. The oracle below walks one tree at a time over the whole dense
matrix; both must agree bit for bit, and so must the probabilities that
predict_proba builds from them with the per-tree mean and sum.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_linker import _tree
from hybrid_linker._tree import ColumnIndex, GrowSpec, grow_tree, pack
from hybrid_linker.learn import LearnerParams, predict_proba, sigmoid, train

# Few distinct values, zeros and negatives included, so that grown trees see
# ties, implicit zeros and splits on both sides of zero.
VALUES = st.sampled_from([0.0, 0.0, 0.0, -1.5, -0.25, 0.25, 0.5, 1.0, 3.0])


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


@settings(max_examples=200)
@given(
    forests().flatmap(
        lambda built: st.tuples(
            st.just(built[0]),
            matrices(max_rows=12, width=built[1]),
            st.booleans(),
            st.sampled_from([1, 2, 5, 1 << 16]),
        )
    )
)
def test_packed_walk_matches_per_tree_walk(case):
    forest, X, sparse, walk_entries = case
    want = np.stack(_per_tree_leaves(forest, X))
    # A small walk bound splits even a few rows into several chunks.
    with mock.patch.object(_tree, "_WALK_ENTRIES", walk_entries):
        got = forest.predict(sp.csr_matrix(X) if sparse else X)
    assert got.shape == (len(forest), len(X))
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_one_dense_row_gives_one_column():
    rng = np.random.default_rng(3)
    X = rng.random((20, 3))
    index = ColumnIndex(sp.csr_matrix(X))
    spec = GrowSpec(mode="gini", max_depth=3, min_rows=1)
    ones = np.ones(20)
    tree, _ = grow_tree(index, np.arange(20), (X[:, 0] > 0.5) * ones, ones, ones, spec)
    forest = pack([tree, tree])
    got = forest.predict(X[4])
    assert got.shape == (2, 1)
    assert got.tobytes() == np.stack(_per_tree_leaves(forest, X[4:5])).tobytes()


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
    leaves = _per_tree_leaves(model.trees, query)
    if variant in ("decision_tree", "random_forest"):
        want = np.stack(leaves).mean(axis=0)
    else:
        scores = np.full(n_query, model.base_score)
        for tree_leaves, scale in zip(leaves, model.tree_scales):
            scores += scale * tree_leaves
        want = sigmoid(scores)
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
