from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_linker import _tree
from hybrid_linker._csr import as_csr
from hybrid_linker._tree import ColumnIndex, GrowSpec, grow_tree
from hybrid_linker.learn import (
    ENSEMBLE_KINDS,
    VARIANTS,
    LearnerError,
    LearnerParams,
    log_loss,
    predict_proba,
    train,
    train_ensemble,
)


def _grow_gini_stump(X, y):
    n = len(y)
    ones = np.ones(n)
    index = ColumnIndex(sp.csr_matrix(X))
    spec = GrowSpec(mode="gini", max_depth=1, min_rows=1)
    tree, _ = grow_tree(index, np.arange(n), y * ones, ones, ones, spec)
    return tree


def _brute_force_stump(X, y):
    """Exhaustive scan over every feature and midpoint threshold."""
    n, d = X.shape
    best = None
    for j in range(d):
        values = np.unique(X[:, j])
        for v1, v2 in zip(values, values[1:]):
            thr = (v1 + v2) / 2.0
            if thr == v2:
                thr = v1
            left = X[:, j] <= thr
            n_l, n_r = left.sum(), n - left.sum()
            p_l, p_r = y[left].mean(), y[~left].mean()
            # Weighted Gini impurity of the two children.
            impurity = n_l * 2 * p_l * (1 - p_l) + n_r * 2 * p_r * (1 - p_r)
            if best is None or impurity < best[0] - 1e-12:
                best = (impurity, j, thr, p_l, p_r)
    return best


def test_depth1_tree_matches_exhaustive_split():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        n = rng.integers(8, 40)
        X = rng.random((n, 2))
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        tree = _grow_gini_stump(X, y)
        impurity, j, thr, p_l, p_r = _brute_force_stump(X, y)
        assert tree.feature[0] == j
        assert tree.threshold[0] == pytest.approx(thr, abs=0.0)
        got_left = tree.predict(X[X[:, j] <= thr], [1.0])
        got_right = tree.predict(X[X[:, j] > thr], [1.0])
        assert np.allclose(got_left, p_l, atol=1e-12)
        assert np.allclose(got_right, p_r, atol=1e-12)


def test_gb_training_loss_non_increasing():
    rng = np.random.default_rng(7)
    X = rng.random((200, 6))
    y = ((X[:, 0] + X[:, 1] * X[:, 2]) > 0.8).astype(float)
    params = LearnerParams(
        variant="gradient_boosting",
        n_estimators=60,
        max_depth=3,
        min_rows=2,
        learn_rate=0.1,
    )
    model = train(params, X, y)
    losses = model.train_losses
    assert len(losses) >= 2
    diffs = np.diff(np.asarray(losses))
    assert np.all(diffs <= 1e-12)


def test_soft_vote_is_exact_mean():
    rng = np.random.default_rng(11)
    X = rng.random((80, 4))
    y = (X[:, 0] > 0.5).astype(float)
    ensemble = train_ensemble("RF+GB+XGB", X, y, seed=5)
    member_probs = [predict_proba(m, X) for m in ensemble.members]
    want = np.mean(member_probs, axis=0)
    got = predict_proba(ensemble, X)
    assert np.max(np.abs(got - want)) == 0.0


def test_xor_needs_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 8)
    y = np.array([0.0, 1.0, 1.0, 0.0] * 8)
    params = LearnerParams(
        variant="random_forest", n_trees=20, max_depth=2, min_rows=1, seed=0
    )
    model = train(params, X, y)
    pred = predict_proba(model, X) >= 0.5
    assert np.array_equal(pred, y.astype(bool))


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    X = rng.random((60, 5))
    y = (X[:, 1] > 0.4).astype(float)
    for variant in ("random_forest", "gradient_boosting", "regularized_gradient_boosting"):
        params = LearnerParams(variant=variant, n_trees=10, n_estimators=10,
                               max_depth=4, min_rows=2, seed=3)
        p_a = predict_proba(train(params, X, y), X)
        p_b = predict_proba(train(params, X, y), X)
        assert np.array_equal(p_a, p_b)


def test_random_forest_seed_changes_model():
    rng = np.random.default_rng(2)
    X = rng.random((60, 5))
    y = (X[:, 1] > 0.4).astype(float)
    base = LearnerParams(variant="random_forest", n_trees=10, max_depth=4,
                         min_rows=2, seed=3)
    other = LearnerParams(variant="random_forest", n_trees=10, max_depth=4,
                          min_rows=2, seed=4)
    p_a = predict_proba(train(base, X, y), X)
    p_b = predict_proba(train(other, X, y), X)
    assert not np.array_equal(p_a, p_b)


def test_predict_rejects_width_mismatch():
    rng = np.random.default_rng(2)
    X = rng.random((30, 4))
    y = (X[:, 0] > 0.5).astype(float)
    params = LearnerParams(variant="gradient_boosting", n_estimators=5,
                           max_depth=3, min_rows=2)
    model = train(params, X, y)
    with pytest.raises(LearnerError):
        predict_proba(model, rng.random((3, 5)))


def test_predict_accepts_single_row_and_sparse():
    rng = np.random.default_rng(2)
    X = rng.random((30, 4))
    y = (X[:, 0] > 0.5).astype(float)
    params = LearnerParams(variant="gradient_boosting", n_estimators=5,
                           max_depth=3, min_rows=2)
    model = train(params, X, y)
    dense = predict_proba(model, X)
    sparse = predict_proba(model, sp.csr_matrix(X))
    assert np.array_equal(dense, sparse)
    one = predict_proba(model, X[0])
    assert one.shape == (1,)
    assert one[0] == dense[0]


@settings(max_examples=60)
# Seed 1 grows a random forest whose leaves some rows sum to other bits
# pairwise than in tree order.
@example("random_forest", 1, 2, False)
@given(
    st.sampled_from(VARIANTS + tuple(ENSEMBLE_KINDS)),
    st.integers(0, 2**16),
    st.integers(2, 4),
    st.booleans(),
)
def test_a_row_scores_the_same_alone_as_in_a_batch(name, seed, chunk_rows, sparse):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((40, 5)) < 0.5, 0.0, rng.normal(size=(40, 5)))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    y[:2] = (0.0, 1.0)
    # Past eight values numpy sums pairwise, so twelve trees show a mean or
    # sum taken in another order.
    params = {
        variant: LearnerParams(
            variant=variant, n_trees=12, n_estimators=12, max_depth=4,
            min_rows=2, epochs=2, seed=seed,
        )
        for variant in VARIANTS
    }
    if name in ENSEMBLE_KINDS:
        model = train_ensemble(name, X, y, params)
        members = model.members
    else:
        model = train(params[name], X, y)
        members = (model,)
    # Every forest splits the batch into chunks of chunk_rows rows, the last
    # of them one row long.
    most_trees = max(len(member.trees) for member in members)
    caps = {
        "_DENSE_ENTRIES": chunk_rows * X.shape[1],
        "_WALK_ENTRIES": chunk_rows * max(1, most_trees),
    }
    query = X[: 3 * chunk_rows + 1]
    if sparse:
        query = as_csr(query)
    with mock.patch.multiple(_tree, **caps):
        batch = predict_proba(model, query)
        for i in range(query.shape[0]):
            alone = predict_proba(model, query[i : i + 1])
            assert alone.tobytes() == batch[i : i + 1].tobytes(), i


def test_probabilities_lie_in_unit_interval():
    rng = np.random.default_rng(8)
    X = rng.random((50, 3))
    y = (X[:, 0] > 0.5).astype(float)
    for variant in (
        "decision_tree",
        "random_forest",
        "gradient_boosting",
        "regularized_gradient_boosting",
        "naive_bayes",
        "logistic_regression",
    ):
        params = LearnerParams(variant=variant, n_trees=8, n_estimators=8,
                               max_depth=3, min_rows=2)
        p = predict_proba(train(params, X, y), X)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_naive_bayes_separates_blobs():
    rng = np.random.default_rng(10)
    X0 = rng.normal(loc=-2.0, size=(50, 3))
    X1 = rng.normal(loc=2.0, size=(50, 3))
    X = np.vstack([X0, X1])
    y = np.array([0.0] * 50 + [1.0] * 50)
    params = LearnerParams(variant="naive_bayes")
    p = predict_proba(train(params, X, y), X)
    assert ((p >= 0.5) == (y == 1)).mean() == 1.0


def test_log_loss_guards_zero_probabilities():
    y = np.array([1.0, 0.0])
    p = np.array([0.0, 1.0])
    value = log_loss(y, p)
    assert np.isfinite(value)


def test_ensemble_kind_validation():
    rng = np.random.default_rng(1)
    X = rng.random((20, 2))
    y = (X[:, 0] > 0.5).astype(float)
    with pytest.raises(LearnerError):
        train_ensemble("GB+SVM", X, y)


def test_params_stage_count_prefers_n_estimators():
    params = LearnerParams(variant="gradient_boosting", n_trees=60,
                           n_estimators=25)
    assert params.n_stages == 25
    fallback = LearnerParams(variant="gradient_boosting", n_trees=60)
    assert fallback.n_stages == 60


@pytest.mark.parametrize("variant", ["decision_tree", "gradient_boosting"])
def test_a_tree_deeper_than_the_recursion_limit_is_a_learner_error(variant):
    params = LearnerParams(variant, max_depth=100000, min_rows=1, n_trees=1)
    X = np.arange(1, 3001.0)[:, None]
    with pytest.raises(LearnerError, match=f"^{variant}: max_depth 100000 "):
        train(params, X, np.arange(3000) % 2)


def test_negative_seed_is_rejected_by_name():
    with pytest.raises(LearnerError, match="^seed must be non-negative"):
        LearnerParams(variant="random_forest", seed=-1, n_trees=2)
