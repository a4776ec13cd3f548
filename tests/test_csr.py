"""The package's Csr against SciPy, the sparse library it replaced.

Every operation must give the arrays SciPy gives, byte for byte: the same
index dtypes, the same stored order, and sums with the same bits. The inputs
carry what SciPy keeps as stored and a fast path could trip on: explicit
zeros, -0.0, NaN, duplicate entries, empty rows and unsorted columns. The
naive Bayes and logistic-regression oracles below are the learners' SciPy
code as it was, kept as the reference.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_linker._csr import Csr, as_csr
from hybrid_linker._tree import ColumnIndex
from hybrid_linker.learn import (
    SGD_BASE_STEP,
    LearnerParams,
    predict_proba,
    sigmoid,
    train,
)

FINITE = st.sampled_from([0.0, -0.0, 0.0, 1.0, -1.5, 0.1, 0.7, 2.5, -3.0]) | st.floats(
    -10.0, 10.0, allow_nan=False
)
# NaN, and values whose squares and products overflow to inf or underflow.
# Infinite inputs are left out: when inf - inf meets another NaN, SciPy's
# compiled loops keep whichever NaN their compiler put first, and two of its
# own operations differ in that; every result here has one NaN sign.
SPECIAL = st.sampled_from([np.nan, 1e300, -1e-300])


@st.composite
def scipy_matrices(draw, values=FINITE | SPECIAL, min_rows=0, min_cols=0):
    """A SciPy CSR matrix with entries stored as drawn: rows may be empty,
    and within a row columns repeat and run in any order."""
    n_rows = draw(st.integers(min_rows, 8))
    n_cols = draw(st.integers(min_cols, 6))
    lengths = [draw(st.integers(0, 6)) if n_cols else 0 for _ in range(n_rows)]
    indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    nnz = int(indptr[-1])
    column = st.integers(0, max(0, n_cols - 1))
    indices = np.array(draw(st.lists(column, min_size=nnz, max_size=nnz)), np.int64)
    data = np.array(draw(st.lists(values, min_size=nnz, max_size=nnz)), np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


def _same_bytes(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_csr(got: Csr, want) -> None:
    assert isinstance(got, Csr)
    assert got.shape == want.shape
    assert got.nnz == want.nnz
    for name in ("data", "indices", "indptr"):
        _same_bytes(getattr(got, name), getattr(want, name))


@settings(max_examples=300)
@given(scipy_matrices())
def test_from_arrays_and_as_csr_keep_scipy_arrays(S):
    wide = (S.indices.astype(np.int64), S.indptr.astype(np.int64))
    built = Csr.from_arrays(S.data, *wide, S.shape)
    _same_csr(built, S)
    _same_csr(as_csr(S), S)
    assert as_csr(built) is built


@settings(max_examples=300)
@given(scipy_matrices(), st.booleans())
def test_dense_input_matches_scipy(S, one_row):
    dense = S.toarray()
    if one_row and len(dense):
        dense = dense[0]
    for X in (dense, dense.tolist()):
        _same_csr(as_csr(X), sp.csr_matrix(X))


@st.composite
def row_keys(draw, n_rows):
    """Row selections: slices of any step and bounds, ints, index arrays
    with repeats and negative entries, and boolean masks."""
    bound = st.none() | st.integers(-n_rows - 2, n_rows + 2)
    kind = draw(st.sampled_from(["slice", "int", "array", "mask"]))
    if kind == "slice":
        step = draw(st.none() | st.sampled_from([1, 2, 3, -1]))
        return slice(draw(bound), draw(bound), step)
    if not n_rows:
        return slice(None)
    row = st.integers(-n_rows, n_rows - 1)
    if kind == "int":
        return draw(row)
    if kind == "array":
        return np.array(draw(st.lists(row, max_size=10)), dtype=np.int64)
    return np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))


@settings(max_examples=400)
@given(
    scipy_matrices().flatmap(lambda S: st.tuples(st.just(S), row_keys(S.shape[0])))
)
def test_row_slices_and_takes_match_scipy(case):
    S, key = case
    got = as_csr(S)[key]
    _same_csr(got, S[key])
    with np.errstate(all="ignore"):
        _same_bytes(got.toarray(), S[key].toarray())


@settings(max_examples=300)
@given(scipy_matrices())
def test_toarray_matches_scipy(S):
    with np.errstate(all="ignore"):
        _same_bytes(as_csr(S).toarray(), S.toarray())


@settings(max_examples=300)
@given(
    scipy_matrices().flatmap(
        lambda S: st.tuples(
            st.just(S),
            st.lists(FINITE | SPECIAL, min_size=S.shape[1], max_size=S.shape[1]),
        )
    )
)
def test_column_sums_and_matvec_match_scipy(case):
    S, vector = case
    vector = np.array(vector, dtype=np.float64)
    X = as_csr(S)
    with np.errstate(all="ignore"):
        _same_bytes(X.column_sums(), np.asarray(S.sum(axis=0)).ravel())
        _same_bytes(
            X.squared_column_sums(), np.asarray(S.multiply(S).sum(axis=0)).ravel()
        )
        _same_bytes(X @ vector, S @ vector)


def _scipy_triplets(S):
    """ColumnIndex's triplets as they were computed through SciPy."""
    X = S.tocsr().copy()
    X.eliminate_zeros()
    coo = X.tocoo()
    order = np.lexsort((coo.data, coo.col))
    return (
        coo.col[order].astype(np.int64),
        coo.data[order].astype(np.float64),
        coo.row[order].astype(np.int64),
    )


@settings(max_examples=300)
@given(scipy_matrices())
def test_column_index_matches_scipy_triplets(S):
    cols, vals, rows = _scipy_triplets(S)
    for X in (S, as_csr(S)):
        index = ColumnIndex(X)
        _same_bytes(index.cols, cols)
        _same_bytes(index.vals, vals)
        _same_bytes(index.rows, rows)
        assert (index.n_rows, index.n_features) == S.shape


# The two learners' SciPy code as it was before Csr, kept as oracles.


def _scipy_csr(X):
    if sp.issparse(X):
        return X.tocsr()
    return sp.csr_matrix(np.asarray(X, dtype=np.float64))


def _scipy_naive_bayes(X, y):
    Xc = _scipy_csr(X)
    n, width = Xc.shape
    sum_all = np.asarray(Xc.sum(axis=0)).ravel()
    sq_all = np.asarray(Xc.multiply(Xc).sum(axis=0)).ravel()
    global_var = sq_all / n - (sum_all / n) ** 2
    smoothing = 1e-9 * float(global_var.max()) if width else 0.0
    means = np.zeros((2, width), dtype=np.float64)
    variances = np.zeros((2, width), dtype=np.float64)
    log_prior = np.zeros(2, dtype=np.float64)
    for cls in (0, 1):
        mask = y == cls
        count = int(mask.sum())
        part = Xc[np.flatnonzero(mask)]
        s = np.asarray(part.sum(axis=0)).ravel()
        q = np.asarray(part.multiply(part).sum(axis=0)).ravel()
        means[cls] = s / count
        variances[cls] = np.maximum(q / count - means[cls] ** 2, 0.0) + smoothing
        log_prior[cls] = math.log(count / n)
    return log_prior, means, variances


def _scipy_naive_bayes_proba(log_prior, means, variances, X):
    block = _scipy_csr(X).toarray()
    joint = np.empty((block.shape[0], 2), dtype=np.float64)
    for cls in (0, 1):
        var = variances[cls]
        ll = -0.5 * np.sum(
            np.log(2.0 * np.pi * var) + (block - means[cls]) ** 2 / var, axis=1
        )
        joint[:, cls] = log_prior[cls] + ll
    high = joint.max(axis=1, keepdims=True)
    norm = high.ravel() + np.log(np.exp(joint - high).sum(axis=1))
    return np.exp(joint[:, 1] - norm)


def _scipy_sgd(params, X, y):
    Xc = _scipy_csr(X)
    n, width = Xc.shape
    weights = np.zeros(width, dtype=np.float64)
    bias = 0.0
    rng = np.random.default_rng(params.seed)
    step_count = 1
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            lo, hi = Xc.indptr[i], Xc.indptr[i + 1]
            cols = Xc.indices[lo:hi]
            vals = Xc.data[lo:hi]
            z = float(vals @ weights[cols]) + bias
            err = float(sigmoid(z)) - y[i]
            step = SGD_BASE_STEP / math.sqrt(step_count)
            weights[cols] -= step * err * vals
            bias -= step * err
            step_count += 1
    return weights, bias


@st.composite
def training_sets(draw):
    """Finite training matrices, SciPy or dense, and labels of both classes."""
    S = draw(scipy_matrices(values=FINITE, min_rows=2, min_cols=1))
    rest = S.shape[0] - 2
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rest, max_size=rest))
    y = np.array([0.0, 1.0, *labels])
    X = S.toarray() if draw(st.booleans()) else S
    return X, y, draw(st.integers(0, 3))


def _queries(X):
    """X as given, as a Csr and densified, each with its oracle's input; the
    dense copy has any duplicate entries summed."""
    dense = _scipy_csr(X).toarray()
    return [(X, X), (as_csr(X), X), (dense, dense)]


@settings(max_examples=200)
@given(training_sets())
def test_naive_bayes_matches_scipy_oracle(case):
    X, y, _ = case
    model = train(LearnerParams(variant="naive_bayes"), X, y)
    log_prior, means, variances = _scipy_naive_bayes(X, y)
    _same_bytes(model.class_log_prior, log_prior)
    _same_bytes(model.feature_means, means)
    _same_bytes(model.feature_vars, variances)
    with np.errstate(all="ignore"):
        for query, oracle_input in _queries(X):
            _same_bytes(
                predict_proba(model, query),
                _scipy_naive_bayes_proba(log_prior, means, variances, oracle_input),
            )


@settings(max_examples=200)
@given(training_sets())
def test_logistic_regression_matches_scipy_oracle(case):
    X, y, seed = case
    params = LearnerParams(variant="logistic_regression", epochs=2, seed=seed)
    model = train(params, X, y)
    weights, bias = _scipy_sgd(params, X, y)
    _same_bytes(model.weights, weights)
    assert model.bias == bias
    for query, oracle_input in _queries(X):
        want = np.asarray(sigmoid(_scipy_csr(oracle_input) @ weights + bias))
        _same_bytes(predict_proba(model, query), want)
