"""The stdlib permutation generator against numpy.random, and its callers.

hybrid_linker._pcg.Generator replaces np.random.default_rng(seed) wherever
the package only permutes: the fit/validation split, the k folds and the
SGD order. Each must match what numpy.random gives, draw for draw; the
oracles below are the code the callers ran before, kept verbatim.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_linker import _pcg
from hybrid_linker.config import Config
from hybrid_linker.corpus import Corpus, SignalParams, synthesize_corpus
from hybrid_linker.evaluation import kfold
from hybrid_linker.hybrid import train_hybrid
from hybrid_linker.learn import SGD_BASE_STEP, LearnerParams, sigmoid, train
from hybrid_linker.linkgen import balance_candidates, generate_candidates

# 2**160 + 7 has six 32-bit words, more than SeedSequence's pool of four.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**160 + 7)
SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**200))
SIZES = st.one_of(st.sampled_from([0, 1, 2, 1000]), st.integers(0, 300))


def _numpy_permutation(seed: int, n: int) -> list[int]:
    return np.random.default_rng(seed).permutation(n).tolist()


@settings(max_examples=300)
@given(SEEDS, SIZES)
def test_permutation_matches_numpy(seed, n):
    assert _pcg.Generator(seed).permutation(n) == _numpy_permutation(seed, n)


def test_edge_seeds_and_sizes_match_numpy():
    for seed in EDGE_SEEDS:
        assert _pcg.seed_state(seed, 8) == (
            np.random.SeedSequence(seed).generate_state(8).tolist()
        )
        for n in (0, 1, 2, 1000):
            assert _pcg.Generator(seed).permutation(n) == _numpy_permutation(seed, n)


@settings(max_examples=100)
@given(SEEDS, st.lists(SIZES, max_size=6))
def test_permutations_drawn_in_turn_match_numpy(seed, sizes):
    ours = _pcg.Generator(seed)
    theirs = np.random.default_rng(seed)
    for n in sizes:
        assert ours.permutation(n) == theirs.permutation(n).tolist()


def _kfold_oracle(n_items, k, seed, labels=None, stratified=False):
    rng = np.random.default_rng(seed)
    if stratified:
        labels = np.asarray(labels)
        parts = [[] for _ in range(k)]
        for value in np.unique(labels):
            members = np.flatnonzero(labels == value)
            shuffled = members[rng.permutation(len(members))]
            for fold_index, chunk in enumerate(np.array_split(shuffled, k)):
                parts[fold_index].append(chunk)
        tests = [np.concatenate(chunks) for chunks in parts]
    else:
        order = rng.permutation(n_items)
        tests = list(np.array_split(order, k))
    folds = []
    for fold_index in range(k):
        test = tests[fold_index]
        mask = np.ones(n_items, dtype=bool)
        mask[test] = False
        folds.append((np.flatnonzero(mask), test))
    return folds


@settings(max_examples=100)
@given(
    st.integers(0, 2**40),
    st.integers(2, 6),
    st.lists(st.integers(0, 2), min_size=6, max_size=80),
    st.booleans(),
)
def test_kfold_matches_numpy_oracle(seed, k, labels, stratified):
    n = len(labels)
    got = kfold(n, k, seed, labels=labels, stratified=stratified)
    want = _kfold_oracle(n, k, seed, labels=labels, stratified=stratified)
    assert len(got) == len(want)
    for (train_got, test_got), (train_want, test_want) in zip(got, want):
        assert train_got.dtype == train_want.dtype
        assert test_got.dtype == test_want.dtype
        assert train_got.tolist() == train_want.tolist()
        assert test_got.tolist() == test_want.tolist()


def test_train_hybrid_split_matches_numpy_oracle(monkeypatch):
    corpus = synthesize_corpus(
        seed=6, n_issues=30, n_commits=30, signal=SignalParams(0.9, 0.9, 1.0)
    )
    candidates = list(
        balance_candidates(generate_candidates(corpus, window_days=7), seed=6).candidates
    )
    small = LearnerParams(variant="gradient_boosting", n_estimators=3, max_depth=3)
    config = Config(
        split_seed=2**40 + 7,
        textual=small,
        nontextual={
            "gradient_boosting": small,
            "regularized_gradient_boosting": LearnerParams(
                variant="regularized_gradient_boosting", n_trees=3, max_depth=3
            ),
        },
    )
    # train_hybrid looks up the fit slice's pairs, then the validation slice's.
    seen = []
    pairs = Corpus.pairs

    def recording(self, part):
        seen.append(list(part))
        return pairs(self, part)

    monkeypatch.setattr(Corpus, "pairs", recording)
    model = train_hybrid(candidates, corpus, config)

    n = len(candidates)
    order = np.random.default_rng(config.resolved_split_seed()).permutation(n)
    n_fit = min(n - 1, max(1, int(round(0.8 * n))))
    assert seen == [
        [candidates[i] for i in order[:n_fit]],
        [candidates[i] for i in order[n_fit:]],
    ]
    assert (model.n_fit, model.n_validation) == (n_fit, n - n_fit)


def _sgd_oracle(params, X, y):
    """The logistic-regression SGD loop as it ran on numpy.random."""
    weights = np.zeros(X.shape[1])
    bias = 0.0
    rng = np.random.default_rng(params.seed)
    step_count = 1
    for _ in range(params.epochs):
        for i in rng.permutation(X.shape[0]):
            z = float(X[i] @ weights) + bias
            err = float(sigmoid(z)) - y[i]
            step = SGD_BASE_STEP / math.sqrt(step_count)
            weights -= step * err * X[i]
            bias -= step * err
            step_count += 1
    return weights, bias


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**70), st.integers(2, 30))
def test_sgd_order_matches_numpy_oracle(seed, n):
    rng = np.random.default_rng(n)
    # Every row stores every column, so the oracle's dense update touches
    # the same weights as the sparse one.
    X = rng.uniform(0.5, 2.0, size=(n, 3))
    y = np.arange(n) % 2.0
    params = LearnerParams(variant="logistic_regression", epochs=3, seed=seed)
    model = train(params, X, y)
    weights, bias = _sgd_oracle(params, X, y)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias == bias
