from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_linker._pcg import Generator
from hybrid_linker.config import Config
from hybrid_linker.corpus import SignalParams, synthesize_corpus
from hybrid_linker.hybrid import (
    HybridError,
    alpha_grid,
    channel_probabilities,
    fuse_arrays,
    load_model,
    metrics,
    predict_pairs,
    save_model,
    train_hybrid,
    tune_alpha,
)
from hybrid_linker.learn import LearnerParams
from hybrid_linker.linkgen import generate_candidates, balance_candidates

SMALL_TEXTUAL = LearnerParams(
    variant="gradient_boosting", n_estimators=15, max_depth=6, min_rows=2,
    learn_rate=0.1,
)
SMALL_NONTEXTUAL = {
    "gradient_boosting": LearnerParams(
        variant="gradient_boosting", n_trees=15, max_depth=5, min_rows=2,
        learn_rate=0.1,
    ),
    "regularized_gradient_boosting": LearnerParams(
        variant="regularized_gradient_boosting", n_trees=15, max_depth=5,
        min_rows=2, learn_rate=0.1,
    ),
}


def _small_config(seed):
    return Config(textual=SMALL_TEXTUAL, nontextual=dict(SMALL_NONTEXTUAL),
                  split_seed=seed)


def _small_model(seed=5):
    corpus = synthesize_corpus(
        seed=seed, n_issues=40, n_commits=40, signal=SignalParams(0.9, 0.9, 1.0)
    )
    balanced = balance_candidates(
        generate_candidates(corpus, window_days=7), seed=seed
    )
    model = train_hybrid(list(balanced.candidates), corpus, _small_config(seed))
    return corpus, model


def test_combine_hand_arithmetic():
    assert fuse_arrays(0.9, 0.4, 0.6) == pytest.approx(0.70, abs=1e-15)
    assert fuse_arrays(0.3, 0.8, 0.0) == 0.8
    assert fuse_arrays(0.3, 0.8, 1.0) == 0.3
    assert fuse_arrays(0.5, 0.5, 0.25) == pytest.approx(0.5, abs=1e-15)


def test_combine_rejects_out_of_range():
    with pytest.raises(HybridError):
        fuse_arrays(1.2, 0.5, 0.5)
    with pytest.raises(HybridError):
        fuse_arrays(0.5, -0.1, 0.5)
    with pytest.raises(HybridError):
        fuse_arrays(0.5, 0.5, 1.0001)


def test_fuse_arrays_matches_scalar_combine():
    p_nt = np.array([0.0, 0.25, 0.9, 1.0])
    p_t = np.array([1.0, 0.5, 0.1, 0.0])
    fused = fuse_arrays(p_nt, p_t, 0.3)
    for k in range(len(p_nt)):
        assert fused[k] == pytest.approx(fuse_arrays(p_nt[k], p_t[k], 0.3), abs=1e-15)
    with pytest.raises(HybridError):
        fuse_arrays(np.array([1.5]), np.array([0.5]), 0.5)


@settings(max_examples=100)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    st.data(),
    st.booleans(),
)
def test_fuse_arrays_rejects_nan_probabilities(values, data, in_textual):
    good = np.array(values)
    bad = good.copy()
    bad[data.draw(st.integers(0, len(values) - 1))] = np.nan
    name = "p_textual" if in_textual else "p_nontextual"
    args = (good, bad) if in_textual else (bad, good)
    with pytest.raises(HybridError, match=rf"^{name} values must lie in \[0, 1\]$"):
        fuse_arrays(*args, 0.5)


def test_alpha_grid_is_21_points():
    grid = alpha_grid()
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert grid[10] == 0.5
    steps = np.diff(np.array(grid))
    assert np.allclose(steps, 0.05, atol=1e-12)


@pytest.mark.parametrize("step", [0.34375, 0.6, 0.15])
def test_alpha_grid_stays_in_unit_interval(step):
    grid = alpha_grid(step)
    assert grid[0] == 0.0 and max(grid) <= 1.0
    assert np.allclose(np.diff(grid), step)


def test_f1_at_threshold():
    fused = np.array([0.9, 0.4, 0.6, 0.2])
    labels = np.array([1, 1, 0, 0])
    # Predictions: 1, 0, 1, 0 -> tp=1 fp=1 fn=1.
    assert metrics(fused >= 0.5, labels).f1 == pytest.approx(0.5)


def test_tune_alpha_dominates_endpoints():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 60
        labels = (rng.random(n) < 0.5).astype(int)
        p_nt = np.clip(labels * 0.6 + rng.random(n) * 0.5, 0, 1)
        p_t = np.clip(labels * 0.3 + rng.random(n) * 0.6, 0, 1)
        alpha, best = tune_alpha(p_nt, p_t, labels)
        assert best >= metrics(p_t >= 0.5, labels).f1 - 1e-12
        assert best >= metrics(p_nt >= 0.5, labels).f1 - 1e-12
        assert alpha in alpha_grid()


def test_tune_alpha_all_tied_returns_half():
    p = np.array([0.9, 0.1, 0.8, 0.2])
    labels = np.array([1, 0, 1, 0])
    alpha, best = tune_alpha(p, p, labels)
    assert alpha == 0.5
    assert best == 1.0


def test_tune_alpha_symmetric_tie_prefers_smaller():
    # One positive is seen only by the non-textual channel (alpha >= 0.6),
    # the other only by the textual channel (alpha <= 0.4); 0.4 and 0.6 tie
    # and sit equally far from 0.5.
    p_nt = np.array([0.9, 0.0])
    p_t = np.array([0.0, 0.9])
    labels = np.array([1, 1])
    alpha, best = tune_alpha(p_nt, p_t, labels)
    assert alpha == 0.40
    assert best == pytest.approx(2 / 3)


def test_tune_alpha_complementary_channels():
    n_pos, n_neg = 20, 40
    p_nt = np.array([0.9] * n_pos + [0.1] * n_pos + [0.3] * n_neg)
    p_t = np.array([0.1] * n_pos + [0.9] * n_pos + [0.3] * n_neg)
    labels = np.array([1] * (2 * n_pos) + [0] * n_neg)
    assert metrics(p_nt >= 0.5, labels).f1 <= 0.7
    assert metrics(p_t >= 0.5, labels).f1 <= 0.7
    alpha, best = tune_alpha(p_nt, p_t, labels)
    assert best >= 0.8


def test_tune_alpha_rejects_empty():
    with pytest.raises(HybridError):
        tune_alpha(np.array([]), np.array([]), np.array([]))


def test_train_hybrid_needs_ten_candidates():
    corpus = synthesize_corpus(seed=2, n_issues=12, n_commits=12)
    cands = generate_candidates(corpus, window_days=7)[:6]
    with pytest.raises(HybridError):
        train_hybrid(cands, corpus, _small_config(0))


def test_train_hybrid_splits_and_tunes():
    corpus, model = _small_model()
    assert model.alpha in alpha_grid()
    assert 0.0 <= model.validation_f1 <= 1.0
    total = model.n_fit + model.n_validation
    assert model.n_validation == round(0.2 * total)
    assert model.project == corpus.project


def test_alpha_is_tuned_on_the_validation_channel_probabilities():
    corpus = synthesize_corpus(
        seed=5, n_issues=40, n_commits=40, signal=SignalParams(0.9, 0.9, 1.0)
    )
    balanced = balance_candidates(generate_candidates(corpus, window_days=7), seed=5)
    candidates = list(balanced.candidates)
    config = replace(_small_config(5), alpha_step=0.1, threshold=0.4)
    model = train_hybrid(candidates, corpus, config)
    order = Generator(config.resolved_split_seed()).permutation(len(candidates))
    validation = [candidates[i] for i in order[model.n_fit:]]
    assert len(validation) == model.n_validation
    p_nt, p_t = channel_probabilities(model, corpus.pairs(validation))
    labels = np.array([c.label for c in validation])
    assert (model.alpha, model.validation_f1) == tune_alpha(
        p_nt, p_t, labels, config.alpha_step, config.threshold
    )


def test_predictions_respect_threshold():
    corpus, model = _small_model()
    pairs = [
        (corpus.issue(c.linked_issue_ids[0]), c)
        for c in corpus.commits
        if c.linked_issue_ids
    ]
    batch = predict_pairs(model, pairs[:10])
    for pred in batch:
        assert 0.0 <= pred.probability <= 1.0
        assert pred.label == int(pred.probability >= model.threshold)
    single = predict_pairs(model, [pairs[0]])[0]
    assert single == batch[0]


def test_bundle_round_trip_identical_predictions(tmp_path):
    corpus, model = _small_model()
    path = tmp_path / "model.hlb"
    save_model(model, path)
    again = load_model(path)
    assert again.alpha == model.alpha
    assert again.threshold == model.threshold
    assert again.project == model.project
    pairs = [(issue, commit) for issue in corpus.issues[:25]
             for commit in corpus.commits[:8]]
    want = predict_pairs(model, pairs)
    got = predict_pairs(again, pairs)
    assert [p.probability for p in got] == [p.probability for p in want]
    assert [p.label for p in got] == [p.label for p in want]


def test_bundle_bytes_are_deterministic(tmp_path):
    _, model = _small_model()
    path_a = tmp_path / "a.hlb"
    path_b = tmp_path / "b.hlb"
    save_model(model, path_a)
    save_model(model, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "junk.hlb"
    path.write_bytes(b"not a bundle")
    with pytest.raises(HybridError):
        load_model(path)
