from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybrid_linker
from hybrid_linker.config import Config, apply_overrides
from hybrid_linker.corpus import SignalParams, synthesize_corpus
from hybrid_linker.evaluation import (
    REFERENCE_AVERAGES,
    ablation,
    cross_validate,
    kfold,
    metrics,
    render_report,
)
from hybrid_linker.learn import LearnerParams
from hybrid_linker.linkgen import balance_candidates, generate_candidates

SMALL_CONFIG = Config(
    seed=9,
    k=3,
    textual=LearnerParams(
        variant="gradient_boosting", n_estimators=12, max_depth=5, min_rows=2,
        learn_rate=0.1,
    ),
    nontextual={
        "gradient_boosting": LearnerParams(
            variant="gradient_boosting", n_trees=12, max_depth=5, min_rows=2,
            learn_rate=0.1,
        ),
        "regularized_gradient_boosting": LearnerParams(
            variant="regularized_gradient_boosting", n_trees=12, max_depth=5,
            min_rows=2, learn_rate=0.1,
        ),
    },
)


def _balanced(seed=9, n=40):
    corpus = synthesize_corpus(
        seed=seed, n_issues=n, n_commits=n, signal=SignalParams(0.9, 0.9, 1.0)
    )
    result = balance_candidates(
        generate_candidates(corpus, window_days=7), seed=seed
    )
    return corpus, list(result.candidates)


def test_metrics_counts_and_scores():
    predicted = [1, 1, 0, 0, 1]
    actual = [1, 0, 0, 1, 1]
    m = metrics(predicted, actual)
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.flags == ()


def test_metrics_zero_division_flags():
    m = metrics([0, 0], [1, 1])
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert "precision_undefined" in m.flags
    none_positive = metrics([0, 0], [0, 0])
    assert "recall_undefined" in none_positive.flags
    assert "f1_undefined" in none_positive.flags


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        metrics([1, 0], [1])


# st.floats draws NaN and the infinities too.
NOT_BINARY = st.one_of(
    st.floats().filter(lambda x: x not in (0, 1)),
    st.integers().filter(lambda x: x not in (0, 1)),
)


@settings(max_examples=100)
@given(st.data(), st.booleans())
def test_metrics_rejects_labels_outside_zero_and_one(data, in_predicted):
    size = data.draw(st.integers(1, 20))
    binary = st.lists(
        st.sampled_from([0, 1, 0.0, 1.0, True]), min_size=size, max_size=size
    )
    predicted, actual = data.draw(binary), data.draw(binary)
    bad = predicted if in_predicted else actual
    bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(NOT_BINARY)
    name = "predicted" if in_predicted else "actual"
    with pytest.raises(ValueError, match=f"^{name} labels must be 0 or 1$"):
        metrics(predicted, actual)


def test_kfold_partitions_everything():
    folds = kfold(23, 4, seed=1)
    assert len(folds) == 4
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test.tolist()) == list(range(23))
    for train, test in folds:
        assert set(train.tolist()) | set(test.tolist()) == set(range(23))
        assert not set(train.tolist()) & set(test.tolist())


def test_kfold_seeded_and_distinct():
    a = kfold(30, 5, seed=7)
    b = kfold(30, 5, seed=7)
    c = kfold(30, 5, seed=8)
    for (_, ta), (_, tb) in zip(a, b):
        assert np.array_equal(ta, tb)
    assert any(
        not np.array_equal(ta, tc) for (_, ta), (_, tc) in zip(a, c)
    )


def test_kfold_stratified_balances_labels():
    labels = np.array([1] * 10 + [0] * 30)
    folds = kfold(40, 5, seed=3, labels=labels, stratified=True)
    for _, test in folds:
        assert np.sum(labels[test] == 1) == 2


def test_kfold_validates_arguments():
    with pytest.raises(ValueError):
        kfold(5, 1, seed=0)
    with pytest.raises(ValueError):
        kfold(3, 4, seed=0)


def test_stratified_folds_need_labels():
    with pytest.raises(ValueError, match="^stratified folds need labels$"):
        kfold(6, 2, seed=0, stratified=True)


@settings(max_examples=100)
@given(st.data(), st.integers(2, 5))
def test_stratified_folds_reject_nan_labels(data, k):
    labels = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=k, max_size=40))
    for _ in range(data.draw(st.integers(1, 3))):
        labels[data.draw(st.integers(0, len(labels) - 1))] = np.nan
    message = "^stratified folds need labels that are not NaN$"
    with pytest.raises(ValueError, match=message):
        kfold(len(labels), k, seed=0, labels=labels, stratified=True)


@settings(max_examples=100)
@given(st.integers(2, 4), st.integers(4, 30), st.integers(0, 40), st.data())
def test_stratified_folds_need_one_label_per_item(k, n_items, n_labels, data):
    labels = data.draw(
        st.lists(st.sampled_from([0, 1]), min_size=n_labels, max_size=n_labels)
    )
    if n_labels == n_items:
        tested = np.concatenate([test for _, test in kfold(n_items, k, 0, labels, True)])
        assert np.array_equal(np.sort(tested), np.arange(n_items))
        return
    message = (
        f"^stratified folds need one label per item, got {n_labels} labels "
        f"for {n_items} items$"
    )
    with pytest.raises(ValueError, match=message):
        kfold(n_items, k, 0, labels=labels, stratified=True)


def test_kfold_loads_no_further_numpy_module():
    # np.unique imports numpy.ma on first use, about 1 MiB of resident memory.
    script = (
        "import sys\n"
        "from hybrid_linker.evaluation import kfold\n"
        "loaded = set(sys.modules)\n"
        "kfold(24, 3, 1)\n"
        "kfold(24, 3, 1, labels=[0, 1] * 12, stratified=True)\n"
        "print(sorted(set(sys.modules) - loaded))\n"
    )
    src = str(Path(hybrid_linker.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


@settings(max_examples=100)
@given(
    st.data(), st.integers(2, 7), st.integers(0, 2**40), st.sampled_from([0, 1, 2.5])
)
def test_plain_folds_are_stratified_folds_of_one_label(data, k, seed, label):
    n = data.draw(st.integers(k, 60))
    plain = kfold(n, k, seed)
    one_label = kfold(n, k, seed, labels=[label] * n, stratified=True)
    assert len(plain) == len(one_label) == k
    for got, want in zip(plain, one_label):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_cross_validate_report_shape_and_determinism():
    corpus, cands = _balanced()
    report_a = cross_validate(cands, corpus, SMALL_CONFIG)
    report_b = cross_validate(cands, corpus, SMALL_CONFIG)
    assert render_report(report_a) == render_report(report_b)
    assert report_a["kind"] == "cross-validation"
    assert report_a["k"] == 3
    assert len(report_a["folds"]) == 3
    assert len(report_a["alphas"]) == 3
    for row in report_a["folds"]:
        assert 0.0 <= row["f1"] <= 1.0
        assert row["n_train"] + row["n_test"] == len(cands)
    assert set(report_a["mean"]) >= {"precision", "recall", "f1"}
    assert set(report_a["std"]) >= {"precision", "recall", "f1"}


def test_cross_validation_is_the_ablation_hybrid_channel_plus_fold_sizes():
    corpus, cands = _balanced()
    cv = cross_validate(cands, corpus, SMALL_CONFIG)
    abl = ablation(cands, corpus, SMALL_CONFIG)
    assert (cv["kind"], abl["kind"]) == ("cross-validation", "ablation")
    header = abl.keys() - {"kind", "channels"}
    assert cv.keys() - {"kind", "folds", "mean", "std"} == header
    assert all(cv[key] == abl[key] for key in header)
    hybrid = abl["channels"]["hybrid"]
    assert (cv["mean"], cv["std"]) == (hybrid["mean"], hybrid["std"])
    sizes = ("n_train", "n_test", "validation_f1")
    shared = [{k: v for k, v in row.items() if k not in sizes} for row in cv["folds"]]
    assert shared == hybrid["folds"]
    folds = kfold(len(cands), SMALL_CONFIG.k, SMALL_CONFIG.resolved_fold_seed())
    for row, (train, test) in zip(cv["folds"], folds):
        assert (row["n_train"], row["n_test"]) == (len(train), len(test))
        assert 0.0 <= row["validation_f1"] <= 1.0


def test_reports_carry_reference_averages_as_context():
    corpus, cands = _balanced()
    report = cross_validate(cands, corpus, SMALL_CONFIG)
    block = report["reference_averages"]
    assert block == REFERENCE_AVERAGES
    assert "not targets" in block["note"]
    assert block["hybrid"]["f1"] == 0.8888


def test_render_report_has_no_timestamps_and_sorted_keys():
    corpus, cands = _balanced()
    text = render_report(cross_validate(cands, corpus, SMALL_CONFIG))
    assert "time" not in text.lower() or "commit_time" in text
    import json

    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def test_ablation_reuses_single_training():
    corpus, cands = _balanced()
    report = ablation(cands, corpus, SMALL_CONFIG)
    channels = report["channels"]
    assert set(channels) == {"hybrid", "textual_only", "nontextual_only"}
    # Channel-only scores come from the same folds: row counts line up.
    for block in channels.values():
        assert len(block["folds"]) == 3
    hybrid_alphas = report["alphas"]
    assert all(a in [round(0.05 * i, 10) for i in range(21)] for a in hybrid_alphas)
    # The forced-alpha channels reuse the fused scores at the endpoints.
    for row in channels["textual_only"]["folds"]:
        assert row["alpha"] == 0.0
    for row in channels["nontextual_only"]["folds"]:
        assert row["alpha"] == 1.0


def test_tune_on_test_is_flagged():
    corpus, cands = _balanced()
    leaky = apply_overrides(SMALL_CONFIG, tune_on="test")
    report = cross_validate(cands, corpus, leaky)
    assert report["tune_on"] == "test"
    clean = cross_validate(cands, corpus, SMALL_CONFIG)
    assert clean["tune_on"] == "validation"


def test_parallel_jobs_do_not_change_results():
    corpus, cands = _balanced()
    serial = cross_validate(cands, corpus, SMALL_CONFIG)
    parallel = cross_validate(
        cands, corpus, apply_overrides(SMALL_CONFIG, jobs=3)
    )
    serial_json = render_report(serial)
    parallel_json = render_report(parallel)
    # The jobs knob appears in the echoed config; strip it before comparing.
    assert serial_json.replace('"jobs": 1', '"jobs": 3') == parallel_json
