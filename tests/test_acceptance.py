"""Release checklist: one test per shipping criterion.

Each test exercises its criterion at the stated tolerance, enforces the
stated runtime budget, and prints exactly one pass/fail line directly to
the terminal so a full run reads as a checklist.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from hybrid_linker.config import Config
from hybrid_linker.corpus import Corpus, SignalParams, synthesize_corpus
from hybrid_linker.evaluation import (
    REFERENCE_AVERAGES,
    ablation,
    cross_validate,
    kfold,
    render_report,
)
from hybrid_linker.hybrid import (
    fuse_arrays,
    load_model,
    metrics,
    predict_pairs,
    save_model,
    train_hybrid,
    tune_alpha,
)
from hybrid_linker.learn import (
    LearnerParams,
    predict_proba,
    train,
    train_ensemble,
)
from hybrid_linker.linkgen import balance_candidates, generate_candidates
from hybrid_linker.tabular import featurize_pairs_tabular, fit_encoder
from hybrid_linker.textprep import (
    CODE_TERM_PATTERNS,
    CodeTerms,
    TokenStream,
    load_stopwords,
)
from hybrid_linker.tfidf import featurize_pairs_textual, fit_vectorizers
from tests.conftest import DAY, T0, fit_transform, make_commit, make_corpus, make_issue

SECONDS_PER_DAY = 86_400


@contextmanager
def _criterion(capsys, name: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"{name} took {elapsed:.2f}s, budget {budget_seconds:g}s"
            )
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL", flush=True)
        raise
    with capsys.disabled():
        budget = "" if budget_seconds is None else f", budget {budget_seconds:g}s"
        print(f"[acceptance] {name}: PASS ({elapsed:.2f}s{budget})", flush=True)


FAST_TEXTUAL = LearnerParams(
    variant="gradient_boosting", n_estimators=12, max_depth=5, min_rows=2
)
FAST_NONTEXTUAL = {
    "gradient_boosting": LearnerParams(
        variant="gradient_boosting", n_trees=12, max_depth=5, min_rows=2
    ),
    "regularized_gradient_boosting": LearnerParams(
        variant="regularized_gradient_boosting", n_trees=12, max_depth=5, min_rows=2
    ),
}
FAST_CONFIG = Config(
    seed=5, k=3, textual=FAST_TEXTUAL, nontextual=dict(FAST_NONTEXTUAL)
)


@pytest.fixture(scope="module")
def small_setup():
    corpus = synthesize_corpus(5, 40, 40)
    candidates = list(
        balance_candidates(generate_candidates(corpus, 7), seed=5).candidates
    )
    return corpus, candidates


def _train_small(candidates, corpus, split_seed=5):
    config = Config(
        textual=FAST_TEXTUAL, nontextual=dict(FAST_NONTEXTUAL), split_seed=split_seed
    )
    return train_hybrid(candidates, corpus, config)


def test_reference_numbers_are_metadata_only(small_setup, capsys):
    corpus, candidates = small_setup
    with _criterion(capsys, "reference-numbers-as-metadata"):
        assert REFERENCE_AVERAGES["hybrid"] == {
            "recall": 0.9014,
            "precision": 0.8778,
            "f1": 0.8888,
        }
        assert REFERENCE_AVERAGES["ablation_f1"] == {
            "textual_only": 0.8082,
            "nontextual_only": 0.8836,
            "hybrid": 0.8888,
        }
        assert "not targets" in REFERENCE_AVERAGES["note"]
        report = cross_validate(candidates, corpus, FAST_CONFIG)
        # The reference block rides along as context; the report's own
        # results come from the folds and are never compared against it.
        assert report["reference_averages"] == REFERENCE_AVERAGES
        assert set(report["mean"]) == {"precision", "recall", "f1"}
        assert len(report["folds"]) == FAST_CONFIG.k


def test_code_term_pattern_suite(capsys):
    positives = {
        "OPT_INFO": "c_notation",
        "op.addOption": "qualified_name",
        "addToList": "camel_case",
        "XOR": "upper_case",
        "_cmd": "system_variable",
        "std::env": "reference_expression",
    }
    negatives = ["opt", "add", "xor", "9_x", "::", "_"]
    with _criterion(capsys, "code-term-patterns", budget_seconds=1.0):
        for term, pattern_name in positives.items():
            assert CODE_TERM_PATTERNS[pattern_name].fullmatch(term), (
                f"{term!r} should match {pattern_name}"
            )
        for term in negatives:
            for pattern_name, pattern in CODE_TERM_PATTERNS.items():
                assert pattern.fullmatch(term) is None, (
                    f"{term!r} should not match {pattern_name}"
                )
        diff = "+ " + " ".join(list(positives) + negatives)
        assert CodeTerms().doc(diff).tokens == tuple(positives)


def _brute_force_tfidf(token_docs, ngram_range, max_features):
    """Independent dense evaluation of the count/idf/normalize formula."""

    def _grams(tokens):
        low, high = ngram_range
        return [
            " ".join(tokens[start : start + n])
            for n in range(low, high + 1)
            for start in range(len(tokens) - n + 1)
        ]

    per_doc = [_grams(doc) for doc in token_docs]
    occurrence: Counter = Counter()
    document_frequency: Counter = Counter()
    for grams in per_doc:
        occurrence.update(grams)
        document_frequency.update(set(grams))
    terms = sorted(occurrence, key=lambda t: (-occurrence[t], t))[:max_features]
    terms.sort()
    n_docs = len(token_docs)
    idf = {
        t: np.log((1.0 + n_docs) / (1.0 + document_frequency[t])) + 1.0
        for t in terms
    }
    matrix = np.zeros((n_docs, len(terms)))
    for row, grams in enumerate(per_doc):
        counts = Counter(grams)
        for col, term in enumerate(terms):
            matrix[row, col] = counts[term] * idf[term]
        norm = np.linalg.norm(matrix[row])
        if norm > 0.0:
            matrix[row] /= norm
    return terms, matrix


def test_tfidf_matches_brute_force(capsys):
    texts = [
        "parser crash on empty input",
        "fix parser crash",
        "update docs for the parser",
        "crash crash crash",
        "",
        "empty input handling in parser parser",
    ]
    token_docs = [tuple(t.split()) for t in texts]
    docs = [TokenStream(tokens=t) for t in token_docs]
    with _criterion(capsys, "tfidf-oracle", budget_seconds=1.0):
        for ngram_range, max_features in [((1, 3), 10_000), ((1, 2), 12)]:
            model, rows = fit_transform(docs, ngram_range, max_features)
            terms, expected = _brute_force_tfidf(
                token_docs, ngram_range, max_features
            )
            assert list(model.terms) == terms
            assert rows.shape == expected.shape
            assert np.max(np.abs(rows.toarray() - expected)) < 1e-12


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
            p_l, p_r = y[left].mean(), y[~left].mean()
            n_l = left.sum()
            impurity = n_l * 2 * p_l * (1 - p_l) + (n - n_l) * 2 * p_r * (1 - p_r)
            if best is None or impurity < best[0] - 1e-12:
                best = (impurity, j, thr, p_l, p_r)
    return best


def test_learner_oracles(capsys):
    with _criterion(capsys, "learner-oracles", budget_seconds=30.0):
        # Depth-1 tree against exhaustive split search.
        rng = np.random.default_rng(42)
        stump_params = LearnerParams(
            variant="decision_tree", max_depth=1, min_rows=1
        )
        for _ in range(20):
            n = int(rng.integers(8, 40))
            X = rng.random((n, 2))
            y = (rng.random(n) < 0.5).astype(float)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            model = train(stump_params, X, y)
            _, j, thr, p_l, p_r = _brute_force_stump(X, y)
            left = X[:, j] <= thr
            got = predict_proba(model, X)
            assert np.allclose(got[left], p_l, atol=1e-12)
            assert np.allclose(got[~left], p_r, atol=1e-12)

        # Boosting training loss never rises across stages.
        rng = np.random.default_rng(7)
        X = rng.random((200, 6))
        y = ((X[:, 0] + X[:, 1] * X[:, 2]) > 0.8).astype(float)
        gb = train(
            LearnerParams(
                variant="gradient_boosting", n_estimators=60, max_depth=3
            ),
            X,
            y,
        )
        losses = np.asarray(gb.train_losses)
        assert losses.size >= 60
        assert np.all(np.diff(losses) <= 1e-12)

        # Soft vote is exactly the mean of the member probabilities.
        rng = np.random.default_rng(11)
        X = rng.random((60, 4))
        y = (X[:, 0] > 0.5).astype(float)
        ensemble = train_ensemble("RF+GB+XGB", X, y)
        member_probs = [predict_proba(m, X) for m in ensemble.members]
        assert np.array_equal(
            predict_proba(ensemble, X), np.mean(member_probs, axis=0)
        )


def _random_link_corpus(rng: random.Random) -> Corpus:
    n_issues = rng.randint(2, 10)
    n_commits = rng.randint(1, 10)
    issues = []
    for i in range(n_issues):
        created = T0 + rng.randint(0, 25) * DAY + rng.randint(0, DAY - 1)
        updated = created + rng.randint(0, 4 * DAY)
        resolved = (
            updated + rng.randint(0, 3 * DAY) if rng.random() < 0.6 else None
        )
        issues.append(
            make_issue(
                issue_id=f"I-{i}", created=created, updated=updated,
                resolved=resolved,
            )
        )
    commits = []
    for c in range(n_commits):
        moment = T0 + rng.randint(0, 25) * DAY + rng.randint(0, DAY - 1)
        linked = (
            (f"I-{rng.randrange(n_issues)}",) if rng.random() < 0.7 else ()
        )
        commits.append(
            make_commit(
                tag=f"c{c}", author_time=moment,
                commit_time=moment + rng.randint(0, 2 * DAY), linked=linked,
            )
        )
    return make_corpus(issues, commits)


def _brute_force_false_pairs(corpus: Corpus, window_days: int | None):
    expected = set()
    for commit in corpus.commits:
        if not commit.linked_issue_ids:
            continue
        for issue in corpus.issues:
            if issue.issue_id in commit.linked_issue_ids:
                continue
            commit_dates = (commit.author_time_date, commit.commit_time_date)
            issue_dates = [issue.created_date, issue.updated_date]
            if issue.resolved_date is not None:
                issue_dates.append(issue.resolved_date)
            in_window = window_days is None or any(
                abs(c - i) <= window_days * SECONDS_PER_DAY
                for c in commit_dates
                for i in issue_dates
            )
            if in_window:
                expected.add((issue.issue_id, commit.commit_hash))
    return expected


def test_link_generation_matches_brute_force(capsys):
    rng = random.Random(2024)
    with _criterion(capsys, "link-generation-oracle", budget_seconds=10.0):
        for _ in range(100):
            corpus = _random_link_corpus(rng)
            candidates = generate_candidates(corpus, 7)
            got_false = {
                (c.issue_id, c.commit_hash) for c in candidates if c.label == 0
            }
            assert got_false == _brute_force_false_pairs(corpus, 7)
            got_true = {
                (c.issue_id, c.commit_hash) for c in candidates if c.label == 1
            }
            expected_true = {
                (issue_id, commit.commit_hash)
                for commit in corpus.commits
                for issue_id in commit.linked_issue_ids
            }
            assert got_true == expected_true

        # Without a window every linked commit pairs with all other issues.
        n_issues, n_linked = 8, 5
        issues = [make_issue(issue_id=f"I-{i}") for i in range(n_issues)]
        commits = [
            make_commit(tag=f"c{c}", linked=(f"I-{c}",)) for c in range(n_linked)
        ]
        uncapped = generate_candidates(make_corpus(issues, commits), None)
        assert sum(1 for c in uncapped if c.label == 0) == n_linked * (n_issues - 1)


def test_fusion_and_alpha_tuning(capsys):
    with _criterion(capsys, "fusion-and-alpha-tuning", budget_seconds=10.0):
        cases = [
            (0.9, 0.4, 0.6),
            (0.0, 1.0, 0.25),
            (0.5, 0.5, 0.0),
            (1.0, 0.0, 1.0),
            (0.123456789, 0.987654321, 0.35),
        ]
        for p_nt, p_t, alpha in cases:
            fused = fuse_arrays(p_nt, p_t, alpha)
            assert abs(fused - (alpha * p_nt + (1 - alpha) * p_t)) <= 1e-15

        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(20, 80))
            labels = (rng.random(n) < 0.5).astype(float)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
            noise = rng.random(n)
            p_nt = np.clip(0.6 * labels + 0.4 * noise, 0.0, 1.0)
            p_t = np.clip(0.5 * labels + 0.5 * rng.random(n), 0.0, 1.0)
            _, tuned_f1 = tune_alpha(p_nt, p_t, labels)
            for endpoint in (0.0, 1.0):
                fused = fuse_arrays(p_nt, p_t, endpoint)
                assert tuned_f1 >= metrics(fused >= 0.5, labels).f1

        # Complementary channels: each alone misses half the positives.
        p_nt = np.array([0.9] * 20 + [0.3] * 20 + [0.1] * 40)
        p_t = np.array([0.3] * 20 + [0.9] * 20 + [0.1] * 40)
        labels = np.array([1.0] * 40 + [0.0] * 40)
        for channel in (p_nt, p_t):
            alone = metrics(channel >= 0.5, labels).f1
            assert alone <= 0.7
        _, tuned_f1 = tune_alpha(p_nt, p_t, labels)
        assert tuned_f1 >= 0.8


ACCEPTANCE_TEXTUAL = LearnerParams(
    variant="regularized_gradient_boosting",
    n_estimators=120,
    max_depth=12,
    min_rows=2,
    learn_rate=0.1,
    reg_lambda=1.0,
)


def _mean_f1(channel_entry: dict) -> float:
    return channel_entry["mean"]["f1"]


def test_end_to_end_synthetic_claims(capsys):
    with _criterion(capsys, "end-to-end-synthetic", budget_seconds=300.0):
        config = Config(seed=7, k=5, textual=ACCEPTANCE_TEXTUAL)

        strong = synthesize_corpus(7, 400, 400)
        strong_cands = list(
            balance_candidates(generate_candidates(strong, 7), seed=7).candidates
        )
        strong_report = ablation(strong_cands, strong, config)
        channels = strong_report["channels"]
        hybrid_f1 = _mean_f1(channels["hybrid"])
        assert hybrid_f1 >= 0.90
        each_alone = max(
            _mean_f1(channels["textual_only"]),
            _mean_f1(channels["nontextual_only"]),
        )
        assert hybrid_f1 >= each_alone - 0.02

        # With the lexical signal removed the date/identity channel carries
        # the model: fusion leans on it and matches it to a few hundredths.
        blind = synthesize_corpus(
            7, 400, 400, SignalParams(lexical_overlap=0.0)
        )
        blind_cands = list(
            balance_candidates(generate_candidates(blind, 7), seed=7).candidates
        )
        blind_report = ablation(blind_cands, blind, config)
        blind_channels = blind_report["channels"]
        gap = abs(
            _mean_f1(blind_channels["nontextual_only"])
            - _mean_f1(blind_channels["hybrid"])
        )
        assert gap <= 0.03

        model = train_hybrid(
            blind_cands, blind, Config(textual=ACCEPTANCE_TEXTUAL, split_seed=7)
        )
        assert model.alpha >= 0.60


def test_determinism_reports_and_bundles(small_setup, capsys, tmp_path):
    corpus, candidates = small_setup
    with _criterion(capsys, "determinism"):
        first = render_report(cross_validate(candidates, corpus, FAST_CONFIG))
        second = render_report(cross_validate(candidates, corpus, FAST_CONFIG))
        assert first.encode("utf-8") == second.encode("utf-8")

        model = _train_small(candidates, corpus)
        path = tmp_path / "model.hlb"
        save_model(model, path)
        restored = load_model(path)
        pairs = [
            (issue, commit)
            for issue in corpus.issues
            for commit in corpus.commits
        ][:1000]
        assert len(pairs) == 1000
        original = predict_pairs(model, pairs)
        roundtrip = predict_pairs(restored, pairs)
        assert original == roundtrip


class _LoggingCorpus(Corpus):
    """Corpus that records every record lookup for audit."""

    def __init__(self, base: Corpus, log: list):
        super().__init__(
            project=base.project, issues=base.issues, commits=base.commits
        )
        object.__setattr__(self, "access_log", log)

    def issue(self, issue_id: str):
        self.access_log.append(("issue", issue_id))
        return super().issue(issue_id)

    def commit(self, commit_hash: str):
        self.access_log.append(("commit", commit_hash))
        return super().commit(commit_hash)


def test_no_leakage_across_folds_or_from_labels(small_setup, capsys):
    corpus, candidates = small_setup
    with _criterion(capsys, "leakage-audit"):
        labels = [c.label for c in candidates]
        folds = kfold(len(candidates), 3, seed=5, labels=labels)
        saw_test_only = False
        for train_idx, test_idx in folds:
            train_cands = [candidates[i] for i in train_idx]
            test_cands = [candidates[i] for i in test_idx]
            train_ids = {("issue", c.issue_id) for c in train_cands} | {
                ("commit", c.commit_hash) for c in train_cands
            }
            test_only = (
                {("issue", c.issue_id) for c in test_cands}
                | {("commit", c.commit_hash) for c in test_cands}
            ) - train_ids
            saw_test_only = saw_test_only or bool(test_only)
            log: list = []
            _train_small(train_cands, _LoggingCorpus(corpus, log))
            accessed = set(log)
            assert accessed, "training should consult the corpus"
            assert not (accessed & test_only)
        assert saw_test_only, "fixture must have records unique to test folds"

        # Feature construction ignores labels entirely: the fitters take
        # (issue, commit) pairs, which carry none, and flipping every label
        # leaves the fitted vocabularies, layout, and matrices
        # byte-for-byte identical.
        flipped = [replace(c, label=1 - c.label) for c in candidates]
        stopwords = load_stopwords()
        pairs = [
            (corpus.issue(c.issue_id), corpus.commit(c.commit_hash))
            for c in candidates
        ]
        vec_a = fit_vectorizers(pairs, stopwords)
        vec_b = fit_vectorizers(corpus.pairs(flipped), stopwords)
        for block in ("issue", "message", "code"):
            model_a = getattr(vec_a, block)
            model_b = getattr(vec_b, block)
            assert model_a.term_index == model_b.term_index
            assert np.array_equal(model_a.idf, model_b.idf)
        X_a = featurize_pairs_textual(pairs, vec_a, stopwords)
        X_b = featurize_pairs_textual(pairs, vec_b, stopwords)
        assert X_a.shape == X_b.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(X_a, name).tobytes() == getattr(X_b, name).tobytes()

        enc_a = fit_encoder(pairs)
        enc_b = fit_encoder(corpus.pairs(flipped))
        assert enc_a == enc_b
        T_a = featurize_pairs_tabular(pairs, enc_a)
        T_b = featurize_pairs_tabular(pairs, enc_b)
        assert np.array_equal(T_a, T_b)
        labels_arr = np.array(labels, dtype=np.float64)
        for column in range(T_a.shape[1]):
            assert not np.array_equal(T_a[:, column], labels_arr)
