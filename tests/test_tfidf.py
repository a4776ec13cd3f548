from __future__ import annotations

import math
from collections import Counter

import numpy as np

from hybrid_linker.linkgen import LinkCandidate, generate_candidates
from hybrid_linker.corpus import synthesize_corpus
from hybrid_linker.textprep import TokenStream, load_stopwords
from hybrid_linker.tfidf import (
    featurize_pairs_textual,
    fit,
    fit_transform,
    fit_vectorizers,
    ngrams,
    transform,
)

MICRO_DOCS = [
    ("copi", "indic", "valu"),
    ("copi", "copi", "parser"),
    ("parser", "crash", "loop", "crash"),
    ("valu", "valu", "valu"),
    (),
    ("loop", "copi", "indic", "loop", "copi"),
]


def _stream(tokens) -> TokenStream:
    return TokenStream(tokens=tuple(tokens), kind="natural")


def _brute_force(docs, ngram_range=(1, 3), max_features=None):
    """Independent n-gram counter plus direct formula evaluation."""

    def grams(tokens):
        out = []
        lo, hi = ngram_range
        for n in range(lo, hi + 1):
            for i in range(len(tokens) - n + 1):
                out.append(" ".join(tokens[i : i + n]))
        return out

    per_doc = [grams(d) for d in docs]
    occurrence = Counter()
    df = Counter()
    for doc_grams in per_doc:
        occurrence.update(doc_grams)
        for term in set(doc_grams):
            df[term] += 1
    terms = sorted(occurrence)
    if max_features is not None and len(terms) > max_features:
        kept = sorted(occurrence, key=lambda t: (-occurrence[t], t))[:max_features]
        terms = sorted(kept)
    index = {t: j for j, t in enumerate(terms)}
    n_docs = len(docs)
    rows = []
    for doc_grams in per_doc:
        vec = [0.0] * len(terms)
        for term, count in Counter(doc_grams).items():
            if term in index:
                idf = math.log((1 + n_docs) / (1 + df[term])) + 1.0
                vec[index[term]] = count * idf
        norm = math.sqrt(sum(v * v for v in vec))
        if norm > 0:
            vec = [v / norm for v in vec]
        rows.append(vec)
    return terms, rows


def test_ngrams_enumeration():
    tokens = ("a", "b", "c")
    assert ngrams(tokens, (1, 1)) == ["a", "b", "c"]
    assert ngrams(tokens, (1, 3)) == ["a", "b", "c", "a b", "b c", "a b c"]
    assert ngrams((), (1, 3)) == []
    assert ngrams(("x",), (2, 3)) == []


def test_fit_transform_matches_brute_force():
    docs = [_stream(d) for d in MICRO_DOCS]
    model, matrix = fit_transform(docs)
    want_terms, want_rows = _brute_force(MICRO_DOCS)
    assert model.terms() == want_terms
    dense = matrix.toarray()
    assert dense.shape == (len(MICRO_DOCS), len(want_terms))
    assert np.max(np.abs(dense - np.array(want_rows))) <= 1e-12


def test_transform_matches_fit_transform_rows():
    docs = [_stream(d) for d in MICRO_DOCS]
    model, matrix = fit_transform(docs)
    for doc, row in zip(docs, matrix.toarray()):
        single = transform(model, doc).toarray()[0]
        assert np.max(np.abs(single - row)) <= 1e-12


def test_rows_are_unit_length_or_zero():
    docs = [_stream(d) for d in MICRO_DOCS]
    _, matrix = fit_transform(docs)
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    for doc, norm in zip(MICRO_DOCS, norms):
        if doc:
            assert abs(norm - 1.0) <= 1e-12
        else:
            assert norm == 0.0


def test_unseen_terms_are_ignored():
    model = fit([_stream(d) for d in MICRO_DOCS])
    row = transform(model, _stream(("neverseen", "copi"))).toarray()[0]
    assert np.count_nonzero(row) == 1
    assert row[model.term_index["copi"]] > 0


def test_max_features_prefers_occurrence_then_lexicographic():
    docs = [
        _stream(("bb", "bb", "aa")),
        _stream(("cc", "aa")),
        _stream(("dd", "bb")),
    ]
    # Unigram occurrences: bb=3, aa=2, cc=1, dd=1; bigram/trigram singletons
    # all tie at 1 and lose to earlier alphabetical terms.
    model = fit(docs, ngram_range=(1, 1), max_features=3)
    assert model.terms() == ["aa", "bb", "cc"]
    want_terms, want_rows = _brute_force(
        [d.tokens for d in docs], (1, 1), max_features=3
    )
    assert model.terms() == want_terms
    got = np.vstack([transform(model, d).toarray()[0] for d in docs])
    assert np.max(np.abs(got - np.array(want_rows))) <= 1e-12


def test_indices_follow_lexicographic_order():
    model = fit([_stream(d) for d in MICRO_DOCS])
    terms = model.terms()
    assert terms == sorted(terms)
    assert [model.term_index[t] for t in terms] == list(range(len(terms)))


def test_fit_is_deterministic():
    docs = [_stream(d) for d in MICRO_DOCS]
    a = fit(docs)
    b = fit(docs)
    assert a.term_index == b.term_index
    assert np.array_equal(a.idf, b.idf)


def test_featurize_blocks_concatenate_per_document_transforms():
    corpus = synthesize_corpus(seed=23, n_issues=20, n_commits=20)
    stopwords = load_stopwords()
    candidates = generate_candidates(corpus, window_days=7)[:30]
    vectorizers = fit_vectorizers(candidates, corpus, stopwords=stopwords)
    matrix = featurize_pairs_textual(corpus.pairs(candidates), vectorizers, stopwords)
    assert matrix.shape == (len(candidates), vectorizers.width)
    start_msg = vectorizers.issue.width
    start_code = start_msg + vectorizers.message.width

    from hybrid_linker.textprep import code_doc, issue_doc, message_doc

    for row_index in (0, len(candidates) // 2, len(candidates) - 1):
        cand = candidates[row_index]
        issue = corpus.issue(cand.issue_id)
        commit = corpus.commit(cand.commit_hash)
        row = matrix[row_index].toarray()[0]
        want_issue = transform(
            vectorizers.issue, issue_doc(issue, stopwords)
        ).toarray()[0]
        want_msg = transform(
            vectorizers.message, message_doc(commit, stopwords)
        ).toarray()[0]
        want_code = transform(vectorizers.code, code_doc(commit)).toarray()[0]
        assert np.max(np.abs(row[:start_msg] - want_issue)) <= 1e-12
        assert np.max(np.abs(row[start_msg:start_code] - want_msg)) <= 1e-12
        assert np.max(np.abs(row[start_code:] - want_code)) <= 1e-12


def test_vectorizers_fit_only_on_candidate_documents():
    corpus = synthesize_corpus(seed=23, n_issues=20, n_commits=20)
    stopwords = load_stopwords()
    all_cands = generate_candidates(corpus, window_days=7)
    subset = all_cands[:5]
    vectorizers = fit_vectorizers(subset, corpus, stopwords=stopwords)
    seen_issues = {c.issue_id for c in subset}
    seen_commits = {c.commit_hash for c in subset}
    from hybrid_linker.textprep import issue_doc, issue_text

    outside_terms = set()
    for issue in corpus.issues:
        if issue.issue_id not in seen_issues:
            outside_terms.update(issue_doc(issue, stopwords).tokens)
    inside_terms = set()
    for issue in corpus.issues:
        if issue.issue_id in seen_issues:
            inside_terms.update(issue_doc(issue, stopwords).tokens)
    only_outside = outside_terms - inside_terms
    assert only_outside, "fixture needs vocabulary unique to excluded issues"
    fitted = set()
    for term in vectorizers.issue.term_index:
        fitted.update(term.split(" "))
    assert not (fitted & only_outside)
