from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_linker.linkgen import LinkCandidate, generate_candidates
from hybrid_linker.corpus import synthesize_corpus
from hybrid_linker.textprep import (
    NaturalWords,
    TokenStream,
    code_doc,
    extract_code_terms,
    issue_doc,
    issue_text,
    load_stopwords,
    message_doc,
    preprocess_natural,
)
from hybrid_linker.tfidf import (
    DEFAULT_MAX_FEATURES,
    TextualVectorizers,
    TfidfModel,
    _enumerated_keys,
    _prefix_gaps,
    _transform_rows,
    _walked_keys,
    featurize_pairs_textual,
    fit,
    fit_vectorizers,
    ngrams,
)
from tests.conftest import fit_transform, make_commit, make_issue

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
        single = _transform_rows([(model, [doc])]).toarray()[0]
        assert np.max(np.abs(single - row)) <= 1e-12


def test_rows_are_unit_length_or_zero():
    docs = [_stream(d) for d in MICRO_DOCS]
    _, matrix = fit_transform(docs)
    bounds = matrix.indptr.tolist()
    norms = [
        np.sqrt(np.sum(matrix.data[start:stop] ** 2))
        for start, stop in zip(bounds, bounds[1:])
    ]
    for doc, norm in zip(MICRO_DOCS, norms):
        if doc:
            assert abs(norm - 1.0) <= 1e-12
        else:
            assert norm == 0.0


def test_unseen_terms_are_ignored():
    model = fit([_stream(d) for d in MICRO_DOCS])
    row = _transform_rows([(model, [_stream(("neverseen", "copi"))])]).toarray()[0]
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
    got = np.vstack([_transform_rows([(model, [d])]).toarray()[0] for d in docs])
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
        want_issue = _transform_rows(
            [(vectorizers.issue, [issue_doc(issue, NaturalWords(stopwords))])]
        ).toarray()[0]
        want_msg = _transform_rows(
            [(vectorizers.message, [message_doc(commit, NaturalWords(stopwords))])]
        ).toarray()[0]
        want_code = _transform_rows(
            [(vectorizers.code, [code_doc(commit)])]
        ).toarray()[0]
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
            outside_terms.update(issue_doc(issue, NaturalWords(stopwords)).tokens)
    inside_terms = set()
    for issue in corpus.issues:
        if issue.issue_id in seen_issues:
            inside_terms.update(issue_doc(issue, NaturalWords(stopwords)).tokens)
    only_outside = outside_terms - inside_terms
    assert only_outside, "fixture needs vocabulary unique to excluded issues"
    fitted = set()
    for term in vectorizers.issue.term_index:
        fitted.update(term.split(" "))
    assert not (fitted & only_outside)


# The transform and per-pair assembly as they were before the batched
# transform, kept verbatim as the oracle: featurize_pairs_textual, transform
# and fit_transform must give the same CSR arrays bit for bit.


def _oracle_transform_arrays(model: TfidfModel, doc: TokenStream):
    counts: Counter = Counter()
    for gram in ngrams(doc.tokens, model.ngram_range):
        index = model.term_index.get(gram)
        if index is not None:
            counts[index] += 1
    if not counts:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
    indices = np.array(sorted(counts), dtype=np.int32)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    values *= model.idf[indices]
    norm = np.sqrt(np.sum(values * values))
    if norm > 0.0:
        values /= norm
    return indices, values


def _oracle_transform(model: TfidfModel, doc: TokenStream) -> sp.csr_matrix:
    indices, values = _oracle_transform_arrays(model, doc)
    indptr = np.array([0, len(indices)], dtype=np.int32)
    return sp.csr_matrix((values, indices, indptr), shape=(1, model.width))


def _oracle_featurize_pairs_textual(
    pairs,
    vectorizers: TextualVectorizers,
    stopwords: frozenset[str] | None = None,
) -> sp.csr_matrix:
    issue_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    commit_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    message_offset = vectorizers.issue.width
    code_offset = message_offset + vectorizers.message.width
    indptr = [0]
    all_indices: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    count = 0
    for issue, commit in pairs:
        count += 1
        if issue.issue_id not in issue_cache:
            doc = preprocess_natural(issue_text(issue), stopwords)
            issue_cache[issue.issue_id] = _oracle_transform_arrays(vectorizers.issue, doc)
        if commit.commit_hash not in commit_cache:
            msg_idx, msg_val = _oracle_transform_arrays(
                vectorizers.message, preprocess_natural(commit.message, stopwords)
            )
            code_idx, code_val = _oracle_transform_arrays(
                vectorizers.code, extract_code_terms(commit.diff_text)
            )
            commit_cache[commit.commit_hash] = (
                np.concatenate([msg_idx + message_offset, code_idx + code_offset]),
                np.concatenate([msg_val, code_val]),
            )
        issue_idx, issue_val = issue_cache[issue.issue_id]
        commit_idx, commit_val = commit_cache[commit.commit_hash]
        all_indices.append(issue_idx)
        all_indices.append(commit_idx)
        all_values.append(issue_val)
        all_values.append(commit_val)
        indptr.append(indptr[-1] + len(issue_idx) + len(commit_idx))
    if all_indices:
        data = np.concatenate(all_values)
        indices = np.concatenate(all_indices)
    else:
        data = np.empty(0, dtype=np.float64)
        indices = np.empty(0, dtype=np.int32)
    return sp.csr_matrix(
        (data, indices, np.array(indptr, dtype=np.int64)),
        shape=(count, vectorizers.width),
    )


def _assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# Few short words, so that documents repeat n-grams and rows run from empty
# to a dozen or more entries; "zz" is never fitted.
WORDS = st.sampled_from(["apple", "bravo", "cargo", "delta", "eagle", "zz"])
CODE_TOKENS = st.sampled_from(
    ["Foo.bar", "OPT_INFO", "addToList", "XOR", "_cmd", "std::env", "plain", "Unf.it"]
)


def _zero_some(model: TfidfModel, draw) -> TfidfModel:
    """The model, with some idf weights set to zero when drawn."""
    if not model.width or not draw(st.booleans()):
        return model
    idf = model.idf.copy()
    idf[draw(st.lists(st.integers(0, model.width - 1), max_size=model.width))] = 0.0
    return replace(model, idf=idf)


@st.composite
def pair_batches(draw):
    """Issues and commits from a small vocabulary, vectorizers fitted on a
    prefix of them, and (issue, commit) pairs with repeats, from none to a
    dozen."""
    n_issues = draw(st.integers(1, 5))
    n_commits = draw(st.integers(1, 5))
    text = st.lists(WORDS, max_size=9).map(" ".join)
    issues = [
        make_issue(issue_id=f"I-{i}", summary=draw(text), description=draw(text))
        for i in range(n_issues)
    ]
    commits = [
        make_commit(
            tag=f"c{i}",
            message=draw(text),
            diff_text=" ".join(draw(st.lists(CODE_TOKENS, max_size=9))),
        )
        for i in range(n_commits)
    ]
    fitted_issues = issues[: draw(st.integers(0, n_issues))]
    fitted_commits = commits[: draw(st.integers(0, n_commits))]
    max_features = draw(st.sampled_from([3, 50]))
    vectorizers = TextualVectorizers(
        issue=_zero_some(
            fit([issue_doc(it, NaturalWords(NO_STOPWORDS)) for it in fitted_issues],
                max_features=max_features),
            draw,
        ),
        message=_zero_some(
            fit([message_doc(c, NaturalWords(NO_STOPWORDS)) for c in fitted_commits],
                max_features=max_features),
            draw,
        ),
        code=_zero_some(
            fit([code_doc(c) for c in fitted_commits], max_features=max_features),
            draw,
        ),
    )
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(issues), st.sampled_from(commits)), max_size=12
        )
    )
    return pairs, vectorizers


NO_STOPWORDS: frozenset[str] = frozenset()


@settings(max_examples=300)
@given(pair_batches())
def test_featurize_matches_per_document_oracle(batch):
    pairs, vectorizers = batch
    _assert_same_csr(
        featurize_pairs_textual(pairs, vectorizers, NO_STOPWORDS),
        _oracle_featurize_pairs_textual(pairs, vectorizers, NO_STOPWORDS),
    )


@settings(max_examples=200)
@given(pair_batches())
def test_transform_and_fit_transform_match_oracle(batch):
    pairs, vectorizers = batch
    model = vectorizers.issue
    docs = [issue_doc(issue, NaturalWords(NO_STOPWORDS)) for issue, _ in pairs]
    for doc in docs:
        _assert_same_csr(
            _transform_rows([(model, [doc])]), _oracle_transform(model, doc)
        )
    if docs:
        fitted, matrix = fit_transform(docs, max_features=model.max_features)
        want = sp.vstack([_oracle_transform(fitted, doc) for doc in docs], format="csr")
        _assert_same_csr(matrix, want)


def test_featurize_matches_oracle_on_a_scoring_batch():
    corpus = synthesize_corpus(seed=11, n_issues=120, n_commits=120)
    stopwords = load_stopwords()
    candidates = generate_candidates(corpus, window_days=7)
    vectorizers = fit_vectorizers(candidates[::2], corpus, stopwords=stopwords)
    pairs = corpus.pairs(candidates)
    assert len(pairs) > 200
    _assert_same_csr(
        featurize_pairs_textual(pairs, vectorizers, stopwords),
        _oracle_featurize_pairs_textual(pairs, vectorizers, stopwords),
    )


def test_featurize_of_no_pairs_is_an_empty_matrix():
    corpus = synthesize_corpus(seed=23, n_issues=20, n_commits=20)
    candidates = generate_candidates(corpus, window_days=7)
    vectorizers = fit_vectorizers(candidates, corpus)
    got = featurize_pairs_textual([], vectorizers)
    _assert_same_csr(got, _oracle_featurize_pairs_textual([], vectorizers))
    assert got.shape == (0, vectorizers.width)


# Hand-built vocabularies a bundle could hold: terms whose prefixes are not
# terms, terms longer than the n-gram range, terms with doubled or edge
# spaces, and ranges that do not start at 1.
VOCAB_WORDS = ["ab", "cd", "ef", "gh"]


@st.composite
def hand_built_models(draw):
    ngram_range = draw(st.sampled_from([(1, 1), (1, 3), (2, 3), (1, 4)]))
    gram = st.lists(st.sampled_from(VOCAB_WORDS), min_size=1, max_size=5)
    joined = st.tuples(gram, st.sampled_from([" ", " ", " ", "  "])).map(
        lambda drawn: drawn[1].join(drawn[0])
    )
    edge = st.sampled_from(["", " "])
    edged = st.tuples(edge, st.sampled_from(VOCAB_WORDS), edge).map("".join)
    terms = draw(st.lists(joined | edged, unique=True, max_size=30))
    order = draw(st.permutations(range(len(terms))))
    idf = draw(
        st.lists(st.floats(0.0, 4.0), min_size=len(terms), max_size=len(terms))
    )
    return TfidfModel(
        term_index={term: i for term, i in zip(terms, order)},
        idf=np.array(idf, dtype=np.float64),
        ngram_range=ngram_range,
        max_features=DEFAULT_MAX_FEATURES,
    )


# "zz" is never in a term; "ab cd" is one token holding a space, so a gram
# of it can equal a term of more words than the gram has tokens.
TOKEN_DOCS = st.lists(
    st.lists(st.sampled_from(VOCAB_WORDS + ["zz", "ab cd"]), max_size=12).map(_stream),
    max_size=8,
)


@settings(max_examples=400)
@given(hand_built_models(), TOKEN_DOCS)
def test_transform_matches_oracle_for_hand_built_vocabularies(model, docs):
    # Fewer tokens than terms looks up every n-gram; more takes the walk.
    got = _transform_rows([(model, docs)])
    for row, doc in enumerate(docs):
        _assert_same_csr(got[row : row + 1], _oracle_transform(model, doc))
    assert got.shape == (len(docs), model.width)


@settings(max_examples=400)
@given(hand_built_models(), TOKEN_DOCS, st.integers(0, 3), st.integers(1, 50))
def test_walk_finds_the_keys_enumeration_finds(model, docs, first, width):
    width = max(width, model.width)
    lengths = [len(doc.tokens) for doc in docs]
    walked = _walked_keys(model, docs, lengths, first, width)
    walked = np.sort(np.concatenate([np.empty(0, np.int64), *walked]))
    enumerated = np.sort(np.array(_enumerated_keys(model, docs, first, width), np.int64))
    assert np.array_equal(walked, enumerated)


def test_prefix_gaps_are_the_proper_prefixes_that_are_not_terms():
    term_index = {"ab cd ef": 0, "ab": 1, "gh  ab": 2, " cd": 3, "ef gh": 4, "ef": 5}
    assert _prefix_gaps(term_index) == {"ab cd", "gh ", "gh", ""}


@settings(max_examples=200)
@given(
    st.lists(st.lists(st.sampled_from(VOCAB_WORDS), max_size=10), max_size=6),
    st.integers(1, 4),
    st.integers(1, 40),
)
def test_fit_vocabularies_have_no_prefix_gaps(token_lists, high, max_features):
    model = fit([_stream(t) for t in token_lists], (1, high), max_features)
    assert _prefix_gaps(model.term_index) == set()


def test_back_to_back_calls_share_no_memo():
    # A word a first call dropped as a stopword must count in a second call
    # without that stopword, and the other way round. Vectorizers fit on a few
    # candidates leave the batch more tokens than terms, so it is walked.
    corpus = synthesize_corpus(seed=23, n_issues=60, n_commits=60)
    candidates = generate_candidates(corpus, window_days=7)
    pairs = corpus.pairs(candidates)
    vectorizers = fit_vectorizers(candidates[:8], corpus, stopwords=NO_STOPWORDS)
    frequent = Counter(
        word
        for issue, _ in pairs
        for word in re.findall("[a-z0-9]{2,}", issue_text(issue).lower())
    )
    dropped = frozenset(word for word, _ in frequent.most_common(5))
    nnz = {}
    for stopwords in (NO_STOPWORDS, dropped, NO_STOPWORDS, dropped):
        got = featurize_pairs_textual(pairs, vectorizers, stopwords)
        want = _oracle_featurize_pairs_textual(pairs, vectorizers, stopwords)
        _assert_same_csr(got, want)
        assert nnz.setdefault(stopwords, got.nnz) == got.nnz
    assert nnz[dropped] < nnz[NO_STOPWORDS]
