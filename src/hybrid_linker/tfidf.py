"""From-scratch TF-IDF over token n-grams, plus the textual feature layout.

Term weight is raw count times smoothed idf, idf(t) = ln((1+N)/(1+df(t))) + 1,
and each document vector is L2-normalized. A candidate's textual features
are three independently fitted blocks laid side by side: issue text, commit
message, and diff code terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus
from .linkgen import LinkCandidate
from .textprep import TokenStream, code_doc, issue_doc, message_doc

DEFAULT_NGRAM_RANGE = (1, 3)
DEFAULT_MAX_FEATURES = 10000


def ngrams(tokens: tuple[str, ...], ngram_range: tuple[int, int]) -> list[str]:
    """All n-grams for n in the inclusive range, joined with single spaces."""
    low, high = ngram_range
    if low < 1 or high < low:
        raise ValueError(f"bad ngram range {ngram_range!r}")
    grams: list[str] = []
    count = len(tokens)
    for n in range(low, high + 1):
        for start in range(count - n + 1):
            grams.append(" ".join(tokens[start : start + n]))
    return grams


@dataclass(frozen=True)
class TfidfModel:
    term_index: dict[str, int]
    idf: np.ndarray
    ngram_range: tuple[int, int]
    max_features: int

    @property
    def width(self) -> int:
        return len(self.term_index)

    def terms(self) -> list[str]:
        ordered = [""] * len(self.term_index)
        for term, index in self.term_index.items():
            ordered[index] = term
        return ordered


def fit(
    documents: list[TokenStream],
    ngram_range: tuple[int, int] = DEFAULT_NGRAM_RANGE,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> TfidfModel:
    """Fit vocabulary and idf weights on a document collection.

    When the vocabulary overflows max_features, terms with the highest total
    occurrence count win; ties go to the lexicographically smaller term.
    Indices are assigned in lexicographic term order, so equal corpora give
    byte-identical models.
    """
    if max_features < 1:
        raise ValueError("max_features must be positive")
    occurrence: Counter = Counter()
    document_frequency: Counter = Counter()
    for doc in documents:
        grams = ngrams(doc.tokens, ngram_range)
        occurrence.update(grams)
        document_frequency.update(set(grams))
    terms = list(occurrence)
    if len(terms) > max_features:
        terms.sort(key=lambda t: (-occurrence[t], t))
        terms = terms[:max_features]
    terms.sort()
    term_index = {term: i for i, term in enumerate(terms)}
    n_docs = len(documents)
    idf = np.empty(len(terms), dtype=np.float64)
    for term, index in term_index.items():
        idf[index] = np.log((1.0 + n_docs) / (1.0 + document_frequency[term])) + 1.0
    return TfidfModel(
        term_index=term_index,
        idf=idf,
        ngram_range=ngram_range,
        max_features=max_features,
    )


def _transform_arrays(model: TfidfModel, doc: TokenStream):
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


def transform(model: TfidfModel, doc: TokenStream) -> sp.csr_matrix:
    """Vectorize one document as a 1 x width sparse row."""
    indices, values = _transform_arrays(model, doc)
    indptr = np.array([0, len(indices)], dtype=np.int32)
    return sp.csr_matrix((values, indices, indptr), shape=(1, model.width))


def fit_transform(
    documents: list[TokenStream],
    ngram_range: tuple[int, int] = DEFAULT_NGRAM_RANGE,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> tuple[TfidfModel, sp.csr_matrix]:
    model = fit(documents, ngram_range, max_features)
    rows = sp.vstack([transform(model, doc) for doc in documents], format="csr")
    return model, rows


@dataclass(frozen=True)
class TextualVectorizers:
    """The three per-channel TF-IDF models and their block offsets."""

    issue: TfidfModel
    message: TfidfModel
    code: TfidfModel

    @property
    def width(self) -> int:
        return self.issue.width + self.message.width + self.code.width

    @property
    def offsets(self) -> tuple[int, int, int]:
        return (0, self.issue.width, self.issue.width + self.message.width)


def fit_vectorizers(
    candidates: list[LinkCandidate],
    corpus: Corpus,
    stopwords: frozenset[str] | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> TextualVectorizers:
    """Fit the three textual models on the unique documents the candidates touch."""
    issue_ids: list[str] = []
    commit_hashes: list[str] = []
    seen_issues: set[str] = set()
    seen_commits: set[str] = set()
    for cand in candidates:
        if cand.issue_id not in seen_issues:
            seen_issues.add(cand.issue_id)
            issue_ids.append(cand.issue_id)
        if cand.commit_hash not in seen_commits:
            seen_commits.add(cand.commit_hash)
            commit_hashes.append(cand.commit_hash)
    issue_docs = [issue_doc(corpus.issue(i), stopwords) for i in issue_ids]
    message_docs = [message_doc(corpus.commit(h), stopwords) for h in commit_hashes]
    code_docs = [code_doc(corpus.commit(h)) for h in commit_hashes]
    return TextualVectorizers(
        issue=fit(issue_docs, max_features=max_features),
        message=fit(message_docs, max_features=max_features),
        code=fit(code_docs, max_features=max_features),
    )


def featurize_pairs_textual(
    pairs,
    vectorizers: TextualVectorizers,
    stopwords: frozenset[str] | None = None,
) -> sp.csr_matrix:
    """Vectorize (issue, commit) pairs into rows of three concatenated blocks.

    Per-document transforms are cached by record id, so repeated issues and
    commits cost one transform each.
    """
    issue_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    commit_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    _, message_offset, code_offset = vectorizers.offsets
    indptr = [0]
    all_indices: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    count = 0
    for issue, commit in pairs:
        count += 1
        if issue.issue_id not in issue_cache:
            doc = issue_doc(issue, stopwords)
            issue_cache[issue.issue_id] = _transform_arrays(vectorizers.issue, doc)
        if commit.commit_hash not in commit_cache:
            msg_idx, msg_val = _transform_arrays(
                vectorizers.message, message_doc(commit, stopwords)
            )
            code_idx, code_val = _transform_arrays(vectorizers.code, code_doc(commit))
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

