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

from ._csr import Csr
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


def _transform_rows(blocks: list[tuple[TfidfModel, list[TokenStream]]]) -> Csr:
    """Every block's document vectors as the rows of one matrix.

    Each block is a model and its documents. Rows run over the documents of
    each block in turn, and the blocks' columns lie side by side in the same
    order. Python looks up each document's n-grams; counting, weighting and
    normalizing then run over all rows at once. A row's norm is a 1-D sum of
    its squares, summed in the order a lone document's would be:
    np.add.reduceat sums in another order and moves bits.
    """
    n_cols = sum(model.width for model, _ in blocks)
    width = max(1, n_cols)
    keys: list[int] = []
    n_rows = offset = 0
    for model, documents in blocks:
        get = model.term_index.get
        for doc in documents:
            # One key per n-gram in the vocabulary: row * width + column.
            base = n_rows * width + offset
            grams = ngrams(doc.tokens, model.ngram_range)
            keys += [base + i for i in map(get, grams) if i is not None]
            n_rows += 1
        offset += model.width
    # Sorted keys run in row, then column order; each run is one entry.
    keys = np.array(keys, dtype=np.int64)
    keys.sort()
    n = len(keys)
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:n])
    runs = np.flatnonzero(edge)
    rows, cols = np.divmod(keys[runs[:-1]], width)
    counts = runs[1:] - runs[:-1]
    values = counts * np.concatenate([model.idf for model, _ in blocks])[cols]
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    squares = values * values
    bounds = indptr.tolist()
    row_sum = np.add.reduce  # what ndarray.sum runs, minus its wrapper
    norms = np.sqrt(
        [row_sum(squares[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    )
    scale = norms[rows]
    np.divide(values, scale, out=values, where=scale > 0.0)
    return Csr.from_arrays(values, cols, indptr, (n_rows, n_cols))


@dataclass(frozen=True)
class TextualVectorizers:
    """The issue, message and code TF-IDF models; a pair row joins their blocks."""

    issue: TfidfModel
    message: TfidfModel
    code: TfidfModel

    @property
    def width(self) -> int:
        return self.issue.width + self.message.width + self.code.width


def _documents(pairs, stopwords: frozenset[str] | None):
    """The documents of each distinct issue and commit, in first-seen order.

    Returns the issue, message and code document lists, and per pair its
    issue's row in the first list and its commit's row in the other two,
    flattened into one list.
    """
    issue_rows: dict[str, int] = {}
    commit_rows: dict[str, int] = {}
    issue_docs: list[TokenStream] = []
    message_docs: list[TokenStream] = []
    code_docs: list[TokenStream] = []
    segments: list[int] = []
    for issue, commit in pairs:
        issue_row = issue_rows.get(issue.issue_id)
        if issue_row is None:
            issue_row = issue_rows[issue.issue_id] = len(issue_docs)
            issue_docs.append(issue_doc(issue, stopwords))
        commit_row = commit_rows.get(commit.commit_hash)
        if commit_row is None:
            commit_row = commit_rows[commit.commit_hash] = len(message_docs)
            message_docs.append(message_doc(commit, stopwords))
            code_docs.append(code_doc(commit))
        segments += (issue_row, commit_row, commit_row)
    return (issue_docs, message_docs, code_docs), segments


def fit_vectorizers(
    candidates: list[LinkCandidate],
    corpus: Corpus,
    stopwords: frozenset[str] | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> TextualVectorizers:
    """Fit the three textual models on the unique documents the candidates touch."""
    blocks, _ = _documents(
        ((corpus.issue(c.issue_id), corpus.commit(c.commit_hash)) for c in candidates),
        stopwords,
    )
    return TextualVectorizers(
        *(fit(documents, max_features=max_features) for documents in blocks)
    )


def featurize_pairs_textual(
    pairs,
    vectorizers: TextualVectorizers,
    stopwords: frozenset[str] | None = None,
) -> Csr:
    """Vectorize (issue, commit) pairs into rows of three concatenated blocks.

    Each distinct issue and commit is preprocessed once, in first-seen
    order, and all three blocks' documents are transformed in one pass; a
    pair's row is then its issue's row of the first block followed by its
    commit's rows of the other two.
    """
    (issue_docs, message_docs, code_docs), segments = _documents(pairs, stopwords)
    rows = _transform_rows(
        [
            (vectorizers.issue, issue_docs),
            (vectorizers.message, message_docs),
            (vectorizers.code, code_docs),
        ]
    )
    # Take each pair's three row segments, in order, from the rows of all
    # blocks laid end to end; every third row boundary then ends a pair.
    n_issues, n_commits = len(issue_docs), len(message_docs)
    segments = np.array(segments, dtype=np.int64).reshape(-1, 3)
    segments += np.array((0, n_issues, n_issues + n_commits))
    taken = rows[segments.ravel()]
    return Csr.from_arrays(
        taken.data,
        taken.indices,
        taken.indptr[::3],
        (len(segments), vectorizers.width),
    )
