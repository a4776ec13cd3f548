"""From-scratch TF-IDF over token n-grams, plus the textual feature layout.

Term weight is raw count times smoothed idf, idf(t) = ln((1+N)/(1+df(t))) + 1,
and each document vector is L2-normalized. A pair's textual features are
three independently fitted blocks laid side by side: issue text, commit
message, and diff code terms. fit_vectorizers and featurize_pairs_textual
both take (issue, commit) pairs and tokenize each distinct issue and commit
once per call; ngrams is the one enumeration of a document's n-grams.

A TfidfModel's terms obey one rule, checked when it is built: a term is k
words joined by single spaces, each word non-empty and free of whitespace,
with k in the n-gram range, and a term of more words than the range's low
end, minus its last word, is a term too. fit's vocabularies obey it, as a
term's prefix occurs at least as often as the term and sorts before it.

The transform counts each n-gram, its tokens joined by single spaces, that
is a term. A block of documents holding more tokens than the model has terms
is walked: from every start the gram grows one token at a time while it is
a term or has fewer tokens than the range's low end. A gram of n >= low
tokens has at least n words, so under the rule it is a term whenever a
longer gram from its start is one: the walk counts what looking up all
n-grams counts, for any tokens. Smaller blocks look up all n-grams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from ._csr import Csr
from .textprep import (
    CodeTerms,
    NaturalWords,
    TokenStream,
    code_doc,
    issue_doc,
    message_doc,
)

DEFAULT_NGRAM_RANGE = (1, 3)
DEFAULT_MAX_FEATURES = 10000


def ngrams(tokens: tuple[str, ...], ngram_range: tuple[int, int]) -> list[str]:
    """All n-grams for n in the inclusive range, joined with single spaces."""
    low, high = ngram_range
    count = len(tokens)
    # No n-gram is longer than the document, however high the range ends.
    return [
        " ".join(tokens[start : start + n])
        for n in range(low, min(high, count) + 1)
        for start in range(count - n + 1)
    ]


@dataclass(frozen=True)
class TfidfModel:
    """A vocabulary in column order, with its idf weights. Raises ValueError,
    as "<field>: <problem>", unless 1 <= low <= high, 1 <= max_features >=
    the number of terms, and the terms are unique and obey the module's rule."""

    terms: tuple[str, ...]
    idf: np.ndarray
    ngram_range: tuple[int, int]
    max_features: int
    term_index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        low, high = self.ngram_range
        if not 1 <= low <= high:
            raise ValueError(f"ngram_range: [{low}, {high}] breaks 1 <= low <= high")
        if not 1 <= self.max_features >= self.width:
            raise ValueError(
                f"max_features: {self.max_features} is less than 1 or than the "
                f"{self.width} terms"
            )
        term_index = dict(zip(self.terms, range(self.width)))
        object.__setattr__(self, "term_index", term_index)
        for at, term in enumerate(self.terms):
            words = term.split(" ")
            if term_index[term] != at:
                problem = f"at both {at} and {term_index[term]}"
            elif words != term.split():
                problem = f"at {at} is not words joined by single spaces"
            elif not low <= len(words) <= high:
                problem = f"at {at} has {len(words)} words, not {low} to {high}"
            elif len(words) > low and term.rpartition(" ")[0] not in term_index:
                problem = f"at {at} lacks its prefix {term.rpartition(' ')[0]!r}"
            else:
                continue
            raise ValueError(f"terms: {term!r} {problem}")

    @property
    def width(self) -> int:
        return len(self.terms)


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
    n_docs = len(documents)
    idf = np.array(
        [np.log((1.0 + n_docs) / (1.0 + document_frequency[t])) + 1.0 for t in terms],
        dtype=np.float64,
    )
    return TfidfModel(
        terms=tuple(terms),
        idf=idf,
        ngram_range=ngram_range,
        max_features=max_features,
    )


def _enumerated_keys(
    model: TfidfModel, documents: list[TokenStream], first: int, width: int
) -> list[int]:
    """The key of every n-gram of the documents that is a term of the model,
    found by looking up all their n-grams.

    A key is first + i * width + column for the i-th document.
    """
    get = model.term_index.get
    keys: list[int] = []
    for row, doc in enumerate(documents):
        base = first + row * width
        grams = ngrams(doc.tokens, model.ngram_range)
        keys += [base + i for i in map(get, grams) if i is not None]
    return keys


def _walked_keys(
    model: TfidfModel,
    documents: list[TokenStream],
    lengths: list[int],
    first: int,
    width: int,
) -> list[np.ndarray]:
    """The keys _enumerated_keys gives, found by the walk the module
    docstring describes, level by level over all documents at once."""
    low, high = model.ngram_range
    get = model.term_index.get
    tokens = np.fromiter(chain.from_iterable(doc.tokens for doc in documents), object)
    lengths = np.array(lengths, dtype=np.int64)
    # Per token position: its row's key base and its document's end.
    base = np.repeat(first + width * np.arange(len(documents)), lengths)
    end = np.repeat(np.cumsum(lengths), lengths)
    spaced = " " + tokens
    starts = np.arange(len(tokens))
    grams = tokens
    keys = []
    for n in range(1, high + 1):
        live = starts + n < end[starts]
        if n >= low:
            index = np.fromiter(map(get, grams, repeat(-1)), np.int64, len(grams))
            hit = index >= 0
            keys.append(base[starts[hit]] + index[hit])
            live &= hit
        starts = starts[live]
        if n == high or not len(starts):
            break
        grams = grams[live] + spaced[starts + n]
    return keys


def _transform_rows(blocks: list[tuple[TfidfModel, list[TokenStream]]]) -> Csr:
    """Every block's document vectors as the rows of one matrix.

    Each block is a model and its documents. Rows run over the documents of
    each block in turn, and the blocks' columns lie side by side in the same
    order. A key row * width + column marks each n-gram that is a term.

    A block holding more tokens than its model has terms is walked; a
    smaller one has all its n-grams looked up. The cut was fitted when the
    walk also passed over every term (BENCH_featurize.json, "fork"). Without
    that pass, timed on a 2-CPU VM with 229- to 2,025-term models, looking
    up costs about 0.8 us per token and the walk about 0.25 us per token plus
    30 us, so the cut now looks up some blocks the walk would finish sooner.

    Counting, weighting and normalizing then run over all rows at once. A
    row's norm is a 1-D sum of its squares, summed in the order a lone
    document's would be: np.add.reduceat sums in another order and moves bits.
    """
    n_cols = sum(model.width for model, _ in blocks)
    width = max(1, n_cols)
    keys: list[int] = []
    walked: list[np.ndarray] = []
    n_rows = offset = 0
    for model, documents in blocks:
        first = n_rows * width + offset
        lengths = [len(doc.tokens) for doc in documents]
        if sum(lengths) <= model.width:
            keys += _enumerated_keys(model, documents, first, width)
        else:
            walked += _walked_keys(model, documents, lengths, first, width)
        n_rows += len(documents)
        offset += model.width
    # Sorted keys run in row, then column order; each run is one entry.
    keys = np.array(keys, dtype=np.int64)
    if walked:
        keys = np.concatenate([keys, *walked])
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
    flattened into one list. Issue and message text share one word memo,
    and diffs one code-term memo; both end with the call.
    """
    words = NaturalWords(stopwords)
    terms = CodeTerms()
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
            issue_docs.append(issue_doc(issue, words))
        commit_row = commit_rows.get(commit.commit_hash)
        if commit_row is None:
            commit_row = commit_rows[commit.commit_hash] = len(message_docs)
            message_docs.append(message_doc(commit, words))
            code_docs.append(code_doc(commit, terms))
        segments += (issue_row, commit_row, commit_row)
    return (issue_docs, message_docs, code_docs), segments


def fit_vectorizers(
    pairs,
    stopwords: frozenset[str] | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> TextualVectorizers:
    """Fit the three textual models on the distinct documents of the pairs."""
    blocks, _ = _documents(pairs, stopwords)
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
    rows = rows[segments.ravel()]
    return Csr.from_arrays(
        rows.data, rows.indices, rows.indptr[::3], (len(segments), vectorizers.width)
    )
