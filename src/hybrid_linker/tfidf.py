"""From-scratch TF-IDF over token n-grams, plus the textual feature layout.

Term weight is raw count times smoothed idf, idf(t) = ln((1+N)/(1+df(t))) + 1,
and each document vector is L2-normalized. A candidate's textual features
are three independently fitted blocks laid side by side: issue text, commit
message, and diff code terms.

The transform counts each n-gram, its tokens joined by single spaces, whose
length lies in the model's range and which is a key of term_index. A block
of documents holding more tokens than the model has terms is walked: from
every start the gram grows one token at a time, and grows on only while it
is a term or a prefix gap, a proper prefix of some term (cut just before a
space) that is no term itself. Every longer gram from that start begins with
the gram and a space, so a gram that is neither begins no term, and the walk
drops nothing ngrams would count: the counts equal those of looking up all
n-grams, for any vocabulary and any tokens, not only those fit builds. A
vocabulary fit keeps with a range starting at 1 has no prefix gaps, since a
term's prefix occurs at least as often as the term and sorts before it.
Smaller blocks look up all n-grams: the walk has a fixed cost, mostly the
pass over every term that finds the gaps, which a small block does not earn
back (see _transform_rows).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ._csr import Csr
from .corpus import Corpus
from .linkgen import LinkCandidate
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


def _prefix_gaps(term_index: dict[str, int]) -> set[str]:
    """Every proper prefix of a term, cut just before one of its spaces, that
    is not a term itself.

    An n-gram that is neither a term nor one of these starts no longer term.
    For a vocabulary fit keeps with a range starting at 1 the set is empty:
    a term's prefix occurs at least as often as the term and sorts before it.
    """
    gaps: set[str] = set()
    for term in term_index:
        head, space, _ = term.rpartition(" ")
        while space and head not in term_index and head not in gaps:
            gaps.add(head)
            head, space, _ = head.rpartition(" ")
    return gaps


def _enumerated_keys(
    model: TfidfModel, documents: list[TokenStream], first: int, width: int
) -> list[int]:
    """The key of every n-gram of the documents that is a term of the model,
    found by looking up all their n-grams.

    A key is first + i * width + column for the i-th document.
    """
    low, high = model.ngram_range
    get = model.term_index.get
    keys: list[int] = []
    for row, doc in enumerate(documents):
        tokens = doc.tokens
        grams = list(tokens) if low == 1 else []
        for n in range(max(low, 2), min(high, len(tokens)) + 1):
            grams += map(" ".join, zip(*[tokens[k:] for k in range(n)]))
        base = first + row * width
        keys += [base + i for i in map(get, grams) if i is not None]
    return keys


def _walked_keys(
    model: TfidfModel,
    documents: list[TokenStream],
    lengths: list[int],
    first: int,
    width: int,
) -> list[np.ndarray]:
    """The keys _enumerated_keys gives, found by a walk that joins and looks
    up only the n-grams that can still become a term.

    The walk grows each start's gram one token at a time, level by level
    over all documents at once, and extends a gram only while it is a term
    or a prefix gap.
    """
    low, high = model.ngram_range
    term_index = model.term_index
    get = term_index.get
    gaps = _prefix_gaps(term_index)
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
        index = np.fromiter(map(get, grams, repeat(-1)), np.int64, len(grams))
        hit = index >= 0
        if n >= low:
            keys.append(base[starts[hit]] + index[hit])
        if n == high:
            break
        live = hit
        if gaps:
            live = live | np.fromiter(map(gaps.__contains__, grams), bool, len(grams))
        live &= starts + n < end[starts]
        starts = starts[live]
        if not len(starts):
            break
        grams = grams[live] + spaced[starts + n]
    return keys


def _transform_rows(blocks: list[tuple[TfidfModel, list[TokenStream]]]) -> Csr:
    """Every block's document vectors as the rows of one matrix.

    Each block is a model and its documents. Rows run over the documents of
    each block in turn, and the blocks' columns lie side by side in the same
    order. A key row * width + column marks each n-gram that is a term.

    A block holding more tokens than its model has terms is walked; a
    smaller one has all its n-grams looked up. Timed per block
    (BENCH_featurize.json, "fork"), looking up costs about 0.84 us per token
    and the walk 0.29 us per token plus 48 us and 0.14 us per term, so they
    break even at 0.4 tokens per term for a 550-term model and at 1.1 for a
    100-term one. On every block the benchmark's calls make, this cut picks
    what that fitted break-even picks; walking every block would cost 17
    times as much on a lone pair's blocks and 1.2 to 1.35 times as much on
    those of training and evaluation.

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
        low, high = model.ngram_range
        if low < 1 or high < low:
            raise ValueError(f"bad ngram range {model.ngram_range!r}")
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
    # blocks laid end to end; every third row boundary then ends a pair. A
    # lone pair's three rows already lie in that order, and skipping the
    # gather saves about a quarter of a one-pair call (BENCH_featurize.json).
    n_pairs = len(segments) // 3
    if n_pairs != 1:
        n_issues, n_commits = len(issue_docs), len(message_docs)
        segments = np.array(segments, dtype=np.int64).reshape(-1, 3)
        segments += np.array((0, n_issues, n_issues + n_commits))
        rows = rows[segments.ravel()]
    return Csr.from_arrays(
        rows.data, rows.indices, rows.indptr[::3], (n_pairs, vectorizers.width)
    )
