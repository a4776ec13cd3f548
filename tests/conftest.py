"""Shared factories for hand-built corpora used across the test modules, and
the regex tokenizers that NaturalWords and CodeTerms must match."""

from __future__ import annotations

import hashlib
import re

from hypothesis import settings

from hybrid_linker import porter
from hybrid_linker.corpus import Commit, Corpus, Issue
from hybrid_linker.textprep import CODE_TERM_PATTERNS, TokenStream, load_stopwords
from hybrid_linker.tfidf import (
    DEFAULT_MAX_FEATURES,
    DEFAULT_NGRAM_RANGE,
    _transform_rows,
    fit,
)

# Property tests draw the same examples on every run and never time out, so
# the suite stays deterministic on slow machines.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

T0 = 1_546_300_800  # 2019-01-01T00:00:00+00:00
DAY = 86_400


def make_issue(
    issue_id: str = "I-1",
    project: str = "demo",
    summary: str = "crash in parser",
    description: str = "stack trace attached",
    raw_type: str = "Bug",
    raw_status: str = "Open",
    created: int = T0,
    updated: int | None = None,
    resolved: int | None = None,
    reporter: str = "rep-1",
    creator: str = "dev-1",
) -> Issue:
    return Issue(
        issue_id=issue_id,
        project=project,
        summary=summary,
        description=description,
        raw_type=raw_type,
        raw_status=raw_status,
        created_date=created,
        updated_date=created + DAY if updated is None else updated,
        resolved_date=resolved,
        reporter=reporter,
        creator=creator,
    )


def fake_hash(tag: str) -> str:
    return hashlib.sha1(tag.encode("utf-8")).hexdigest()


def make_commit(
    tag: str = "c1",
    project: str = "demo",
    message: str = "fix parser crash",
    diff_text: str = "diff --git a/p.py b/p.py\n+ parse_input",
    author: str = "dev-1",
    committer: str = "dev-1",
    author_time: int = T0 + DAY,
    commit_time: int | None = None,
    linked: tuple[str, ...] = (),
) -> Commit:
    return Commit(
        commit_hash=fake_hash(tag),
        project=project,
        message=message,
        diff_text=diff_text,
        author=author,
        committer=committer,
        author_time_date=author_time,
        commit_time_date=author_time if commit_time is None else commit_time,
        linked_issue_ids=linked,
    )


def make_corpus(issues, commits, project: str = "demo") -> Corpus:
    return Corpus(project=project, issues=tuple(issues), commits=tuple(commits))


def fit_transform(
    documents,
    ngram_range: tuple[int, int] = DEFAULT_NGRAM_RANGE,
    max_features: int = DEFAULT_MAX_FEATURES,
):
    """A TF-IDF model fitted on documents, and their rows under it."""
    model = fit(documents, ngram_range, max_features)
    return model, _transform_rows([(model, documents)])


# The tokenizers as regular expressions, one word or token at a time: the
# oracles that NaturalWords.doc and CodeTerms.doc must match token for token.

_SPLIT_PATTERN = re.compile(r"[^a-z0-9]+")


def preprocess_natural(
    text: str, stopwords: frozenset[str] | None = None
) -> TokenStream:
    """Tokenize prose: lowercase, split, filter, stem.

    Tokens shorter than two characters are dropped both before and after
    stemming, so every surviving token matches [a-z0-9]{2,}.
    """
    if stopwords is None:
        stopwords = load_stopwords()
    tokens = []
    for raw in _SPLIT_PATTERN.split(text.lower()):
        if len(raw) < 2 or raw in stopwords:
            continue
        stemmed = porter.stem(raw)
        if len(stemmed) >= 2:
            tokens.append(stemmed)
    return TokenStream(tuple(tokens))


def extract_code_terms(diff_text: str) -> TokenStream:
    """Pull tokens fully matching any code-term pattern out of diff text, in order."""
    patterns = CODE_TERM_PATTERNS.values()
    return TokenStream(
        tuple(
            token
            for token in diff_text.split()
            if any(pattern.fullmatch(token) for pattern in patterns)
        )
    )
