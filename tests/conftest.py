"""Shared factories for hand-built corpora used across the test modules."""

from __future__ import annotations

import hashlib

from hypothesis import settings

from hybrid_linker.corpus import Commit, Corpus, Issue
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
