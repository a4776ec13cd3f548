"""Labeled link-candidate generation, balancing, and TSV persistence.

True candidates are the developer-recorded links. False candidates pair an
already-linked commit with every other issue whose dates fall within a
time window of the commit dates; restricting the false side to linked
commits keeps their date distributions comparable.

The window is answered from a date index built once per call: every issue
date (created, updated and, when present, resolved) in sorted order, each
with its issue's corpus position. Each commit date bisects the inclusive range
``[date - window, date + window]`` and the hit positions are emitted in
ascending order, so the output keeps corpus order. This costs
O(I log I + C log I + output) for I issues and C linked commits instead of
testing every commit-issue pair.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from . import HybridLinkerError
from .corpus import SECONDS_PER_DAY, Corpus, Issue, _locate_decode_error


class CandidateFileError(HybridLinkerError):
    """A candidate TSV file could not be parsed."""


@dataclass(frozen=True)
class LinkCandidate:
    issue_id: str
    commit_hash: str
    label: int  # 1 true link, 0 generated non-link
    provenance: str  # "linked" or "window"

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


def _issue_dates(issue: Issue) -> tuple[int, ...]:
    dates = [issue.created_date, issue.updated_date]
    if issue.resolved_date is not None:
        dates.append(issue.resolved_date)
    return tuple(dates)


def _candidate(
    issue_id: str, commit_hash: str, label: int, provenance: str
) -> LinkCandidate:
    """A LinkCandidate built without __init__, for a label known to be 0 or 1."""
    candidate = object.__new__(LinkCandidate)
    fields = vars(candidate)
    fields["issue_id"] = issue_id
    fields["commit_hash"] = commit_hash
    fields["label"] = label
    fields["provenance"] = provenance
    return candidate


def generate_candidates(
    corpus: Corpus, window_days: int | None = 7
) -> list[LinkCandidate]:
    """Enumerate labeled candidates in deterministic corpus order.

    For every commit each recorded link becomes a true candidate; for every
    linked commit each other in-window issue becomes a false candidate.
    """
    issues = corpus.issues
    if window_days is not None:
        limit = window_days * SECONDS_PER_DAY
        dates: list[int] = []
        owners: list[int] = []
        for position, issue in enumerate(issues):
            for date in _issue_dates(issue):
                dates.append(date)
                owners.append(position)
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = [dates[i] for i in order]
        owners = [owners[i] for i in order]
    candidates: list[LinkCandidate] = []
    append = candidates.append
    for commit in corpus.commits:
        linked_ids = commit.linked_issue_ids
        if not linked_ids:
            continue
        commit_hash = commit.commit_hash
        for issue_id in linked_ids:
            corpus.issue(issue_id)  # validated, but keep lookups honest
            append(_candidate(issue_id, commit_hash, 1, "linked"))
        if window_days is None:
            positions = range(len(issues))
        else:
            hits: set[int] = set()
            for commit_date in (commit.author_time_date, commit.commit_time_date):
                lo = bisect_left(dates, commit_date - limit)
                hi = bisect_right(dates, commit_date + limit)
                hits.update(owners[lo:hi])
            positions = sorted(hits)
        linked = set(linked_ids)
        for position in positions:
            issue_id = issues[position].issue_id
            if issue_id not in linked:
                append(_candidate(issue_id, commit_hash, 0, "window"))
    return candidates


@dataclass(frozen=True)
class BalanceResult:
    candidates: tuple[LinkCandidate, ...]
    n_true: int
    n_false_available: int
    n_false_sampled: int
    deficit: bool  # fewer false candidates than true ones were available


def balance_candidates(
    candidates: list[LinkCandidate], seed: int
) -> BalanceResult:
    """Keep all true candidates plus an equal-size uniform sample of false ones.

    When the false pool is smaller than the true set, everything is kept and
    the deficit flag is raised. The combined list is shuffled with the same
    seeded generator, so the output order is reproducible.
    """
    true_part = [c for c in candidates if c.label == 1]
    false_pool = [c for c in candidates if c.label == 0]
    rng = random.Random(seed)
    take = min(len(true_part), len(false_pool))
    sampled = rng.sample(false_pool, take)
    combined = true_part + sampled
    rng.shuffle(combined)
    return BalanceResult(
        candidates=tuple(combined),
        n_true=len(true_part),
        n_false_available=len(false_pool),
        n_false_sampled=take,
        deficit=len(false_pool) < len(true_part),
    )


_HEADER = "issue_id\tcommit_hash\tlabel\tprovenance"


def write_candidates(path: str | Path, candidates: list[LinkCandidate]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_HEADER + "\n")
        for cand in candidates:
            handle.write(
                f"{cand.issue_id}\t{cand.commit_hash}\t{cand.label}\t{cand.provenance}\n"
            )


def tsv_lines(path: str | Path, error: type[Exception]):
    """Yield (line number, line) for each line of a UTF-8 text file.

    A byte order mark at the start of the file is skipped. Lines end at a
    line feed only, and one carriage return just before it is dropped. A
    stray carriage return stays inside its line, so line numbers count the
    same line feeds as the invalid-UTF-8 report, raised as error.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as handle:
            for lineno, line in enumerate(handle, start=1):
                yield lineno, line.removesuffix("\n").removesuffix("\r")
    except UnicodeDecodeError:
        raise error(_locate_decode_error(path)) from None


def read_candidates(
    path: str | Path, corpus: Corpus | None = None
) -> list[LinkCandidate]:
    """The candidates of a TSV file; given a corpus, each must name its records."""
    path = Path(path)
    candidates: list[LinkCandidate] = []
    first_seen: dict[tuple[str, str], int] = {}
    for lineno, line in tsv_lines(path, CandidateFileError):
        if not line or (lineno == 1 and line == _HEADER):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CandidateFileError(
                f"{path}:{lineno}: expected 4 tab-separated fields, "
                f"got {len(fields)}"
            )
        issue_id, commit_hash, label_text, provenance = fields
        if label_text not in ("0", "1"):
            raise CandidateFileError(
                f"{path}:{lineno}: label must be 0 or 1, got {label_text!r}"
            )
        pair = (issue_id, commit_hash)
        if pair in first_seen:
            raise CandidateFileError(
                f"{path}:{lineno}: duplicate candidate {issue_id!r} "
                f"{commit_hash!r} (first seen on line {first_seen[pair]})"
            )
        first_seen[pair] = lineno
        if corpus is not None:
            try:
                corpus.issue(issue_id)
                corpus.commit(commit_hash)
            except KeyError as exc:
                raise CandidateFileError(f"{path}:{lineno}: {exc.args[0]}") from None
        candidates.append(
            LinkCandidate(
                issue_id=issue_id,
                commit_hash=commit_hash,
                label=int(label_text),
                provenance=provenance,
            )
        )
    return candidates
