"""Non-textual candidate features: dates, day gaps, categories, identities.

Dates enter as fractional epoch-days. Raw status and type labels reduce to
three classes each through a shipped mapping file. Identity columns one-hot
the most frequent hashes and bucket the rest as OTHER. Near-constant or
mostly-missing inputs are dropped at fit time and the encoder remembers the
decision, so transform never has to guess.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import HybridLinkerError
from .corpus import SECONDS_PER_DAY, Issue
from .linkgen import tsv_lines

STATUS_CLASSES = ("open", "closed", "resolved")
TYPE_CLASSES = ("task", "new_feature", "bug")
DEFAULT_STATUS = "open"
DEFAULT_TYPE = "task"

DEFAULT_IDENTITY_TOP_K = 50
DEFAULT_MISSING_THRESHOLD = 0.5
REDUNDANCY_CUTOFF = 0.99

OTHER = "OTHER"


class CategoryMapError(HybridLinkerError):
    """The status/type mapping file is malformed."""


def load_category_maps(
    path: str | Path | None = None,
) -> tuple[dict[str, str], dict[str, str]]:
    """Read the raw-label mapping file into (status_map, type_map).

    Rows are raw_label<TAB>reduced_class; the reduced class decides whether
    a row belongs to the status or the type map. Raw labels are matched
    case-insensitively.
    """
    if path is None:
        text = resources.files("hybrid_linker.data").joinpath(
            "category_map.tsv"
        ).read_text(encoding="utf-8")
        source = "<packaged category_map.tsv>"
        lines = enumerate(text.split("\n"), start=1)
    else:
        source = str(path)
        lines = tsv_lines(path, CategoryMapError)
    status_map: dict[str, str] = {}
    type_map: dict[str, str] = {}
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise CategoryMapError(
                f"{source}:{lineno}: expected raw_label<TAB>reduced_class"
            )
        raw, reduced = fields[0].strip(), fields[1].strip()
        key = raw.casefold()
        if reduced in STATUS_CLASSES:
            status_map[key] = reduced
        elif reduced in TYPE_CLASSES:
            type_map[key] = reduced
        else:
            raise CategoryMapError(
                f"{source}:{lineno}: unknown reduced class {reduced!r}"
            )
    return status_map, type_map


def _identity_redundancy(issues) -> dict[str, float]:
    issues = list(issues)
    if not issues:
        return {"reporter_creator_equality": 0.0}
    equal = sum(1 for issue in issues if issue.reporter == issue.creator)
    return {"reporter_creator_equality": equal / len(issues)}


def _top_identities(counts: Counter, top_k: int) -> tuple[str, ...]:
    ordered = sorted(counts, key=lambda ident: (-counts[ident], ident))
    return tuple(ordered[:top_k])


@dataclass(frozen=True)
class TabularEncoder:
    status_map: dict[str, str]
    type_map: dict[str, str]
    identity_vocabs: dict[str, tuple[str, ...]]
    include_reporter: bool
    include_resolved: bool
    gap_features: bool
    identity_top_k: int
    redundancy: dict[str, float]
    unmapped_status: dict[str, int]
    unmapped_type: dict[str, int]
    # The column layout, derived here once: feature names and the first
    # column of each block (identity blocks per column, in layout order).
    feature_names: tuple[str, ...] = field(init=False, compare=False)
    resolved_at: int = field(init=False, compare=False)
    gaps_at: int = field(init=False, compare=False)
    status_at: int = field(init=False, compare=False)
    type_at: int = field(init=False, compare=False)
    identity_at: dict[str, int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        columns = ["creator", "author", "committer"]
        if self.include_reporter:
            columns.append("reporter")
        if sorted(self.identity_vocabs) != sorted(columns):
            raise ValueError(
                f"identity columns {sorted(self.identity_vocabs)} "
                f"do not match {sorted(columns)}"
            )
        for mapping, classes in (
            (self.status_map, STATUS_CLASSES),
            (self.type_map, TYPE_CLASSES),
        ):
            unknown = sorted(set(mapping.values()) - set(classes))
            if unknown:
                raise ValueError(f"labels map to {unknown}, not one of {classes}")

        names = ["author_time_day", "commit_time_day", "created_day", "updated_day"]

        def start(block: str) -> None:
            object.__setattr__(self, block, len(names))

        start("resolved_at")
        if self.include_resolved:
            names += ["resolved_day", "resolved_present"]
        start("gaps_at")
        if self.gap_features:
            issue_dates = ["created", "updated"]
            if self.include_resolved:
                issue_dates.append("resolved")
            for commit_date in ("author_time", "commit_time"):
                for issue_date in issue_dates:
                    names.append(f"gap_{commit_date}_{issue_date}")
        start("status_at")
        names += [f"status={cls}" for cls in STATUS_CLASSES]
        start("type_at")
        names += [f"type={cls}" for cls in TYPE_CLASSES]
        identity_at = {}
        for column in columns:
            identity_at[column] = len(names)
            for ident in self.identity_vocabs[column]:
                names.append(f"{column}={ident}")
            names.append(f"{column}={OTHER}")
        object.__setattr__(self, "identity_at", identity_at)
        object.__setattr__(self, "feature_names", tuple(names))

    @property
    def width(self) -> int:
        return len(self.feature_names)


def fit_encoder(
    pairs,
    *,
    category_map_path: str | Path | None = None,
    identity_top_k: int = DEFAULT_IDENTITY_TOP_K,
    gap_features: bool = True,
    missing_threshold: float = DEFAULT_MISSING_THRESHOLD,
) -> TabularEncoder:
    """Learn the tabular layout from training (issue, commit) pairs.

    The resolved date column (and its gaps) is dropped when more than
    missing_threshold of the fit rows lack it; the reporter column is
    dropped when it nearly always equals creator across the fit issues.
    """
    if not pairs:
        raise ValueError("cannot fit an encoder on zero pairs")
    status_map, type_map = load_category_maps(category_map_path)

    missing = 0
    fit_issues: dict[str, object] = {}
    creator_counts: Counter = Counter()
    reporter_counts: Counter = Counter()
    author_counts: Counter = Counter()
    committer_counts: Counter = Counter()
    unmapped_status: Counter = Counter()
    unmapped_type: Counter = Counter()
    for issue, commit in pairs:
        fit_issues.setdefault(issue.issue_id, issue)
        if issue.resolved_date is None:
            missing += 1
        creator_counts[issue.creator] += 1
        reporter_counts[issue.reporter] += 1
        author_counts[commit.author] += 1
        committer_counts[commit.committer] += 1
        if issue.raw_status.casefold() not in status_map:
            unmapped_status[issue.raw_status] += 1
        if issue.raw_type.casefold() not in type_map:
            unmapped_type[issue.raw_type] += 1

    redundancy = _identity_redundancy(fit_issues.values())
    include_reporter = redundancy["reporter_creator_equality"] < REDUNDANCY_CUTOFF
    include_resolved = (missing / len(pairs)) <= missing_threshold
    identity_vocabs = {
        "creator": _top_identities(creator_counts, identity_top_k),
        "author": _top_identities(author_counts, identity_top_k),
        "committer": _top_identities(committer_counts, identity_top_k),
    }
    if include_reporter:
        identity_vocabs["reporter"] = _top_identities(reporter_counts, identity_top_k)
    return TabularEncoder(
        status_map=status_map,
        type_map=type_map,
        identity_vocabs=identity_vocabs,
        include_reporter=include_reporter,
        include_resolved=include_resolved,
        gap_features=gap_features,
        identity_top_k=identity_top_k,
        redundancy=redundancy,
        unmapped_status=dict(unmapped_status),
        unmapped_type=dict(unmapped_type),
    )


def _epoch_days(records, name: str) -> np.ndarray:
    seconds = np.array(list(map(attrgetter(name), records)), dtype=np.float64)
    return seconds / float(SECONDS_PER_DAY)


def reduce_status(encoder: TabularEncoder, issue: Issue) -> str:
    return encoder.status_map.get(issue.raw_status.casefold(), DEFAULT_STATUS)


def reduce_type(encoder: TabularEncoder, issue: Issue) -> str:
    return encoder.type_map.get(issue.raw_type.casefold(), DEFAULT_TYPE)


def featurize_pairs_tabular(pairs, encoder: TabularEncoder) -> np.ndarray:
    """Encode (issue, commit) pairs as a dense (n, width) float matrix.

    Each attribute is gathered across the pairs once and fills whole columns.
    """
    pairs = list(pairs)
    issues = [issue for issue, _ in pairs]
    commits = [commit for _, commit in pairs]
    n = len(issues)
    out = np.zeros((n, encoder.width), dtype=np.float64)
    rows = np.arange(n)

    author_day = _epoch_days(commits, "author_time_date")
    commit_day = _epoch_days(commits, "commit_time_date")
    created_day = _epoch_days(issues, "created_date")
    updated_day = _epoch_days(issues, "updated_date")
    out[:, 0] = author_day
    out[:, 1] = commit_day
    out[:, 2] = created_day
    out[:, 3] = updated_day
    resolved = [issue.resolved_date for issue in issues]
    missing = np.array([date is None for date in resolved], dtype=bool)
    resolved_day = np.array(
        [0 if date is None else date for date in resolved], dtype=np.float64
    ) / float(SECONDS_PER_DAY)
    if encoder.include_resolved:
        out[:, encoder.resolved_at] = resolved_day
        out[:, encoder.resolved_at + 1] = ~missing
    if encoder.gap_features:
        issue_days = [created_day, updated_day]
        if encoder.include_resolved:
            issue_days.append(resolved_day)
        # gaps[c, i] is the gap between commit date c and issue date i.
        commit_days = np.stack([author_day, commit_day])
        gaps = np.abs(commit_days[:, None] - np.stack(issue_days))
        if encoder.include_resolved:
            # Gap stays 0 when resolved is absent; the presence flag is
            # there for the model to tell the two cases apart.
            gaps[:, 2, missing] = 0.0
        n_gaps = 2 * len(issue_days)
        out[:, encoder.gaps_at : encoder.gaps_at + n_gaps] = gaps.reshape(n_gaps, n).T

    at = [STATUS_CLASSES.index(reduce_status(encoder, issue)) for issue in issues]
    out[rows, encoder.status_at + np.array(at, dtype=np.intp)] = 1.0
    at = [TYPE_CLASSES.index(reduce_type(encoder, issue)) for issue in issues]
    out[rows, encoder.type_at + np.array(at, dtype=np.intp)] = 1.0
    for column, start in encoder.identity_at.items():
        vocab = encoder.identity_vocabs[column]
        index = {ident: i for i, ident in enumerate(vocab)}
        records = commits if column in ("author", "committer") else issues
        idents = map(attrgetter(column), records)
        at = [index.get(ident, len(vocab)) for ident in idents]
        out[rows, start + np.array(at, dtype=np.intp)] = 1.0
    return out
