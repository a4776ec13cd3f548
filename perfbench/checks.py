"""Output checks that do not trust the package: digests, TSV parsing, brute force."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime
from pathlib import Path

SECONDS_PER_DAY = 86400
# The CLI's default false-candidate window.
WINDOW_DAYS = 7


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_tree(directory) -> str:
    """One digest over every file under directory, names included."""
    digest = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def read_tsv(path) -> list[list[str]]:
    """Rows of a TSV file without its header line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:] if line]


def write_tsv(path, header: str, rows) -> None:
    text = header + "\n" + "".join("\t".join(row) + "\n" for row in rows)
    Path(path).write_text(text, encoding="utf-8")


def _epoch(text: str) -> int:
    return int(datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp())


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def window_false_candidates(issues: list[dict], commit: dict) -> list[str]:
    """Issue ids, in corpus order, that gen-links must pair with a linked commit.

    Any commit date within WINDOW_DAYS of any issue date (inclusive), other
    than the commit's own linked issues.
    """
    limit = WINDOW_DAYS * SECONDS_PER_DAY
    commit_dates = [_epoch(commit["author_time_date"]), _epoch(commit["commit_time_date"])]
    linked = set(commit["linked_issue_ids"])
    found = []
    for issue in issues:
        if issue["issue_id"] in linked:
            continue
        issue_dates = [_epoch(issue["created_date"]), _epoch(issue["updated_date"])]
        if issue.get("resolved_date"):
            issue_dates.append(_epoch(issue["resolved_date"]))
        if any(abs(c - i) <= limit for c in commit_dates for i in issue_dates):
            found.append(issue["issue_id"])
    return found


def folds_partition(folds, n_items: int) -> bool:
    """Test folds are disjoint and cover every item; train is the complement."""
    seen: set[int] = set()
    for train, test in folds:
        test_set = {int(i) for i in test}
        if seen & test_set:
            return False
        seen |= test_set
        if {int(i) for i in train} != set(range(n_items)) - test_set:
            return False
    return seen == set(range(n_items))
