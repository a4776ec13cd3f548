"""Corpus records, JSON Lines persistence, validation, and synthetic corpora.

A corpus is a directory holding ``issues.jsonl`` and ``commits.jsonl``, one
JSON object per line. Timestamps are ISO-8601 strings with a zone designator
on disk and UTC epoch seconds (int) in memory.

The annotations on Issue and Commit are the record schema: the checked
reader and the writer take each field's kind from them. A new field takes
its annotation plus its lines in the fast builder (_fast_issue or
_fast_commit), and the test that pins the fast builders' records to the
checked reader's fails until those lines are written. The fast builders
stay hand-unrolled because they build every record of every corpus load:
on a 2-CPU Xeon VM, they built 4,000 decoded issues in 10.4-11.0 ms, where
a loop over the fields with their kinds planned once took 11.3-14.0 ms.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path

from . import HybridLinkerError
from ._json import type_hints

SECONDS_PER_DAY = 86400

ISSUES_FILENAME = "issues.jsonl"
COMMITS_FILENAME = "commits.jsonl"


class CorpusError(HybridLinkerError):
    """Malformed or inconsistent corpus data."""


class CorpusFormatError(CorpusError):
    """A record could not be parsed; message names the file and line."""


class CorpusValidationError(CorpusError):
    """Parsed records violate a corpus-level invariant."""


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# The first and last UTC epoch seconds that format_timestamp can render.
_FIRST_SECOND = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
_LAST_SECOND = int(
    datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()
)


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp with zone designator to UTC epoch seconds."""
    try:
        moment = datetime.fromisoformat(text)
    except (TypeError, ValueError) as exc:
        if not isinstance(text, str) or not text:
            raise ValueError(
                f"timestamp must be a non-empty string, got {text!r}"
            ) from None
        # datetime.fromisoformat on 3.10 rejects the Z designator. Messages
        # quote the text as written and give the reason for that text.
        if not text.endswith(("Z", "z")):
            raise ValueError(f"bad timestamp {text!r}: {exc}") from None
        try:
            moment = datetime.fromisoformat(text[:-1] + "+00:00")
        except ValueError:
            raise ValueError(f"bad timestamp {text!r}: {exc}") from None
    if moment.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no zone designator")
    # Whole seconds truncated toward zero, as int(moment.timestamp()) gives
    # wherever that float is exact, without its rounding.
    delta = moment - _EPOCH
    seconds = delta.days * SECONDS_PER_DAY + delta.seconds
    if seconds < 0 and delta.microseconds:
        seconds += 1
    # A zone offset can carry a valid local time past UTC year 9999 or
    # before year 1, where format_timestamp cannot render it.
    if not _FIRST_SECOND <= seconds <= _LAST_SECOND:
        raise ValueError(f"timestamp {text!r} lies outside UTC years 1 to 9999")
    return seconds


def format_timestamp(epoch_seconds: int) -> str:
    """Render UTC epoch seconds as an ISO-8601 string with +00:00 zone."""
    return (_EPOCH + timedelta(seconds=int(epoch_seconds))).isoformat()


@dataclass(frozen=True)
class Issue:
    issue_id: str
    project: str
    summary: str
    description: str
    raw_type: str
    raw_status: str
    created_date: int
    updated_date: int
    resolved_date: int | None
    reporter: str
    creator: str


@dataclass(frozen=True)
class Commit:
    commit_hash: str
    project: str
    message: str
    diff_text: str
    author: str
    committer: str
    author_time_date: int
    commit_time_date: int
    linked_issue_ids: tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    project: str
    issues: tuple[Issue, ...]
    commits: tuple[Commit, ...]
    _issue_index: dict = field(init=False, repr=False, compare=False)
    _commit_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_issue_index", {it.issue_id: it for it in self.issues}
        )
        object.__setattr__(
            self, "_commit_index", {c.commit_hash: c for c in self.commits}
        )

    def issue(self, issue_id: str) -> Issue:
        try:
            return self._issue_index[issue_id]
        except KeyError:
            raise KeyError(f"unknown issue id {issue_id!r}") from None

    def commit(self, commit_hash: str) -> Commit:
        try:
            return self._commit_index[commit_hash]
        except KeyError:
            raise KeyError(f"unknown commit hash {commit_hash!r}") from None

    def pairs(self, candidates) -> list[tuple[Issue, Commit]]:
        """The (issue, commit) records of each link candidate, in order."""
        return [
            (self.issue(c.issue_id), self.commit(c.commit_hash)) for c in candidates
        ]


# Each record field's kind is read from its annotation on Issue or Commit:
# str is text, int a timestamp, int | None a timestamp that may be null or
# absent, and tuple[str, ...] a list of text.
_NULLABLE_TIME = int | None
_TEXT_LIST = tuple[str, ...]


def _checked_record(cls, record: dict, where: str):
    """The Issue or Commit a decoded record holds; CorpusFormatError names
    where and the record's first fault in field order."""
    values = {}
    for key, kind in type_hints(cls).items():
        if key not in record and kind != _NULLABLE_TIME:
            raise CorpusFormatError(f"{where}: missing required field {key!r}")
        value = record.get(key)
        if kind is str:
            if not isinstance(value, str):
                raise CorpusFormatError(f"{where}: field {key!r} must be a string")
        elif kind == _TEXT_LIST:
            if not isinstance(value, list) or not all(
                isinstance(x, str) for x in value
            ):
                raise CorpusFormatError(
                    f"{where}: field {key!r} must be a list of strings"
                )
            value = tuple(value)
        elif value is not None or kind is int:
            try:
                value = parse_timestamp(value)
            except ValueError as exc:
                raise CorpusFormatError(f"{where}: field {key!r}: {exc}") from None
        values[key] = value
    return cls(**values)


# The fast builders take a decoded record whose fields are all present and
# well typed, and fill a new instance's __dict__ key by key in field order,
# skipping the frozen dataclass __init__ and its one object.__setattr__ call
# per field (Issue and Commit have no slots, defaults or __post_init__).
# Setting keys one at a time keeps the class's shared-key dict layout, which
# dict.update from a dict would replace with a larger private table. Any fault
# raises KeyError, TypeError or ValueError, and the line is then rebuilt by
# _checked_record, which raises the message that locates the first fault.
_ISSUE_TEXT = itemgetter(
    "issue_id", "project", "summary", "description", "raw_type", "raw_status",
    "reporter", "creator",
)
_COMMIT_TEXT = itemgetter(
    "commit_hash", "project", "message", "diff_text", "author", "committer",
)


def _fast_issue(record: dict) -> Issue:
    (issue_id, project, summary, description, raw_type, raw_status, reporter,
     creator) = _ISSUE_TEXT(record)
    if not (
        type(issue_id) is type(project) is type(summary) is type(description)
        is type(raw_type) is type(raw_status) is type(reporter) is type(creator)
        is str
    ):
        raise TypeError("text field not a string")
    created = parse_timestamp(record["created_date"])
    updated = parse_timestamp(record["updated_date"])
    resolved = record.get("resolved_date")
    if resolved is not None:
        resolved = parse_timestamp(resolved)
    issue = object.__new__(Issue)
    fields = vars(issue)
    fields["issue_id"] = issue_id
    fields["project"] = project
    fields["summary"] = summary
    fields["description"] = description
    fields["raw_type"] = raw_type
    fields["raw_status"] = raw_status
    fields["created_date"] = created
    fields["updated_date"] = updated
    fields["resolved_date"] = resolved
    fields["reporter"] = reporter
    fields["creator"] = creator
    return issue


def _fast_commit(record: dict) -> Commit:
    commit_hash, project, message, diff_text, author, committer = _COMMIT_TEXT(record)
    linked = record["linked_issue_ids"]
    if not (
        type(commit_hash) is type(project) is type(message) is type(diff_text)
        is type(author) is type(committer) is str
        and type(linked) is list
        and set(map(type, linked)) <= {str}
    ):
        raise TypeError("text field not a string")
    author_time = parse_timestamp(record["author_time_date"])
    commit_time = parse_timestamp(record["commit_time_date"])
    commit = object.__new__(Commit)
    fields = vars(commit)
    fields["commit_hash"] = commit_hash
    fields["project"] = project
    fields["message"] = message
    fields["diff_text"] = diff_text
    fields["author"] = author
    fields["committer"] = committer
    fields["author_time_date"] = author_time
    fields["commit_time_date"] = commit_time
    fields["linked_issue_ids"] = tuple(linked)
    return commit


def _locate_decode_error(path: Path) -> str:
    """Name the line and byte offset of the first invalid UTF-8 byte in path.

    Only called once text-mode reading has failed, so the normal read pays
    nothing for it.
    """
    offset = 0
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = offset + exc.start
                return f"{path}:{lineno}: invalid UTF-8 at byte offset {byte}"
            offset += len(raw)
    return f"{path}: invalid UTF-8"


# The scanner json.loads runs, without its BOM and whitespace steps: on a
# stripped line, a value that ends at the end of the line is what json.loads
# returns, and anything else makes json.loads raise. (json.loads calls the
# scanner two frames deeper, so nesting within two levels of the recursion
# limit, which itself moves with the caller's stack, can decode here only.)
_decode = json.JSONDecoder().raw_decode


def _read_jsonl(path: Path, cls, fast) -> list:
    """Build each record of class cls with fast; a line it cannot take goes
    through _checked_record.

    fast gets a line that decodes to exactly one JSON object. Every other
    line, and every record fast rejects, is decoded again with json.loads and
    built by _checked_record, which raises the located message.
    """
    records = []
    try:
        # Lines end at a line feed only: JSON allows a bare carriage return
        # as whitespace inside a record.
        with open(path, encoding="utf-8", newline="\n") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw, end = _decode(line)
                    if end == len(line) and type(raw) is dict:
                        records.append(fast(raw))
                        continue
                except (KeyError, TypeError, ValueError, RecursionError):
                    pass
                where = f"{path}:{lineno}"
                try:
                    raw = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise CorpusFormatError(f"{where}: invalid JSON: {exc}") from None
                if not isinstance(raw, dict):
                    raise CorpusFormatError(f"{where}: record must be a JSON object")
                records.append(_checked_record(cls, raw, where))
    except UnicodeDecodeError:
        raise CorpusFormatError(_locate_decode_error(path)) from None
    return records


def validate_corpus(corpus: Corpus) -> None:
    """Check corpus-level invariants, raising CorpusValidationError on the first hit."""
    seen_issues: set[str] = set()
    for issue in corpus.issues:
        if not issue.issue_id:
            raise CorpusValidationError("issue with empty issue_id")
        if issue.issue_id in seen_issues:
            raise CorpusValidationError(f"duplicate issue id {issue.issue_id!r}")
        seen_issues.add(issue.issue_id)
        if issue.project != corpus.project:
            raise CorpusValidationError(
                f"issue {issue.issue_id!r} belongs to project {issue.project!r}, "
                f"expected {corpus.project!r}"
            )
        if issue.updated_date < issue.created_date:
            raise CorpusValidationError(
                f"issue {issue.issue_id!r}: updated_date precedes created_date"
            )
        if issue.resolved_date is not None and issue.resolved_date < issue.created_date:
            raise CorpusValidationError(
                f"issue {issue.issue_id!r}: resolved_date precedes created_date"
            )
    seen_commits: set[str] = set()
    for commit in corpus.commits:
        if not commit.commit_hash:
            raise CorpusValidationError("commit with empty commit_hash")
        if commit.commit_hash in seen_commits:
            raise CorpusValidationError(
                f"duplicate commit hash {commit.commit_hash!r}"
            )
        seen_commits.add(commit.commit_hash)
        if commit.project != corpus.project:
            raise CorpusValidationError(
                f"commit {commit.commit_hash!r} belongs to project "
                f"{commit.project!r}, expected {corpus.project!r}"
            )
        seen_links: set[str] = set()
        for issue_id in commit.linked_issue_ids:
            if issue_id not in seen_issues:
                raise CorpusValidationError(
                    f"commit {commit.commit_hash!r} links unknown issue {issue_id!r}"
                )
            if issue_id in seen_links:
                raise CorpusValidationError(
                    f"commit {commit.commit_hash!r} links issue {issue_id!r} "
                    "more than once"
                )
            seen_links.add(issue_id)


def load_corpus(issues_path: str | Path, commits_path: str | Path) -> Corpus:
    """Load and validate a corpus from its two JSON Lines files."""
    issues = _read_jsonl(Path(issues_path), Issue, _fast_issue)
    commits = _read_jsonl(Path(commits_path), Commit, _fast_commit)
    if not issues and not commits:
        raise CorpusValidationError(
            f"corpus has no records ({issues_path}, {commits_path})"
        )
    projects = {it.project for it in issues} | {c.project for c in commits}
    if len(projects) != 1:
        raise CorpusValidationError(
            f"corpus mixes projects {sorted(projects)!r}; expected exactly one"
        )
    corpus = Corpus(project=projects.pop(), issues=tuple(issues), commits=tuple(commits))
    validate_corpus(corpus)
    return corpus


def load_corpus_dir(directory: str | Path) -> Corpus:
    directory = Path(directory)
    return load_corpus(directory / ISSUES_FILENAME, directory / COMMITS_FILENAME)


# The timestamp and list fields of each record class, which _to_record
# converts; its text fields are written as they are.
_RECORD_PLANS = {
    cls: (
        tuple(k for k, kind in type_hints(cls).items() if kind in (int, _NULLABLE_TIME)),
        tuple(k for k, kind in type_hints(cls).items() if kind == _TEXT_LIST),
    )
    for cls in (Issue, Commit)
}


def _to_record(item: Issue | Commit) -> dict:
    """The JSON object an Issue or Commit is saved as."""
    record = vars(item).copy()
    times, lists = _RECORD_PLANS[type(item)]
    for key in times:
        value = record[key]
        if value is not None:
            record[key] = format_timestamp(value)
    for key in lists:
        record[key] = list(record[key])
    return record


# Writes what json.dumps(record, sort_keys=True) writes, without building a
# new encoder for every record.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def save_corpus(corpus: Corpus, issues_path: str | Path, commits_path: str | Path) -> None:
    """Write a corpus back to JSON Lines files; inverse of load_corpus."""
    encode = _RECORD_ENCODER.encode
    for path, items in ((issues_path, corpus.issues), (commits_path, corpus.commits)):
        with open(path, "w", encoding="utf-8") as handle:
            for item in items:
                handle.write(encode(_to_record(item)) + "\n")


def save_corpus_dir(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, directory / ISSUES_FILENAME, directory / COMMITS_FILENAME)


@dataclass(frozen=True)
class SignalParams:
    """Strength knobs for the synthetic corpus generator.

    lexical_overlap: how much vocabulary a linked commit message shares with
    its issue text (0 removes the textual signal entirely).
    temporal_proximity: how tightly commit times hug the issue dates
    (0 spreads linked commits across the whole window).
    true_link_density: fraction of commits that carry a link.
    """

    lexical_overlap: float = 0.9
    temporal_proximity: float = 0.9
    true_link_density: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lexical_overlap <= 1.0:
            raise ValueError("lexical_overlap must lie in [0, 1]")
        if not 0.0 <= self.temporal_proximity <= 1.0:
            raise ValueError("temporal_proximity must lie in [0, 1]")
        if not 0.0 < self.true_link_density <= 1.0:
            raise ValueError("true_link_density must lie in (0, 1]")


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

_RAW_STATUSES = (
    "Resolved", "Closed", "Open", "In Progress", "Reopened", "Patch Available",
)
_STATUS_WEIGHTS = (30, 25, 20, 10, 5, 10)
_RAW_TYPES = (
    "Bug", "Improvement", "New Feature", "Task", "Sub-task", "Wish", "Test",
)
_TYPE_WEIGHTS = (35, 25, 12, 15, 8, 2, 3)

_CODE_SUFFIXES = ("Handler", "Builder", "Worker", "Filter", "Router", "Codec")
_CODE_METHODS = ("apply", "merge", "flush", "scan", "emit", "bind")


def _pseudo_word(rng: random.Random, min_syllables: int = 2, max_syllables: int = 3) -> str:
    count = rng.randint(min_syllables, max_syllables)
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(count)
    )


def _identity_hash(seed_text: str) -> str:
    return hashlib.sha1(seed_text.encode("utf-8")).hexdigest()


def synthesize_corpus(
    seed: int,
    n_issues: int,
    n_commits: int,
    signal: SignalParams | None = None,
) -> Corpus:
    """Generate a deterministic synthetic corpus with controllable signal.

    Issues and commits are spread over a timeline of roughly one issue per
    day. Each issue belongs to a topic with its own vocabulary, code-term
    set, and owning developer; linked commits inherit the topic, take their
    dates near the issue dates, and share planted summary tokens with the
    issue. With lexical_overlap = 1.0 a linked pair shares at least three
    planted tokens; with 0.0 messages and diffs are pure noise.
    """
    if signal is None:
        signal = SignalParams()
    if n_issues < 2 or n_commits < 1:
        raise ValueError("need at least 2 issues and 1 commit")
    rng = random.Random(seed)
    project = "synth"

    n_topics = max(6, min(24, n_issues // 16))
    n_devs = max(3, min(24, n_issues // 16))
    devs = []
    for index in range(n_devs):
        devs.append(
            {
                "creator": _identity_hash(f"{project}-creator-{index}"),
                "author": _identity_hash(f"{project}-author-{index}"),
            }
        )

    # Noise words are kept few on purpose: every one of them lands in many
    # documents, so none can be label-pure by accident in a split.
    noise_vocab = sorted({_pseudo_word(rng) for _ in range(64)})
    # Issues that end up with a commit lean on one marker vocabulary,
    # never-linked issues on another; lexical_overlap scales how cleanly
    # the two separate, and at 0 the choice is a coin flip.
    work_vocab = sorted({f"{_pseudo_word(rng)}wk" for _ in range(16)})
    chatter_vocab = sorted({f"{_pseudo_word(rng)}ch" for _ in range(16)})
    topic_words: list[list[str]] = []
    topic_terms: list[list[str]] = []
    topic_owner: list[int] = []
    for topic in range(n_topics):
        # Small dense per-topic vocabularies: every issue of the topic
        # carries most of them, so topic membership is visible term by term.
        picked: set[str] = set()
        while len(picked) < 4:
            picked.add(f"{_pseudo_word(rng)}{topic:02d}")
        words = sorted(picked)
        base = _pseudo_word(rng).capitalize()
        terms = [
            f"{base}{topic}{rng.choice(_CODE_SUFFIXES)}."
            f"{rng.choice(_CODE_METHODS)}{rng.randint(0, 9)}"
            for _ in range(6)
        ]
        topic_words.append(words)
        topic_terms.append(terms)
        topic_owner.append(rng.randrange(n_devs))
    noise_terms = [
        f"UTIL_{_pseudo_word(rng).upper()}{index}" for index in range(24)
    ]

    start = parse_timestamp("2019-01-01T00:00:00+00:00")
    span_days = max(120, n_issues)

    lexical = signal.lexical_overlap

    skeletons = []
    issue_topics: list[int] = []
    for index in range(n_issues):
        topic = rng.randrange(n_topics)
        created = start + int(rng.uniform(0, span_days) * SECONDS_PER_DAY)
        updated = created + int(rng.uniform(0, 5) * SECONDS_PER_DAY)
        resolved = None
        if rng.random() < 0.85:
            resolved = updated + int(rng.uniform(0, 3) * SECONDS_PER_DAY)
        if rng.random() < 0.8:
            owner = topic_owner[topic]
        else:
            owner = rng.randrange(n_devs)
        creator = devs[owner]["creator"]
        if rng.random() < 0.995:
            reporter = creator
        else:
            reporter = devs[rng.randrange(n_devs)]["creator"]
        skeletons.append((topic, created, updated, resolved, creator, reporter))
        issue_topics.append(topic)

    n_linked = max(1, round(signal.true_link_density * n_commits))
    linked_slots = set(rng.sample(range(n_commits), n_linked))
    commit_issue = {
        slot: rng.randrange(n_issues) for slot in sorted(linked_slots)
    }
    ever_linked = set(commit_issue.values())

    def marker(index: int, count: int) -> list[str]:
        expected = work_vocab if index in ever_linked else chatter_vocab
        picked = []
        for _ in range(count):
            # Marker fidelity: 1.0 at full lexical signal, 0.5 (pure noise)
            # when the textual signal is switched off.
            if rng.random() < 0.5 + 0.5 * lexical:
                picked.append(rng.choice(expected))
            else:
                other = chatter_vocab if expected is work_vocab else work_vocab
                picked.append(rng.choice(other))
        return picked

    issues: list[Issue] = []
    for index, (topic, created, updated, resolved, creator, reporter) in enumerate(
        skeletons
    ):
        # Token blocks are kept in a canonical order so that word
        # co-occurrences repeat across documents instead of producing
        # one-off n-grams.
        summary_tokens = (
            sorted(rng.sample(topic_words[topic], 3))
            + sorted(marker(index, 2))
            + rng.sample(noise_vocab, 1)
        )
        if rng.random() < 0.3:
            description = ""
        else:
            description = " ".join(
                sorted(rng.sample(topic_words[topic], 2))
                + marker(index, 1)
                + sorted(rng.sample(noise_vocab, rng.randint(1, 3)))
            )
        issues.append(
            Issue(
                issue_id=f"SYN-{index + 1}",
                project=project,
                summary=" ".join(summary_tokens),
                description=description,
                raw_type=rng.choices(_RAW_TYPES, weights=_TYPE_WEIGHTS, k=1)[0],
                raw_status=rng.choices(_RAW_STATUSES, weights=_STATUS_WEIGHTS, k=1)[0],
                created_date=created,
                updated_date=updated,
                resolved_date=resolved,
                reporter=reporter,
                creator=creator,
            )
        )

    # Widest gap between a linked commit and its issue, in days; tight
    # proximity compresses the spread toward the issue dates.
    max_gap_days = 0.5 + 6.0 * (1.0 - signal.temporal_proximity)

    commits: list[Commit] = []
    for index in range(n_commits):
        linked_issue = commit_issue.get(index)
        if linked_issue is not None:
            topic = issue_topics[linked_issue]
            anchor = issues[linked_issue].created_date
            gap = rng.uniform(0.02, max_gap_days)
            author_time = anchor + int(gap * SECONDS_PER_DAY)
        else:
            topic = rng.randrange(n_topics)
            author_time = start + int(rng.uniform(0, span_days) * SECONDS_PER_DAY)
        commit_time = author_time + int(rng.uniform(0, 0.2) * SECONDS_PER_DAY)

        if rng.random() < 0.85:
            dev = topic_owner[topic]
        else:
            dev = rng.randrange(n_devs)
        author = devs[dev]["author"]
        if rng.random() < 0.65:
            committer = author
        else:
            committer = devs[rng.randrange(n_devs)]["author"]

        planted = round(3 * lexical)
        topical: set[str] = set()
        if linked_issue is not None and planted > 0:
            summary_words = issues[linked_issue].summary.split()
            topical.update(rng.sample(summary_words[:3], min(planted, 3)))
        if lexical > 0 and rng.random() < lexical:
            topical.update(rng.sample(topic_words[topic], 2))
        message_tokens = sorted(topical) + sorted(
            rng.sample(noise_vocab, rng.randint(2, 4))
        )

        if lexical > 0:
            diff_terms = rng.sample(topic_terms[topic], rng.randint(3, 5))
        else:
            diff_terms = rng.sample(noise_terms, rng.randint(3, 5))
        diff_terms += rng.sample(noise_terms, rng.randint(1, 2))
        diff_lines = [f"+ {term}" for term in diff_terms]
        diff_lines.insert(0, f"diff --git a/src/mod{topic}.java b/src/mod{topic}.java")

        commits.append(
            Commit(
                commit_hash=_identity_hash(f"{project}-commit-{seed}-{index}"),
                project=project,
                message=" ".join(message_tokens),
                diff_text="\n".join(diff_lines),
                author=author,
                committer=committer,
                author_time_date=author_time,
                commit_time_date=commit_time,
                linked_issue_ids=()
                if linked_issue is None
                else (issues[linked_issue].issue_id,),
            )
        )

    corpus = Corpus(project=project, issues=tuple(issues), commits=tuple(commits))
    validate_corpus(corpus)
    return corpus
