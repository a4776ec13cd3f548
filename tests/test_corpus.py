from __future__ import annotations

import dataclasses
import json
import math
import pickle
import re
import tempfile
import typing
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_linker import corpus as corpus_module
from hybrid_linker.corpus import (
    Commit,
    CorpusFormatError,
    CorpusValidationError,
    Issue,
    SignalParams,
    _locate_decode_error,
    format_timestamp,
    load_corpus_dir,
    parse_timestamp,
    save_corpus_dir,
    synthesize_corpus,
    validate_corpus,
)
from tests.conftest import DAY, T0, make_commit, make_corpus, make_issue


def test_parse_timestamp_accepts_offset_and_z():
    assert parse_timestamp("2019-01-01T00:00:00+00:00") == T0
    assert parse_timestamp("2019-01-01T00:00:00Z") == T0
    assert parse_timestamp("2019-01-01T01:00:00+01:00") == T0


def test_parse_timestamp_rejects_naive_and_garbage():
    with pytest.raises(ValueError):
        parse_timestamp("2019-01-01T00:00:00")
    with pytest.raises(ValueError):
        parse_timestamp("not a time")
    with pytest.raises(ValueError):
        parse_timestamp("")


def test_timestamp_round_trip():
    for epoch in (T0, T0 + 12345, T0 + 400 * DAY):
        assert parse_timestamp(format_timestamp(epoch)) == epoch


def _stamp(seconds):
    """The reference rendering of UTC epoch seconds, via fromtimestamp."""
    return datetime.fromtimestamp(seconds, tz=timezone.utc).isoformat()


@given(
    st.integers(corpus_module._FIRST_SECOND, corpus_module._LAST_SECOND)
)
@example(corpus_module._FIRST_SECOND)
@example(corpus_module._LAST_SECOND)
@example(-1)
@example(0)
def test_format_timestamp_matches_fromtimestamp(seconds):
    assert format_timestamp(seconds) == _stamp(seconds)


def test_timestamps_at_the_utc_year_bounds_round_trip():
    for text in ("0001-01-01T00:00:00+00:00", "9999-12-31T23:59:59+00:00"):
        assert format_timestamp(parse_timestamp(text)) == text


@pytest.mark.parametrize("field", ["created_date", "resolved_date"])
@pytest.mark.parametrize(
    "stamp",
    # Valid local times whose UTC instants fall in year 10000 and year 0.
    ["9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00+23:59"],
)
def test_load_rejects_timestamps_format_timestamp_cannot_render(
    tmp_path, field, stamp
):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    issues_path = tmp_path / "corpus" / "issues.jsonl"
    lines = issues_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[field] = stamp
    lines[1] = json.dumps(record)
    issues_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = (
        f"issues.jsonl:2: field '{field}': timestamp '{stamp}' "
        "lies outside UTC years 1 to 9999"
    )
    with pytest.raises(CorpusFormatError, match=re.escape(message) + "$"):
        load_corpus_dir(tmp_path / "corpus")


def test_validate_rejects_duplicate_issue_ids():
    corpus = make_corpus(
        [make_issue(issue_id="I-1"), make_issue(issue_id="I-1")],
        [make_commit()],
    )
    with pytest.raises(CorpusValidationError, match="I-1"):
        validate_corpus(corpus)


def test_validate_rejects_duplicate_commit_hashes():
    corpus = make_corpus(
        [make_issue(issue_id="I-1"), make_issue(issue_id="I-2")],
        [make_commit(tag="same"), make_commit(tag="same")],
    )
    with pytest.raises(CorpusValidationError):
        validate_corpus(corpus)


def test_validate_rejects_dangling_link():
    corpus = make_corpus(
        [make_issue(issue_id="I-1"), make_issue(issue_id="I-2")],
        [make_commit(linked=("I-404",))],
    )
    with pytest.raises(CorpusValidationError, match="I-404"):
        validate_corpus(corpus)


def test_validate_rejects_duplicate_links():
    commit = make_commit(linked=("I-1", "I-2", "I-1"))
    corpus = make_corpus(
        [make_issue(issue_id="I-1"), make_issue(issue_id="I-2")], [commit]
    )
    with pytest.raises(
        CorpusValidationError, match=f"{commit.commit_hash}.*'I-1'.*more than once"
    ):
        validate_corpus(corpus)


def test_validate_rejects_updated_before_created():
    corpus = make_corpus(
        [
            make_issue(issue_id="I-1", created=T0, updated=T0 - 1),
            make_issue(issue_id="I-2"),
        ],
        [make_commit()],
    )
    with pytest.raises(CorpusValidationError):
        validate_corpus(corpus)


def test_validate_rejects_resolved_before_created():
    corpus = make_corpus(
        [
            make_issue(issue_id="I-1", created=T0, resolved=T0 - DAY),
            make_issue(issue_id="I-2"),
        ],
        [make_commit()],
    )
    with pytest.raises(CorpusValidationError):
        validate_corpus(corpus)


def test_validate_rejects_foreign_project_records():
    corpus = make_corpus(
        [make_issue(issue_id="I-1"), make_issue(issue_id="I-2", project="other")],
        [make_commit()],
    )
    with pytest.raises(CorpusValidationError):
        validate_corpus(corpus)


def test_save_load_round_trip(tmp_path):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    again = load_corpus_dir(tmp_path / "corpus")
    assert again.project == corpus.project
    assert again.issues == corpus.issues
    assert again.commits == corpus.commits


def test_saved_lines_equal_json_dumps_of_each_record(tmp_path):
    text = 'Überlauf — "quoted" \\ back\tslash \x00 \u2028 ☃ 🐛'
    issues = [
        make_issue(issue_id="I-ü", summary=text, description="naïve", resolved=None),
        make_issue(issue_id="I-2", reporter="Zoë", resolved=T0 + 3 * DAY),
    ]
    commits = [
        make_commit(tag="a", message=text, author="José", linked=("I-ü", "I-2")),
        make_commit(tag="b", diff_text="+ été\r\n"),
    ]
    save_corpus_dir(make_corpus(issues, commits), tmp_path)
    issue_records = [
        {
            "issue_id": i.issue_id,
            "project": i.project,
            "summary": i.summary,
            "description": i.description,
            "raw_type": i.raw_type,
            "raw_status": i.raw_status,
            "created_date": _stamp(i.created_date),
            "updated_date": _stamp(i.updated_date),
            "resolved_date": None
            if i.resolved_date is None
            else _stamp(i.resolved_date),
            "reporter": i.reporter,
            "creator": i.creator,
        }
        for i in issues
    ]
    commit_records = [
        {
            "commit_hash": c.commit_hash,
            "project": c.project,
            "message": c.message,
            "diff_text": c.diff_text,
            "author": c.author,
            "committer": c.committer,
            "author_time_date": _stamp(c.author_time_date),
            "commit_time_date": _stamp(c.commit_time_date),
            "linked_issue_ids": list(c.linked_issue_ids),
        }
        for c in commits
    ]
    for name, records in (
        ("issues.jsonl", issue_records),
        ("commits.jsonl", commit_records),
    ):
        written = (tmp_path / name).read_bytes().decode("utf-8")
        expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        assert written == expected


def test_load_reports_file_and_line_for_bad_json(tmp_path):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    issues_path = tmp_path / "corpus" / "issues.jsonl"
    lines = issues_path.read_text(encoding="utf-8").splitlines()
    lines[1] = "{broken"
    issues_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="issues.jsonl:2"):
        load_corpus_dir(tmp_path / "corpus")


def _with_bare_carriage_return(line: str) -> str:
    """The record line with ',\\r ' between its first two members, which JSON
    reads as whitespace after the comma."""
    head, sep, tail = line.partition(", ")
    assert sep
    return head + ",\r " + tail


def test_a_bare_carriage_return_inside_a_record_is_whitespace(tmp_path):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    for name in ("issues.jsonl", "commits.jsonl"):
        path = tmp_path / "corpus" / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = _with_bare_carriage_return(lines[1])
        assert json.loads(lines[1]) == json.loads(lines[1].replace("\r", ""))
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    again = load_corpus_dir(tmp_path / "corpus")
    assert again.issues == corpus.issues
    assert again.commits == corpus.commits


def test_a_fault_after_a_bare_carriage_return_names_its_newline_counted_line(
    tmp_path,
):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    issues_path = tmp_path / "corpus" / "issues.jsonl"
    lines = issues_path.read_text(encoding="utf-8").splitlines()
    lines[1] = _with_bare_carriage_return(lines[1])
    lines[2] = "{broken"
    issues_path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    with pytest.raises(CorpusFormatError, match=r"issues\.jsonl:3: invalid JSON"):
        load_corpus_dir(tmp_path / "corpus")


def test_load_reports_file_line_and_offset_for_bad_utf8(tmp_path):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    issues_path = tmp_path / "corpus" / "issues.jsonl"
    data = issues_path.read_bytes()
    second_line = data.index(b"\n") + 1
    bad = data[:second_line] + b'{"summary": "\xff"}\n' + data[second_line:]
    issues_path.write_bytes(bad)
    offset = second_line + len(b'{"summary": "')
    message = f"issues.jsonl:2: invalid UTF-8 at byte offset {offset}$"
    with pytest.raises(CorpusFormatError, match=message):
        load_corpus_dir(tmp_path / "corpus")


def test_load_reports_missing_field(tmp_path):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    issues_path = tmp_path / "corpus" / "issues.jsonl"
    lines = issues_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    del record["summary"]
    lines[0] = json.dumps(record)
    issues_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="summary"):
        load_corpus_dir(tmp_path / "corpus")


def test_signal_params_validation():
    with pytest.raises(ValueError):
        SignalParams(lexical_overlap=1.5)
    with pytest.raises(ValueError):
        SignalParams(temporal_proximity=-0.1)
    with pytest.raises(ValueError):
        SignalParams(true_link_density=0.0)


def test_synthesize_is_deterministic():
    a = synthesize_corpus(seed=11, n_issues=30, n_commits=30)
    b = synthesize_corpus(seed=11, n_issues=30, n_commits=30)
    c = synthesize_corpus(seed=12, n_issues=30, n_commits=30)
    assert a.issues == b.issues
    assert a.commits == b.commits
    assert a.issues != c.issues


def test_synthesize_counts_and_validity():
    corpus = synthesize_corpus(
        seed=5, n_issues=40, n_commits=25, signal=SignalParams(0.8, 0.8, 0.6)
    )
    validate_corpus(corpus)
    assert len(corpus.issues) == 40
    assert len(corpus.commits) == 25
    linked = [c for c in corpus.commits if c.linked_issue_ids]
    assert len(linked) == round(0.6 * 25)
    assert {c.project for c in corpus.commits} == {corpus.project}


def test_synthesize_minimum_sizes():
    with pytest.raises(ValueError):
        synthesize_corpus(seed=1, n_issues=1, n_commits=5)
    with pytest.raises(ValueError):
        synthesize_corpus(seed=1, n_issues=5, n_commits=0)


def _mean_shared_tokens(corpus) -> float:
    shared = []
    for commit in corpus.commits:
        if not commit.linked_issue_ids:
            continue
        issue = corpus.issue(commit.linked_issue_ids[0])
        overlap = set(issue.summary.split()) & set(commit.message.split())
        shared.append(len(overlap))
    return sum(shared) / len(shared)


def test_lexical_knob_controls_planted_overlap():
    strong = synthesize_corpus(
        seed=9, n_issues=60, n_commits=60, signal=SignalParams(1.0, 0.9, 1.0)
    )
    none = synthesize_corpus(
        seed=9, n_issues=60, n_commits=60, signal=SignalParams(0.0, 0.9, 1.0)
    )
    assert _mean_shared_tokens(strong) >= 3.0
    assert _mean_shared_tokens(none) < 1.0


def test_temporal_knob_controls_commit_gap():
    tight = synthesize_corpus(
        seed=9, n_issues=60, n_commits=60, signal=SignalParams(0.9, 1.0, 1.0)
    )
    loose = synthesize_corpus(
        seed=9, n_issues=60, n_commits=60, signal=SignalParams(0.9, 0.0, 1.0)
    )

    def mean_gap(corpus):
        gaps = []
        for commit in corpus.commits:
            if not commit.linked_issue_ids:
                continue
            issue = corpus.issue(commit.linked_issue_ids[0])
            gaps.append(abs(commit.author_time_date - issue.created_date))
        return sum(gaps) / len(gaps)

    assert mean_gap(tight) < mean_gap(loose)
    assert mean_gap(tight) <= 0.5 * DAY


def test_some_issues_lack_resolved_date():
    corpus = synthesize_corpus(seed=21, n_issues=80, n_commits=40)
    missing = [it for it in corpus.issues if it.resolved_date is None]
    present = [it for it in corpus.issues if it.resolved_date is not None]
    assert missing and present


def test_the_last_valid_instant_loads_exactly():
    assert parse_timestamp("9999-12-31T23:59:59.999999+00:00") == 253402300799
    assert parse_timestamp("1969-12-31T23:59:59.5+00:00") == 0
    assert parse_timestamp("1969-12-31T23:59:58.5+00:00") == -1


@settings(max_examples=500)
@given(
    st.datetimes(
        min_value=datetime(1, 1, 2),
        max_value=datetime(9999, 12, 30),
        timezones=st.sampled_from(
            [timezone.utc, timezone(timedelta(hours=5, minutes=30)),
             timezone(-timedelta(hours=23, minutes=59))]
        ),
    )
)
def test_exact_seconds_agree_with_the_float_wherever_it_is_exact(moment):
    got = parse_timestamp(moment.isoformat())
    delta = moment - datetime(1970, 1, 1, tzinfo=timezone.utc)
    exact = Fraction(delta // timedelta(microseconds=1), 10**6)
    assert got == math.trunc(exact)
    stamp = moment.timestamp()
    # Within 2**32 s of 1970 the float's rounding error stays below half a
    # microsecond, so it cannot cross a whole second.
    if Fraction(stamp) == exact or abs(stamp) < 2**32:
        assert got == int(stamp)


# The JSON Lines reader as it was before the fast record path, kept verbatim
# as the oracle: a file must load to the same records, or fail with the same
# message, either way.


def _oracle_read_jsonl(path: Path, builder) -> list:
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    raw = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise CorpusFormatError(f"{where}: invalid JSON: {exc}") from None
                if not isinstance(raw, dict):
                    raise CorpusFormatError(f"{where}: record must be a JSON object")
                records.append(builder(raw, where))
    except UnicodeDecodeError:
        raise CorpusFormatError(_locate_decode_error(path)) from None
    return records


# The checked builders and writers as they were when each field was spelled
# out by hand, kept verbatim (bar the _oracle prefix) as oracles: the checked
# record path must give their records and their messages, and _to_record
# their objects. They checked resolved_date and linked_issue_ids before the
# other fields, so only a record with several faults may name another one.


def _oracle_require(record: dict, key: str, where: str):
    if key not in record:
        raise CorpusFormatError(f"{where}: missing required field {key!r}")
    return record[key]


def _oracle_str_field(record: dict, key: str, where: str) -> str:
    value = _oracle_require(record, key, where)
    if not isinstance(value, str):
        raise CorpusFormatError(f"{where}: field {key!r} must be a string")
    return value


def _oracle_time_field(record: dict, key: str, where: str) -> int:
    value = _oracle_require(record, key, where)
    try:
        return parse_timestamp(value)
    except ValueError as exc:
        raise CorpusFormatError(f"{where}: field {key!r}: {exc}") from None


def _oracle_issue_from_record(record: dict, where: str) -> Issue:
    resolved = record.get("resolved_date")
    if resolved is not None:
        try:
            resolved = parse_timestamp(resolved)
        except ValueError as exc:
            raise CorpusFormatError(
                f"{where}: field 'resolved_date': {exc}"
            ) from None
    return Issue(
        issue_id=_oracle_str_field(record, "issue_id", where),
        project=_oracle_str_field(record, "project", where),
        summary=_oracle_str_field(record, "summary", where),
        description=_oracle_str_field(record, "description", where),
        raw_type=_oracle_str_field(record, "raw_type", where),
        raw_status=_oracle_str_field(record, "raw_status", where),
        created_date=_oracle_time_field(record, "created_date", where),
        updated_date=_oracle_time_field(record, "updated_date", where),
        resolved_date=resolved,
        reporter=_oracle_str_field(record, "reporter", where),
        creator=_oracle_str_field(record, "creator", where),
    )


def _oracle_commit_from_record(record: dict, where: str) -> Commit:
    linked = _oracle_require(record, "linked_issue_ids", where)
    if not isinstance(linked, list) or not all(isinstance(x, str) for x in linked):
        raise CorpusFormatError(
            f"{where}: field 'linked_issue_ids' must be a list of strings"
        )
    return Commit(
        commit_hash=_oracle_str_field(record, "commit_hash", where),
        project=_oracle_str_field(record, "project", where),
        message=_oracle_str_field(record, "message", where),
        diff_text=_oracle_str_field(record, "diff_text", where),
        author=_oracle_str_field(record, "author", where),
        committer=_oracle_str_field(record, "committer", where),
        author_time_date=_oracle_time_field(record, "author_time_date", where),
        commit_time_date=_oracle_time_field(record, "commit_time_date", where),
        linked_issue_ids=tuple(linked),
    )


def _oracle_issue_to_record(issue: Issue) -> dict:
    record = {
        "issue_id": issue.issue_id,
        "project": issue.project,
        "summary": issue.summary,
        "description": issue.description,
        "raw_type": issue.raw_type,
        "raw_status": issue.raw_status,
        "created_date": format_timestamp(issue.created_date),
        "updated_date": format_timestamp(issue.updated_date),
        "resolved_date": None
        if issue.resolved_date is None
        else format_timestamp(issue.resolved_date),
        "reporter": issue.reporter,
        "creator": issue.creator,
    }
    return record


def _oracle_commit_to_record(commit: Commit) -> dict:
    return {
        "commit_hash": commit.commit_hash,
        "project": commit.project,
        "message": commit.message,
        "diff_text": commit.diff_text,
        "author": commit.author,
        "committer": commit.committer,
        "author_time_date": format_timestamp(commit.author_time_date),
        "commit_time_date": format_timestamp(commit.commit_time_date),
        "linked_issue_ids": list(commit.linked_issue_ids),
    }


# Per kind of file: its record class, fast builder and oracle builder.
READERS = {
    "issues": (Issue, corpus_module._fast_issue, _oracle_issue_from_record),
    "commits": (Commit, corpus_module._fast_commit, _oracle_commit_from_record),
}


def _checked(kind: str):
    """The checked record builder of a kind of file, as the reader calls it."""
    cls = READERS[kind][0]
    return lambda record, where: corpus_module._checked_record(cls, record, where)


@lru_cache(maxsize=1)
def _saved_records() -> dict[str, list[dict]]:
    """The records of a saved synthetic corpus, as loaded from its files."""
    corpus = synthesize_corpus(seed=3, n_issues=6, n_commits=6)
    with tempfile.TemporaryDirectory() as directory:
        save_corpus_dir(corpus, directory)
        return {
            kind: [
                json.loads(line)
                for line in (Path(directory) / f"{kind}.jsonl").read_text().splitlines()
            ]
            for kind in READERS
        }


def _read_both_ways(kind: str, lines: list[str], builder=None):
    """What the reader and the oracle reader give for a file of these lines:
    the records, or the type and text of the error. The oracle reader builds
    records with builder, by default the checked record builder."""
    cls, fast, _ = READERS[kind]
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{kind}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for read in (
            lambda: corpus_module._read_jsonl(path, cls, fast),
            lambda: _oracle_read_jsonl(path, builder or _checked(kind)),
        ):
            try:
                outcomes.append(read())
            except CorpusFormatError as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes


TIME_FIELDS = {
    "created_date", "updated_date", "resolved_date", "author_time_date",
    "commit_time_date",
}
WRONG_VALUES = [None, 0, 1.5, True, "", "x", [], ["SYN-1"], [1], {}, {"a": "b"}]
BAD_STAMPS = st.sampled_from(
    [
        "not a time",
        "2019-01-01T00:00:00",
        "2019-13-01T00:00:00Z",
        "9999-12-31T23:59:59-23:59",
        "0001-01-01T00:00:00+23:59",
        "9999-12-31T23:59:59.999999+00:00",
        "2019-01-01T00:00:00.5-01:00",
        "2019-01-01T00:00:00z",
    ]
)


@st.composite
def mutated_records(draw):
    """A saved record with one to three faults: a key deleted, a value of
    the wrong type, a bad, out-of-range or unusual timestamp."""
    kind = draw(st.sampled_from(sorted(READERS)))
    record = dict(draw(st.sampled_from(_saved_records()[kind])))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(record) or ["issue_id"]))
        fault = draw(st.sampled_from(["delete", "wrong", "stamp"]))
        if fault == "delete":
            record.pop(key, None)
        elif fault == "stamp" and key in TIME_FIELDS:
            record[key] = draw(BAD_STAMPS)
        else:
            record[key] = draw(st.sampled_from(WRONG_VALUES))
    return kind, record


@settings(max_examples=500)
@given(mutated_records(), st.booleans())
def test_fast_record_path_loads_or_fails_like_the_checked_builders(case, first):
    kind, record = case
    intact = json.dumps(_saved_records()[kind][0])
    mutated = json.dumps(record)
    lines = [mutated, intact] if first else [intact, "", mutated]
    got, want = _read_both_ways(kind, lines)
    assert got == want


@pytest.mark.parametrize("kind", sorted(READERS))
def test_every_single_fault_fails_like_the_checked_builders(kind):
    record = _saved_records()[kind][0]
    cases = [[], "record", 7, None]
    for key in record:
        cases.append({k: v for k, v in record.items() if k != key})
        for wrong in WRONG_VALUES:
            cases.append({**record, key: wrong})
        if key in TIME_FIELDS:
            cases.append({**record, key: "2019-01-01T00:00:00"})
    for case in cases:
        lines = [json.dumps(case)]
        got, want = _read_both_ways(kind, lines)
        assert got == want, case
        got, want = _read_both_ways(kind, lines, READERS[kind][2])
        assert got == want, case


def _first_fault(kind: str, record: dict):
    """The oracle's message for the first field, in field order, that it
    rejects when that field alone is taken from record into an intact one;
    the oracle's record if it rejects none."""
    intact = _saved_records()[kind][0]
    oracle = READERS[kind][2]
    for field in dataclasses.fields(READERS[kind][0]):
        single = {k: v for k, v in intact.items() if k != field.name}
        if field.name in record:
            single[field.name] = record[field.name]
        try:
            oracle(single, "where")
        except CorpusFormatError as exc:
            return str(exc)
    return oracle(record, "where")


@settings(max_examples=500)
@given(mutated_records())
def test_a_record_with_several_faults_names_the_first_in_field_order(case):
    kind, record = case
    try:
        got = corpus_module._checked_record(READERS[kind][0], record, "where")
    except CorpusFormatError as exc:
        got = str(exc)
    assert got == _first_fault(kind, record)
    got, want = _read_both_ways(kind, [json.dumps(record)])
    assert got == want


def test_every_record_field_has_one_of_the_four_kinds():
    kinds = {str, int, int | None, tuple[str, ...]}
    for cls in (Issue, Commit):
        hints = typing.get_type_hints(cls)
        assert [f.name for f in dataclasses.fields(cls)] == list(hints)
        assert set(hints.values()) <= kinds, cls


def test_to_record_writes_what_the_oracle_writers_write():
    corpus = synthesize_corpus(
        seed=5, n_issues=40, n_commits=30, signal=SignalParams(true_link_density=0.5)
    )
    assert any(issue.resolved_date is None for issue in corpus.issues)
    assert any(not commit.linked_issue_ids for commit in corpus.commits)
    pairs = [(issue, _oracle_issue_to_record) for issue in corpus.issues] + [
        (commit, _oracle_commit_to_record) for commit in corpus.commits
    ]
    for item, oracle in pairs:
        got, want = corpus_module._to_record(item), oracle(item)
        assert got == want
        assert list(got) == list(want)
        assert [type(value) for value in got.values()] == [
            type(value) for value in want.values()
        ]


def _line_variants(kind: str) -> dict[str, list[str]]:
    """Files whose lines the JSON scanner and json.loads must treat alike."""
    record = _saved_records()[kind][0]
    intact = json.dumps(record)
    deep = "[" * 100_000 + "]" * 100_000
    nested = "[" * 50 + "]" * 50
    return {
        "trailing data": [intact + " x"],
        "trailing brace": [intact + "}"],
        "two objects": [intact + intact],
        "two objects, spaced": [intact + " " + intact],
        "object then array": [intact + "[]"],
        "leading BOM": ["\ufeff" + intact],
        "BOM on a later line": [intact, "\ufeff" + intact],
        "whitespace-only lines": [" \t ", intact, "\t", "   "],
        "CRLF lines": [intact + "\r", "\r", intact.replace("SYN", "CRLF") + "\r"],
        "inner CRLF": [intact[:-1] + ',\r\n"x": 1}'],
        "deep nesting": [intact[:-1] + f', "x": {deep}}}'],
        "deep nesting alone": [deep],
        "shallow nesting in an extra key": [intact[:-1] + f', "x": {nested}}}'],
        "NaN in a text field": [
            intact.replace('"project": "synth"', '"project": NaN')
        ],
        "Infinity in a text field": [
            intact.replace('"project": "synth"', '"project": -Infinity')
        ],
        "NaN in a time field": [
            json.dumps({**record, sorted(TIME_FIELDS & set(record))[0]: math.nan})
        ],
        "Infinity in a time field": [
            json.dumps({**record, sorted(TIME_FIELDS & set(record))[0]: math.inf})
        ],
        "array": ["[]"],
        "array of the object": ["[" + intact + "]"],
        "string": ['"record"'],
        "number": ["7"],
        "null": ["null"],
        "true": ["true"],
        "duplicate key": [intact[:-1] + ', "project": "other"}'],
        "duplicate key repairing a wrong one": [
            intact.replace('"project": "synth"', '"project": 7')[:-1]
            + ', "project": "synth"}'
        ],
        "escaped text": [
            intact.replace('"project": "synth"', '"project": "sy\\u006eth"')
        ],
        "lone surrogate": [
            intact.replace('"project": "synth"', '"project": "\\ud800"')
        ],
        "truncated": [intact[:-1]],
        "extra key": [intact[:-1] + ', "extra": {"a": [1, 2.5, null]}}'],
    }


@pytest.mark.parametrize("kind", sorted(READERS))
def test_line_level_faults_read_as_json_loads_reads_them(kind):
    for name, lines in _line_variants(kind).items():
        got, want = _read_both_ways(kind, lines)
        assert got == want, name


def _checked_and_fast(kind: str):
    """Pairs of records, each built by the checked builder and the fast one,
    from saved records and from valid variations of them."""
    _, fast, _ = READERS[kind]
    checked = _checked(kind)
    time_keys = sorted(TIME_FIELDS & set(_saved_records()[kind][0]))
    variants = []
    for record in _saved_records()[kind]:
        variants.append(record)
        variants.append({**record, "extra": [1, {"a": None}]})
        variants.append({key: record[key] for key in reversed(list(record))})
        variants.append({**record, time_keys[0]: "2019-01-01T12:00:00.25-05:30"})
        variants.append({**record, time_keys[0]: "2019-01-01T00:00:00Z"})
        variants.append({**record, time_keys[0]: "1969-12-31T23:59:59.5+00:00"})
    issue = _saved_records()["issues"][0]
    commit = _saved_records()["commits"][0]
    if kind == "issues":
        variants.append({k: v for k, v in issue.items() if k != "resolved_date"})
        variants.append({**issue, "resolved_date": None})
        variants.append({**issue, "resolved_date": issue["updated_date"]})
    else:
        variants.append({**commit, "linked_issue_ids": []})
        variants.append({**commit, "linked_issue_ids": ["SYN-1", "SYN-2"]})
    return [(checked(record, "x"), fast(record)) for record in variants]


@pytest.mark.parametrize("kind", sorted(READERS))
def test_fast_records_are_the_checked_builders_records(kind):
    for want, got in _checked_and_fast(kind):
        names = [field.name for field in dataclasses.fields(want)]
        assert type(got) is type(want)
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert list(vars(got)) == list(vars(want)) == names
        again = pickle.loads(pickle.dumps(got))
        assert again == want and list(vars(again)) == names
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, names[0], "changed")


# parse_timestamp as it was before its common case was reordered, kept as the
# oracle. It differs only in quoting: for text ending in Z or z it quoted the
# rewritten text, where parse_timestamp quotes the text as written.


def _oracle_parse_timestamp(text):
    if not isinstance(text, str) or not text:
        raise ValueError(f"timestamp must be a non-empty string, got {text!r}")
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        moment = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"bad timestamp {text!r}: {exc}") from None
    if moment.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no zone designator")
    delta = moment - datetime(1970, 1, 1, tzinfo=timezone.utc)
    seconds = delta.days * 86400 + delta.seconds
    if seconds < 0 and delta.microseconds:
        seconds += 1
    if not -62135596800 <= seconds <= 253402300799:
        raise ValueError(f"timestamp {text!r} lies outside UTC years 1 to 9999")
    return seconds


ZONES = [
    None,
    timezone.utc,
    timezone(timedelta(hours=5, minutes=30)),
    timezone(-timedelta(hours=23, minutes=59)),
    timezone(timedelta(hours=23, minutes=59, seconds=59)),
    timezone(-timedelta(microseconds=500_000)),
]


@st.composite
def timestamp_texts(draw):
    """ISO-8601 texts around the edges parse_timestamp cares about: zones,
    fractions, the epoch, the year bounds, Z designators and garbage."""
    if draw(st.integers(0, 9)) == 0:
        return draw(
            st.one_of(st.text(max_size=12), st.sampled_from([None, 0, 1.5, []]))
        )
    moment = draw(
        st.one_of(
            st.datetimes(timezones=st.sampled_from(ZONES)),
            st.datetimes(
                min_value=datetime(1969, 12, 31), max_value=datetime(1970, 1, 2),
                timezones=st.sampled_from(ZONES),
            ),
        )
    )
    text = moment.isoformat(
        sep=draw(st.sampled_from("T ")),
        timespec=draw(st.sampled_from(["auto", "seconds", "milliseconds"])),
    )
    ending = draw(st.sampled_from(["as is", "Z", "z", "+Z", "cut"]))
    if ending in ("Z", "z") and text.endswith("+00:00"):
        text = text[: -len("+00:00")] + ending
    elif ending == "+Z":
        text += "Z"
    elif ending == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=2000)
@given(timestamp_texts())
def test_parse_timestamp_matches_its_oracle(text):
    got = _outcome(parse_timestamp, text)
    want = _outcome(_oracle_parse_timestamp, text)
    if isinstance(text, str) and text.endswith(("Z", "z")):
        assert type(got) is type(want)
        if isinstance(want, int):
            assert got == want
        else:
            assert repr(text) in got
    else:
        assert got == want


def test_z_timestamp_messages_quote_the_text_as_written():
    for text, reason in [
        ("2021-13-01T00:00:00Z", "month must be in 1..12"),
        ("2019-01-01T00:00:00+00:00Z", None),
        ("2019-01-01T24:00:00z", None),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_timestamp(text)
        message = str(exc.value)
        assert message.startswith(f"bad timestamp {text!r}: ")
        assert text[:-1] + "+00:00" not in message
        if reason is not None:
            assert message.endswith(reason)
    with pytest.raises(
        ValueError, match=r"^timestamp '2019-01-01Z' has no zone designator$"
    ):
        parse_timestamp("2019-01-01Z")


def test_z_timestamps_stay_inside_the_utc_year_bounds():
    # A Z instant is its own UTC instant, so no Z text reaches the
    # out-of-range message; the bounds themselves load.
    assert parse_timestamp("0001-01-01T00:00:00Z") == corpus_module._FIRST_SECOND
    assert parse_timestamp("9999-12-31T23:59:59.999999z") == corpus_module._LAST_SECOND


def test_a_z_fault_in_a_file_is_reported_as_written(tmp_path):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    issues_path = tmp_path / "corpus" / "issues.jsonl"
    lines = issues_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, "created_date": "2021-13-01T00:00:00Z"})
    issues_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = (
        "issues.jsonl:2: field 'created_date': bad timestamp "
        "'2021-13-01T00:00:00Z': month must be in 1..12"
    )
    with pytest.raises(CorpusFormatError, match=re.escape(message) + "$"):
        load_corpus_dir(tmp_path / "corpus")
