from __future__ import annotations

import json
import math
import re
import tempfile
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_linker import corpus as corpus_module
from hybrid_linker.corpus import (
    CorpusFormatError,
    CorpusValidationError,
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


def test_load_reports_file_and_line_for_bad_json(tmp_path):
    corpus = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    save_corpus_dir(corpus, tmp_path / "corpus")
    issues_path = tmp_path / "corpus" / "issues.jsonl"
    lines = issues_path.read_text(encoding="utf-8").splitlines()
    lines[1] = "{broken"
    issues_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="issues.jsonl:2"):
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
    assert len(corpus.linked_commits()) == round(0.6 * 25)
    assert {c.project for c in corpus.commits} == {corpus.project}


def test_synthesize_minimum_sizes():
    with pytest.raises(ValueError):
        synthesize_corpus(seed=1, n_issues=1, n_commits=5)
    with pytest.raises(ValueError):
        synthesize_corpus(seed=1, n_issues=5, n_commits=0)


def _mean_shared_tokens(corpus) -> float:
    shared = []
    for commit in corpus.linked_commits():
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
        for commit in corpus.linked_commits():
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


READERS = {
    "issues": (corpus_module._fast_issue, corpus_module._issue_from_record),
    "commits": (corpus_module._fast_commit, corpus_module._commit_from_record),
}


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


def _read_both_ways(kind: str, lines: list[str]):
    """What the reader and its oracle give for a file of these lines: the
    records, or the type and text of the error."""
    fast, checked = READERS[kind]
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{kind}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for read in (
            lambda: corpus_module._read_jsonl(path, fast, checked),
            lambda: _oracle_read_jsonl(path, checked),
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
    for case in cases:
        got, want = _read_both_ways(kind, [json.dumps(case)])
        assert got == want, case
