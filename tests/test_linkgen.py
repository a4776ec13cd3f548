from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybrid_linker.linkgen import (
    CandidateFileError,
    LinkCandidate,
    balance_candidates,
    generate_candidates,
    read_candidates,
    write_candidates,
)
from tests.conftest import DAY, T0, make_commit, make_corpus, make_issue


def _random_corpus(rng: random.Random):
    n_issues = rng.randint(2, 10)
    n_commits = rng.randint(1, 10)
    issues = []
    for i in range(n_issues):
        created = T0 + rng.randint(0, 20) * DAY + rng.randint(0, DAY - 1)
        updated = created + rng.randint(0, 3 * DAY)
        resolved = updated + rng.randint(0, 2 * DAY) if rng.random() < 0.7 else None
        issues.append(
            make_issue(
                issue_id=f"I-{i}", created=created, updated=updated, resolved=resolved
            )
        )
    commits = []
    for c in range(n_commits):
        author_time = T0 + rng.randint(0, 20) * DAY + rng.randint(0, DAY - 1)
        commit_time = author_time + rng.randint(0, DAY)
        linked = ()
        if rng.random() < 0.7:
            linked = (f"I-{rng.randrange(n_issues)}",)
        commits.append(
            make_commit(
                tag=f"c{c}",
                author_time=author_time,
                commit_time=commit_time,
                linked=linked,
            )
        )
    return make_corpus(issues, commits)


def _brute_force_pairs(corpus, window_days):
    """Independent enumeration of the 2x3-date window predicate."""
    true_pairs = set()
    false_pairs = set()
    for commit in corpus.commits:
        if not commit.linked_issue_ids:
            continue
        for issue_id in commit.linked_issue_ids:
            true_pairs.add((issue_id, commit.commit_hash))
        for issue in corpus.issues:
            if issue.issue_id in commit.linked_issue_ids:
                continue
            commit_times = (commit.author_time_date, commit.commit_time_date)
            issue_times = [issue.created_date, issue.updated_date]
            if issue.resolved_date is not None:
                issue_times.append(issue.resolved_date)
            if window_days is None:
                hit = True
            else:
                bound = window_days * DAY
                hit = any(
                    abs(ct - it) <= bound for ct in commit_times for it in issue_times
                )
            if hit:
                false_pairs.add((issue.issue_id, commit.commit_hash))
    return true_pairs, false_pairs


def test_generated_candidates_match_brute_force():
    rng = random.Random(99)
    for _ in range(20):
        corpus = _random_corpus(rng)
        window = rng.choice([1, 3, 7, None])
        cands = generate_candidates(corpus, window_days=window)
        got_true = {(c.issue_id, c.commit_hash) for c in cands if c.label == 1}
        got_false = {(c.issue_id, c.commit_hash) for c in cands if c.label == 0}
        want_true, want_false = _brute_force_pairs(corpus, window)
        assert got_true == want_true
        assert got_false == want_false


def within_window(commit, issue, window_days: int | None) -> bool:
    """True when any commit date is within the window of any issue date.

    The bound is inclusive; window_days=None disables the check entirely.
    """
    if window_days is None:
        return True
    issue_dates = [issue.created_date, issue.updated_date]
    if issue.resolved_date is not None:
        issue_dates.append(issue.resolved_date)
    limit = window_days * DAY
    for commit_date in (commit.author_time_date, commit.commit_time_date):
        for issue_date in issue_dates:
            if abs(commit_date - issue_date) <= limit:
                return True
    return False


def _reference_candidates(corpus, window_days):
    """The pair scan the date index replaced: within_window on every issue."""
    out = []
    for commit in corpus.commits:
        for issue_id in commit.linked_issue_ids:
            out.append(LinkCandidate(issue_id, commit.commit_hash, 1, "linked"))
        if not commit.linked_issue_ids:
            continue
        for issue in corpus.issues:
            if issue.issue_id in commit.linked_issue_ids:
                continue
            if within_window(commit, issue, window_days):
                out.append(
                    LinkCandidate(issue.issue_id, commit.commit_hash, 0, "window")
                )
    return out


# Dates sit on a whole-day grid, nudged by at most one second, so issue
# dates land exactly on, just inside and just outside a window bound, and
# issues often share a date.
_grid_date = st.builds(
    lambda day, nudge: T0 + day * DAY + nudge,
    st.integers(0, 12),
    st.sampled_from([-1, 0, 0, 1]),
)


@st.composite
def _windowed_corpora(draw):
    issues = []
    for i in range(draw(st.integers(1, 8))):
        created = draw(_grid_date)
        updated = created + draw(st.integers(0, 3)) * DAY
        resolved = draw(
            st.none() | st.integers(0, 3).map(lambda d: updated + d * DAY)
        )
        issues.append(
            make_issue(
                issue_id=f"I-{i}", created=created, updated=updated, resolved=resolved
            )
        )
    ids = [issue.issue_id for issue in issues]
    commits = []
    for c in range(draw(st.integers(1, 6))):
        author_time = draw(_grid_date)
        commit_time = author_time + draw(st.sampled_from([0, 1, DAY, 2 * DAY]))
        linked = draw(st.lists(st.sampled_from(ids), unique=True, max_size=3))
        commits.append(
            make_commit(
                tag=f"c{c}",
                author_time=author_time,
                commit_time=commit_time,
                linked=tuple(linked),
            )
        )
    window = draw(st.sampled_from([None, 0, 1, 2, 7]))
    return make_corpus(issues, commits), window


@given(_windowed_corpora())
def test_date_index_matches_within_window_scan(case):
    corpus, window = case
    assert generate_candidates(corpus, window_days=window) == _reference_candidates(
        corpus, window
    )


@given(_windowed_corpora())
def test_generated_candidates_equal_constructed_ones(case):
    corpus, window = case
    for cand in generate_candidates(corpus, window_days=window):
        label = {"linked": 1, "window": 0}[cand.provenance]
        built = LinkCandidate(cand.issue_id, cand.commit_hash, label, cand.provenance)
        assert cand == built
        assert hash(cand) == hash(built)
        assert repr(cand) == repr(built)
        assert vars(cand) == vars(built)


def test_window_boundary_is_inclusive():
    issue = make_issue(created=T0, updated=T0)
    exact = make_commit(author_time=T0 + 7 * DAY, commit_time=T0 + 7 * DAY)
    outside = make_commit(
        author_time=T0 + 7 * DAY + 1, commit_time=T0 + 7 * DAY + 1
    )
    assert within_window(exact, issue, 7)
    assert not within_window(outside, issue, 7)
    assert within_window(outside, issue, None)


def test_any_of_six_date_pairs_qualifies():
    # Only resolved_date falls inside the window; the pair still counts.
    issue = make_issue(created=T0, updated=T0, resolved=T0 + 20 * DAY)
    commit = make_commit(
        author_time=T0 + 26 * DAY, commit_time=T0 + 27 * DAY
    )
    assert within_window(commit, issue, 7)
    without_resolved = make_issue(created=T0, updated=T0, resolved=None)
    assert not within_window(commit, without_resolved, 7)


def test_false_links_come_only_from_linked_commits():
    issues = [make_issue(issue_id="I-0"), make_issue(issue_id="I-1")]
    commits = [
        make_commit(tag="linked", linked=("I-0",)),
        make_commit(tag="bystander"),
    ]
    cands = generate_candidates(make_corpus(issues, commits), window_days=7)
    hashes = {c.commit_hash for c in cands}
    assert hashes == {commits[0].commit_hash}
    assert {c.provenance for c in cands} == {"linked", "window"}


def test_uncapped_count_is_commits_times_other_issues():
    rng = random.Random(5)
    issues = [make_issue(issue_id=f"I-{i}", created=T0 + i * DAY) for i in range(8)]
    commits = [
        make_commit(
            tag=f"c{c}",
            author_time=T0 + rng.randint(0, 7) * DAY,
            linked=(f"I-{c % 8}",),
        )
        for c in range(5)
    ]
    cands = generate_candidates(make_corpus(issues, commits), window_days=None)
    false = [c for c in cands if c.label == 0]
    assert len(false) == 5 * (8 - 1)


def test_balance_keeps_all_true_and_samples_false():
    rng = random.Random(3)
    corpus = _random_corpus(rng)
    while not any(c.linked_issue_ids for c in corpus.commits):
        corpus = _random_corpus(rng)
    cands = generate_candidates(corpus, window_days=None)
    result = balance_candidates(cands, seed=42)
    n_true = sum(1 for c in cands if c.label == 1)
    n_false = sum(1 for c in cands if c.label == 0)
    kept_true = [c for c in result.candidates if c.label == 1]
    kept_false = [c for c in result.candidates if c.label == 0]
    assert sorted(kept_true, key=str) == sorted(
        (c for c in cands if c.label == 1), key=str
    )
    assert len(kept_false) == min(n_true, n_false)
    assert result.n_true == n_true
    assert result.n_false_available == n_false
    assert result.deficit == (n_false < n_true)


def test_balance_is_seeded_and_shuffled():
    issues = [make_issue(issue_id=f"I-{i}", created=T0) for i in range(9)]
    commits = [
        make_commit(tag=f"c{c}", author_time=T0, linked=(f"I-{c}",))
        for c in range(4)
    ]
    cands = generate_candidates(make_corpus(issues, commits), window_days=None)
    a = balance_candidates(cands, seed=1)
    b = balance_candidates(cands, seed=1)
    c = balance_candidates(cands, seed=2)
    assert a.candidates == b.candidates
    assert set(a.candidates) != set(c.candidates) or a.candidates != c.candidates
    labels = [cand.label for cand in a.candidates]
    assert labels != sorted(labels, reverse=True)


def test_deficit_flag_when_false_pool_short():
    far_away = T0 + 400 * DAY
    issues = [
        make_issue(issue_id="I-0"),
        make_issue(issue_id="I-1", created=far_away, updated=far_away),
    ]
    commits = [
        make_commit(tag=f"c{c}", author_time=T0, linked=("I-0",)) for c in range(3)
    ]
    cands = generate_candidates(make_corpus(issues, commits), window_days=7)
    result = balance_candidates(cands, seed=0)
    assert result.deficit
    assert result.n_false_sampled < result.n_true


def test_candidate_file_round_trip(tmp_path):
    cands = [
        LinkCandidate("I-1", "a" * 40, 1, "linked"),
        LinkCandidate("I-2", "b" * 40, 0, "window"),
    ]
    path = tmp_path / "cands.tsv"
    write_candidates(path, cands)
    assert read_candidates(path) == cands


def test_candidate_file_errors_name_line(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_text(
        "issue_id\tcommit_hash\tlabel\tprovenance\nI-1\tabc\tnope\tlinked\n",
        encoding="utf-8",
    )
    with pytest.raises(CandidateFileError, match="cands.tsv:2"):
        read_candidates(path)


def test_candidate_file_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_text(
        "issue_id\tcommit_hash\tlabel\tprovenance\n"
        "I-1\tabc\t1\tlinked\n"
        "I-2\tabc\t0\twindow\n"
        "I-1\tabc\t0\twindow\n",
        encoding="utf-8",
    )
    with pytest.raises(
        CandidateFileError,
        match=r"cands.tsv:4: duplicate candidate .*\(first seen on line 2\)",
    ):
        read_candidates(path)


def test_candidate_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    cands = [LinkCandidate("I-1", "a" * 40, 1, "linked")]
    path = tmp_path / "cands.tsv"
    write_candidates(path, cands)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_candidates(path) == cands


def test_candidate_file_with_crlf_endings_reads_as_with_lf(tmp_path):
    cands = [
        LinkCandidate("I-1", "a" * 40, 1, "linked"),
        LinkCandidate("I-2", "b" * 40, 0, "window"),
    ]
    path = tmp_path / "cands.tsv"
    write_candidates(path, cands)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_candidates(path) == cands


def test_stray_carriage_return_stays_inside_its_line(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_bytes(
        b"issue_id\tcommit_hash\tlabel\tprovenance\n"
        b"I-1\tabc\t1\tlin\rked\n"
        b"I-2\tabc\t\r0\twindow\n"
    )
    # The first row keeps its carriage return in the provenance; the second
    # fails on the line the carriage return is on, not on a line after it.
    with pytest.raises(
        CandidateFileError, match=r"cands.tsv:3: label must be 0 or 1, got '\\r0'$"
    ):
        read_candidates(path)
    path.write_bytes(b"I-1\tabc\t1\tlin\rked\n")
    assert read_candidates(path) == [LinkCandidate("I-1", "abc", 1, "lin\rked")]
