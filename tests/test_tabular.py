from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_linker.linkgen import LinkCandidate, generate_candidates
from hybrid_linker.corpus import SECONDS_PER_DAY, synthesize_corpus
from hybrid_linker.tabular import (
    OTHER,
    STATUS_CLASSES,
    TYPE_CLASSES,
    CategoryMapError,
    TabularEncoder,
    _identity_redundancy,
    featurize_pairs_tabular,
    fit_encoder,
    load_category_maps,
    reduce_status,
    reduce_type,
)
from tests.conftest import DAY, T0, make_commit, make_corpus, make_issue


def _paired_corpus(n_pairs=12, resolved=True, reporter_same=True):
    issues = []
    commits = []
    for i in range(n_pairs):
        created = T0 + i * DAY
        issues.append(
            make_issue(
                issue_id=f"I-{i}",
                created=created,
                updated=created + DAY,
                resolved=created + 2 * DAY if resolved else None,
                creator=f"dev-{i % 3}",
                reporter=f"dev-{i % 3}" if reporter_same else f"rep-{i % 5}",
            )
        )
        commits.append(
            make_commit(
                tag=f"c{i}",
                author_time=created + DAY,
                author=f"dev-{i % 3}",
                committer=f"dev-{i % 4}",
                linked=(f"I-{i}",),
            )
        )
    return make_corpus(issues, commits)


def _candidates(corpus):
    return generate_candidates(corpus, window_days=None)


def test_category_maps_load_and_casefold():
    status_map, type_map = load_category_maps()
    assert status_map["open"] == "open"
    assert status_map["won't fix"] == "closed"
    assert type_map["bug"] == "bug"
    assert type_map["improvement"] == "new_feature"
    assert all(key == key.casefold() for key in status_map)
    assert all(key == key.casefold() for key in type_map)


def test_category_map_rejects_unknown_class(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("Weird\tnot_a_class\n", encoding="utf-8")
    with pytest.raises(CategoryMapError):
        load_category_maps(path)


def test_category_map_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("\ufeffOpen\tclosed\nBug\ttask\n", encoding="utf-8")
    status_map, type_map = load_category_maps(path)
    assert status_map == {"open": "closed"}
    assert type_map == {"bug": "task"}


def test_category_map_keeps_stray_line_breaks_inside_their_row(tmp_path):
    # Lines end at a line feed only: a carriage return or U+0085 inside a
    # row stays in its raw label.
    path = tmp_path / "cm.tsv"
    path.write_text("In\rProgress\topen\nTo\x85Do\ttask\n", encoding="utf-8")
    status_map, type_map = load_category_maps(path)
    assert status_map["in\rprogress"] == "open"
    assert type_map["to\x85do"] == "task"


def test_category_map_faults_count_newlines(tmp_path):
    path = tmp_path / "cm.tsv"
    path.write_text(
        "In\rProgress\topen\r\nTo\x85Do\ttask\nWeird\tnot_a_class\n",
        encoding="utf-8",
    )
    with pytest.raises(CategoryMapError) as caught:
        load_category_maps(path)
    assert str(caught.value) == f"{path}:3: unknown reduced class 'not_a_class'"
    path.write_bytes(b"In\rProgress\topen\nTo\xc2\x85Do\ttask\nbad\xff\n")
    with pytest.raises(CategoryMapError) as caught:
        load_category_maps(path)
    assert str(caught.value) == f"{path}:3: invalid UTF-8 at byte offset 32"


def test_reduce_falls_back_on_unseen_labels():
    corpus = _paired_corpus()
    encoder = fit_encoder(corpus.pairs(_candidates(corpus)))
    odd = make_issue(raw_status="Mystery State", raw_type="Mystery Kind")
    assert reduce_status(encoder, odd) == "open"
    assert reduce_type(encoder, odd) == "task"
    usual = make_issue(raw_status="RESOLVED", raw_type="new feature")
    assert reduce_status(encoder, usual) == "resolved"
    assert reduce_type(encoder, usual) == "new_feature"


def test_epoch_day_and_gap_columns():
    corpus = _paired_corpus(n_pairs=12)
    cands = _candidates(corpus)
    encoder = fit_encoder(corpus.pairs(cands))
    names = list(encoder.feature_names)
    X = featurize_pairs_tabular(corpus.pairs(cands), encoder)
    assert X.shape == (len(cands), encoder.width)
    row = X[0]
    cand = cands[0]
    issue = corpus.issue(cand.issue_id)
    commit = corpus.commit(cand.commit_hash)
    assert row[names.index("created_day")] == issue.created_date / DAY
    assert row[names.index("author_time_day")] == commit.author_time_date / DAY
    want_gap = abs(commit.author_time_date - issue.created_date) / DAY
    assert row[names.index("gap_author_time_created")] == want_gap
    want_gap = abs(commit.commit_time_date - issue.resolved_date) / DAY
    assert row[names.index("gap_commit_time_resolved")] == want_gap
    assert row[names.index("resolved_present")] == 1.0


def test_resolved_dropped_when_mostly_missing():
    corpus = _paired_corpus(resolved=False)
    encoder = fit_encoder(corpus.pairs(_candidates(corpus)))
    assert not encoder.include_resolved
    assert "resolved_day" not in encoder.feature_names
    assert "resolved_present" not in encoder.feature_names
    assert not any(n.endswith("_resolved") for n in encoder.feature_names)
    # 4 date days + 4 gaps + 3 status + 3 type + identity one-hots.
    X = featurize_pairs_tabular(corpus.pairs(_candidates(corpus)), encoder)
    assert X.shape[1] == encoder.width


def test_resolved_kept_when_sometimes_missing():
    issues = []
    commits = []
    for i in range(10):
        created = T0 + i * DAY
        issues.append(
            make_issue(
                issue_id=f"I-{i}",
                created=created,
                resolved=created + DAY if i < 8 else None,
            )
        )
        commits.append(
            make_commit(tag=f"c{i}", author_time=created, linked=(f"I-{i}",))
        )
    corpus = make_corpus(issues, commits)
    cands = _candidates(corpus)
    encoder = fit_encoder(corpus.pairs(cands))
    assert encoder.include_resolved
    names = list(encoder.feature_names)
    X = featurize_pairs_tabular(corpus.pairs(cands), encoder)
    flags = X[:, names.index("resolved_present")]
    missing_rows = [
        k for k, c in enumerate(cands) if corpus.issue(c.issue_id).resolved_date is None
    ]
    assert set(flags[missing_rows]) == {0.0}
    # Absent resolved dates contribute zeroed day and gap columns.
    assert all(X[k, names.index("resolved_day")] == 0.0 for k in missing_rows)
    assert all(
        X[k, names.index("gap_author_time_resolved")] == 0.0 for k in missing_rows
    )


def test_identity_one_hots_with_other_bucket():
    corpus = _paired_corpus()
    cands = _candidates(corpus)
    encoder = fit_encoder(corpus.pairs(cands), identity_top_k=2)
    names = list(encoder.feature_names)
    author_cols = [n for n in names if n.startswith("author=")]
    assert len(author_cols) == 3  # top 2 + OTHER
    assert author_cols[-1] == "author=OTHER"
    X = featurize_pairs_tabular(corpus.pairs(cands), encoder)
    block = X[:, [names.index(n) for n in author_cols]]
    assert np.all(block.sum(axis=1) == 1.0)
    # An identity outside the top-k lands in OTHER.
    kept = set(encoder.identity_vocabs["author"])
    rows_outside = [
        k
        for k, c in enumerate(cands)
        if corpus.commit(c.commit_hash).author not in kept
    ]
    assert rows_outside
    assert set(X[rows_outside, names.index("author=OTHER")]) == {1.0}


def test_identity_vocab_ranked_by_count_then_name():
    corpus = _paired_corpus()
    cands = _candidates(corpus)
    encoder = fit_encoder(corpus.pairs(cands))
    from collections import Counter

    counts = Counter(corpus.commit(c.commit_hash).author for c in cands)
    want = tuple(sorted(counts, key=lambda ident: (-counts[ident], ident)))
    assert encoder.identity_vocabs["author"] == want


def test_reporter_excluded_when_redundant():
    redundant = _paired_corpus(reporter_same=True)
    encoder = fit_encoder(redundant.pairs(_candidates(redundant)))
    assert not encoder.include_reporter
    assert not any(n.startswith("reporter=") for n in encoder.feature_names)
    report = _identity_redundancy(redundant.issues)
    assert report["reporter_creator_equality"] == 1.0

    distinct = _paired_corpus(reporter_same=False)
    encoder = fit_encoder(distinct.pairs(_candidates(distinct)))
    assert encoder.include_reporter
    assert any(n.startswith("reporter=") for n in encoder.feature_names)


def test_gap_features_toggle():
    corpus = _paired_corpus()
    encoder = fit_encoder(corpus.pairs(_candidates(corpus)), gap_features=False)
    assert not any(n.startswith("gap_") for n in encoder.feature_names)


def test_features_do_not_depend_on_labels():
    corpus = _paired_corpus()
    cands = _candidates(corpus)
    flipped = [
        LinkCandidate(c.issue_id, c.commit_hash, 1 - c.label, c.provenance)
        for c in cands
    ]
    encoder_a = fit_encoder(corpus.pairs(cands))
    encoder_b = fit_encoder(corpus.pairs(flipped))
    assert encoder_a.feature_names == encoder_b.feature_names
    X_a = featurize_pairs_tabular(corpus.pairs(cands), encoder_a)
    X_b = featurize_pairs_tabular(corpus.pairs(flipped), encoder_b)
    assert np.array_equal(X_a, X_b)


def test_encoder_fits_only_on_given_candidates():
    corpus = _paired_corpus()
    cands = _candidates(corpus)
    subset = [c for c in cands if c.issue_id != "I-0"]
    encoder = fit_encoder(corpus.pairs(subset), identity_top_k=50)
    synth = synthesize_corpus(seed=3, n_issues=12, n_commits=10)
    # Identities seen only via excluded candidates stay out of the vocab.
    excluded_creator = corpus.issue("I-0").creator
    kept_creators = {
        corpus.issue(c.issue_id).creator for c in subset
    }
    if excluded_creator not in kept_creators:
        assert excluded_creator not in encoder.identity_vocabs["creator"]
    assert synth.project != ""


@pytest.mark.parametrize("resolved, gaps", [(True, True), (False, False)])
def test_block_offsets_hold_for_an_identity_named_other(resolved, gaps):
    # A creator literally named OTHER repeats the name creator=OTHER, so the
    # columns must come from the recorded block offsets, not from names.
    issues = [
        make_issue(
            issue_id=f"I-{i}",
            created=T0 + i * DAY,
            resolved=T0 + (i + 2) * DAY if resolved else None,
            creator="OTHER" if i % 2 else f"dev-{i}",
        )
        for i in range(6)
    ]
    commits = [
        make_commit(tag=f"c{i}", author_time=T0 + i * DAY, linked=(f"I-{i}",))
        for i in range(6)
    ]
    corpus = make_corpus(issues, commits)
    cands = _candidates(corpus)
    encoder = fit_encoder(corpus.pairs(cands), gap_features=gaps)
    names = encoder.feature_names
    assert names.count("creator=OTHER") == 2
    assert encoder.include_resolved == resolved
    assert names[encoder.status_at] == "status=open"
    assert names[encoder.type_at] == "type=task"
    last_date = "resolved_present" if resolved else "updated_day"
    assert names[encoder.status_at - 1].startswith("gap_" if gaps else last_date)
    if resolved:
        assert names[encoder.resolved_at : encoder.resolved_at + 2] == (
            "resolved_day", "resolved_present",
        )
    start = encoder.type_at + 3
    for column, at in encoder.identity_at.items():
        assert at == start
        start += len(encoder.identity_vocabs[column]) + 1
    assert start == encoder.width

    vocab = encoder.identity_vocabs["creator"]
    creator_at = encoder.identity_at["creator"]
    stranger = make_issue(issue_id="I-x", creator="nobody-seen")
    pairs = [(corpus.issue("I-1"), commits[0]), (stranger, commits[0])]
    X = featurize_pairs_tabular(pairs, encoder)
    block = X[:, creator_at : creator_at + len(vocab) + 1]
    assert block.sum(axis=1).tolist() == [1.0, 1.0]
    assert block[0, vocab.index("OTHER")] == 1.0  # the identity OTHER
    assert block[1, len(vocab)] == 1.0  # the bucket for unseen identities


# The per-pair encoder as it was before columns were filled whole, kept
# verbatim as the oracle: both must give the same matrix byte for byte.


def _epoch_day(epoch_seconds: int) -> float:
    return epoch_seconds / float(SECONDS_PER_DAY)


def _oracle_featurize_pairs_tabular(pairs, encoder: TabularEncoder) -> np.ndarray:
    """Encode (issue, commit) pairs as a dense (n, width) float matrix."""
    pairs = list(pairs)
    out = np.zeros((len(pairs), encoder.width), dtype=np.float64)
    resolved_at, gaps_at = encoder.resolved_at, encoder.gaps_at
    status_at, type_at = encoder.status_at, encoder.type_at
    identity_index = {
        column: {ident: i for i, ident in enumerate(encoder.identity_vocabs[column])}
        for column in encoder.identity_at
    }

    for row, (issue, commit) in enumerate(pairs):
        author_day = _epoch_day(commit.author_time_date)
        commit_day = _epoch_day(commit.commit_time_date)
        created_day = _epoch_day(issue.created_date)
        updated_day = _epoch_day(issue.updated_date)
        out[row, 0] = author_day
        out[row, 1] = commit_day
        out[row, 2] = created_day
        out[row, 3] = updated_day
        resolved_day = 0.0
        has_resolved = issue.resolved_date is not None
        if has_resolved:
            resolved_day = _epoch_day(issue.resolved_date)
        if encoder.include_resolved:
            out[row, resolved_at] = resolved_day
            out[row, resolved_at + 1] = 1.0 if has_resolved else 0.0
        if encoder.gap_features:
            issue_days = [created_day, updated_day]
            if encoder.include_resolved:
                # Gap stays 0 when resolved is absent; the presence flag is
                # there for the model to tell the two cases apart.
                issue_days.append(resolved_day if has_resolved else None)
            col = gaps_at
            for commit_day_value in (author_day, commit_day):
                for issue_day_value in issue_days:
                    if issue_day_value is not None:
                        out[row, col] = abs(commit_day_value - issue_day_value)
                    col += 1
        status = reduce_status(encoder, issue)
        out[row, status_at + STATUS_CLASSES.index(status)] = 1.0
        type_class = reduce_type(encoder, issue)
        out[row, type_at + TYPE_CLASSES.index(type_class)] = 1.0
        values = {
            "creator": issue.creator,
            "author": commit.author,
            "committer": commit.committer,
            "reporter": issue.reporter,
        }
        for column, start in encoder.identity_at.items():
            index = identity_index[column].get(values[column])
            if index is None:
                index = len(encoder.identity_vocabs[column])
            out[row, start + index] = 1.0
    return out


# Instants from year 1 to year 9999, whole days and odd seconds alike.
SECONDS = st.integers(-62_135_596_800, 253_402_300_799) | st.integers(
    T0 - 40 * DAY, T0 + 40 * DAY
)
# Mapped labels in several cases, and labels the packaged map lacks.
STATUS_LABELS = st.sampled_from(
    ["Open", "CLOSED", "resolved", "Won't Fix", "Limbo", ""]
)
TYPE_LABELS = st.sampled_from(
    ["Bug", "improvement", "TASK", "New Feature", "Chore", "?"]
)
# Identities in and out of the vocabulary, OTHER included.
IDENTS = st.sampled_from(["dev-0", "dev-1", "dev-2", OTHER, "stranger", "nobody"])
VOCAB = st.lists(st.sampled_from(["dev-0", "dev-1", "dev-2", OTHER]), unique=True)


@st.composite
def encoders(draw):
    include_reporter = draw(st.booleans())
    columns = ["creator", "author", "committer"] + (
        ["reporter"] if include_reporter else []
    )
    status_map, type_map = load_category_maps()
    return TabularEncoder(
        status_map=status_map,
        type_map=type_map,
        identity_vocabs={column: tuple(draw(VOCAB)) for column in columns},
        include_reporter=include_reporter,
        include_resolved=draw(st.booleans()),
        gap_features=draw(st.booleans()),
        identity_top_k=3,
        redundancy={},
        unmapped_status={},
        unmapped_type={},
    )


@st.composite
def pairs(draw):
    issue = make_issue(
        raw_type=draw(TYPE_LABELS),
        raw_status=draw(STATUS_LABELS),
        created=draw(SECONDS),
        updated=draw(SECONDS),
        resolved=draw(st.none() | SECONDS),
        reporter=draw(IDENTS),
        creator=draw(IDENTS),
    )
    commit = make_commit(
        author=draw(IDENTS),
        committer=draw(IDENTS),
        author_time=draw(SECONDS),
        commit_time=draw(SECONDS),
    )
    return issue, commit


@settings(max_examples=300)
@given(encoders(), st.lists(pairs(), max_size=8))
def test_column_encoding_matches_the_per_pair_encoder(encoder, drawn):
    got = featurize_pairs_tabular(iter(drawn), encoder)
    want = _oracle_featurize_pairs_tabular(drawn, encoder)
    assert got.shape == want.shape == (len(drawn), encoder.width)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
