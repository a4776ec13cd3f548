from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import typing
import zipfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hybrid_linker
from hybrid_linker.cli import build_parser, main
from hybrid_linker.config import Config

FAST_LEARNERS = {
    "textual": {
        "variant": "gradient_boosting",
        "n_estimators": 12,
        "max_depth": 5,
        "min_rows": 2,
        "learn_rate": 0.1,
    },
    "nontextual": {
        "gradient_boosting": {
            "variant": "gradient_boosting",
            "n_trees": 12,
            "max_depth": 5,
            "min_rows": 2,
            "learn_rate": 0.1,
        },
        "regularized_gradient_boosting": {
            "variant": "regularized_gradient_boosting",
            "n_trees": 12,
            "max_depth": 5,
            "min_rows": 2,
            "learn_rate": 0.1,
        },
    },
}


@pytest.fixture()
def workspace(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"k": 3, **FAST_LEARNERS}), encoding="utf-8")
    return tmp_path


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_deterministic_corpus(workspace, capsys):
    out_a = workspace / "corpus-a"
    out_b = workspace / "corpus-b"
    for out in (out_a, out_b):
        code, _, err = _run(
            capsys, "synth", "--seed", 4, "--issues", 30, "--commits", 30,
            "--out", out,
        )
        assert code == 0
        assert "effective-config" in err
    assert (out_a / "issues.jsonl").read_bytes() == (
        out_b / "issues.jsonl"
    ).read_bytes()
    assert (out_a / "commits.jsonl").read_bytes() == (
        out_b / "commits.jsonl"
    ).read_bytes()


def _pipeline(workspace, capsys, seed=4):
    corpus = workspace / "corpus"
    cands = workspace / "cands.tsv"
    model = workspace / "model.hlb"
    code, _, _ = _run(
        capsys, "synth", "--seed", seed, "--issues", 30, "--commits", 30,
        "--out", corpus,
    )
    assert code == 0
    code, _, _ = _run(
        capsys, "gen-links", "--corpus", corpus, "--seed", seed, "--out", cands
    )
    assert code == 0
    code, _, _ = _run(
        capsys, "train", "--config", workspace / "config.json",
        "--corpus", corpus, "--candidates", cands, "--seed", seed,
        "--out", model,
    )
    assert code == 0
    return corpus, cands, model


def test_full_pipeline_train_and_predict(workspace, capsys):
    corpus, cands, model = _pipeline(workspace, capsys)
    first = json.loads(
        (corpus / "commits.jsonl").read_text(encoding="utf-8").splitlines()[0]
    )
    code, out, _ = _run(
        capsys, "predict", "--model", model, "--corpus", corpus,
        "--issue", first["linked_issue_ids"][0],
        "--commit", first["commit_hash"],
    )
    assert code == 0
    issue_id, commit_hash, probability, label = out.strip().split(" ")
    assert issue_id == first["linked_issue_ids"][0]
    assert commit_hash == first["commit_hash"]
    assert 0.0 <= float(probability) <= 1.0
    assert label in ("0", "1")


def test_predict_batch_writes_tsv(workspace, capsys):
    corpus, cands, model = _pipeline(workspace, capsys)
    pair_rows = ["issue_id\tcommit_hash"]
    for line in cands.read_text(encoding="utf-8").splitlines()[1:]:
        issue_id, commit_hash = line.split("\t")[:2]
        pair_rows.append(f"{issue_id}\t{commit_hash}")
    pairs_path = workspace / "pairs.tsv"
    pairs_path.write_text("\n".join(pair_rows) + "\n", encoding="utf-8")
    out_path = workspace / "scored.tsv"
    code, _, _ = _run(
        capsys, "predict-batch", "--model", model, "--corpus", corpus,
        "--pairs", pairs_path, "--out", out_path,
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "issue_id\tcommit_hash\tprobability\tlabel"
    assert len(lines) == len(pair_rows)
    for line in lines[1:]:
        _, _, prob, label = line.split("\t")
        assert 0.0 <= float(prob) <= 1.0
        assert label in ("0", "1")


def test_predict_batch_of_no_pairs_writes_only_the_header(workspace, capsys):
    corpus, _, model = _pipeline(workspace, capsys)
    pairs_path = workspace / "pairs.tsv"
    pairs_path.write_text("issue_id\tcommit_hash\n", encoding="utf-8")
    out_path = workspace / "scored.tsv"
    code, out, _ = _run(
        capsys, "predict-batch", "--model", model, "--corpus", corpus,
        "--pairs", pairs_path, "--out", out_path,
    )
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == (
        "issue_id\tcommit_hash\tprobability\tlabel\n"
    )
    assert f"scored 0 pairs -> {out_path}" in out


def test_every_predict_line_equals_its_predict_batch_row(workspace, capsys):
    config = workspace / "config.json"
    data = json.loads(config.read_text(encoding="utf-8"))
    data["nontextual_kind"] = "RF+GB+XGB"
    data["nontextual"]["random_forest"] = {
        "variant": "random_forest", "n_trees": 12, "max_depth": 5, "min_rows": 2,
    }
    config.write_text(json.dumps(data), encoding="utf-8")
    corpus, cands, model = _pipeline(workspace, capsys)
    pairs = [
        line.split("\t")[:2]
        for line in cands.read_text(encoding="utf-8").splitlines()[1:]
    ]
    pairs_path = workspace / "pairs.tsv"
    pairs_path.write_text(
        "".join(f"{issue_id}\t{commit_hash}\n" for issue_id, commit_hash in pairs),
        encoding="utf-8",
    )
    code, batch, _ = _run(
        capsys, "predict-batch", "--model", model, "--corpus", corpus,
        "--pairs", pairs_path,
    )
    assert code == 0
    rows = batch.splitlines()[1:]
    assert len(rows) == len(pairs)
    for (issue_id, commit_hash), row in zip(pairs, rows):
        code, out, _ = _run(
            capsys, "predict", "--model", model, "--corpus", corpus,
            "--issue", issue_id, "--commit", commit_hash,
        )
        assert code == 0
        assert out.split() == row.split("\t")


def test_evaluate_is_byte_identical_across_runs(workspace, capsys):
    corpus, cands, _ = _pipeline(workspace, capsys)
    report_a = workspace / "report-a.json"
    report_b = workspace / "report-b.json"
    for report in (report_a, report_b):
        code, _, _ = _run(
            capsys, "evaluate", "--config", workspace / "config.json",
            "--corpus", corpus, "--candidates", cands, "--seed", 4,
            "--out", report,
        )
        assert code == 0
    assert report_a.read_bytes() == report_b.read_bytes()
    parsed = json.loads(report_a.read_text(encoding="utf-8"))
    assert parsed["k"] == 3
    assert "reference_averages" in parsed


def test_flag_overrides_config_file(workspace, capsys):
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 30, "--commits", 30,
         "--out", corpus)
    cands = workspace / "cands.tsv"
    code, _, err = _run(
        capsys, "gen-links", "--config", workspace / "config.json",
        "--corpus", corpus, "--seed", 11, "--window-days", 3, "--out", cands,
    )
    assert code == 0
    echoed = json.loads(err.split("effective-config ", 1)[1].splitlines()[0])
    assert echoed["seed"] == 11
    assert echoed["window_days"] == 3


def test_negative_window_means_uncapped(workspace, capsys):
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    capped = workspace / "capped.tsv"
    uncapped = workspace / "uncapped.tsv"
    _run(capsys, "gen-links", "--corpus", corpus, "--seed", 4,
         "--window-days", 2, "--out", capped)
    code, _, err = _run(
        capsys, "gen-links", "--corpus", corpus, "--seed", 4,
        "--window-days", -1, "--out", uncapped,
    )
    assert code == 0
    echoed = json.loads(err.split("effective-config ", 1)[1].splitlines()[0])
    assert echoed["window_days"] is None


def _echoed(err: str) -> dict:
    return json.loads(err.split("effective-config ", 1)[1].splitlines()[0])


def test_config_file_stratified_survives_evaluate_without_the_flag(workspace, capsys):
    corpus = workspace / "corpus"
    cands = workspace / "cands.tsv"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    _run(capsys, "gen-links", "--corpus", corpus, "--seed", 4, "--out", cands)
    config = workspace / "stratified.json"
    config.write_text(
        json.dumps({"k": 3, "stratified": True, **FAST_LEARNERS}), encoding="utf-8"
    )
    report = workspace / "report.json"
    code, _, err = _run(
        capsys, "evaluate", "--config", config, "--corpus", corpus,
        "--candidates", cands, "--out", report,
    )
    assert code == 0
    assert _echoed(err)["stratified"] is True
    assert json.loads(report.read_text(encoding="utf-8"))["config"]["stratified"]


# Each flag that names a Config field: (field, subcommand and flag, value set).
_FIELD_FLAGS = [
    ("seed", ["gen-links", "--seed", "11"], 11),
    ("jobs", ["gen-links", "--jobs", "3"], 3),
    ("window_days", ["gen-links", "--window-days", "3"], 3),
    ("balance_seed", ["gen-links", "--balance-seed", "9"], 9),
    ("k", ["evaluate", "--k", "4"], 4),
    ("tune_on", ["evaluate", "--tune-on", "test"], "test"),
    ("threshold", ["evaluate", "--threshold", "0.25"], 0.25),
    ("alpha_step", ["evaluate", "--alpha-step", "0.2"], 0.2),
    ("stratified", ["evaluate", "--stratified"], True),
]

_FILE_VALUES = {
    "seed": 1, "jobs": 2, "window_days": 7, "balance_seed": 1, "split_seed": 1,
    "fold_seed": 1, "k": 3, "tune_on": "validation", "threshold": 0.5,
    "alpha_step": 0.05, "stratified": False,
}


def test_field_flags_list_every_flag_that_names_a_config_field():
    names = {item.name for item in dataclasses.fields(Config)}
    commands = build_parser.__wrapped__()._subparsers._group_actions[0].choices
    dests = {
        action.dest
        for command in commands.values()
        for action in command._actions
        if action.dest in names
    }
    assert dests == {name for name, _, _ in _FIELD_FLAGS}


@pytest.mark.parametrize(
    "name, argv, value", _FIELD_FLAGS, ids=[name for name, _, _ in _FIELD_FLAGS]
)
def test_each_flag_overrides_the_config_field_of_its_name(
    workspace, capsys, monkeypatch, name, argv, value
):
    monkeypatch.delenv("HYBRID_LINKER_SEED", raising=False)
    config = workspace / "fields.json"
    config.write_text(json.dumps(_FILE_VALUES), encoding="utf-8")
    # The corpus is missing, so each run exits 1 after echoing its config.
    inputs = {
        "gen-links": ["--corpus", workspace / "nowhere", "--out", workspace / "x"],
        "evaluate": ["--corpus", workspace / "nowhere", "--candidates", "x"],
    }
    command = [argv[0], "--config", config, *inputs[argv[0]]]
    code, _, err = _run(capsys, *command)
    assert code == 1
    before = _echoed(err)
    code, _, err = _run(capsys, *command, *argv[1:])
    assert code == 1
    after = _echoed(err)
    assert before[name] == _FILE_VALUES[name]
    assert after[name] == value
    assert {key for key in after if after[key] != before[key]} == {name}


def test_seed_env_default(workspace, capsys, monkeypatch):
    monkeypatch.setenv("HYBRID_LINKER_SEED", "77")
    corpus = workspace / "corpus-env"
    code, _, err = _run(
        capsys, "synth", "--issues", 20, "--commits", 20, "--out", corpus
    )
    assert code == 0
    echoed = json.loads(err.split("effective-config ", 1)[1].splitlines()[0])
    assert echoed["seed"] == 77


def test_non_integer_seed_env_exits_one_naming_the_variable(
    workspace, capsys, monkeypatch
):
    monkeypatch.setenv("HYBRID_LINKER_SEED", "abc")
    code, out, err = _run(
        capsys, "synth", "--issues", 3, "--commits", 2, "--out", workspace / "d"
    )
    assert code == 1
    assert out == ""
    assert err == "error: HYBRID_LINKER_SEED: expected int, got 'abc'\n"
    assert not (workspace / "d").exists()


def test_negative_seed_env_exits_one_naming_the_variable_and_value(
    workspace, capsys, monkeypatch
):
    monkeypatch.setenv("HYBRID_LINKER_SEED", "-5")
    code, out, err = _run(
        capsys, "synth", "--issues", 3, "--commits", 2, "--out", workspace / "d"
    )
    assert code == 1
    assert out == ""
    assert err == "error: HYBRID_LINKER_SEED: must be non-negative, got -5\n"
    assert not (workspace / "d").exists()
    # A negative --seed keeps the config field's message.
    code, out, err = _run(
        capsys, "synth", "--seed", -5, "--issues", 3, "--commits", 2,
        "--out", workspace / "d",
    )
    assert (code, out, err) == (1, "", "error: seed: must be non-negative\n")
    assert not (workspace / "d").exists()


def test_missing_file_exits_one(workspace, capsys):
    code, _, err = _run(
        capsys, "gen-links", "--corpus", workspace / "nowhere", "--seed", 1,
        "--out", workspace / "x.tsv",
    )
    assert code == 1
    assert "error:" in err


def test_bad_utf8_corpus_exits_one_naming_the_file(workspace, capsys):
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    issues_path = corpus / "issues.jsonl"
    with open(issues_path, "ab") as handle:
        handle.write(b"\xff")
    code, _, err = _run(
        capsys, "gen-links", "--corpus", corpus, "--seed", 1,
        "--out", workspace / "x.tsv",
    )
    assert code == 1
    assert f"{issues_path}:21: invalid UTF-8 at byte offset" in err


def test_bad_utf8_candidates_exit_one_naming_the_line(workspace, capsys):
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    cands = workspace / "cands.tsv"
    _run(capsys, "gen-links", "--corpus", corpus, "--seed", 4, "--out", cands)
    with open(cands, "ab") as handle:
        handle.write(b"I-1\tabc\t0\twindow\xff\n")
    n_lines = len(cands.read_bytes().splitlines())
    code, _, err = _run(
        capsys, "train", "--corpus", corpus, "--candidates", cands,
        "--out", workspace / "m.hlb",
    )
    assert code == 1
    assert f"{cands}:{n_lines}: invalid UTF-8 at byte offset" in err


def test_pairs_with_a_byte_order_mark_score_as_without(workspace, capsys):
    corpus, cands, model = _pipeline(workspace, capsys)
    rows = [line.split("\t")[:2] for line in cands.read_text("utf-8").splitlines()]
    text = "".join(f"{issue_id}\t{commit_hash}\n" for issue_id, commit_hash in rows)
    outputs = []
    for prefix in ("", "\ufeff"):
        pairs_path = workspace / "pairs.tsv"
        pairs_path.write_text(prefix + text, encoding="utf-8")
        code, out, _ = _run(
            capsys, "predict-batch", "--model", model, "--corpus", corpus,
            "--pairs", pairs_path,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(rows)


def test_bad_utf8_pairs_exit_one_naming_the_line(workspace, capsys):
    corpus, _, model = _pipeline(workspace, capsys)
    pairs_path = workspace / "pairs.tsv"
    pairs_path.write_bytes(b"issue_id\tcommit_hash\nI-1\tab\xffc\n")
    code, _, err = _run(
        capsys, "predict-batch", "--model", model, "--corpus", corpus,
        "--pairs", pairs_path,
    )
    assert code == 1
    assert f"{pairs_path}:2: invalid UTF-8 at byte offset 27" in err


def test_ingest_of_an_unrenderable_timestamp_exits_one_writing_nothing(
    workspace, capsys
):
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    issues_path = corpus / "issues.jsonl"
    lines = issues_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    record["created_date"] = "9999-12-31T23:59:59-23:59"
    lines[2] = json.dumps(record)
    issues_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = workspace / "normalized"
    code, _, err = _run(
        capsys, "ingest", "--issues", issues_path,
        "--commits", corpus / "commits.jsonl", "--out", out,
    )
    assert code == 1
    assert err.endswith(
        f"error: {issues_path}:3: field 'created_date': timestamp "
        "'9999-12-31T23:59:59-23:59' lies outside UTC years 1 to 9999\n"
    )
    assert not out.exists()


def _append_row(path, row: str) -> int:
    """Append one TSV row; returns its line number."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(row + "\n")
    return len(path.read_text(encoding="utf-8").splitlines())


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unknown_issue_in_candidates_exits_one_naming_the_line(
    workspace, capsys, command
):
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    cands = workspace / "cands.tsv"
    _run(capsys, "gen-links", "--corpus", corpus, "--seed", 4, "--out", cands)
    commit_hash = cands.read_text(encoding="utf-8").splitlines()[1].split("\t")[1]
    lineno = _append_row(cands, f"SYN-999\t{commit_hash}\t0\twindow")
    out = ["--out", workspace / "m.hlb"] if command == "train" else []
    code, _, err = _run(
        capsys, command, "--config", workspace / "config.json",
        "--corpus", corpus, "--candidates", cands, *out,
    )
    assert code == 1
    assert err.endswith(f"error: {cands}:{lineno}: unknown issue id 'SYN-999'\n")


def test_unknown_commit_in_pairs_exits_one_naming_the_line(workspace, capsys):
    corpus, cands, model = _pipeline(workspace, capsys)
    issue_id = cands.read_text(encoding="utf-8").splitlines()[1].split("\t")[0]
    pairs_path = workspace / "pairs.tsv"
    pairs_path.write_text("issue_id\tcommit_hash\n", encoding="utf-8")
    lineno = _append_row(pairs_path, f"{issue_id}\tnope")
    code, _, err = _run(
        capsys, "predict-batch", "--model", model, "--corpus", corpus,
        "--pairs", pairs_path,
    )
    assert code == 1
    assert err.endswith(f"error: {pairs_path}:{lineno}: unknown commit hash 'nope'\n")


def test_unknown_bundle_param_exits_one_naming_member_and_key(workspace, capsys):
    corpus, cands, model = _pipeline(workspace, capsys)
    with zipfile.ZipFile(model) as bundle:
        files = {name: bundle.read(name) for name in bundle.namelist()}
    manifest = json.loads(files["manifest.json"])
    manifest["nontextual_members"][0]["params"]["bogus"] = 1
    files["manifest.json"] = json.dumps(manifest).encode("utf-8")
    with zipfile.ZipFile(model, "w") as bundle:
        for name, data in files.items():
            bundle.writestr(name, data)
    issue_id, commit_hash = cands.read_text(encoding="utf-8").splitlines()[1].split(
        "\t"
    )[:2]
    code, _, err = _run(
        capsys, "predict", "--model", model, "--corpus", corpus,
        "--issue", issue_id, "--commit", commit_hash,
    )
    assert code == 1
    assert f"error: {model}: nontextual_0: unknown learner parameter 'bogus'" in err


@pytest.mark.parametrize(
    "config, section",
    [
        ({"nontextual": []}, "nontextual"),
        ({"textual": 5}, "textual"),
        ({"textual": {"n_trees": "x"}}, "textual"),
        ({"textual": {"bogus": 1}}, "textual"),
        ({"textual": {"learn_rate": True}}, "textual"),
        ({"textual": {"n_trees": 0}}, "textual"),
        ({"nontextual": {"random_forest": []}}, "nontextual.random_forest"),
    ],
)
def test_malformed_learner_section_exits_one(workspace, capsys, config, section):
    config_path = workspace / "bad.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = _run(
        capsys, "gen-links", "--config", config_path,
        "--corpus", workspace / "nowhere", "--out", workspace / "x.tsv",
    )
    assert code == 1
    assert f"error: {section}:" in err


# Values of the wrong JSON type for each annotated type: a string, true for a
# number, a fraction for an integer, NaN and the infinities for a float, a list.
WRONG_VALUES = {
    int: ["7", True, 2.5, float("nan"), [7]],
    float: ["0.5", True, float("nan"), float("inf"), float("-inf"), [0.5]],
    bool: ["no", 1, [True]],
    str: [5, True, ["validation"]],
}


def _wrongly_typed_fields():
    for key, hint in typing.get_type_hints(Config).items():
        if key in ("textual", "nontextual"):
            continue
        base = (typing.get_args(hint) or (hint,))[0]  # X of X | None
        for value in WRONG_VALUES[base]:
            yield key, value


@pytest.mark.parametrize("key, value", list(_wrongly_typed_fields()))
def test_wrongly_typed_config_field_exits_one_naming_it(
    workspace, capsys, key, value
):
    config_path = workspace / "bad.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    code, _, err = _run(
        capsys, "train", "--config", config_path, "--corpus", workspace / "nowhere",
        "--candidates", workspace / "nowhere.tsv", "--out", workspace / "m.hlb",
    )
    assert code == 1
    assert f"error: {key}:" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("k", 1),
        ("tune_on", "train"),
        ("threshold", 1.5),
        ("threshold", 0.0),
        ("alpha_step", 0.0005),
        ("window_days", -1),
        ("seed", -1),
        ("balance_seed", -1),
        ("split_seed", -1),
        ("fold_seed", -1),
        ("jobs", 0),
        ("identity_top_k", 0),
        ("missing_threshold", 1.5),
        ("max_features", 0),
        ("nontextual_kind", "RF+SVM"),
    ],
)
def test_out_of_range_config_field_exits_one_naming_it(workspace, capsys, key, value):
    config_path = workspace / "bad.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    code, _, err = _run(
        capsys, "train", "--config", config_path, "--corpus", workspace / "nowhere",
        "--candidates", workspace / "nowhere.tsv", "--out", workspace / "m.hlb",
    )
    assert code == 1
    assert f"error: {key}: must" in err


@pytest.mark.parametrize("kind", ["config", "stopwords", "category_map"])
def test_bad_utf8_config_inputs_exit_one_naming_the_line(workspace, capsys, kind):
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    cands = workspace / "cands.tsv"
    _run(capsys, "gen-links", "--corpus", corpus, "--seed", 4, "--out", cands)
    bad = workspace / "bad.txt"
    bad.write_bytes(b"# first line\nfix\tbug\xff\n")
    config = {"k": 3, **FAST_LEARNERS}
    if kind != "config":
        config[f"{kind}_path"] = str(bad)
    config_path = workspace / "bad.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    if kind == "config":
        config_path = bad
    code, _, err = _run(
        capsys, "train", "--config", config_path, "--corpus", corpus,
        "--candidates", cands, "--out", workspace / "m.hlb",
    )
    assert code == 1
    assert f"error: {bad}:2: invalid UTF-8 at byte offset 20" in err


def test_deeply_nested_json_exits_one_naming_the_file(workspace, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    config_path = workspace / "deep.json"
    config_path.write_text(deep, encoding="utf-8")
    code, _, err = _run(
        capsys, "gen-links", "--config", config_path,
        "--corpus", workspace / "nowhere", "--out", workspace / "x.tsv",
    )
    assert code == 1
    assert f"error: {config_path}: invalid JSON" in err
    corpus = workspace / "corpus"
    _run(capsys, "synth", "--seed", 4, "--issues", 20, "--commits", 20,
         "--out", corpus)
    with open(corpus / "commits.jsonl", "a", encoding="utf-8") as handle:
        handle.write(deep + "\n")
    code, _, err = _run(
        capsys, "gen-links", "--corpus", corpus, "--out", workspace / "x.tsv"
    )
    assert code == 1
    assert f"error: {corpus / 'commits.jsonl'}:21: invalid JSON" in err


def test_bad_arguments_exit_two(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-links", "--no-such-flag"])
    assert exc.value.code == 2


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


# At least one argv per subcommand, with every option of each given once.
_ARGV_SAMPLES = [
    ["ingest", "--issues", "i.jsonl", "--commits", "c.jsonl", "--out", "d"],
    ["synth", "--issues", "3", "--commits", "2", "--out", "d"],
    [
        "synth", "--config", "c.json", "--seed", "5", "--jobs", "2",
        "--issues", "3", "--commits", "2", "--lexical", "0.5",
        "--temporal", "0.25", "--density", "0.75", "--out", "d",
    ],
    ["gen-links", "--corpus", "d", "--out", "x.tsv"],
    [
        "gen-links", "--corpus", "d", "--window-days", "-1", "--no-balance",
        "--balance-seed", "9", "--out", "x.tsv",
    ],
    [
        "train", "--corpus", "d", "--candidates", "x.tsv", "--out", "m.hlb",
        "--threshold", "0.4", "--alpha-step", "0.1",
    ],
    ["evaluate", "--corpus", "d", "--candidates", "x.tsv"],
    [
        "evaluate", "--corpus", "d", "--candidates", "x.tsv", "--k", "3",
        "--ablation", "--tune-on", "test", "--stratified", "--threshold", "0.6",
        "--alpha-step", "0.2", "--out", "r.json",
    ],
    ["predict", "--model", "m.hlb", "--corpus", "d", "--issue", "I-1",
     "--commit", "abc"],
    ["predict-batch", "--model", "m.hlb", "--corpus", "d", "--pairs", "p.tsv"],
    ["predict-batch", "--model", "m.hlb", "--corpus", "d", "--pairs", "p.tsv",
     "--out", "o.tsv"],
]


def test_argv_samples_cover_every_subcommand():
    commands = build_parser.__wrapped__()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in _ARGV_SAMPLES} == set(commands)


@pytest.mark.parametrize("argv", _ARGV_SAMPLES, ids=lambda argv: argv[0])
def test_shared_parser_parses_like_a_fresh_one(argv):
    expected = vars(build_parser.__wrapped__().parse_args(argv))
    shared = build_parser()
    for other in _ARGV_SAMPLES:  # earlier parses leave nothing behind
        shared.parse_args(other)
    assert vars(shared.parse_args(argv)) == expected


@pytest.mark.parametrize(
    "bad",
    [
        ["synth", "--issues", "many", "--commits", "2", "--out", "d"],
        ["synth", "--commits", "2", "--out", "d"],
        ["gen-links", "--corpus", "d", "--out", "x.tsv", "--no-such-flag"],
        ["evaluate", "--corpus", "d", "--candidates", "x", "--tune-on", "train"],
        ["frobnicate"],
        [],
    ],
)
def test_usage_error_leaves_the_next_call_unchanged(workspace, capsys, bad):
    valid = ["synth", "--seed", 3, "--issues", 6, "--commits", 5,
             "--out", workspace / "corpus"]
    alone = _run(capsys, *valid)
    with pytest.raises(SystemExit) as fresh_exit:
        build_parser.__wrapped__().parse_args(bad)
    fresh = capsys.readouterr()
    with pytest.raises(SystemExit) as shared_exit:
        main(bad)
    assert shared_exit.value.code == fresh_exit.value.code == 2
    assert capsys.readouterr() == fresh
    assert _run(capsys, *valid) == alone


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))


@pytest.mark.parametrize("flag", ["--issue", "--commit"])
def test_unknown_id_in_predict_exits_one_naming_the_corpus(workspace, capsys, flag):
    corpus, _, model = _pipeline(workspace, capsys)
    first = json.loads(
        (corpus / "commits.jsonl").read_text(encoding="utf-8").splitlines()[0]
    )
    ids = {"--issue": first["linked_issue_ids"][0], "--commit": first["commit_hash"]}
    ids[flag] = "NOPE"
    code, out, err = _run(
        capsys, "predict", "--model", model, "--corpus", corpus,
        "--issue", ids["--issue"], "--commit", ids["--commit"],
    )
    assert code == 1
    assert out == ""
    kind = "issue id" if flag == "--issue" else "commit hash"
    assert err.endswith(f"error: {corpus}: unknown {kind} 'NOPE'\n")


# Hostile candidate and pair TSVs: a saved file with one fault is run through
# the CLI. It must load, or exit 1 naming the line the fault is on, counting
# lines as newline-terminated byte runs, as the invalid-UTF-8 report does.

TINY_LEARNERS = {
    "textual": {"n_estimators": 3, "max_depth": 3},
    "nontextual": {
        variant: {"variant": variant, "n_trees": 3, "max_depth": 3}
        for variant in FAST_LEARNERS["nontextual"]
    },
}


@pytest.fixture(scope="module")
def saved_tsvs(tmp_path_factory):
    """A directory with a small corpus, its candidate TSV, a pair TSV and a
    model trained on them."""
    root = tmp_path_factory.mktemp("tsv")
    corpus, cands, model = root / "corpus", root / "cands.tsv", root / "m.hlb"
    config = root / "config.json"
    config.write_text(json.dumps(TINY_LEARNERS), encoding="utf-8")
    steps = [
        ["synth", "--seed", 4, "--issues", 12, "--commits", 12, "--out", corpus],
        ["gen-links", "--corpus", corpus, "--seed", 4, "--out", cands],
        ["train", "--config", config, "--corpus", corpus, "--candidates", cands,
         "--out", model],
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0
    rows = cands.read_text(encoding="utf-8").splitlines()
    pairs = root / "pairs.tsv"
    pairs.write_text(
        "".join(
            "\t".join(row.split("\t")[:2]) + "\n"
            for row in ["issue_id\tcommit_hash", *rows[1:]]
        ),
        encoding="utf-8",
    )
    return root


@st.composite
def one_fault(draw, text: bytes):
    """The file with one fault on one line, the line the fault is on, and
    whether the fault always makes the file invalid."""
    lines = text.split(b"\n")[:-1]
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    fields = line.split(b"\t")
    kind = draw(st.sampled_from(
        ["field", "label", "duplicate", "unknown", "cr", "tab", "utf8"]
    ))
    at = draw(st.integers(0, len(line)))
    located = index + 1
    if kind == "field":
        fields = fields[:-1] if draw(st.booleans()) else [*fields, b"extra"]
        lines[index] = b"\t".join(fields)
    elif kind == "label":
        label = draw(st.sampled_from(
            [b"0", b"1", b"2", b"-1", b"", b"01", b"1.0", b" 1", b"yes"]
        ))
        lines[index] = b"\t".join([*fields[:2], label, *fields[3:]])
    elif kind == "duplicate":
        lines.insert(index + 1, line)
        located = index + 2
    elif kind == "unknown":
        column = draw(st.integers(0, 1))
        fields[column] = [b"NOPE-1", b"0" * 40][column]
        lines[index] = b"\t".join(fields)
    else:
        stray = {"cr": b"\r", "tab": b"\t"}.get(kind)
        if stray is None:
            stray = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]))
        lines[index] = line[:at] + stray + line[at:]
    must_fail = kind in ("field", "unknown", "tab", "utf8")
    return b"".join(row + b"\n" for row in lines), located, must_fail


def _assert_loads_or_names_the_line(capsys, path, argv, located, must_fail):
    """Run argv: it exits 0, or 1 with one error line for line located."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    assert code == 1 or not must_fail
    if code == 1:
        message = err.splitlines()[-1]
        assert message.startswith(f"error: {path}:{located}: "), message


@settings(
    max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_candidate_tsv_loads_or_fails_naming_its_line(
    saved_tsvs, capsys, data
):
    text, located, must_fail = data.draw(
        one_fault((saved_tsvs / "cands.tsv").read_bytes())
    )
    path = saved_tsvs / "mutated-cands.tsv"
    path.write_bytes(text)
    argv = ["train", "--config", saved_tsvs / "config.json",
            "--corpus", saved_tsvs / "corpus", "--candidates", path,
            "--out", saved_tsvs / "mutated.hlb"]
    _assert_loads_or_names_the_line(capsys, path, argv, located, must_fail)


@settings(
    max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_pair_tsv_loads_or_fails_naming_its_line(saved_tsvs, capsys, data):
    text, located, must_fail = data.draw(
        one_fault((saved_tsvs / "pairs.tsv").read_bytes())
    )
    path = saved_tsvs / "mutated-pairs.tsv"
    path.write_bytes(text)
    argv = ["predict-batch", "--model", saved_tsvs / "m.hlb",
            "--corpus", saved_tsvs / "corpus", "--pairs", path,
            "--out", saved_tsvs / "scored.tsv"]
    _assert_loads_or_names_the_line(capsys, path, argv, located, must_fail)


# Runs every pipeline stage in a fresh interpreter and lists the SciPy and
# numpy.random modules it loaded, then trains a random forest, the one
# learner that draws from numpy.random.
PIPELINE_SCRIPT = """
import json, sys
from pathlib import Path
from hybrid_linker.cli import main

def loaded(package):
    return sorted(name for name in sys.modules if name.startswith(package))

work = Path(sys.argv[1])
corpus, cands, model = work / "corpus", work / "cands.tsv", work / "m.hlb"
pairs = work / "pairs.tsv"
codes = [
    main(["synth", "--seed", "1", "--issues", "12", "--commits", "12",
          "--out", str(corpus)]),
    main(["gen-links", "--corpus", str(corpus), "--seed", "1", "--out", str(cands)]),
    main(["train", "--corpus", str(corpus), "--candidates", str(cands),
          "--seed", "1", "--out", str(model)]),
    main(["evaluate", "--corpus", str(corpus), "--candidates", str(cands),
          "--seed", "1", "--k", "3", "--ablation", "--stratified",
          "--out", str(work / "report.json")]),
]
issue = json.loads((corpus / "issues.jsonl").read_text().splitlines()[0])
commit = json.loads((corpus / "commits.jsonl").read_text().splitlines()[0])
codes.append(main(["predict", "--model", str(model), "--corpus", str(corpus),
                   "--issue", issue["issue_id"], "--commit", commit["commit_hash"]]))
pairs.write_text(
    "issue_id\\tcommit_hash\\n" + issue["issue_id"] + "\\t" + commit["commit_hash"] + "\\n"
)
codes.append(main(["predict-batch", "--model", str(model), "--corpus", str(corpus),
                   "--pairs", str(pairs), "--out", str(work / "scored.tsv")]))
default = {"scipy": loaded("scipy"), "numpy_random": loaded("numpy.random")}
(work / "rf.json").write_text(json.dumps({"nontextual_kind": "RF+XGB"}))
codes.append(main(["train", "--config", str(work / "rf.json"), "--corpus", str(corpus),
                   "--candidates", str(cands), "--seed", "1",
                   "--out", str(work / "rf.hlb")]))
print(json.dumps({"codes": codes, **default, "rf_numpy_random": loaded("numpy.random")}))
"""


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """The modules PIPELINE_SCRIPT saw loaded, and those plain numpy loads."""
    src = str(Path(hybrid_linker.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE_SCRIPT, str(tmp_path_factory.mktemp("run"))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    numpy_only = subprocess.run(
        [sys.executable, "-c", "import json, sys, numpy; print(json.dumps("
         "sorted(m for m in sys.modules if m.startswith('numpy.random'))))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1]), json.loads(numpy_only.stdout)


def test_pipeline_never_imports_scipy(pipeline_run):
    result, _ = pipeline_run
    assert result["codes"] == [0] * 7
    assert result["scipy"] == []


def test_only_random_forests_load_numpy_random(pipeline_run):
    result, numpy_only = pipeline_run
    assert result["codes"] == [0] * 7
    # NumPy 1.x loads numpy.random with numpy itself; 2.x on first use.
    assert set(result["numpy_random"]) <= set(numpy_only)
    assert "numpy.random" in result["rf_numpy_random"]
