"""The benchmark's own tests: input determinism, wrapper hygiene, smoke runs.

Run from the repository root: python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, spans, workloads  # noqa: E402

# Per-layer values that are counts, or ratios of counts: they must repeat exactly.
EXACT = [
    name for name, (unit, _, _) in spans.PER_LAYER.items()
    if unit in ("count", "bytes")
] + ["linkgen.window_yield", "tfidf.doc_reuse", "learn.final_train_loss"]


def _setup_digest(name: str, seed: int, directory: Path) -> str:
    ctx = workloads.Context(inputs=directory / "inputs", outputs=directory / "outputs")
    ctx.inputs.mkdir(parents=True)
    ctx.outputs.mkdir(parents=True)
    workloads.WORKLOADS[name](seed, smoke=True).setup(ctx)
    return checks.sha256_tree(ctx.inputs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_one_seed(name, tmp_path):
    first = _setup_digest(name, 5, tmp_path / "a")
    assert _setup_digest(name, 5, tmp_path / "b") == first
    assert _setup_digest(name, 6, tmp_path / "c") != first


def _package_state():
    state = {}
    for module in spans._package_modules():
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = value
    from hybrid_linker._tree import ColumnIndex, Tree

    for cls in (ColumnIndex, Tree):
        for attr, value in vars(cls).items():
            state[(cls.__qualname__, attr)] = value
    return state


def test_wrappers_restore_every_original():
    workloads._warm_up()
    from hybrid_linker import cli, tfidf
    from hybrid_linker._tree import Tree

    before = _package_state()
    patches = spans.install(spans.Recorder())
    try:
        assert cli.main is not before[("hybrid_linker.cli", "main")]
        assert cli.save_model is not before[("hybrid_linker.cli", "save_model")]
        assert tfidf.issue_doc is not before[("hybrid_linker.tfidf", "issue_doc")]
        assert vars(Tree)["predict"] is not before[("Tree", "predict")]
    finally:
        patches.restore()
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_give_self_time():
    recorder = spans.Recorder()
    recorder.run_id = "step-0"

    def inner():
        return [1, 2]

    def outer():
        return recorder.call("tfidf.featurize", inner, None, (), {})

    recorder.call("cli.main", outer, None, (), {})
    recorded = recorder.spans
    assert [s.name for s in recorded] == ["cli.main", "tfidf.featurize"]
    assert recorded[1].parent == 0 and recorded[0].parent is None
    totals = spans._totals(recorded, {0, 1})
    assert totals["cli.self_s"] == pytest.approx(recorded[0].seconds - recorded[1].seconds)
    assert totals["tfidf.featurize_s"] == recorded[1].seconds


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name, tmp_path):
    plain = workloads.run(name, 3, 0.0, False, tmp_path / "plain", smoke=True)
    assert plain.problems == []
    assert plain.correct and plain.failed == 0 and plain.attempted >= 1
    assert set(plain.metrics) == {"stage_s", "call_ms_p50", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = workloads.run(name, 3, 0.0, True, tmp_path / "traced", smoke=True)
    assert traced.correct and traced.failed == 0
    assert list(traced.metrics) == list(spans.PER_LAYER)
    assert traced.digests == plain.digests
    assert (tmp_path / "traced" / "spans.jsonl").is_file()


@pytest.mark.parametrize("name", ["train-readme", "gen-links-4k"])
def test_counts_repeat_exactly(name, tmp_path):
    first = workloads.run(name, 4, 0.0, True, tmp_path / "a", smoke=True).metrics
    second = workloads.run(name, 4, 0.0, True, tmp_path / "b", smoke=True).metrics
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["linkgen.pairs_checked"][0] > 0


def test_window_brute_force_is_inclusive():
    commit = {
        "author_time_date": "2020-01-08T00:00:00+00:00",
        "commit_time_date": "2020-01-08T00:00:00+00:00",
        "linked_issue_ids": ["A"],
    }

    def issue(issue_id, created, resolved=None):
        return {"issue_id": issue_id, "created_date": created, "updated_date": created,
                "resolved_date": resolved}

    issues = [
        issue("A", "2020-01-08T00:00:00+00:00"),
        issue("B", "2020-01-01T00:00:00+00:00"),
        issue("C", "2019-12-31T23:59:59+00:00"),
        issue("D", "2019-12-01T00:00:00+00:00", "2020-01-15T00:00:00+00:00"),
    ]
    assert checks.window_false_candidates(issues, commit) == ["B", "D"]


def test_benchmark_json_lists_the_same_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "stage_s", "call_ms_p50", "peak_rss_mb", "setup_s"
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in spans.PER_LAYER.items()
    ]


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    def failing(name, seed, seconds, traced, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        return workloads.RunResult(
            correct=False, attempted=1, failed=1, metrics={"stage_s": (1.0, "s")},
            summary={}, digests={}, problems=["digests differ"], notes=[],
        )

    monkeypatch.setattr(workloads, "run", failing)
    argv = ["--workload", "gen-links-4k", "--seed", "9", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-links-4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
