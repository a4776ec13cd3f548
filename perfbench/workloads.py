"""The four seeded workloads and the closed loop that times them.

Every operation is one in-process call of hybrid_linker.cli.main, one
client, the next call only after the previous one returned. Inputs come
from the workload seed through the CLI's own synth and gen-links stages,
so the program only ever sees corpus, candidate and pair files.
"""

from __future__ import annotations

import io
import json
import random
import resource
import shutil
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median, quantiles

from . import checks, spans

DEFAULT_SEED = 1
PINS_PATH = Path(__file__).with_name("pins.json")


class BenchmarkError(Exception):
    """Set-up could not produce the workload's inputs."""


@dataclass
class Call:
    kind: str  # "stage" (the workload's bulk CLI stage) or "single" (one predict)
    seconds: float
    ok: bool


@dataclass
class Context:
    """What a workload needs while it runs: directories, digests and the CLI."""

    inputs: Path
    outputs: Path
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def cli(self, argv) -> tuple[int, str, str]:
        from hybrid_linker import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([str(arg) for arg in argv])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a dead run
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def must(self, argv) -> None:
        code, _, err = self.cli(argv)
        if code != 0:
            raise BenchmarkError(f"call {argv[0]} exited {code}: {err.strip()}")

    def timed(self, kind: str, argv) -> tuple[Call, str]:
        start = time.perf_counter()
        code, out, err = self.cli(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            self.note(f"{argv[0]} exited {code}: {last[0]}")
        return Call(kind, seconds, code == 0), out

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def same_output(self, name: str, path: Path) -> bool:
        """Record the output's digest the first time; later ones must match it."""
        digest = checks.sha256_file(path)
        return self.digests.setdefault(name, digest) == digest


def _p90(values: list[float]) -> float:
    return quantiles(values, n=10, method="inclusive")[-1]


def _covered(ctx: Context, pattern: str, pool: int) -> list[int]:
    """Inputs the loop reached before its time ran out."""
    return [i for i in range(pool) if pattern.format(i) in ctx.digests]


# --- workloads -------------------------------------------------------------------


def _readme_inputs(ctx: Context, seeds: list[int], size: int) -> None:
    """The README's first two steps per seed: synth, then balanced gen-links."""
    for i, seed in enumerate(seeds):
        corpus = ctx.inputs / f"corpus{i}"
        ctx.must(["synth", "--seed", seed, "--issues", size, "--commits", size,
                  "--out", corpus])
        ctx.must(["gen-links", "--corpus", corpus, "--seed", seed,
                  "--out", ctx.inputs / f"candidates{i}.tsv"])


class TrainReadme:
    """The README quick start (synth, balanced gen-links, train), on small corpora."""

    name = "train-readme"
    min_steps = 1
    setup_repeats = 9  # a sub-second set-up: the median of nine holds still

    def __init__(self, seed: int, smoke: bool):
        self.size = 10 if smoke else 12
        pool = 1 if smoke else 24
        self.seeds = [seed * 100 + i for i in range(pool)]
        self.trace_steps = 1 if smoke else 8

    def setup(self, ctx: Context) -> None:
        _readme_inputs(ctx, self.seeds, self.size)

    def _train_argv(self, ctx: Context, i: int, out: Path) -> list:
        return ["train", "--corpus", ctx.inputs / f"corpus{i}",
                "--candidates", ctx.inputs / f"candidates{i}.tsv",
                "--seed", self.seeds[i], "--out", out]

    def step(self, ctx: Context, index: int) -> list[Call]:
        i = index % len(self.seeds)
        out = ctx.outputs / f"model{i}.hlb"
        call, _ = ctx.timed("stage", self._train_argv(ctx, i, out))
        call.ok = call.ok and ctx.same_output(out.name, out)
        return [call]

    def named(self, stage: list[float], single: list[float]) -> dict:
        return {"train_s": (median(stage), "s")}

    def finish(self, ctx: Context) -> dict[str, float]:
        from hybrid_linker import HybridLinkerError, hybrid
        from hybrid_linker.corpus import load_corpus_dir
        from hybrid_linker.linkgen import read_candidates

        covered = _covered(ctx, "model{}.hlb", len(self.seeds))
        if 0 not in covered:
            ctx.problems.append("no bundle was written for input 0")
            return {}
        f1s, model0 = [], None
        for i in covered:
            path = ctx.outputs / f"model{i}.hlb"
            try:
                model = hybrid.load_model(path)
            except HybridLinkerError as exc:
                ctx.problems.append(f"{path.name} does not reload: {exc}")
                continue
            f1s.append(model.validation_f1)
            if i == 0:
                model0 = model
            resaved = ctx.outputs / f"resaved{i}.hlb"
            hybrid.save_model(model, resaved)
            if checks.sha256_file(resaved) != checks.sha256_file(path):
                ctx.problems.append(f"{path.name}: re-saving the loaded model changes its bytes")

        # Train input 0 once more with save_model wrapped, to keep the model
        # the CLI had in memory, and score every candidate with both models.
        kept = []

        def keep(original):
            def save_and_keep(model, path):
                kept.append(model)
                return original(model, path)
            return save_and_keep

        patches = spans.Patches()
        patches.replace_function("hybrid_linker.hybrid", "save_model", keep)
        again = ctx.outputs / "model0-again.hlb"
        try:
            code, _, err = ctx.cli(self._train_argv(ctx, 0, again))
        finally:
            patches.restore()
        if code != 0 or len(kept) != 1:
            ctx.problems.append(f"re-training input 0 failed: {err.strip()}")
        elif model0 is not None:
            if checks.sha256_file(again) != ctx.digests["model0.hlb"]:
                ctx.problems.append("re-training input 0 gave another bundle")
            corpus = load_corpus_dir(ctx.inputs / "corpus0")
            pairs = [
                (corpus.issue(c.issue_id), corpus.commit(c.commit_hash))
                for c in read_candidates(ctx.inputs / "candidates0.tsv")
            ]
            if hybrid.predict_pairs(kept[0], pairs) != hybrid.predict_pairs(model0, pairs):
                ctx.problems.append("loaded model0 scores differ from the in-memory model")
        if not f1s:
            return {}
        validation_f1 = sum(f1s) / len(f1s)
        if validation_f1 < 0.5:
            ctx.problems.append(f"mean validation_f1 {validation_f1:.3f} below 0.5")
        return {"validation_f1": validation_f1}


class ScoreUnseen:
    """Scoring pairs the model never saw: one predict-batch, then single predicts."""

    name = "score-unseen"
    setup_repeats = 3  # each set-up trains a model, about 4 s

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.size = 60 if smoke else 1000
        self.slice_half = 10 if smoke else 20
        self.n_pairs = 50 if smoke else 1000
        self.singles_per_step = 5 if smoke else 20
        self.min_steps = 1 if smoke else 5  # at least 100 single predicts
        self.trace_steps = 1 if smoke else 3
        self.single_pairs: list[tuple[str, str]] = []
        self.batch: dict[tuple[str, str], str] = {}

    def setup(self, ctx: Context) -> None:
        corpus = ctx.inputs / "corpus"
        ctx.must(["synth", "--seed", self.seed, "--issues", self.size,
                  "--commits", self.size, "--out", corpus])
        everything = ctx.outputs / "all-candidates.tsv"
        ctx.must(["gen-links", "--corpus", corpus, "--seed", self.seed,
                  "--no-balance", "--out", everything])
        rows = checks.read_tsv(everything)
        rng = random.Random(self.seed)
        true_rows = [r for r in rows if r[2] == "1"]
        false_rows = [r for r in rows if r[2] == "0"]
        chosen = rng.sample(true_rows, self.slice_half) + rng.sample(false_rows, self.slice_half)
        rng.shuffle(chosen)
        header = "issue_id\tcommit_hash\tlabel\tprovenance"
        checks.write_tsv(ctx.inputs / "slice.tsv", header, chosen)
        ctx.must(["train", "--corpus", corpus, "--candidates", ctx.inputs / "slice.tsv",
                  "--seed", self.seed, "--out", ctx.inputs / "model.hlb"])
        in_slice = {(r[0], r[1]) for r in chosen}
        unseen = [(r[0], r[1]) for r in rows if (r[0], r[1]) not in in_slice]
        pairs = rng.sample(unseen, self.n_pairs)
        checks.write_tsv(ctx.inputs / "pairs.tsv", "issue_id\tcommit_hash", pairs)
        self.single_pairs = rng.sample(pairs, min(40, len(pairs)))

    def step(self, ctx: Context, index: int) -> list[Call]:
        corpus, model = ctx.inputs / "corpus", ctx.inputs / "model.hlb"
        out = ctx.outputs / "predictions.tsv"
        call, _ = ctx.timed("stage", ["predict-batch", "--model", model, "--corpus", corpus,
                                       "--pairs", ctx.inputs / "pairs.tsv", "--out", out])
        if call.ok:
            rows = checks.read_tsv(out)
            self.batch = {(r[0], r[1]): r[2] for r in rows}
            call.ok = (
                ctx.same_output(out.name, out)
                and len(rows) == self.n_pairs
                and all(0.0 <= float(r[2]) <= 1.0 for r in rows)
            )
        calls = [call]
        for j in range(self.singles_per_step):
            position = (index * self.singles_per_step + j) % len(self.single_pairs)
            issue_id, commit_hash = self.single_pairs[position]
            call, text = ctx.timed("single", ["predict", "--model", model, "--corpus", corpus,
                                              "--issue", issue_id, "--commit", commit_hash])
            fields = text.split()
            call.ok = (
                call.ok
                and len(fields) == 4
                and fields[:2] == [issue_id, commit_hash]
                and self.batch.get((issue_id, commit_hash)) == fields[2]
            )
            calls.append(call)
        return calls

    def named(self, stage: list[float], single: list[float]) -> dict:
        named = {
            "score_pairs_per_s": (self.n_pairs / median(stage), "pairs/s"),
            "predict_one_ms_p50": (1000 * median(single), "ms"),
        }
        if len(single) >= 100:  # at least ten samples lie beyond the p90
            named["predict_one_ms_p90"] = (1000 * _p90(single), "ms")
        return named

    def finish(self, ctx: Context) -> dict[str, float]:
        ctx.digests["model.hlb"] = checks.sha256_file(ctx.inputs / "model.hlb")
        return {}


class GenLinks4k:
    """Candidate generation over 4000 issues: window-enumerate, balance, write."""

    name = "gen-links-4k"
    min_steps = 1
    setup_repeats = 9

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n_issues = 200 if smoke else 4000
        self.n_commits = 20 if smoke else 250
        self.sample = 5 if smoke else 25
        self.trace_steps = 1 if smoke else 5

    def setup(self, ctx: Context) -> None:
        ctx.must(["synth", "--seed", self.seed, "--issues", self.n_issues,
                  "--commits", self.n_commits, "--out", ctx.inputs / "corpus"])

    def step(self, ctx: Context, index: int) -> list[Call]:
        out = ctx.outputs / "candidates.tsv"
        call, _ = ctx.timed("stage", ["gen-links", "--corpus", ctx.inputs / "corpus",
                                       "--seed", self.seed, "--out", out])
        call.ok = call.ok and ctx.same_output(out.name, out)
        return [call]

    def named(self, stage: list[float], single: list[float]) -> dict:
        return {"gen_links_s": (median(stage), "s")}

    def finish(self, ctx: Context) -> dict[str, float]:
        corpus = ctx.inputs / "corpus"
        everything = ctx.outputs / "all-candidates.tsv"
        code, _, err = ctx.cli(["gen-links", "--corpus", corpus, "--seed", self.seed,
                                "--no-balance", "--out", everything])
        if code != 0:
            ctx.problems.append(f"unbalanced gen-links exited {code}: {err.strip()}")
            return {}
        ctx.digests[everything.name] = checks.sha256_file(everything)
        issues = checks.read_jsonl(corpus / "issues.jsonl")
        commits = checks.read_jsonl(corpus / "commits.jsonl")
        recorded = sorted(
            (issue_id, c["commit_hash"]) for c in commits for issue_id in c["linked_issue_ids"]
        )
        full = checks.read_tsv(everything)
        balanced = checks.read_tsv(ctx.outputs / "candidates.tsv")
        for label, rows in (("unbalanced", full), ("balanced", balanced)):
            if sorted((r[0], r[1]) for r in rows if r[2] == "1") != recorded:
                ctx.problems.append(f"{label}: recorded links are not each emitted once")
        false_full = [(r[0], r[1]) for r in full if r[2] == "0"]
        false_balanced = [(r[0], r[1]) for r in balanced if r[2] == "0"]
        if (
            len(set(false_balanced)) != len(false_balanced)
            or not set(false_balanced) <= set(false_full)
            or len(false_balanced) != min(len(recorded), len(false_full))
        ):
            ctx.problems.append("balanced false candidates are not a sample of the window pool")
        linked = [c for c in commits if c["linked_issue_ids"]]
        for commit in random.Random(self.seed).sample(linked, min(self.sample, len(linked))):
            emitted = [i for i, h in false_full if h == commit["commit_hash"]]
            if emitted != checks.window_false_candidates(issues, commit):
                ctx.problems.append(
                    f"commit {commit['commit_hash']}: false candidates differ from brute force"
                )
        return {}


class EvaluateSmall:
    """Three-fold evaluation with ablation on small corpora."""

    name = "evaluate-small"
    min_steps = 1
    setup_repeats = 9
    k = 3

    def __init__(self, seed: int, smoke: bool):
        self.size = 12
        pool = 1 if smoke else 12
        self.seeds = [seed * 100 + i for i in range(pool)]
        self.trace_steps = 1 if smoke else 4

    def setup(self, ctx: Context) -> None:
        _readme_inputs(ctx, self.seeds, self.size)

    def step(self, ctx: Context, index: int) -> list[Call]:
        i = index % len(self.seeds)
        out = ctx.outputs / f"report{i}.json"
        call, _ = ctx.timed("stage", [
            "evaluate", "--corpus", ctx.inputs / f"corpus{i}",
            "--candidates", ctx.inputs / f"candidates{i}.tsv", "--seed", self.seeds[i],
            "--ablation", "--k", self.k, "--out", out,
        ])
        call.ok = call.ok and ctx.same_output(out.name, out)
        return [call]

    def named(self, stage: list[float], single: list[float]) -> dict:
        return {"evaluate_s": (median(stage), "s")}

    def finish(self, ctx: Context) -> dict[str, float]:
        from hybrid_linker.evaluation import kfold

        covered = _covered(ctx, "report{}.json", len(self.seeds))
        if not covered:
            ctx.problems.append("no report was written")
            return {}
        f1s = []
        for i in covered:
            report = json.loads((ctx.outputs / f"report{i}.json").read_text(encoding="utf-8"))
            labels = [int(r[2]) for r in checks.read_tsv(ctx.inputs / f"candidates{i}.tsv")]
            n = len(labels)
            config = report["config"]
            folds = kfold(n, self.k, config["fold_seed"], labels=labels,
                          stratified=config["stratified"])
            rows = report["channels"]["hybrid"]["folds"]
            tested = [r["tp"] + r["fp"] + r["fn"] + r["tn"] for r in rows]
            if (
                report["n_candidates"] != n
                or not checks.folds_partition(folds, n)
                or tested != [len(test) for _, test in folds]
            ):
                ctx.problems.append(f"report{i}.json: folds do not partition the candidates")
            f1s.append(report["channels"]["hybrid"]["mean"]["f1"])
        cv_f1 = sum(f1s) / len(f1s)
        if cv_f1 < 0.5:
            ctx.problems.append(f"mean cv_f1 {cv_f1:.3f} below 0.5")
        return {"cv_f1": cv_f1}


WORKLOADS = {w.name: w for w in (TrainReadme, ScoreUnseen, GenLinks4k, EvaluateSmall)}


# --- the run ---------------------------------------------------------------------


def _warm_up() -> None:
    """Finish lazy one-time loading before anything is timed."""
    from hybrid_linker import cli  # noqa: F401  (imports every stage module)
    from hybrid_linker.tabular import load_category_maps
    from hybrid_linker.textprep import load_stopwords

    load_stopwords()
    load_category_maps()


def _loop(workload, ctx: Context, budget: float, min_steps: int, between) -> list[Call]:
    """Closed loop: steps over the workload's inputs until budget is spent.

    between() runs after each step; its time does not count against budget.
    """
    calls: list[Call] = []
    step = 0
    spent = 0.0
    while step < min_steps or spent < budget:
        start = time.perf_counter()
        calls.extend(workload.step(ctx, step))
        spent += time.perf_counter() - start
        step += 1
        between()
    return calls


@contextmanager
def _tracing(recorder: spans.Recorder | None, run_id: str, ctx: Context):
    """Record spans of the enclosed calls under run_id, in a traced run only."""
    if recorder is None:
        yield
        return
    recorder.run_id = run_id
    patches = spans.install(recorder)
    try:
        yield
    finally:
        patches.restore()
    for missing in patches.missing:
        ctx.note(f"not traced, no longer in the package: {missing}")


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    summary: dict[str, tuple[float, str]]
    digests: dict[str, str]
    problems: list[str]
    notes: list[str]


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path,
        smoke: bool = False) -> RunResult:
    """Set up, time and check one workload; workdir is emptied first."""
    workload = WORKLOADS[name](seed, smoke)
    shutil.rmtree(workdir, ignore_errors=True)
    ctx = Context(inputs=workdir / "inputs", outputs=workdir / "outputs")
    ctx.outputs.mkdir(parents=True)
    _warm_up()
    recorder = spans.Recorder() if traced else None

    setup_times: list[float] = []
    input_digests: set[str] = set()

    def set_up_again() -> None:
        """One more set-up, until there are setup_repeats of them.

        The first writes the inputs the steps use. The repeats write a spare
        directory between steps, so that set-up is timed across the run, as
        the steps are: a shared machine's speed drifts over seconds, and a
        block of back-to-back set-ups would see one speed only.
        """
        repeat = len(setup_times)
        if repeat == workload.setup_repeats:
            return
        inputs = ctx.inputs if repeat == 0 else workdir / "inputs-repeat"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir()
        with _tracing(recorder, f"setup-{repeat}", ctx):
            start = time.perf_counter()
            workload.setup(replace(ctx, inputs=inputs))
            setup_times.append(time.perf_counter() - start)
        input_digests.add(checks.sha256_tree(inputs))

    set_up_again()
    if recorder is None:
        calls = timed = _loop(workload, ctx, seconds, workload.min_steps, set_up_again)
    else:
        # A fixed number of steps, so counts repeat exactly. Each step runs
        # untraced, then traced, so drift and warm-up fall on both sides of
        # the tracing overhead alike.
        steps = workload.trace_steps
        timed, traced_calls = [], []
        for step in range(steps):
            timed.extend(workload.step(ctx, step))
            with _tracing(recorder, f"step-{step}", ctx):
                traced_calls.extend(workload.step(ctx, step))
            set_up_again()
        calls = timed + traced_calls
    while len(setup_times) < workload.setup_repeats:
        set_up_again()
    if recorder is not None:
        recorder.write(workdir / "spans.jsonl")
    if len(input_digests) != 1:
        ctx.problems.append("set-up wrote different inputs on a repeat")

    # Before the checks, which load bundles and corpora of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = workload.finish(ctx)
    ctx.digests["inputs"] = input_digests.pop()
    if seed == DEFAULT_SEED and not smoke:
        pins = json.loads(PINS_PATH.read_text(encoding="utf-8")).get(name, {})
        if any(pins.get(key) != value for key, value in ctx.digests.items()):
            ctx.problems.append(f"output digests differ from {PINS_PATH.name} at seed {seed}")

    stage = [c.seconds for c in timed if c.kind == "stage"]
    single = [c.seconds for c in timed if c.kind == "single"]
    attempted = len(calls)
    failed = attempted if ctx.problems else sum(1 for c in calls if not c.ok)
    end_to_end = {
        "stage_s": (median(stage), "s"),
        "call_ms_p50": (1000 * median(single or stage), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (median(setup_times), "s"),
    }
    if recorder is None:
        metrics = end_to_end
    else:
        layers = spans.layer_metrics(
            recorder.spans, {"setup": workload.setup_repeats, "step": steps}
        )
        traced_stage = median([c.seconds for c in traced_calls if c.kind == "stage"])
        layers["trace.overhead_s"] = traced_stage - median(stage)
        layers["trace.overhead_frac"] = traced_stage / median(stage) - 1.0
        metrics = {key: (layers[key], unit) for key, (unit, _, _) in spans.PER_LAYER.items()}
    report = dict(end_to_end)
    if recorder is not None:
        report.update(spans.step_shares(recorder.spans, sum(c.seconds for c in traced_calls)))
    report.update(workload.named(stage, single))
    report.update({key: (value, "ratio") for key, value in summary.items()})
    report["ops_failed_frac"] = (failed / attempted, "ratio")
    report["stage_calls"] = (len(stage), "count")
    report["single_calls"] = (len(single), "count")
    return RunResult(
        correct=not ctx.problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        summary=report,
        digests=dict(sorted(ctx.digests.items())),
        problems=ctx.problems,
        notes=ctx.notes,
    )
