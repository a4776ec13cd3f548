"""Spans recorded from outside the package, and the per-layer metrics built from them.

The traced run wraps public functions of each hybrid_linker module (and the
methods Tree.predict and ColumnIndex.__init__). A module that imported a
function by name holds its own reference, so every reference found in a
loaded hybrid_linker module is swapped, and restored afterwards. No file of
the package changes.

A span is (name, start, end, parent, run id, counts). A layer's self time
is the total duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import import_module


@dataclass
class Span:
    name: str
    run_id: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; written out once the benchmark ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def call(self, name, func, counter, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, self.run_id, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": span.name,
                    "run_id": span.run_id,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "counts": span.counts,
                }
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "hybrid_linker" or name.startswith("hybrid_linker."))
    ]


class Patches:
    """Swaps functions in place and puts every original back on restore()."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace_function(self, module_name: str, attr: str, make) -> None:
        original = getattr(import_module(module_name), attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        replacement = make(original)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, replacement)

    def replace_method(self, module_name: str, cls_name: str, attr: str, make) -> None:
        cls = getattr(import_module(module_name), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# --- counts taken at each boundary -------------------------------------------


def _pairs_checked(args, result):
    corpus = args[0]
    linked = sum(1 for commit in corpus.commits if commit.linked_issue_ids)
    false = sum(1 for cand in result if cand.label == 0)
    return {
        "pairs_checked": linked * len(corpus.issues),
        "candidates": len(result),
        "false_candidates": false,
    }


def _textual_rows(args, result):
    counts = {"rows": result.shape[0], "nnz": int(result.nnz)}
    pairs = args[0]
    if isinstance(pairs, (list, tuple)):
        issues = {issue.issue_id for issue, _ in pairs}
        commits = {commit.commit_hash for _, commit in pairs}
        counts["lookups"] = 2 * len(pairs)
        counts["unique_docs"] = len(issues) + len(commits)
    return counts


def _trained(args, result):
    counts = {"trees": len(result.trees)}
    if result.train_losses:
        counts["final_loss"] = float(result.train_losses[-1])
    return counts


def _tree_predict(args, result):
    X = args[1]
    shape = getattr(X, "shape", (1,))
    rows = shape[0] if len(shape) == 2 else 1
    width = shape[-1]
    return {"calls": 1, "rows": rows, "dense_bytes": 8 * rows * width}


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, function, span name, counter); the span name's prefix is the layer.
FUNCTIONS = (
    ("hybrid_linker.cli", "main", "cli.main", None),
    ("hybrid_linker.corpus", "synthesize_corpus", "corpus.synth", None),
    ("hybrid_linker.corpus", "save_corpus_dir", "corpus.save", None),
    (
        "hybrid_linker.corpus",
        "load_corpus_dir",
        "corpus.load",
        lambda a, r: {"records": len(r.issues) + len(r.commits)},
    ),
    ("hybrid_linker.linkgen", "generate_candidates", "linkgen.generate", _pairs_checked),
    ("hybrid_linker.linkgen", "balance_candidates", "linkgen.balance", None),
    ("hybrid_linker.linkgen", "write_candidates", "linkgen.io", None),
    ("hybrid_linker.linkgen", "read_candidates", "linkgen.io", None),
    *(
        (
            "hybrid_linker.textprep",
            name,
            "textprep.doc",
            lambda a, r: {"docs": 1, "tokens": len(r.tokens)},
        )
        for name in ("issue_doc", "message_doc", "code_doc")
    ),
    ("hybrid_linker.tfidf", "fit_vectorizers", "tfidf.fit", lambda a, r: {"width": r.width}),
    ("hybrid_linker.tfidf", "featurize_pairs_textual", "tfidf.featurize", _textual_rows),
    ("hybrid_linker.tabular", "fit_encoder", "tabular.fit", lambda a, r: {"width": r.width}),
    (
        "hybrid_linker.tabular",
        "featurize_pairs_tabular",
        "tabular.featurize",
        lambda a, r: {"rows": r.shape[0]},
    ),
    (
        "hybrid_linker._tree",
        "grow_tree",
        "tree.grow",
        lambda a, r: {"trees": 1, "nodes": r[0].n_nodes},
    ),
    ("hybrid_linker.learn", "train", "learn.train", _trained),
    ("hybrid_linker.learn", "train_ensemble", "learn.train_ensemble", None),
    ("hybrid_linker.learn", "predict_proba", "learn.predict_proba", None),
    ("hybrid_linker.hybrid", "train_hybrid", "hybrid.train", None),
    ("hybrid_linker.hybrid", "tune_alpha", "hybrid.tune_alpha", None),
    ("hybrid_linker.hybrid", "save_model", "hybrid.save", _file_size),
    ("hybrid_linker.hybrid", "load_model", "hybrid.load", None),
    ("hybrid_linker.hybrid", "predict_pairs", "hybrid.predict_pairs", None),
    ("hybrid_linker.hybrid", "channel_probabilities", "hybrid.channel_probabilities", None),
    ("hybrid_linker.evaluation", "kfold", "evaluation.kfold", lambda a, r: {"folds": len(r)}),
    ("hybrid_linker.evaluation", "cross_validate", "evaluation.cross_validate", None),
    ("hybrid_linker.evaluation", "ablation", "evaluation.ablation", None),
)

METHODS = (
    (
        "hybrid_linker._tree",
        "ColumnIndex",
        "__init__",
        "tree.index",
        lambda a, r: {"nnz": len(a[0].cols)},
    ),
    ("hybrid_linker._tree", "Tree", "predict", "tree.predict", _tree_predict),
)


def _wrapper(recorder: Recorder, name: str, counter):
    def make(original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return recorder.call(name, original, counter, args, kwargs)

        return traced

    return make


def install(recorder: Recorder) -> Patches:
    """Wrap every traced boundary; the caller must call restore() on the result.

    A boundary the package no longer has is listed in the result's missing
    and reads 0, instead of stopping the run.
    """
    patches = Patches()
    try:
        for module_name, attr, name, counter in FUNCTIONS:
            patches.replace_function(module_name, attr, _wrapper(recorder, name, counter))
        for module_name, cls_name, attr, name, counter in METHODS:
            patches.replace_method(
                module_name, cls_name, attr, _wrapper(recorder, name, counter)
            )
    except BaseException:
        patches.restore()
        raise
    return patches


# --- per-layer metrics ---------------------------------------------------------

LAYERS = (
    "cli", "corpus", "linkgen", "textprep", "tfidf", "tabular", "tree", "learn",
    "hybrid", "evaluation",
)

# name -> (unit, better, what it should move); BENCHMARK.json lists the same names.
PER_LAYER = {
    "cli.self_s": ("s", "lower", "stage_s on every workload (small share)"),
    "corpus.synth_s": ("s", "lower", "setup_s on every workload"),
    "corpus.save_s": ("s", "lower", "setup_s on every workload"),
    "corpus.load_s": ("s", "lower", "stage_s on gen-links-4k, call_ms_p50 on score-unseen"),
    "corpus.records": ("count", "lower", "stage_s on gen-links-4k, call_ms_p50 on score-unseen"),
    "corpus.self_s": ("s", "lower", "call_ms_p50 on score-unseen"),
    "linkgen.generate_s": ("s", "lower", "stage_s on gen-links-4k"),
    "linkgen.pairs_checked": ("count", "lower", "stage_s on gen-links-4k"),
    "linkgen.candidates": ("count", "higher", "stage_s on gen-links-4k"),
    "linkgen.window_yield": ("ratio", "higher", "stage_s on gen-links-4k"),
    "linkgen.balance_s": ("s", "lower", "stage_s on gen-links-4k"),
    "linkgen.io_s": ("s", "lower", "stage_s on gen-links-4k"),
    "linkgen.self_s": ("s", "lower", "stage_s on gen-links-4k"),
    "textprep.s": ("s", "lower", "stage_s and call_ms_p50 on score-unseen"),
    "textprep.docs": ("count", "lower", "stage_s and call_ms_p50 on score-unseen"),
    "textprep.tokens": ("count", "lower", "stage_s and call_ms_p50 on score-unseen"),
    "tfidf.fit_s": ("s", "lower", "stage_s on evaluate-small"),
    "tfidf.width": ("count", "lower", "stage_s on evaluate-small"),
    "tfidf.featurize_s": ("s", "lower", "stage_s on score-unseen"),
    "tfidf.rows": ("count", "lower", "stage_s on score-unseen"),
    "tfidf.nnz": ("count", "lower", "stage_s on score-unseen"),
    "tfidf.doc_reuse": ("ratio", "higher", "stage_s on score-unseen"),
    "tfidf.self_s": ("s", "lower", "stage_s on score-unseen"),
    "tabular.fit_s": ("s", "lower", "stage_s on score-unseen"),
    "tabular.featurize_s": ("s", "lower", "stage_s on score-unseen"),
    "tabular.width": ("count", "lower", "stage_s on score-unseen"),
    "tabular.self_s": ("s", "lower", "stage_s on score-unseen"),
    "tree.index_s": ("s", "lower", "stage_s on train-readme"),
    "tree.index_nnz": ("count", "lower", "stage_s on train-readme"),
    "tree.grow_s": ("s", "lower", "stage_s on train-readme and evaluate-small, setup_s on score-unseen"),
    "tree.trees_grown": ("count", "lower", "stage_s on train-readme and evaluate-small"),
    "tree.nodes_grown": ("count", "lower", "stage_s on train-readme and evaluate-small"),
    "tree.grow_us_per_node": ("us", "lower", "stage_s on train-readme and evaluate-small"),
    "tree.predict_s": ("s", "lower", "stage_s, call_ms_p50 and peak_rss_mb on score-unseen"),
    "tree.predict_calls": ("count", "lower", "stage_s and call_ms_p50 on score-unseen"),
    "tree.predict_rows": ("count", "lower", "stage_s on score-unseen"),
    "tree.dense_bytes": ("bytes", "lower", "stage_s and peak_rss_mb on score-unseen (computed)"),
    "tree.self_s": ("s", "lower", "stage_s on train-readme"),
    "learn.train_textual_s": ("s", "lower", "stage_s on train-readme"),
    "learn.textual_stages": ("count", "lower", "stage_s on train-readme"),
    "learn.final_train_loss": ("ratio", "lower", "stage_s on train-readme"),
    "learn.train_nontextual_s": ("s", "lower", "stage_s on train-readme"),
    "learn.predict_proba_s": ("s", "lower", "stage_s on score-unseen"),
    "learn.self_s": ("s", "lower", "stage_s on train-readme"),
    "hybrid.train_s": ("s", "lower", "stage_s on train-readme"),
    "hybrid.tune_alpha_s": ("s", "lower", "stage_s on train-readme"),
    "hybrid.save_s": ("s", "lower", "stage_s on train-readme"),
    "hybrid.bundle_bytes": ("bytes", "lower", "stage_s on train-readme"),
    "hybrid.load_s": ("s", "lower", "call_ms_p50 on score-unseen"),
    "hybrid.predict_pairs_s": ("s", "lower", "stage_s on score-unseen"),
    "hybrid.self_s": ("s", "lower", "call_ms_p50 on score-unseen"),
    "evaluation.folds": ("count", "lower", "stage_s on evaluate-small"),
    "evaluation.self_s": ("s", "lower", "stage_s on evaluate-small"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced median stage time"),
    "trace.overhead_frac": ("ratio", "lower", "none: overhead_s over the untraced median"),
}


def _ancestor_named(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _totals(spans: list[Span], selected: set[int]) -> dict[str, float]:
    """Raw sums over the spans whose indices are selected.

    A span nested inside another span of the same name (predict_proba of an
    ensemble calls itself per member) counts once, through the outer span.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    by_name: dict[str, list[Span]] = {}
    textual: list[Span] = []
    for index in sorted(selected):
        span = spans[index]
        out[f"{span.name.split('.', 1)[0]}.self_s"] += span.seconds - child_time[index]
        if _ancestor_named(spans, index, span.name):
            continue
        by_name.setdefault(span.name, []).append(span)
        if span.name == "learn.train" and not _ancestor_named(
            spans, index, "learn.train_ensemble"
        ):
            textual.append(span)

    def total(name: str, key: str | None = None) -> float:
        found = by_name.get(name, [])
        if key is None:
            return sum(s.seconds for s in found)
        return float(sum(s.counts.get(key, 0) for s in found))

    out.update({
        "corpus.synth_s": total("corpus.synth"),
        "corpus.save_s": total("corpus.save"),
        "corpus.load_s": total("corpus.load"),
        "corpus.records": total("corpus.load", "records"),
        "linkgen.generate_s": total("linkgen.generate"),
        "linkgen.pairs_checked": total("linkgen.generate", "pairs_checked"),
        "linkgen.candidates": total("linkgen.generate", "candidates"),
        "linkgen.false_candidates": total("linkgen.generate", "false_candidates"),
        "linkgen.balance_s": total("linkgen.balance"),
        "linkgen.io_s": total("linkgen.io"),
        "textprep.s": total("textprep.doc"),
        "textprep.docs": total("textprep.doc", "docs"),
        "textprep.tokens": total("textprep.doc", "tokens"),
        "tfidf.fit_s": total("tfidf.fit"),
        "tfidf.width": total("tfidf.fit", "width"),
        "tfidf.featurize_s": total("tfidf.featurize"),
        "tfidf.rows": total("tfidf.featurize", "rows"),
        "tfidf.nnz": total("tfidf.featurize", "nnz"),
        "tfidf.lookups": total("tfidf.featurize", "lookups"),
        "tfidf.unique_docs": total("tfidf.featurize", "unique_docs"),
        "tabular.fit_s": total("tabular.fit"),
        "tabular.featurize_s": total("tabular.featurize"),
        "tabular.width": total("tabular.fit", "width"),
        "tree.index_s": total("tree.index"),
        "tree.index_nnz": total("tree.index", "nnz"),
        "tree.grow_s": total("tree.grow"),
        "tree.trees_grown": total("tree.grow", "trees"),
        "tree.nodes_grown": total("tree.grow", "nodes"),
        "tree.predict_s": total("tree.predict"),
        "tree.predict_calls": total("tree.predict", "calls"),
        "tree.predict_rows": total("tree.predict", "rows"),
        "tree.dense_bytes": total("tree.predict", "dense_bytes"),
        "learn.train_textual_s": sum(s.seconds for s in textual),
        "learn.textual_stages": float(sum(s.counts.get("trees", 0) for s in textual)),
        "learn.textual_trains": float(len(textual)),
        "learn.final_loss_sum": sum(s.counts.get("final_loss", 0.0) for s in textual),
        "learn.train_nontextual_s": total("learn.train_ensemble"),
        "learn.predict_proba_s": total("learn.predict_proba"),
        "hybrid.train_s": total("hybrid.train"),
        "hybrid.tune_alpha_s": total("hybrid.tune_alpha"),
        "hybrid.save_s": total("hybrid.save"),
        "hybrid.bundle_bytes": total("hybrid.save", "bytes"),
        "hybrid.load_s": total("hybrid.load"),
        "hybrid.predict_pairs_s": total("hybrid.predict_pairs"),
        "evaluation.folds": total("evaluation.kfold", "folds"),
    })
    return out


def layer_metrics(spans: list[Span], units: dict[str, int]) -> dict[str, float]:
    """Per-layer values for one unit of work: one set-up plus one timed step.

    units maps a run-id prefix ("setup", "step") to how many of those ran;
    spans of each kind are summed and divided by that count.
    """
    sums: dict[str, float] = {}
    for prefix, count in units.items():
        selected = {i for i, s in enumerate(spans) if s.run_id.startswith(prefix)}
        for key, value in _totals(spans, selected).items():
            sums[key] = sums.get(key, 0.0) + value / count

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: sums[name] for name in PER_LAYER if name in sums}
    metrics["linkgen.window_yield"] = ratio(
        sums["linkgen.false_candidates"], sums["linkgen.pairs_checked"]
    )
    metrics["tfidf.doc_reuse"] = (
        1.0 - ratio(sums["tfidf.unique_docs"], sums["tfidf.lookups"])
        if sums["tfidf.lookups"]
        else 0.0
    )
    metrics["tree.grow_us_per_node"] = 1e6 * ratio(
        sums["tree.grow_s"], sums["tree.nodes_grown"]
    )
    metrics["learn.final_train_loss"] = ratio(
        sums["learn.final_loss_sum"], sums["learn.textual_trains"]
    )
    return metrics


def step_shares(spans: list[Span], step_seconds: float) -> dict[str, tuple[float, str]]:
    """Where the traced steps' wall time went, as summary lines of a traced run.

    Each share is over step_seconds, the wall time of every traced step call
    (on score-unseen that includes the single predicts). Shares of layer self
    times add up to the share the wrappers cover.
    """
    totals = _totals(spans, {i for i, s in enumerate(spans) if s.run_id.startswith("step")})
    shares = {"traced_step_s": (step_seconds, "s")}
    for key in ("tree.grow_s", "tree.predict_s", "linkgen.generate_s", "corpus.load_s",
                *(f"{layer}.self_s" for layer in LAYERS)):
        if totals[key]:
            shares[f"share.{key}"] = (totals[key] / step_seconds, "ratio")
    if totals["tree.trees_grown"]:
        shares["tree.nodes_per_tree"] = (
            totals["tree.nodes_grown"] / totals["tree.trees_grown"], "count"
        )
    return shares
