"""Fold assignment, cross-validation, and ablation reports.

Reports are plain dicts rendered with sorted keys and no timestamps, so a
repeated run over the same inputs produces byte-identical output.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from ._pcg import Generator
from .config import Config
from .corpus import Corpus
from .hybrid import (
    channel_probabilities,
    fuse_arrays,
    metrics,
    train_hybrid,
    tune_alpha,
)
from .linkgen import LinkCandidate

# Historical averages from the study this pipeline follows, kept as
# context for report readers. They describe other corpora and are not
# pass/fail targets for this implementation.
REFERENCE_AVERAGES = {
    "note": (
        "averages reported by the original multi-project study; "
        "context only, not targets"
    ),
    "hybrid": {"recall": 0.9014, "precision": 0.8778, "f1": 0.8888},
    "ablation_f1": {
        "textual_only": 0.8082,
        "nontextual_only": 0.8836,
        "hybrid": 0.8888,
    },
}


def kfold(
    n_items: int,
    k: int,
    seed: int,
    labels=None,
    stratified: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded permutation split into k folds with sizes differing by at most 1.

    Each label value is permuted and split separately, keeping per-fold
    class shares close to the global ones; plain folds are the stratified
    folds of a single label value.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n_items < k:
        raise ValueError(f"cannot make {k} folds from {n_items} items")
    if stratified and labels is None:
        raise ValueError("stratified folds need labels")
    labels = np.asarray(labels) if stratified else np.zeros(n_items)
    # NaN equals no label value, so its items would reach no test fold.
    if labels.dtype.kind in "fc" and np.isnan(labels).any():
        raise ValueError("stratified folds need labels that are not NaN")
    rng = Generator(seed)
    parts: list[list[np.ndarray]] = [[] for _ in range(k)]
    # The distinct labels in np.unique's order; np.unique itself would import
    # numpy.ma, about 1 MiB of resident memory, on its first call.
    ordered = np.sort(labels)
    for value in ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]:
        members = np.flatnonzero(labels == value)
        shuffled = members[rng.permutation(len(members))]
        for fold_index, chunk in enumerate(np.array_split(shuffled, k)):
            parts[fold_index].append(chunk)
    tests = [np.concatenate(chunks) for chunks in parts]
    folds = []
    for fold_index in range(k):
        test = tests[fold_index]
        mask = np.ones(n_items, dtype=bool)
        mask[test] = False
        train = np.flatnonzero(mask)
        folds.append((train, test))
    return folds


def _run_one_fold(
    fold_index: int,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    candidates: list[LinkCandidate],
    corpus: Corpus,
    config: Config,
) -> dict:
    train_cands = [candidates[i] for i in train_idx]
    test_cands = [candidates[i] for i in test_idx]
    # Each fold reseeds its learners and its fit/validation split.
    fold_config = replace(
        config,
        seed=config.seed + fold_index,
        split_seed=config.resolved_split_seed() + fold_index,
    )
    model = train_hybrid(train_cands, corpus, fold_config)
    p_nt, p_t = channel_probabilities(model, corpus.pairs(test_cands))
    actual = np.array([c.label for c in test_cands])
    alpha = model.alpha
    if config.tune_on == "test":
        # Deliberately reproduces tuning on the evaluation slice; reports
        # carry the tune_on flag so the optimistic bias is visible.
        alpha, _ = tune_alpha(
            p_nt, p_t, actual, config.alpha_step, config.threshold
        )
    return {
        "fold_index": fold_index,
        "n_train": len(train_cands),
        "n_test": len(test_cands),
        "alpha": alpha,
        "validation_f1": model.validation_f1,
        "p_nontextual": p_nt,
        "p_textual": p_t,
        "actual": actual,
    }


def _channel(raw: list[dict], threshold: float, alpha=None, keys=()) -> dict:
    """One channel's fold rows with their mean and std over the folds.

    alpha None scores each fold with its own alpha; keys names the fold
    fields copied into each row.
    """
    rows = []
    for fold in raw:
        fold_alpha = fold["alpha"] if alpha is None else alpha
        fused = fuse_arrays(fold["p_nontextual"], fold["p_textual"], fold_alpha)
        m = metrics(fused >= threshold, fold["actual"] == 1)
        rows.append(
            {
                "fold_index": fold["fold_index"],
                "alpha": fold_alpha,
                **{key: fold[key] for key in keys},
                **m.to_dict(),
            }
        )
    table = {key: [row[key] for row in rows] for key in ("precision", "recall", "f1")}
    return {
        "folds": rows,
        "mean": {key: float(np.mean(vals)) for key, vals in table.items()},
        "std": {key: float(np.std(vals)) for key, vals in table.items()},
    }


def _report(kind: str, raw, candidates, corpus: Corpus, config: Config, **body) -> dict:
    """The header every report shares, followed by its kind's body."""
    return {
        "kind": kind,
        "project": corpus.project,
        "n_candidates": len(candidates),
        "k": config.k,
        "tune_on": config.tune_on,
        "alphas": [fold["alpha"] for fold in raw],
        "config": config.to_dict(),
        "reference_averages": REFERENCE_AVERAGES,
        **body,
    }


def _run_folds(
    candidates: list[LinkCandidate], corpus: Corpus, config: Config
) -> list[dict]:
    labels = [c.label for c in candidates]
    folds = kfold(
        len(candidates),
        config.k,
        config.resolved_fold_seed(),
        labels=labels,
        stratified=config.stratified,
    )

    def runner(item):
        fold_index, (train_idx, test_idx) = item
        return _run_one_fold(
            fold_index, train_idx, test_idx, candidates, corpus, config
        )

    items = list(enumerate(folds))
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(runner, items))
    return [runner(item) for item in items]


def cross_validate(
    candidates: list[LinkCandidate], corpus: Corpus, config: Config
) -> dict:
    """K-fold evaluation of the full pipeline; returns a report dict."""
    raw = _run_folds(candidates, corpus, config)
    keys = ("n_train", "n_test", "validation_f1")
    body = _channel(raw, config.threshold, keys=keys)
    return _report("cross-validation", raw, candidates, corpus, config, **body)


def ablation(
    candidates: list[LinkCandidate], corpus: Corpus, config: Config
) -> dict:
    """Evaluate fused, textual-only, and non-textual-only from one training.

    Channel-only rows reuse the fold's fitted models with alpha forced to 0
    (textual) or 1 (non-textual), so the comparison isolates the fusion.
    """
    raw = _run_folds(candidates, corpus, config)
    channels = {
        name: _channel(raw, config.threshold, alpha)
        for name, alpha in (
            ("hybrid", None),
            ("textual_only", 0.0),
            ("nontextual_only", 1.0),
        )
    }
    return _report("ablation", raw, candidates, corpus, config, channels=channels)


def render_report(report: dict) -> str:
    """Deterministic JSON text for a report dict."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
