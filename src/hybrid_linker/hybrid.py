"""Two-channel fusion: tuning, training, prediction, and model bundles.

The fused probability is a linear accumulator over the two channels,

    p_fused = alpha * p_nontextual + (1 - alpha) * p_textual,

with alpha tuned on a held-out validation slice by F1 over a fixed grid.
A trained model serializes to a single-file bundle: a deterministic zip of
one JSON manifest plus little-endian .npy arrays, so equal models produce
byte-identical files.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import HybridLinkerError
from .config import Config
from .corpus import Commit, Corpus, Issue
from .linkgen import LinkCandidate
from .learn import (
    LearnerError,
    LearnerParams,
    SoftVoteEnsemble,
    TrainedLearner,
    predict_proba,
    train,
    train_ensemble,
)
from ._tree import Tree
from .tabular import TabularEncoder, featurize_pairs_tabular, fit_encoder
from .tfidf import (
    TextualVectorizers,
    TfidfModel,
    featurize_pairs_textual,
    fit_vectorizers,
)
from .textprep import load_stopwords

BUNDLE_FORMAT = "hlb1"
MIN_TRAIN_CANDIDATES = 10
DEFAULT_ALPHA_STEP = 0.05
DEFAULT_THRESHOLD = 0.5


class HybridError(HybridLinkerError):
    """Invalid fusion input or model bundle."""


def fuse_arrays(
    p_nontextual: np.ndarray, p_textual: np.ndarray, alpha: float
) -> np.ndarray:
    """Fuse the two channel probabilities linearly, elementwise."""
    if not 0.0 <= alpha <= 1.0:
        raise HybridError(f"alpha must lie in [0, 1], got {alpha!r}")
    p_nontextual = np.asarray(p_nontextual)
    p_textual = np.asarray(p_textual)
    for name, values in (("p_nontextual", p_nontextual), ("p_textual", p_textual)):
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise HybridError(f"{name} values must lie in [0, 1]")
    return alpha * p_nontextual + (1.0 - alpha) * p_textual


def f1_at_threshold(
    fused: np.ndarray, labels: np.ndarray, threshold: float
) -> float:
    predicted = fused >= threshold
    actual = np.asarray(labels) == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def alpha_grid(step: float = DEFAULT_ALPHA_STEP) -> list[float]:
    if not 0.0 < step <= 1.0:
        raise HybridError(f"alpha step must lie in (0, 1], got {step!r}")
    count = int(round(1.0 / step))
    return [round(i * step, 10) for i in range(count + 1)]


def tune_alpha(
    p_nontextual: np.ndarray,
    p_textual: np.ndarray,
    labels: np.ndarray,
    step: float = DEFAULT_ALPHA_STEP,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[float, float]:
    """Grid-search alpha by F1; returns (alpha, f1).

    Ties prefer the alpha closest to 0.5, then the smaller one, so neither
    channel is favored without evidence.
    """
    if len(np.asarray(labels)) == 0:
        raise HybridError("cannot tune alpha on empty inputs")
    best_alpha = None
    best_f1 = -1.0
    best_distance = None
    for alpha in alpha_grid(step):
        fused = fuse_arrays(p_nontextual, p_textual, alpha)
        score = f1_at_threshold(fused, labels, threshold)
        distance = abs(alpha - 0.5)
        if score > best_f1 or (score == best_f1 and distance < best_distance):
            best_alpha, best_f1, best_distance = alpha, score, distance
    return best_alpha, best_f1


@dataclass
class HybridModel:
    project: str
    alpha: float
    threshold: float
    stopwords: frozenset[str]
    vectorizers: TextualVectorizers
    encoder: TabularEncoder
    textual: TrainedLearner
    nontextual: SoftVoteEnsemble
    config: dict
    validation_f1: float = 0.0
    n_fit: int = 0
    n_validation: int = 0


def channel_probabilities(
    model: HybridModel, pairs: list[tuple[Issue, Commit]]
) -> tuple[np.ndarray, np.ndarray]:
    """(non-textual, textual) channel probabilities for each pair."""
    X_t = featurize_pairs_textual(pairs, model.vectorizers, model.stopwords)
    X_nt = featurize_pairs_tabular(pairs, model.encoder)
    p_t = predict_proba(model.textual, X_t)
    p_nt = predict_proba(model.nontextual, X_nt)
    return p_nt, p_t


class Prediction(NamedTuple):
    probability: float
    label: int


def predict(model: HybridModel, issue: Issue, commit: Commit) -> Prediction:
    """Fused probability and thresholded label for one pair."""
    return predict_pairs(model, [(issue, commit)])[0]


def predict_pairs(
    model: HybridModel, pairs: list[tuple[Issue, Commit]]
) -> list[Prediction]:
    p_nt, p_t = channel_probabilities(model, pairs)
    fused = fuse_arrays(p_nt, p_t, model.alpha)
    return [
        Prediction(probability=float(p), label=int(p >= model.threshold))
        for p in fused
    ]


def train_hybrid(
    candidates: list[LinkCandidate], corpus: Corpus, config: Config
) -> HybridModel:
    """Fit both channels on 80% of the candidates and tune alpha on the rest.

    Channel models are fitted once on the fit slice and kept; nothing is
    refitted after tuning. Every learner is seeded with config.seed.
    """
    if len(candidates) < MIN_TRAIN_CANDIDATES:
        raise HybridError(
            f"need at least {MIN_TRAIN_CANDIDATES} candidates to train, "
            f"got {len(candidates)}"
        )
    stopwords = load_stopwords(config.stopwords_path)

    n = len(candidates)
    rng = np.random.default_rng(config.resolved_split_seed())
    order = rng.permutation(n)
    n_fit = min(n - 1, max(1, int(round(0.8 * n))))
    fit_idx = order[:n_fit]
    val_idx = order[n_fit:]
    fit_part = [candidates[i] for i in fit_idx]
    val_part = [candidates[i] for i in val_idx]

    vectorizers = fit_vectorizers(
        fit_part, corpus, stopwords, max_features=config.max_features
    )
    encoder = fit_encoder(
        fit_part,
        corpus,
        category_map_path=config.category_map_path,
        identity_top_k=config.identity_top_k,
        gap_features=config.gap_features,
        missing_threshold=config.missing_threshold,
    )

    fit_pairs = corpus.pairs(fit_part)
    X_t = featurize_pairs_textual(fit_pairs, vectorizers, stopwords)
    X_nt = featurize_pairs_tabular(fit_pairs, encoder)
    y_fit = np.array([c.label for c in fit_part], dtype=np.float64)

    textual_model = train(replace(config.textual, seed=config.seed), X_t, y_fit)
    nontextual_model = train_ensemble(
        config.nontextual_kind,
        X_nt,
        y_fit,
        {
            variant: replace(params, seed=config.seed)
            for variant, params in config.nontextual.items()
        },
        seed=config.seed,
    )

    val_pairs = corpus.pairs(val_part)
    Xv_t = featurize_pairs_textual(val_pairs, vectorizers, stopwords)
    Xv_nt = featurize_pairs_tabular(val_pairs, encoder)
    pv_t = predict_proba(textual_model, Xv_t)
    pv_nt = predict_proba(nontextual_model, Xv_nt)
    y_val = np.array([c.label for c in val_part], dtype=np.float64)
    alpha, val_f1 = tune_alpha(
        pv_nt, pv_t, y_val, config.alpha_step, config.threshold
    )

    return HybridModel(
        project=corpus.project,
        alpha=alpha,
        threshold=config.threshold,
        stopwords=stopwords,
        vectorizers=vectorizers,
        encoder=encoder,
        textual=textual_model,
        nontextual=nontextual_model,
        config=config.to_dict(),
        validation_f1=val_f1,
        n_fit=len(fit_part),
        n_validation=len(val_part),
    )


def _npy_bytes(array: np.ndarray, dtype: str) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array.astype(dtype)))
    return buffer.getvalue()


def _learner_payload(name: str, model: TrainedLearner):
    meta = {
        "variant": model.variant,
        "params": model.params.to_dict(),
        "width": model.width,
        "base_score": model.base_score,
        "bias": model.bias,
        "tree_scales": list(model.tree_scales),
        "train_losses": list(model.train_losses),
        "arrays": [],
    }
    arrays: dict[str, bytes] = {}

    def put(field: str, data: np.ndarray, dtype: str) -> None:
        file_name = f"arrays/{name}.{field}.npy"
        arrays[file_name] = _npy_bytes(data, dtype)
        meta["arrays"].append(field)

    if model.trees:
        counts = np.array([t.n_nodes for t in model.trees], dtype=np.int64)
        put("tree_sizes", counts, "<i4")
        put("tree_feature", np.concatenate([t.feature for t in model.trees]), "<i4")
        put(
            "tree_threshold",
            np.concatenate([t.threshold for t in model.trees]),
            "<f8",
        )
        put("tree_left", np.concatenate([t.left for t in model.trees]), "<i4")
        put("tree_right", np.concatenate([t.right for t in model.trees]), "<i4")
        put("tree_value", np.concatenate([t.value for t in model.trees]), "<f8")
    if model.weights is not None:
        put("weights", model.weights, "<f8")
    if model.class_log_prior is not None:
        put("class_log_prior", model.class_log_prior, "<f8")
        put("feature_means", model.feature_means, "<f8")
        put("feature_vars", model.feature_vars, "<f8")
    return meta, arrays


def _learner_from_payload(
    path, name: str, meta: dict, read_array
) -> TrainedLearner:
    try:
        params = LearnerParams.from_dict(meta["params"])
    except LearnerError as exc:
        raise HybridError(f"{path}: {name}: {exc}") from None
    model = TrainedLearner(
        # The params carry the variant with retired names already mapped.
        variant=params.variant,
        params=params,
        width=meta["width"],
        base_score=meta["base_score"],
        bias=meta["bias"],
        tree_scales=tuple(meta["tree_scales"]),
        train_losses=tuple(meta["train_losses"]),
    )
    fields = set(meta["arrays"])
    if "tree_sizes" in fields:
        sizes = read_array(f"arrays/{name}.tree_sizes.npy")
        feature = read_array(f"arrays/{name}.tree_feature.npy")
        threshold = read_array(f"arrays/{name}.tree_threshold.npy")
        left = read_array(f"arrays/{name}.tree_left.npy")
        right = read_array(f"arrays/{name}.tree_right.npy")
        value = read_array(f"arrays/{name}.tree_value.npy")
        trees = []
        offset = 0
        for size in sizes:
            stop = offset + int(size)
            trees.append(
                Tree(
                    feature=feature[offset:stop].astype(np.int32),
                    threshold=threshold[offset:stop].astype(np.float64),
                    left=left[offset:stop].astype(np.int32),
                    right=right[offset:stop].astype(np.int32),
                    value=value[offset:stop].astype(np.float64),
                )
            )
            offset = stop
        model.trees = tuple(trees)
    if "weights" in fields:
        model.weights = read_array(f"arrays/{name}.weights.npy").astype(np.float64)
    if "class_log_prior" in fields:
        model.class_log_prior = read_array(
            f"arrays/{name}.class_log_prior.npy"
        ).astype(np.float64)
        model.feature_means = read_array(
            f"arrays/{name}.feature_means.npy"
        ).astype(np.float64)
        model.feature_vars = read_array(
            f"arrays/{name}.feature_vars.npy"
        ).astype(np.float64)
    return model


def _vectorizer_payload(name: str, model: TfidfModel):
    meta = {
        "terms": model.terms(),
        "ngram_range": list(model.ngram_range),
        "max_features": model.max_features,
    }
    arrays = {f"arrays/{name}.idf.npy": _npy_bytes(model.idf, "<f8")}
    return meta, arrays


def _vectorizer_from_payload(name: str, meta: dict, read_array) -> TfidfModel:
    terms = meta["terms"]
    return TfidfModel(
        term_index={term: i for i, term in enumerate(terms)},
        idf=read_array(f"arrays/{name}.idf.npy").astype(np.float64),
        ngram_range=tuple(meta["ngram_range"]),
        max_features=meta["max_features"],
    )


def _encoder_payload(encoder: TabularEncoder) -> dict:
    return {
        "status_map": encoder.status_map,
        "type_map": encoder.type_map,
        "identity_vocabs": {
            column: list(vocab) for column, vocab in encoder.identity_vocabs.items()
        },
        "include_reporter": encoder.include_reporter,
        "include_resolved": encoder.include_resolved,
        "gap_features": encoder.gap_features,
        "identity_top_k": encoder.identity_top_k,
        "redundancy": encoder.redundancy,
        "unmapped_status": encoder.unmapped_status,
        "unmapped_type": encoder.unmapped_type,
    }


def _encoder_from_payload(data: dict) -> TabularEncoder:
    return TabularEncoder(
        status_map=data["status_map"],
        type_map=data["type_map"],
        identity_vocabs={
            column: tuple(vocab) for column, vocab in data["identity_vocabs"].items()
        },
        include_reporter=data["include_reporter"],
        include_resolved=data["include_resolved"],
        gap_features=data["gap_features"],
        identity_top_k=data["identity_top_k"],
        redundancy=data["redundancy"],
        unmapped_status=data["unmapped_status"],
        unmapped_type=data["unmapped_type"],
    )


def save_model(model: HybridModel, path: str | Path) -> None:
    """Write a model bundle; equal models yield byte-identical files."""
    files: dict[str, bytes] = {}
    manifest = {
        "format": BUNDLE_FORMAT,
        "project": model.project,
        "alpha": model.alpha,
        "threshold": model.threshold,
        "stopwords": sorted(model.stopwords),
        "config": model.config,
        "validation_f1": model.validation_f1,
        "n_fit": model.n_fit,
        "n_validation": model.n_validation,
        "nontextual_kind": model.nontextual.kind,
        "encoder": _encoder_payload(model.encoder),
    }
    for name, vec in (
        ("vec_issue", model.vectorizers.issue),
        ("vec_message", model.vectorizers.message),
        ("vec_code", model.vectorizers.code),
    ):
        meta, arrays = _vectorizer_payload(name, vec)
        manifest[name] = meta
        files.update(arrays)
    meta, arrays = _learner_payload("textual", model.textual)
    manifest["textual"] = meta
    files.update(arrays)
    member_metas = []
    for position, member in enumerate(model.nontextual.members):
        meta, arrays = _learner_payload(f"nontextual_{position}", member)
        member_metas.append(meta)
        files.update(arrays)
    manifest["nontextual_members"] = member_metas
    files["manifest.json"] = (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as bundle:
        for name in sorted(files):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            bundle.writestr(info, files[name])


def load_model(path: str | Path) -> HybridModel:
    """Read a model bundle written by save_model."""
    try:
        bundle = zipfile.ZipFile(path, "r")
    except (OSError, zipfile.BadZipFile) as exc:
        raise HybridError(f"cannot open model bundle {path}: {exc}") from None
    with bundle:
        try:
            manifest = json.loads(bundle.read("manifest.json"))
        except KeyError:
            raise HybridError(f"{path}: not a model bundle (no manifest)") from None
        if manifest.get("format") != BUNDLE_FORMAT:
            raise HybridError(
                f"{path}: unsupported bundle format {manifest.get('format')!r}"
            )

        def read_array(name: str) -> np.ndarray:
            return np.load(io.BytesIO(bundle.read(name)), allow_pickle=False)

        vectorizers = TextualVectorizers(
            issue=_vectorizer_from_payload("vec_issue", manifest["vec_issue"], read_array),
            message=_vectorizer_from_payload(
                "vec_message", manifest["vec_message"], read_array
            ),
            code=_vectorizer_from_payload("vec_code", manifest["vec_code"], read_array),
        )
        textual = _learner_from_payload(
            path, "textual", manifest["textual"], read_array
        )
        members = tuple(
            _learner_from_payload(path, f"nontextual_{position}", meta, read_array)
            for position, meta in enumerate(manifest["nontextual_members"])
        )
        return HybridModel(
            project=manifest["project"],
            alpha=manifest["alpha"],
            threshold=manifest["threshold"],
            stopwords=frozenset(manifest["stopwords"]),
            vectorizers=vectorizers,
            encoder=_encoder_from_payload(manifest["encoder"]),
            textual=textual,
            nontextual=SoftVoteEnsemble(
                kind=manifest["nontextual_kind"], members=members
            ),
            config=manifest["config"],
            validation_f1=manifest["validation_f1"],
            n_fit=manifest["n_fit"],
            n_validation=manifest["n_validation"],
        )
