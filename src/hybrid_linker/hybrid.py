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
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from . import HybridLinkerError, _json
from ._json import DecodeError
from ._pcg import Generator
from .config import Config
from .corpus import Commit, Corpus, Issue
from .linkgen import LinkCandidate
from .learn import (
    RETIRED_VARIANTS,
    LearnerParams,
    SoftVoteEnsemble,
    TrainedLearner,
    predict_proba,
    train,
    train_ensemble,
)
from ._tree import TREE_ARRAYS, Tree
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
    """Fuse the two channel probabilities linearly, elementwise; both must
    have one shape, as NumPy would otherwise broadcast one over the other."""
    if not 0.0 <= alpha <= 1.0:
        raise HybridError(f"alpha must lie in [0, 1], got {alpha!r}")
    p_nontextual = np.asarray(p_nontextual)
    p_textual = np.asarray(p_textual)
    if p_nontextual.shape != p_textual.shape:
        raise HybridError(
            "p_nontextual and p_textual must have the same shape, "
            f"got {p_nontextual.shape} and {p_textual.shape}"
        )
    for name, values in (("p_nontextual", p_nontextual), ("p_textual", p_textual)):
        # Written so that NaN, which fails every comparison, is out of range.
        if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise HybridError(f"{name} values must lie in [0, 1]")
    return alpha * p_nontextual + (1.0 - alpha) * p_textual


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "flags": list(self.flags)}


def metrics(predicted, actual) -> Metrics:
    """Precision, recall, F1 for binary labels; zero denominators give 0."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual label arrays differ in length")
    for name, values in (("predicted", predicted), ("actual", actual)):
        if values.dtype != bool and not ((values == 0) | (values == 1)).all():
            raise ValueError(f"{name} labels must be 0 or 1")
    predicted = predicted.astype(bool)
    actual = actual.astype(bool)
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    flags = []
    if tp + fp == 0:
        precision = 0.0
        flags.append("precision_undefined")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        flags.append("recall_undefined")
    else:
        recall = tp / (tp + fn)
    if 2 * tp + fp + fn == 0:
        f1 = 0.0
        flags.append("f1_undefined")
    else:
        f1 = 2 * tp / (2 * tp + fp + fn)
    return Metrics(
        tp=tp, fp=fp, fn=fn, tn=tn,
        precision=precision, recall=recall, f1=f1, flags=tuple(flags),
    )


def alpha_grid(step: float = DEFAULT_ALPHA_STEP) -> list[float]:
    if not 0.0 < step <= 1.0:
        raise HybridError(f"alpha step must lie in (0, 1], got {step!r}")
    count = int(round(1.0 / step))
    # Rounding 1 / step up would put the last point past 1.
    grid = (round(i * step, 10) for i in range(count + 1))
    return [alpha for alpha in grid if alpha <= 1.0]


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
        score = metrics(fused >= threshold, labels).f1
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise HybridError(f"alpha: must lie in [0, 1], got {self.alpha!r}")
        if not 0.0 < self.threshold < 1.0:
            raise HybridError(f"threshold: must lie in (0, 1), got {self.threshold!r}")


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

    Each slice's (issue, commit) records are looked up in the corpus once.
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
    order = Generator(config.resolved_split_seed()).permutation(n)
    n_fit = min(n - 1, max(1, int(round(0.8 * n))))
    fit_part = [candidates[i] for i in order[:n_fit]]
    val_part = [candidates[i] for i in order[n_fit:]]

    fit_pairs = corpus.pairs(fit_part)
    vectorizers = fit_vectorizers(
        fit_pairs, stopwords, max_features=config.max_features
    )
    encoder = fit_encoder(
        fit_pairs,
        category_map_path=config.category_map_path,
        identity_top_k=config.identity_top_k,
        gap_features=config.gap_features,
        missing_threshold=config.missing_threshold,
    )
    X_t = featurize_pairs_textual(fit_pairs, vectorizers, stopwords)
    X_nt = featurize_pairs_tabular(fit_pairs, encoder)
    y_fit = np.array([c.label for c in fit_part], dtype=np.float64)

    model = HybridModel(
        project=corpus.project,
        alpha=0.5,  # tuned on the validation slice below
        threshold=config.threshold,
        stopwords=stopwords,
        vectorizers=vectorizers,
        encoder=encoder,
        textual=train(replace(config.textual, seed=config.seed), X_t, y_fit),
        nontextual=train_ensemble(
            config.nontextual_kind,
            X_nt,
            y_fit,
            {
                variant: replace(params, seed=config.seed)
                for variant, params in config.nontextual.items()
            },
            seed=config.seed,
        ),
        config=config.to_dict(),
        n_fit=len(fit_part),
        n_validation=len(val_part),
    )
    p_nt, p_t = channel_probabilities(model, corpus.pairs(val_part))
    y_val = np.array([c.label for c in val_part], dtype=np.float64)
    model.alpha, model.validation_f1 = tune_alpha(
        p_nt, p_t, y_val, config.alpha_step, config.threshold
    )
    return model


# Bundle layout. A bundle is a zip of manifest.json plus one little-endian
# .npy member per array, arrays/<section>.<field>.npy; save_model and
# load_model both walk these tables.
_MANIFEST = "manifest.json"
# HybridModel fields stored as they are; sets are stored sorted.
_MODEL_META = (
    "project",
    "alpha",
    "threshold",
    "stopwords",
    "config",
    "validation_f1",
    "n_fit",
    "n_validation",
)
_ENCODER_KEYS = tuple(item.name for item in fields(TabularEncoder) if item.init)
_VECTORIZERS = tuple(
    (f"vec_{item.name}", item.name) for item in fields(TextualVectorizers)
)
_VECTORIZER_META = ("terms", "ngram_range", "max_features")
_IDF = ("idf", "<f8")
# TrainedLearner fields stored in each learner's manifest object.
_LEARNER_META = (
    "variant",
    "width",
    "base_score",
    "bias",
    "tree_scales",
    "train_losses",
)
# A tree learner stores each array of its packed Tree as
# arrays/<learner>.tree_<field>.npy.
# The arrays of every other variant, with their shapes; None is the width.
_FLAT_ARRAYS = {
    "logistic_regression": (("weights", "<f8", (None,)),),
    "naive_bayes": (
        ("class_log_prior", "<f8", (2,)),
        ("feature_means", "<f8", (2, None)),
        ("feature_vars", "<f8", (2, None)),
    ),
}

# What reading a member of a corrupt, compressed or encrypted zip raises.
_ZIP_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    OSError,
    EOFError,
    NotImplementedError,
    RuntimeError,
)


def _member(section: str, field: str) -> str:
    return f"arrays/{section}.{field}.npy"


def _learners(textual, members) -> list[tuple[str, object]]:
    """Each learner's section name, which also prefixes its array members."""
    return [("textual", textual)] + [
        (f"nontextual_{position}", member) for position, member in enumerate(members)
    ]


def _npy_bytes(array, dtype: str) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array, dtype=dtype))
    return buffer.getvalue()


def _learner_payload(name: str, model: TrainedLearner):
    meta = {key: getattr(model, key) for key in _LEARNER_META}
    meta["params"] = model.params.to_dict()
    if model.variant in _FLAT_ARRAYS:
        layout = [
            (field, dtype, getattr(model, field))
            for field, dtype, _ in _FLAT_ARRAYS[model.variant]
        ]
    else:
        layout = [
            (f"tree_{field}", dtype, getattr(model.trees, field))
            for field, dtype in TREE_ARRAYS
        ]
    meta["arrays"] = [field for field, _, _ in layout]
    arrays = {
        _member(name, field): _npy_bytes(data, dtype) for field, dtype, data in layout
    }
    return meta, arrays


def save_model(model: HybridModel, path: str | Path) -> None:
    """Write a model bundle; equal models yield byte-identical files."""
    manifest = {"format": BUNDLE_FORMAT, "nontextual_kind": model.nontextual.kind}
    for key in _MODEL_META:
        value = getattr(model, key)
        manifest[key] = sorted(value) if isinstance(value, frozenset) else value
    manifest["encoder"] = {key: getattr(model.encoder, key) for key in _ENCODER_KEYS}
    files: dict[str, bytes] = {}
    for name, field in _VECTORIZERS:
        vec = getattr(model.vectorizers, field)
        manifest[name] = {key: getattr(vec, key) for key in _VECTORIZER_META}
        files[_member(name, _IDF[0])] = _npy_bytes(vec.idf, _IDF[1])
    metas = []
    for name, learner in _learners(model.textual, model.nontextual.members):
        meta, arrays = _learner_payload(name, learner)
        metas.append(meta)
        files.update(arrays)
    manifest["textual"], *manifest["nontextual_members"] = metas
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    files[_MANIFEST] = text.encode("utf-8")

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as bundle:
        for name in sorted(files):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            bundle.writestr(info, files[name])


class _BundleReader:
    """Checked reads from one open bundle.

    Every failure raises DecodeError(where, problem), where is a member name
    or a dotted manifest key such as textual.params.seed; load_model adds the
    bundle path.
    """

    def __init__(self, bundle: zipfile.ZipFile):
        self.bundle = bundle

    @contextmanager
    def located(self, where: str):
        """A constructor's error, at where or, for "<field>: ...", at where.<field>."""
        try:
            yield
        except (HybridLinkerError, ValueError) as exc:
            problem = str(exc)
            field, colon, rest = problem.partition(": ")
            if colon and " " not in field:
                where, problem = f"{where}.{field}".lstrip("."), rest
            raise DecodeError(where, problem) from None

    def read(self, member: str) -> bytes:
        try:
            return self.bundle.read(member)
        except KeyError:
            raise DecodeError(member, "missing")
        except _ZIP_ERRORS as exc:
            raise DecodeError(member, f"unreadable: {exc}")

    def array(self, section: str, field: str, dtype: str, shape=None) -> np.ndarray:
        member = _member(section, field)
        try:
            array = np.lib.format.read_array(
                io.BytesIO(self.read(member)), allow_pickle=False
            )
        except ValueError as exc:
            raise DecodeError(member, f"unreadable .npy: {exc}")
        # Without a shape, any one-dimensional array will do.
        if array.dtype != np.dtype(dtype) or array.shape != (shape or (array.size,)):
            raise DecodeError(
                member,
                f"expected {dtype} with shape {shape or '(n,)'}, "
                f"got {array.dtype.str} with shape {array.shape}",
            )
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise DecodeError(member, "holds values that are not finite")
        return array

    def vectorizer(self, name: str, meta: dict) -> TfidfModel:
        values = _json.record(meta, TfidfModel, _VECTORIZER_META, name)
        idf = self.array(name, *_IDF)
        with self.located(name):
            model = TfidfModel(idf=idf, **values)
        # Checked after the terms, so that a repeated term is named as such.
        if len(idf) != model.width:
            raise DecodeError(
                _member(name, _IDF[0]), f"{len(idf)} weights for {model.width} terms"
            )
        return model

    def learner(self, name: str, meta: dict) -> TrainedLearner:
        data = _json.get(meta, "params", dict, name)
        # A bundle must hold every field; from_dict also rejects unknown ones.
        _json.decode(data, LearnerParams, f"{name}.params")
        values = _json.record(meta, TrainedLearner, _LEARNER_META, name)
        values["variant"] = RETIRED_VARIANTS.get(values["variant"], values["variant"])
        with self.located(name):
            params = LearnerParams.from_dict(data)
            model = TrainedLearner(params=params, **values)
        flat = _FLAT_ARRAYS.get(model.variant)
        names = [field for field, *_ in flat] if flat else [
            f"tree_{field}" for field, _ in TREE_ARRAYS
        ]
        if _json.get(meta, "arrays", list[str], name) != names:
            raise DecodeError(f"{name}.arrays", f"a {model.variant} stores {names}")
        if flat:
            for field, dtype, shape in flat:
                shape = tuple(model.width if n is None else n for n in shape)
                setattr(model, field, self.array(name, field, dtype, shape))
            return model
        trees = Tree(
            **{
                field: self.array(name, f"tree_{field}", dtype)
                for field, dtype in TREE_ARRAYS
            }
        )
        self.check_trees(name, model, trees)
        model.trees = trees
        return model

    def check_trees(self, name, model, trees: Tree) -> None:
        """Check a learner's packed trees in one vectorized pass.

        Children must point forward inside their own tree and a leaf is
        feature -1 with children -1, so every walk from a root ends at a leaf
        after at most tree-size steps and reads no feature past the width.
        """

        def fail(field: str, problem: str) -> NoReturn:
            raise DecodeError(_member(name, f"tree_{field}"), problem)

        def check(field: str, broken: np.ndarray, problem: str) -> None:
            if broken.any():
                fail(field, f"position {int(np.argmax(broken))}: {problem}")

        sizes = trees.sizes
        # predict_proba scales each tree by its tree_scales entry.
        scales = len(model.tree_scales)
        if not 0 < len(sizes) == scales:
            fail("sizes", f"{len(sizes)} trees, but {scales} tree scales")
        check("sizes", sizes < 1, "a tree needs at least one node")
        total = int(sizes.sum())
        for field, _ in TREE_ARRAYS[1:]:
            column = getattr(trees, field)
            if len(column) != total:
                fail(field, f"{len(column)} nodes, but the tree sizes sum to {total}")
        size = np.repeat(sizes, sizes)
        local = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        feature = trees.feature
        leaf = feature == -1
        check(
            "feature",
            ~leaf & ((feature < 0) | (feature >= model.width)),
            f"neither -1 (a leaf) nor a feature in [0, {model.width})",
        )
        for field in ("left", "right"):
            child = getattr(trees, field)
            check(
                field,
                np.where(leaf, child != -1, (child <= local) | (child >= size)),
                "neither -1 at a leaf nor a later node of the same tree",
            )

    def model(self) -> HybridModel:
        try:
            manifest = json.loads(self.read(_MANIFEST))
        except (ValueError, RecursionError) as exc:
            raise DecodeError(_MANIFEST, f"invalid JSON: {exc}")
        _json.decode(manifest, dict, _MANIFEST)
        if manifest.get("format") != BUNDLE_FORMAT:
            found = manifest.get("format")
            raise DecodeError("format", f"unsupported bundle format {found!r}")
        values = _json.record(manifest, HybridModel, _MODEL_META)
        _json.decode(values["config"], Config, "config")
        # The stored form of the stopword set is its sorted list.
        if manifest["stopwords"] != sorted(values["stopwords"]):
            raise DecodeError("stopwords", "not sorted, or holds a repeat")
        values["vectorizers"] = TextualVectorizers(
            **{
                field: self.vectorizer(name, _json.get(manifest, name, dict))
                for name, field in _VECTORIZERS
            }
        )
        section = _json.get(manifest, "encoder", dict)
        with self.located("encoder"):
            values["encoder"] = TabularEncoder(
                **_json.record(section, TabularEncoder, _ENCODER_KEYS, "encoder")
            )
        learners = [
            (name, self.learner(name, meta))
            for name, meta in _learners(
                _json.get(manifest, "textual", dict),
                _json.get(manifest, "nontextual_members", list[dict]),
            )
        ]
        widths = [values["vectorizers"].width]
        widths += [values["encoder"].width] * (len(learners) - 1)
        for (name, learner), width in zip(learners, widths):
            if learner.width != width:
                raise DecodeError(
                    f"{name}.width", f"{learner.width}, but the features are {width}"
                )
        values["textual"], *members = (learner for _, learner in learners)
        with self.located("nontextual_kind"):
            values["nontextual"] = SoftVoteEnsemble(
                _json.get(manifest, "nontextual_kind", str), tuple(members)
            )
        with self.located(""):
            return HybridModel(**values)


def load_model(path: str | Path) -> HybridModel:
    """Read a model bundle written by save_model, checking all of it.

    A missing or wrongly typed key, a missing or unreadable member, an array
    of the wrong dtype or shape, a malformed tree, a width that does not
    match or a value its model class rejects raises HybridError naming the
    bundle and the key or member.
    """
    try:
        bundle = zipfile.ZipFile(path, "r")
    except (OSError, zipfile.BadZipFile) as exc:
        raise HybridError(f"cannot open model bundle {path}: {exc}") from None
    try:
        with bundle:
            return _BundleReader(bundle).model()
    except DecodeError as exc:
        raise HybridError(f"{path}: {exc.where}: {exc.problem}") from None
