"""Self-contained binary classifiers and the soft-vote ensemble.

Six variants share one parameter record and one training entry point:
a CART decision tree, a random forest, logistic-loss gradient boosting,
its lambda-regularized second-order variant, Gaussian naive Bayes, and
an SGD-trained logistic regression. All of them consume dense feature
matrices, the package's Csr matrices or SciPy sparse ones, and binary 0/1
labels, and emit a probability for class 1. ``train`` checks its input once
and hands each trainer a checked Csr.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import HybridLinkerError, _json
from ._csr import Csr, as_csr, is_sparse
from ._pcg import Generator
from ._tree import _DENSE_ENTRIES, ColumnIndex, GrowSpec, Tree, grow_tree, pack

VARIANTS = (
    "decision_tree",
    "random_forest",
    "gradient_boosting",
    "regularized_gradient_boosting",
    "naive_bayes",
    "logistic_regression",
)

# Retired variant names, each loading as the variant that ran the same code.
RETIRED_VARIANTS = {"sgd_classifier": "logistic_regression"}

# Boosting stops early once a stage improves training log-loss by less
# than this.
EARLY_STOP_TOL = 1e-10

SGD_BASE_STEP = 0.01


class LearnerError(HybridLinkerError):
    """Invalid learner configuration or training input."""


@dataclass(frozen=True)
class LearnerParams:
    variant: str
    n_trees: int = 60
    max_depth: int = 15
    min_rows: int = 2
    learn_rate: float = 0.1
    learn_rate_annealing: float = 1.0
    n_estimators: int | None = None
    reg_lambda: float = 1.0
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise LearnerError(f"unknown variant {self.variant!r}")
        if self.n_trees < 1:
            raise LearnerError("n_trees must be at least 1")
        if self.max_depth < 1:
            raise LearnerError("max_depth must be at least 1")
        if self.min_rows < 1:
            raise LearnerError("min_rows must be at least 1")
        if not 0.0 < self.learn_rate <= 1.0:
            raise LearnerError("learn_rate must lie in (0, 1]")
        if not 0.0 < self.learn_rate_annealing <= 1.0:
            raise LearnerError("learn_rate_annealing must lie in (0, 1]")
        if self.n_estimators is not None and self.n_estimators < 1:
            raise LearnerError("n_estimators must be at least 1 when set")
        if self.reg_lambda < 0.0:
            raise LearnerError("reg_lambda must be non-negative")
        if self.epochs < 1:
            raise LearnerError("epochs must be at least 1")
        if self.seed < 0:
            raise LearnerError("seed must be non-negative")

    @property
    def n_stages(self) -> int:
        """Boosting rounds; n_estimators wins over n_trees when given."""
        return self.n_estimators if self.n_estimators is not None else self.n_trees

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data, base: LearnerParams | None = None) -> LearnerParams:
        """Inverse of to_dict; keys missing from data keep base's values.

        Unknown keys and values that do not fit their annotation raise
        LearnerError naming the key. The retired variant name sgd_classifier,
        which ran the same SGD path, loads as logistic_regression.
        """
        if not isinstance(data, dict):
            raise LearnerError(
                f"learner parameters must be an object, got {type(data).__name__}"
            )
        for key in data:
            if key not in _json.type_hints(cls):
                raise LearnerError(f"unknown learner parameter {key!r}")
        try:
            values = _json.record(data, cls, data)
        except _json.DecodeError as exc:
            raise LearnerError(str(exc)) from None
        if values.get("variant") in RETIRED_VARIANTS:
            values["variant"] = RETIRED_VARIANTS[values["variant"]]
        if base is not None:
            return replace(base, **values)
        if "variant" not in values:
            raise LearnerError("missing learner parameter 'variant'")
        return cls(**values)


@dataclass
class TrainedLearner:
    variant: str
    params: LearnerParams
    width: int
    # Every tree of a tree learner, packed; empty for the other variants.
    trees: Tree = field(default_factory=partial(pack, ()))
    tree_scales: tuple[float, ...] = ()
    base_score: float = 0.0
    weights: np.ndarray | None = None
    bias: float = 0.0
    class_log_prior: np.ndarray | None = None
    feature_means: np.ndarray | None = None
    feature_vars: np.ndarray | None = None
    train_losses: tuple[float, ...] = ()


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _check_training_input(X, y) -> tuple[Csr, np.ndarray]:
    if not is_sparse(X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise LearnerError("X must be two-dimensional")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise LearnerError("y must be one label per row of X")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise LearnerError("labels must be 0 or 1")
    if X.shape[0] < 2:
        raise LearnerError("need at least two training rows")
    if y.min() == y.max():
        raise LearnerError("training data must contain both classes")
    return as_csr(X), y


def _train_decision_tree(params: LearnerParams, X: Csr, y) -> TrainedLearner:
    index = ColumnIndex(X)
    n = X.shape[0]
    ones = np.ones(n, dtype=np.float64)
    spec = GrowSpec(
        mode="gini", max_depth=params.max_depth, min_rows=params.min_rows
    )
    tree, _ = grow_tree(index, np.arange(n), y * ones, ones, ones, spec)
    return TrainedLearner(
        variant=params.variant, params=params, width=X.shape[1],
        trees=tree, tree_scales=(1.0,),
    )


def _train_random_forest(params: LearnerParams, X: Csr, y) -> TrainedLearner:
    index = ColumnIndex(X)
    n, width = X.shape
    n_sub = max(1, int(math.sqrt(width)))
    trees = []
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        picks = rng.integers(0, n, size=n)
        weights = np.bincount(picks, minlength=n).astype(np.float64)
        rows = np.flatnonzero(weights)
        spec = GrowSpec(
            mode="gini",
            max_depth=params.max_depth,
            min_rows=params.min_rows,
            n_sub_features=n_sub,
        )
        tree, _ = grow_tree(
            index, rows, y * weights, weights, weights, spec, rng=rng
        )
        trees.append(tree)
    return TrainedLearner(
        variant=params.variant, params=params, width=width,
        trees=pack(trees), tree_scales=(1.0,) * len(trees),
    )


def _train_boosting(params: LearnerParams, X: Csr, y) -> TrainedLearner:
    index = ColumnIndex(X)
    n, width = X.shape
    rows = np.arange(n)
    ones = np.ones(n, dtype=np.float64)
    prior = min(max(float(np.mean(y)), 1e-12), 1.0 - 1e-12)
    base = math.log(prior / (1.0 - prior))
    scores = np.full(n, base, dtype=np.float64)
    p = sigmoid(scores)
    losses = [log_loss(y, p)]
    regularized = params.variant == "regularized_gradient_boosting"
    spec = GrowSpec(
        mode="xgb" if regularized else "mse",
        max_depth=params.max_depth,
        min_rows=params.min_rows,
        lam=params.reg_lambda if regularized else 0.0,
    )
    trees: list[Tree] = []
    scales: list[float] = []
    for stage in range(params.n_stages):
        gradient = y - p
        hessian = p * (1.0 - p)
        if regularized:
            tree, fitted = grow_tree(index, rows, gradient, hessian, ones, spec)
        else:
            tree, fitted = grow_tree(
                index, rows, gradient, ones, ones, spec, leaf_den=hessian
            )
        scale = params.learn_rate * params.learn_rate_annealing**stage
        scores += scale * fitted
        trees.append(tree)
        scales.append(scale)
        # The next stage's probabilities, computed once for the loss too.
        p = sigmoid(scores)
        losses.append(log_loss(y, p))
        if losses[-2] - losses[-1] < EARLY_STOP_TOL:
            break
    return TrainedLearner(
        variant=params.variant, params=params, width=width,
        trees=pack(trees), tree_scales=tuple(scales), base_score=base,
        train_losses=tuple(losses),
    )


def _train_linear_sgd(params: LearnerParams, X: Csr, y) -> TrainedLearner:
    n, width = X.shape
    weights = np.zeros(width, dtype=np.float64)
    bias = 0.0
    rng = Generator(params.seed)
    indptr, indices, data = X.indptr, X.indices, X.data
    step_count = 1
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            z = float(vals @ weights[cols]) + bias
            err = float(sigmoid(z)) - y[i]
            step = SGD_BASE_STEP / math.sqrt(step_count)
            weights[cols] -= step * err * vals
            bias -= step * err
            step_count += 1
    return TrainedLearner(
        variant=params.variant, params=params, width=width,
        weights=weights, bias=bias,
    )


def _train_naive_bayes(params: LearnerParams, X: Csr, y) -> TrainedLearner:
    n, width = X.shape
    sum_all = X.column_sums()
    sq_all = X.squared_column_sums()
    global_var = sq_all / n - (sum_all / n) ** 2
    smoothing = 1e-9 * float(global_var.max()) if width else 0.0
    means = np.zeros((2, width), dtype=np.float64)
    variances = np.zeros((2, width), dtype=np.float64)
    log_prior = np.zeros(2, dtype=np.float64)
    for cls in (0, 1):
        mask = y == cls
        count = int(mask.sum())
        part = X[np.flatnonzero(mask)]
        s = part.column_sums()
        q = part.squared_column_sums()
        means[cls] = s / count
        variances[cls] = np.maximum(q / count - means[cls] ** 2, 0.0) + smoothing
        log_prior[cls] = math.log(count / n)
    return TrainedLearner(
        variant=params.variant, params=params, width=width,
        class_log_prior=log_prior, feature_means=means, feature_vars=variances,
    )


def train(params: LearnerParams, X, y) -> TrainedLearner:
    """Train one learner; dispatches on params.variant."""
    X, y = _check_training_input(X, y)
    if params.variant == "logistic_regression":
        return _train_linear_sgd(params, X, y)
    if params.variant == "naive_bayes":
        return _train_naive_bayes(params, X, y)
    try:
        if params.variant == "decision_tree":
            return _train_decision_tree(params, X, y)
        if params.variant == "random_forest":
            return _train_random_forest(params, X, y)
        return _train_boosting(params, X, y)
    except RecursionError:
        # grow_tree recurses once per tree level.
        raise LearnerError(
            f"{params.variant}: max_depth {params.max_depth} grows a tree deeper "
            "than the interpreter's recursion limit; lower max_depth"
        ) from None


def _nb_predict(model: TrainedLearner, X) -> np.ndarray:
    Xc = as_csr(X)
    n = Xc.shape[0]
    joint = np.empty((n, 2), dtype=np.float64)
    chunk = max(1, _DENSE_ENTRIES // max(1, model.width))
    for start in range(0, n, chunk):
        block = Xc[start : start + chunk].toarray()
        for cls in (0, 1):
            var = model.feature_vars[cls]
            mean = model.feature_means[cls]
            ll = -0.5 * np.sum(
                np.log(2.0 * np.pi * var) + (block - mean) ** 2 / var, axis=1
            )
            joint[start : start + len(block), cls] = (
                model.class_log_prior[cls] + ll
            )
    # Normalize via log-sum-exp so the pair sums to one.
    high = joint.max(axis=1, keepdims=True)
    norm = high.ravel() + np.log(np.exp(joint - high).sum(axis=1))
    return np.exp(joint[:, 1] - norm)


def predict_proba(model, X) -> np.ndarray:
    """Probability of class 1 per row; accepts a learner or an ensemble."""
    if isinstance(model, SoftVoteEnsemble):
        stacked = np.stack([predict_proba(m, X) for m in model.members])
        return stacked.mean(axis=0)
    if is_sparse(X):
        X = as_csr(X)
    else:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
    if X.shape[1] != model.width:
        raise LearnerError(
            f"feature width {X.shape[1]} does not match model width {model.width}"
        )
    if model.variant in ("decision_tree", "random_forest"):
        n_trees = len(model.trees)
        return model.trees.predict(X, np.ones(n_trees)) / n_trees
    if model.variant in ("gradient_boosting", "regularized_gradient_boosting"):
        # Added one tree at a time in tree order; float sums depend on order.
        scores = model.trees.predict(X, model.tree_scales, model.base_score)
        return np.asarray(sigmoid(scores))
    if model.variant == "logistic_regression":
        Xc = as_csr(X)
        return np.asarray(sigmoid(Xc @ model.weights + model.bias))
    return _nb_predict(model, X)


ENSEMBLE_KINDS: dict[str, tuple[str, ...]] = {
    "RF+GB": ("random_forest", "gradient_boosting"),
    "GB+XGB": ("gradient_boosting", "regularized_gradient_boosting"),
    "RF+XGB": ("random_forest", "regularized_gradient_boosting"),
    "RF+GB+XGB": (
        "random_forest",
        "gradient_boosting",
        "regularized_gradient_boosting",
    ),
}

DEFAULT_ENSEMBLE_KIND = "GB+XGB"


@dataclass
class SoftVoteEnsemble:
    """Arithmetic mean of member probabilities."""

    kind: str
    members: tuple[TrainedLearner, ...]

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise LearnerError(f"unknown ensemble kind {self.kind!r}")
        expected = ENSEMBLE_KINDS[self.kind]
        got = tuple(m.variant for m in self.members)
        if got != expected:
            raise LearnerError(
                f"ensemble {self.kind!r} needs members {expected}, got {got}"
            )

    @property
    def width(self) -> int:
        return self.members[0].width


def train_ensemble(
    kind: str,
    X,
    y,
    params_by_variant: dict[str, LearnerParams] | None = None,
    seed: int = 0,
) -> SoftVoteEnsemble:
    """Train every member of an ensemble kind on the same data."""
    if kind not in ENSEMBLE_KINDS:
        raise LearnerError(f"unknown ensemble kind {kind!r}")
    members = []
    for variant in ENSEMBLE_KINDS[kind]:
        if params_by_variant and variant in params_by_variant:
            params = params_by_variant[variant]
        else:
            params = LearnerParams(variant=variant, seed=seed)
        members.append(train(params, X, y))
    return SoftVoteEnsemble(kind=kind, members=tuple(members))
