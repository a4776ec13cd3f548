"""Run configuration: one record covering the whole pipeline.

A config can come from a JSON file, from CLI flags, or both; flags win.
Purpose-specific seeds (balancing, fold assignment, fit/validation split)
default to the global seed so a single integer reproduces a whole run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import HybridLinkerError, _json
from .corpus import _locate_decode_error
from .learn import DEFAULT_ENSEMBLE_KIND, ENSEMBLE_KINDS, LearnerError, LearnerParams


class ConfigError(HybridLinkerError):
    """Malformed configuration file or invalid setting."""


def default_textual_params() -> LearnerParams:
    # The sparse high-dimensional channel gets a deeper, longer boosting run.
    return LearnerParams(
        variant="gradient_boosting",
        n_estimators=300,
        max_depth=50,
        learn_rate=0.1,
        min_rows=2,
    )


def default_nontextual_params() -> dict[str, LearnerParams]:
    # Every ensemble member starts from the learner defaults.
    return {variant: LearnerParams(variant) for variant in ENSEMBLE_KINDS["RF+GB+XGB"]}


@dataclass(frozen=True)
class Config:
    seed: int = 0
    window_days: int | None = 7
    k: int = 5
    alpha_step: float = 0.05
    threshold: float = 0.5
    tune_on: str = "validation"
    gap_features: bool = True
    identity_top_k: int = 50
    missing_threshold: float = 0.5
    stratified: bool = False
    jobs: int = 1
    max_features: int = 10000
    stopwords_path: str | None = None
    category_map_path: str | None = None
    nontextual_kind: str = DEFAULT_ENSEMBLE_KIND
    balance_seed: int | None = None
    split_seed: int | None = None
    fold_seed: int | None = None
    textual: LearnerParams = field(default_factory=default_textual_params)
    nontextual: dict[str, LearnerParams] = field(
        default_factory=default_nontextual_params
    )

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError("k: must be at least 2")
        if self.tune_on not in ("validation", "test"):
            raise ConfigError("tune_on: must be 'validation' or 'test'")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold: must lie strictly between 0 and 1")
        # The alpha grid has 1 / alpha_step + 1 points.
        if not 0.001 <= self.alpha_step <= 1.0:
            raise ConfigError("alpha_step: must lie in [0.001, 1]")
        if self.window_days is not None and self.window_days < 0:
            raise ConfigError("window_days: must be non-negative or null")
        for name in ("seed", "balance_seed", "split_seed", "fold_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name}: must be non-negative")
        if self.jobs < 1:
            raise ConfigError("jobs: must be at least 1")
        if self.identity_top_k < 1:
            raise ConfigError("identity_top_k: must be at least 1")
        if not 0.0 <= self.missing_threshold <= 1.0:
            raise ConfigError("missing_threshold: must lie in [0, 1]")
        if self.max_features < 1:
            raise ConfigError("max_features: must be positive")
        if self.nontextual_kind not in ENSEMBLE_KINDS:
            raise ConfigError(
                f"nontextual_kind: must be one of {sorted(ENSEMBLE_KINDS)}"
            )
        for key, params in self.nontextual.items():
            if params.variant != key:
                raise ConfigError(
                    f"nontextual.{key}: variant {params.variant!r} differs from its key"
                )

    def resolved_balance_seed(self) -> int:
        return self.seed if self.balance_seed is None else self.balance_seed

    def resolved_split_seed(self) -> int:
        return self.seed if self.split_seed is None else self.split_seed

    def resolved_fold_seed(self) -> int:
        return self.seed if self.fold_seed is None else self.fold_seed

    def to_dict(self) -> dict:
        """Full effective config, resolved seeds included."""
        out = {item.name: getattr(self, item.name) for item in fields(self)}
        out["textual"] = self.textual.to_dict()
        out["nontextual"] = {
            variant: params.to_dict()
            for variant, params in sorted(self.nontextual.items())
        }
        out["balance_seed"] = self.resolved_balance_seed()
        out["split_seed"] = self.resolved_split_seed()
        out["fold_seed"] = self.resolved_fold_seed()
        return out


def _section_params(section: str, data, base: LearnerParams) -> LearnerParams:
    try:
        return LearnerParams.from_dict(data, base)
    except LearnerError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def config_from_dict(data: dict) -> Config:
    """Build a Config from a plain dict, typically parsed JSON.

    Every value is checked against its field's annotation; a failure raises
    ConfigError("<key or section>: <problem>").
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_json.type_hints(Config))
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    try:
        plain = [key for key in data if key not in ("textual", "nontextual")]
        values = _json.record(data, Config, plain)
        nontextual = _json.decode(data.get("nontextual", {}), dict, "nontextual")
    except _json.DecodeError as exc:
        raise ConfigError(str(exc)) from None
    if "textual" in data:
        values["textual"] = _section_params(
            "textual", data["textual"], default_textual_params()
        )
    if nontextual:
        merged = default_nontextual_params()
        for variant, sub in nontextual.items():
            if variant not in merged:
                raise ConfigError(
                    f"nontextual.{variant}: not an ensemble member variant; "
                    f"use one of {sorted(merged)}"
                )
            merged[variant] = _section_params(
                f"nontextual.{variant}", sub, merged[variant]
            )
        values["nontextual"] = merged
    return Config(**values)


def load_config(path: str | Path) -> Config:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(_locate_decode_error(path)) from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(data)


def apply_overrides(config: Config, **overrides) -> Config:
    """Replace settings whose override value is not None; flags win."""
    changes = {key: value for key, value in overrides.items() if value is not None}
    if not changes:
        return config
    return replace(config, **changes)
