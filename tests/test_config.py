from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_linker.config import (
    Config,
    ConfigError,
    config_from_dict,
    default_nontextual_params,
)
from hybrid_linker.corpus import synthesize_corpus
from hybrid_linker.hybrid import load_model, save_model, train_hybrid
from hybrid_linker.learn import ENSEMBLE_KINDS, VARIANTS, LearnerParams
from hybrid_linker.linkgen import balance_candidates, generate_candidates

UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)

LEARNER_PARAMS = st.builds(
    LearnerParams,
    variant=st.sampled_from(VARIANTS),
    n_trees=st.integers(1, 10_000),
    max_depth=st.integers(1, 1_000),
    min_rows=st.integers(1, 1_000),
    learn_rate=UNIT,
    learn_rate_annealing=UNIT,
    n_estimators=st.none() | st.integers(1, 10_000),
    reg_lambda=st.floats(min_value=0.0, max_value=1e6),
    epochs=st.integers(1, 1_000),
    seed=st.integers(0, 2**32 - 1),
)


def _members(params: LearnerParams) -> dict[str, LearnerParams]:
    return {name: replace(params, variant=name) for name in default_nontextual_params()}


def test_ensemble_defaults_keep_their_values():
    # Pinned so that a change to LearnerParams' defaults shows here.
    assert default_nontextual_params() == {
        "random_forest": LearnerParams(
            variant="random_forest", n_trees=60, max_depth=15, min_rows=2,
            learn_rate=0.1, learn_rate_annealing=1.0, n_estimators=None,
            reg_lambda=1.0, epochs=20, seed=0,
        ),
        "gradient_boosting": LearnerParams(
            variant="gradient_boosting", n_trees=60, max_depth=15, min_rows=2,
            learn_rate=0.1, learn_rate_annealing=1.0, n_estimators=None,
            reg_lambda=1.0, epochs=20, seed=0,
        ),
        "regularized_gradient_boosting": LearnerParams(
            variant="regularized_gradient_boosting", n_trees=60, max_depth=15,
            min_rows=2, learn_rate=0.1, learn_rate_annealing=1.0,
            n_estimators=None, reg_lambda=1.0, epochs=20, seed=0,
        ),
    }


def test_nontextual_variant_must_match_its_key():
    data = {"nontextual": {"random_forest": {"variant": "naive_bayes"}}}
    with pytest.raises(ConfigError, match="^nontextual.random_forest: variant"):
        config_from_dict(data)
    with pytest.raises(ConfigError, match="^nontextual.gradient_boosting: variant"):
        Config(nontextual={"gradient_boosting": LearnerParams(variant="decision_tree")})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"seed": -1}, "seed"),
        ({"split_seed": -2}, "split_seed"),
        ({"alpha_step": 1e-300}, "alpha_step"),
        ({"alpha_step": 5e-324}, "alpha_step"),
    ],
)
def test_values_training_cannot_use_are_rejected(data, key):
    # A negative seed fails in numpy's generators; a tiny alpha step asks for
    # an alpha grid too long to build.
    with pytest.raises(ConfigError, match=f"^{key}: must"):
        config_from_dict(data)


def test_sgd_classifier_loads_as_logistic_regression():
    config = config_from_dict({"textual": {"variant": "sgd_classifier", "epochs": 3}})
    assert config.textual.variant == "logistic_regression"
    assert config.textual.epochs == 3
    assert LearnerParams.from_dict({"variant": "sgd_classifier"}) == LearnerParams(
        variant="logistic_regression"
    )


@given(LEARNER_PARAMS)
@example(LearnerParams(variant="gradient_boosting"))
def test_learner_params_survive_config_round_trip(params):
    for variant in VARIANTS:
        textual = replace(params, variant=variant)
        assert LearnerParams.from_dict(textual.to_dict()) == textual
        config = Config(textual=textual, nontextual=_members(params))
        again = config_from_dict(json.loads(json.dumps(config.to_dict())))
        assert again.textual == textual
        assert again.nontextual == config.nontextual


@pytest.fixture(scope="module")
def trained_model():
    corpus = synthesize_corpus(3, 20, 20)
    candidates = list(
        balance_candidates(generate_candidates(corpus, 7), seed=3).candidates
    )
    fast = LearnerParams(variant="gradient_boosting", n_estimators=3, max_depth=3)
    config = Config(
        textual=fast, nontextual=_members(fast), nontextual_kind="RF+GB+XGB"
    )
    return train_hybrid(candidates, corpus, config)


@settings(max_examples=30)
@given(LEARNER_PARAMS)
@example(LearnerParams(variant="gradient_boosting"))
def test_learner_params_survive_bundle_round_trip(
    trained_model, tmp_path_factory, params
):
    path = tmp_path_factory.mktemp("bundle") / "model.hlb"
    members = tuple(
        replace(member, params=replace(params, variant=member.variant))
        for member in trained_model.nontextual.members
    )
    # A learner's variant is its params' variant.
    textual = replace(params, variant=trained_model.textual.variant)
    model = replace(
        trained_model,
        textual=replace(trained_model.textual, params=textual),
        nontextual=replace(trained_model.nontextual, members=members),
    )
    save_model(model, path)
    again = load_model(path)
    assert again.textual.params == textual
    assert [m.params for m in again.nontextual.members] == [
        m.params for m in members
    ]


# Any JSON scalar; one of them may replace a drawn value, so configs both
# inside and outside each field's range are tried and config_from_dict
# decides which ones load.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 2**64)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)

PLAIN_FIELDS = {
    "seed": st.integers(0, 2**64),
    "window_days": st.none() | st.integers(0, 30),
    "k": st.integers(2, 10),
    "alpha_step": st.floats(0.001, 1.0),
    "threshold": st.floats(0.0, 1.0),
    "tune_on": st.sampled_from(["validation", "test"]),
    "gap_features": st.booleans(),
    "identity_top_k": st.integers(1, 100),
    "missing_threshold": st.floats(0.0, 1.0),
    "stratified": st.booleans(),
    "jobs": st.integers(1, 4),
    "max_features": st.integers(1, 10_000),
    "nontextual_kind": st.sampled_from(sorted(ENSEMBLE_KINDS)),
    "balance_seed": st.none() | st.integers(0, 2**64),
    "split_seed": st.none() | st.integers(0, 2**64),
    "fold_seed": st.none() | st.integers(0, 2**64),
}
# Learner settings that do not change the training budget.
LEARNER_FIELDS = {
    "learn_rate": st.floats(0.0, 1.0),
    "learn_rate_annealing": st.floats(0.0, 1.0),
    "reg_lambda": st.floats(0.0, 1e6),
    "min_rows": st.integers(1, 5),
    "seed": st.integers(0, 2**32),
}
MEMBERS = sorted(default_nontextual_params())


def _section(variant):
    """A learner section with a small training budget."""
    return st.fixed_dictionaries(
        {
            "variant": variant,
            "n_trees": st.integers(1, 3),
            "n_estimators": st.integers(1, 3),
            "max_depth": st.integers(1, 4),
            "epochs": st.integers(1, 3),
        },
        optional=LEARNER_FIELDS,
    )


CONFIGS = st.fixed_dictionaries(
    {
        "textual": _section(st.sampled_from(VARIANTS)),
        "nontextual": st.fixed_dictionaries(
            {name: _section(st.just(name)) for name in MEMBERS}
        ),
    },
    optional=PLAIN_FIELDS,
)
JUNK_PATHS = (
    [(key,) for key in PLAIN_FIELDS]
    + [("textual", key) for key in LEARNER_FIELDS]
    + [("nontextual", name, key) for name in MEMBERS for key in LEARNER_FIELDS]
)


@pytest.fixture(scope="module")
def small_candidates():
    corpus = synthesize_corpus(5, 20, 20)
    candidates = balance_candidates(generate_candidates(corpus, 7), seed=5)
    return corpus, list(candidates.candidates)


def _small(**changes):
    budget = {"n_trees": 2, "n_estimators": 2, "max_depth": 2, "epochs": 1}
    return {
        "textual": {"variant": "gradient_boosting", **budget, **changes},
        "nontextual": {name: {"variant": name, **budget} for name in MEMBERS},
    }


@settings(max_examples=150)
@given(CONFIGS, st.none() | st.tuples(st.sampled_from(JUNK_PATHS), JSON_SCALARS))
@example({**_small(), "gap_features": "no"}, None)
@example({**_small(), "seed": "x"}, None)
@example(_small(reg_lambda=float("nan")), None)
@example(_small(), (("threshold",), float("inf")))
def test_a_config_that_loads_yields_a_bundle_that_loads(
    small_candidates, tmp_path_factory, data, junk
):
    if junk is not None:
        *parents, key = junk[0]
        section = data
        for name in parents:
            section = section[name]
        section[key] = junk[1]
    try:
        config = config_from_dict(json.loads(json.dumps(data)))
    except ConfigError:
        return
    corpus, candidates = small_candidates
    path = tmp_path_factory.mktemp("bundle") / "model.hlb"
    save_model(train_hybrid(candidates, corpus, config), path)
    assert load_model(path).config == config.to_dict()
