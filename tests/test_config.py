from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_linker.config import (
    Config,
    config_from_dict,
    default_nontextual_params,
)
from hybrid_linker.corpus import synthesize_corpus
from hybrid_linker.hybrid import load_model, save_model, train_hybrid
from hybrid_linker.learn import VARIANTS, LearnerParams
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
    model = replace(
        trained_model,
        textual=replace(trained_model.textual, params=params),
        nontextual=replace(trained_model.nontextual, members=members),
    )
    save_model(model, path)
    again = load_model(path)
    assert again.textual.params == params
    assert [m.params for m in again.nontextual.members] == [
        m.params for m in members
    ]
