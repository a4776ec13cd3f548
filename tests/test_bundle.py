"""Malformed model bundles end in exit 1 with a message naming the bundle and
the broken key or member, never in a traceback, a hang or a wrong score.

Every case starts from a bundle save_model wrote and changes one thing:
a manifest key deleted or set to a value of the wrong JSON type, an array
member deleted, cut short or one element shorter, or a tree array bent
into a shape that prediction cannot walk.
"""

from __future__ import annotations

import copy
import io
import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hybrid_linker.cli import main
from hybrid_linker.config import Config
from hybrid_linker.corpus import load_corpus_dir, save_corpus_dir, synthesize_corpus
from hybrid_linker.hybrid import (
    HybridError,
    load_model,
    predict_pairs,
    save_model,
    train_hybrid,
)
from hybrid_linker.learn import LearnerParams
from hybrid_linker.linkgen import balance_candidates, generate_candidates

TEXTUAL_VARIANTS = ("gradient_boosting", "naive_bayes", "logistic_regression")

# Maps whose keys are data, not layout: a bundle without one of their
# entries is still a valid model, so only wrong types are tried there.
DATA_MAPS = {
    ("encoder", "status_map"),
    ("encoder", "type_map"),
    ("encoder", "unmapped_status"),
    ("encoder", "unmapped_type"),
    ("encoder", "redundancy"),
    ("config", "nontextual"),
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """A corpus directory, one pair in it, and a bundle per textual variant."""
    root = tmp_path_factory.mktemp("bundles")
    corpus = synthesize_corpus(seed=6, n_issues=20, n_commits=20)
    save_corpus_dir(corpus, root / "corpus")
    candidates = list(
        balance_candidates(generate_candidates(corpus, 7), seed=6).candidates
    )
    small = {"n_trees": 3, "n_estimators": 3, "max_depth": 3, "epochs": 2}
    nontextual = {
        variant: LearnerParams(variant=variant, **small)
        for variant in ("gradient_boosting", "regularized_gradient_boosting")
    }
    paths = {}
    for variant in TEXTUAL_VARIANTS:
        config = Config(
            textual=LearnerParams(variant=variant, **small), nontextual=nontextual
        )
        paths[variant] = root / f"{variant}.hlb"
        save_model(train_hybrid(candidates, corpus, config), paths[variant])
    first = candidates[0]
    return root, (first.issue_id, first.commit_hash), paths


def _files(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as bundle:
        return {name: bundle.read(name) for name in bundle.namelist()}


def _write(path, files: dict[str, bytes]) -> None:
    with zipfile.ZipFile(path, "w") as bundle:
        for name, data in files.items():
            bundle.writestr(name, data)


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _predict(bundles, path, capsys):
    root, (issue_id, commit_hash), _ = bundles
    code = main(
        [
            "predict", "--model", str(path), "--corpus", str(root / "corpus"),
            "--issue", issue_id, "--commit", commit_hash,
        ]
    )
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _problems(bundles, capsys, cases) -> list[str]:
    """Run predict on each (label, files, names) case; names must all be
    in the error after the bundle path. Returns what went wrong."""
    path = bundles[0] / "case.hlb"
    problems = []
    for label, files, names in cases:
        _write(path, files)
        try:
            code, out, err = _predict(bundles, path, capsys)
        except Exception as exc:  # anything main lets through is a traceback
            problems.append(f"{label}: raised {exc!r}")
            continue
        prefix = f"error: {path}: "
        located = err[err.find(prefix) + len(prefix):] if prefix in err else ""
        if code != 1 or not located or "Traceback" in err:
            problems.append(f"{label}: exit {code}, stderr {err.strip()[-200:]!r}")
        elif not all(name in located for name in names):
            problems.append(f"{label}: {located.strip()!r} does not name {names}")
    return problems


def _key_paths(value, path=()):
    """Every dict key path, through the lists of objects as well."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        if isinstance(key, str):
            yield path + (key,)
        yield from _key_paths(item, path + (key,))


def _where(path) -> list[str]:
    """The names a message about this key path must hold: its section (the
    learner name for a non-textual member) and the key itself."""
    if path[0] == "nontextual_members" and len(path) > 1:
        path = (f"nontextual_{path[1]}",) + path[2:]
    return [path[0], path[-1]]


def _wrong_type(value):
    if isinstance(value, str):
        return 5
    return [] if value is None else "x"


def _manifest_case(files, change):
    manifest = json.loads(files["manifest.json"])
    change(manifest)
    return {**files, "manifest.json": json.dumps(manifest).encode("utf-8")}


def _manifest_cases(files, paths, change):
    """One case per key path, with change(parent, key) applied there."""
    for path in paths:

        def apply(manifest, path=path):
            parent = manifest
            for key in path[:-1]:
                parent = parent[key]
            change(parent, path[-1])

        yield ".".join(map(str, path)), _manifest_case(files, apply), _where(path)


def test_saved_bundles_predict(bundles, capsys):
    for path in bundles[2].values():
        code, out, err = _predict(bundles, path, capsys)
        assert code == 0, err


def test_every_deleted_manifest_key_fails_located(bundles, capsys):
    files = _files(bundles[2]["gradient_boosting"])
    paths = [
        path
        for path in _key_paths(json.loads(files["manifest.json"]))
        if path[:-1] not in DATA_MAPS
    ]
    assert len(paths) > 100

    def delete(parent, key):
        del parent[key]

    assert _problems(bundles, capsys, _manifest_cases(files, paths, delete)) == []


def test_every_wrongly_typed_manifest_key_fails_located(bundles, capsys):
    files = _files(bundles[2]["gradient_boosting"])
    paths = list(_key_paths(json.loads(files["manifest.json"])))

    def retype(parent, key):
        parent[key] = _wrong_type(parent[key])

    assert _problems(bundles, capsys, _manifest_cases(files, paths, retype)) == []


@pytest.mark.parametrize("variant", TEXTUAL_VARIANTS)
def test_every_broken_array_member_fails_located(bundles, capsys, variant):
    files = _files(bundles[2][variant])
    members = [name for name in files if name.startswith("arrays/")]
    assert len(members) >= 13
    cases = []
    for name in members:
        data = files[name]
        shorter = np.load(io.BytesIO(data))[:-1]
        rest = {key: value for key, value in files.items() if key != name}
        cases += [
            (f"deleted {name}", rest, [name]),
            (f"truncated {name}", {**files, name: data[: len(data) // 2]}, [name]),
            (f"shortened {name}", {**files, name: _npy(shorter)}, [name]),
        ]
    assert _problems(bundles, capsys, cases) == []


def _internal(feature, k=0):
    return int(np.flatnonzero(feature >= 0)[k])


def _leaf(feature):
    return int(np.flatnonzero(feature < 0)[0])


def _first(feature):
    return 0


# case: (tree array, picks a position from tree_feature, new value there)
STRUCTURAL = {
    # A child pointing back at its own node made predict loop forever.
    "self-referencing left child": ("left", _internal, lambda at, array: at),
    "backward right child": ("right", lambda f: _internal(f, 1), lambda at, array: 0),
    "child past its tree": ("right", _internal, lambda at, array: len(array) + 3),
    "leaf with a child": ("left", _leaf, lambda at, array: 1),
    # An out-of-range feature ended in an IndexError traceback.
    "feature past the width": ("feature", _internal, lambda at, array: 10**6),
    "feature below -1": ("feature", _internal, lambda at, array: -2),
    # tree_sizes that do not add up scored misaligned trees and exited 0.
    "tree_sizes off by five": ("sizes", _first, lambda at, array: array[0] + 5),
    "empty tree": ("sizes", _first, lambda at, array: 0),
}


def _tree_case(files, case):
    field, pick, value = STRUCTURAL[case]
    name = f"arrays/textual.tree_{field}.npy"
    array = np.load(io.BytesIO(files[name])).copy()
    at = pick(np.load(io.BytesIO(files["arrays/textual.tree_feature.npy"])))
    array[at] = value(at, array)
    return {**files, name: _npy(array)}, ["arrays/textual.tree_", field]


@pytest.mark.parametrize("case", sorted(STRUCTURAL))
def test_structurally_broken_trees_fail_located(bundles, capsys, case):
    files = _files(bundles[2]["gradient_boosting"])
    edited, names = _tree_case(files, case)
    path = bundles[0] / "tree.hlb"
    _write(path, edited)
    with pytest.raises(HybridError):  # before predict, which may not end
        load_model(path)
    assert _problems(bundles, capsys, [(case, edited, names)]) == []


def test_self_referencing_tree_fails_at_load(bundles):
    files = _files(bundles[2]["gradient_boosting"])
    edited, _ = _tree_case(files, "self-referencing left child")
    path = bundles[0] / "cycle.hlb"
    _write(path, edited)
    with pytest.raises(HybridError, match=r"textual\.tree_left\.npy: position \d+"):
        load_model(path)


def test_mismatched_or_invalid_values_fail_located(bundles, capsys):
    files = _files(bundles[2]["gradient_boosting"])

    def extra_scale(manifest):
        manifest["textual"]["tree_scales"].append(0.1)

    def extra_identity(manifest):
        manifest["encoder"]["identity_vocabs"]["creator"].append("zz-new")

    def fewer_terms(manifest):
        manifest["vec_code"]["terms"].pop()

    def repeated_term(manifest):
        # The idf and the textual width fit the distinct terms, so only the
        # repeat itself is wrong; it used to load and spill into the next row.
        terms = manifest["vec_code"]["terms"]
        terms[-1] = terms[0]
        manifest["textual"]["width"] -= 1

    def no_unigrams(manifest):
        manifest["vec_issue"]["ngram_range"] = [0, 3]

    def nan_base(manifest):  # json.loads reads NaN and Infinity
        manifest["textual"]["base_score"] = float("nan")

    def infinite_scale(manifest):
        manifest["nontextual_members"][0]["tree_scales"][1] = float("inf")

    idf = np.load(io.BytesIO(files["arrays/vec_code.idf.npy"]))[:-1]
    first_code_term = json.loads(files["manifest.json"])["vec_code"]["terms"][0]
    value = "arrays/nontextual_1.tree_value.npy"
    nan = np.load(io.BytesIO(files[value])).copy()
    nan[-1] = np.nan
    cases = [
        ("tree_scales longer than the trees", _manifest_case(files, extra_scale),
         ["arrays/textual.tree_sizes.npy", "tree scales"]),
        ("encoder wider than the members", _manifest_case(files, extra_identity),
         ["nontextual_0.width"]),
        ("vectorizers narrower than the textual learner",
         {**_manifest_case(files, fewer_terms), "arrays/vec_code.idf.npy": _npy(idf)},
         ["textual.width"]),
        # These used to exit 0 with a nan score or 1 without naming the bundle.
        ("NaN leaf value", {**files, value: _npy(nan)}, [value]),
        ("NaN base score", _manifest_case(files, nan_base), ["textual.base_score"]),
        ("infinite tree scale", _manifest_case(files, infinite_scale),
         ["nontextual_0.tree_scales[1]"]),
        ("n-grams from 0", _manifest_case(files, no_unigrams),
         ["vec_issue.ngram_range"]),
        ("vocabulary repeating a term",
         {**_manifest_case(files, repeated_term), "arrays/vec_code.idf.npy": _npy(idf)},
         ["vec_code.terms", repr(first_code_term), f"at both 0 and {len(idf)}"]),
    ]
    assert _problems(bundles, capsys, cases) == []


def test_deeply_nested_manifest_fails_located(bundles, capsys):
    files = _files(bundles[2]["gradient_boosting"])
    deep = ("[" * 100_000 + "]" * 100_000).encode("utf-8")
    cases = [("nested manifest", {**files, "manifest.json": deep}, ["manifest.json"])]
    assert _problems(bundles, capsys, cases) == []


def _term_without_its_prefix(manifest):
    # A one-word term that the next (sorted) term begins with, swapped for
    # an unused word.
    terms = manifest["vec_issue"]["terms"]
    at = next(
        i for i, (term, after) in enumerate(zip(terms, terms[1:]))
        if " " not in term and after.startswith(term + " ")
    )
    terms[at] = "zzzz"


def _repeated_identity(manifest):
    identities = manifest["encoder"]["identity_vocabs"]["author"]
    identities[-1] = identities[0]


def _set(*path_and_value):
    *path, value = path_and_value

    def change(manifest):
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value

    return change


# Each: (manifest edit, the dotted key the error names, a piece of its problem).
# Every one of these loaded and predicted before the model classes checked
# their own invariants.
PROBES = {
    "threshold 7.0": (
        _set("threshold", 7.0), "threshold", "must lie in (0, 1), got 7.0"
    ),
    "repeated identity": (
        _repeated_identity, "encoder.identity_vocabs.author", "at both 0 and"
    ),
    "4-gram term in a (1, 3) vectorizer": (
        _set("vec_issue", "terms", -1, "ab cd ef gh"),
        "vec_issue.terms",
        "has 4 words, not 1 to 3",
    ),
    "empty term": (
        _set("vec_issue", "terms", -1, ""),
        "vec_issue.terms",
        "is not words joined by single spaces",
    ),
    "term with a double space": (
        _set("vec_issue", "terms", -1, "ab  cd"),
        "vec_issue.terms",
        "is not words joined by single spaces",
    ),
    "term without its prefix": (
        _term_without_its_prefix, "vec_issue.terms", "lacks its prefix"
    ),
    "max_features below the terms": (
        _set("vec_issue", "max_features", 1),
        "vec_issue.max_features",
        "1 is less than 1 or than the",
    ),
    "params.variant beside another variant": (
        _set("textual", "params", "variant", "random_forest"),
        "textual.variant",
        "'gradient_boosting' is not params.variant 'random_forest'",
    ),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_broken_model_invariants_fail_located(bundles, capsys, probe):
    change, key, problem = PROBES[probe]
    files = _files(bundles[2]["gradient_boosting"])
    path = bundles[0] / "probe.hlb"
    _write(path, _manifest_case(files, change))
    code, out, err = _predict(bundles, path, capsys)
    error = err.splitlines()[-1]
    assert code == 1 and out == ""
    assert error.startswith(f"error: {path}: {key}: "), err
    assert problem in error, err


def test_retired_variant_names_load(bundles):
    files = _files(bundles[2]["logistic_regression"])
    path = bundles[0] / "retired.hlb"
    want = load_model(bundles[2]["logistic_regression"]).textual
    for in_params in (False, True):

        def retire(manifest, in_params=in_params):
            manifest["textual"]["variant"] = "sgd_classifier"
            if in_params:
                manifest["textual"]["params"]["variant"] = "sgd_classifier"

        _write(path, _manifest_case(files, retire))
        got = load_model(path).textual
        assert got.variant == got.params.variant == "logistic_regression"
        assert got.params == want.params
        assert got.weights.tobytes() == want.weights.tobytes()


# The bundle mutator: one edit at one place of a saved bundle's manifest.
EXTREME_INTS = (-(2**63), -1, 0, 2**63 - 1, 10**18)
EXTREME_FLOATS = (-1e308, -5e-324, 0.0, 5e-324, 1e308)


def _edits(value) -> list[str]:
    if isinstance(value, list):
        return ["repeat", "swap"] if len(value) >= 2 else []
    if isinstance(value, bool):
        return ["flip"]
    if isinstance(value, (int, float)):
        return ["extreme", "off by one"]
    return ["empty"] if isinstance(value, str) else []


def _at(manifest, path):
    node = manifest
    for key in path:
        node = node[key]
    return node


def _value_paths(value, path=()):
    """The path of every list and scalar in a manifest."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _value_paths(item, path + (key,))
        return
    yield path
    if isinstance(value, list):
        for index, item in enumerate(value):
            yield from _value_paths(item, path + (index,))


def _names_part_of(where: str, manifest: dict, files) -> bool:
    """Whether an error's location is a member of the bundle or a dotted key
    of its manifest, learners named as the reader names them."""
    if where in files:
        return True
    keys = re.sub(r"\[\d+\]", "", where).split(".")
    member = re.fullmatch(r"nontextual_(\d+)", keys[0])
    if member:
        keys[:1] = ["nontextual_members", int(member.group(1))]
    node = manifest
    for key in keys:
        if isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        elif isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return False
    return True


def _write_canonical(path, files: dict[str, bytes]) -> None:
    """Write a bundle as save_model writes one."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as bundle:
        for name in sorted(files):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            bundle.writestr(info, files[name])


def _canonical_manifest(manifest: dict) -> bytes:
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def mutation_base(bundles):
    """The saved bundle's members, its decoded manifest and a few pairs."""
    root, _, paths = bundles
    files = _files(paths["gradient_boosting"])
    corpus = load_corpus_dir(root / "corpus")
    pairs = [(i, c) for i in corpus.issues[:3] for c in corpus.commits[:3]]
    return files, json.loads(files["manifest.json"]), pairs


def test_a_canonical_rewrite_is_the_saved_bundle(bundles, mutation_base):
    files, manifest, _ = mutation_base
    path = bundles[0] / "canonical.hlb"
    _write_canonical(path, {**files, "manifest.json": _canonical_manifest(manifest)})
    assert path.read_bytes() == bundles[2]["gradient_boosting"].read_bytes()


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_a_mutated_bundle_fails_located_or_loads_unchanged(
    bundles, mutation_base, data
):
    files, manifest, pairs = mutation_base
    mutant = copy.deepcopy(manifest)
    paths = [path for path in _value_paths(mutant) if _edits(_at(mutant, path))]
    path = data.draw(st.sampled_from(paths), label="path")
    *parents, last = path
    parent = _at(mutant, parents)
    value = parent[last]
    edit = data.draw(st.sampled_from(_edits(value)), label="edit")
    if edit in ("repeat", "swap"):
        i = data.draw(st.integers(0, len(value) - 1), label="position")
        j = (i + data.draw(st.integers(1, len(value) - 1), label="offset")) % len(value)
        if edit == "repeat":
            value[j] = copy.deepcopy(value[i])
        else:
            value[i], value[j] = value[j], value[i]
    elif edit == "flip":
        parent[last] = not value
    elif edit == "extreme":
        extremes = EXTREME_FLOATS if isinstance(value, float) else EXTREME_INTS
        parent[last] = data.draw(st.sampled_from(extremes), label="extreme")
    elif edit == "off by one":
        parent[last] = value + data.draw(st.sampled_from((-1, 1)), label="step")
    else:
        parent[last] = ""
    bundle = bundles[0] / "mutant.hlb"
    _write_canonical(bundle, {**files, "manifest.json": _canonical_manifest(mutant)})
    try:
        model = load_model(bundle)
    except HybridError as exc:
        message = str(exc)
        assert message.startswith(f"{bundle}: "), message
        where = message[len(f"{bundle}: "):].split(": ")[0]
        assert _names_part_of(where, manifest, files), message
        event("rejected")
        return
    event("loaded")
    probabilities = [p.probability for p in predict_pairs(model, pairs)]
    assert all(0.0 <= p <= 1.0 for p in probabilities), probabilities
    again = bundles[0] / "again.hlb"
    save_model(model, again)
    assert again.read_bytes() == bundle.read_bytes()
