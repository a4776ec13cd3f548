"""Command line interface for the whole pipeline.

Every subcommand prints the effective configuration, seeds included, to
stderr before doing any work. Exit codes: 0 success, 1 runtime or data
errors, 2 usage errors (argparse's default).

``main(argv)`` may be called any number of times in one process. The
argument parser is built on the first call and shared by every later one:
argparse keeps no state between ``parse_args`` calls, and the handlers look
up the functions they call in this module's globals each time they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

from . import HybridLinkerError, __version__
from .config import Config, ConfigError, apply_overrides, load_config
from .corpus import (
    Commit,
    Corpus,
    Issue,
    SignalParams,
    load_corpus,
    load_corpus_dir,
    save_corpus_dir,
    synthesize_corpus,
)
from .evaluation import ablation, cross_validate, render_report
from .hybrid import load_model, predict_pairs, save_model, train_hybrid
from .linkgen import (
    balance_candidates,
    generate_candidates,
    read_candidates,
    tsv_lines,
    write_candidates,
)

SEED_ENV_VAR = "HYBRID_LINKER_SEED"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument(
        "--seed",
        type=int,
        help=f"global seed (default: ${SEED_ENV_VAR} or the config value)",
    )
    parser.add_argument("--jobs", type=int, help="parallel fold workers")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-linker",
        description="Recover issue-commit links with a fused two-channel classifier.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="validate and normalize a corpus")
    _add_common(p)
    p.add_argument("--issues", required=True, help="issues JSON Lines file")
    p.add_argument("--commits", required=True, help="commits JSON Lines file")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(handler=cmd_ingest)

    p = commands.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--issues", type=int, required=True, help="number of issues")
    p.add_argument("--commits", type=int, required=True, help="number of commits")
    p.add_argument("--lexical", type=float, default=0.9, help="lexical overlap in [0,1]")
    p.add_argument(
        "--temporal", type=float, default=0.9, help="temporal proximity in [0,1]"
    )
    p.add_argument(
        "--density", type=float, default=1.0, help="true link density in (0,1]"
    )
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(handler=cmd_synth)

    p = commands.add_parser("gen-links", help="generate labeled link candidates")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument(
        "--window-days",
        type=int,
        help="false-candidate window in days; negative disables the window",
    )
    p.add_argument(
        "--no-balance",
        action="store_true",
        help="keep every false candidate instead of balancing classes",
    )
    p.add_argument("--balance-seed", type=int, help="seed for the false-class sample")
    p.add_argument("--out", required=True, help="output candidate TSV")
    p.set_defaults(handler=cmd_gen_links)

    p = commands.add_parser("train", help="train a fused model bundle")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--candidates", required=True, help="labeled candidate TSV")
    p.add_argument("--out", required=True, help="output model bundle (.hlb)")
    p.add_argument("--threshold", type=float, help="decision threshold")
    p.add_argument("--alpha-step", type=float, help="alpha grid step")
    p.set_defaults(handler=cmd_train)

    p = commands.add_parser("evaluate", help="k-fold evaluation report")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--candidates", required=True, help="labeled candidate TSV")
    p.add_argument("--k", type=int, help="number of folds")
    p.add_argument(
        "--ablation",
        action="store_true",
        help="also score each channel alone, reusing the fold models",
    )
    p.add_argument(
        "--tune-on",
        choices=("validation", "test"),
        help="tune alpha on the held-out validation slice or on the test fold",
    )
    p.add_argument(
        "--stratified",
        action="store_true",
        default=None,
        help="stratify folds by label",
    )
    p.add_argument("--threshold", type=float, help="decision threshold")
    p.add_argument("--alpha-step", type=float, help="alpha grid step")
    p.add_argument("--out", help="report path; stdout when omitted")
    p.set_defaults(handler=cmd_evaluate)

    p = commands.add_parser("predict", help="score one issue-commit pair")
    _add_common(p)
    p.add_argument("--model", required=True, help="model bundle (.hlb)")
    p.add_argument("--corpus", required=True, help="corpus directory for lookups")
    p.add_argument("--issue", required=True, help="issue id")
    p.add_argument("--commit", required=True, help="commit hash")
    p.set_defaults(handler=cmd_predict)

    p = commands.add_parser("predict-batch", help="score many pairs from a TSV")
    _add_common(p)
    p.add_argument("--model", required=True, help="model bundle (.hlb)")
    p.add_argument("--corpus", required=True, help="corpus directory for lookups")
    p.add_argument(
        "--pairs", required=True, help="TSV of issue_id<TAB>commit_hash rows"
    )
    p.add_argument("--out", help="output TSV; stdout when omitted")
    p.set_defaults(handler=cmd_predict_batch)

    return parser


def _effective_config(args: argparse.Namespace) -> Config:
    """The config file's settings, each overridden by the flag of its name."""
    config = load_config(args.config) if args.config else Config()
    overrides = {f.name: getattr(args, f.name, None) for f in fields(Config)}
    text = os.environ.get(SEED_ENV_VAR)
    if overrides["seed"] is None and text:
        try:
            seed = int(text)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}: expected int, got {text!r}") from None
        if seed < 0:
            raise ConfigError(f"{SEED_ENV_VAR}: must be non-negative, got {seed}")
        overrides["seed"] = seed
    if overrides["window_days"] is not None and overrides["window_days"] < 0:
        overrides["window_days"] = None
        config = replace(config, window_days=None)
    return apply_overrides(config, **overrides)


def _echo_config(config: Config) -> None:
    print(
        "effective-config " + json.dumps(config.to_dict(), sort_keys=True),
        file=sys.stderr,
    )


def cmd_ingest(args, config: Config) -> int:
    corpus = load_corpus(args.issues, args.commits)
    save_corpus_dir(corpus, args.out)
    print(
        f"ingested project {corpus.project!r}: "
        f"{len(corpus.issues)} issues, {len(corpus.commits)} commits -> {args.out}"
    )
    return 0


def cmd_synth(args, config: Config) -> int:
    signal = SignalParams(
        lexical_overlap=args.lexical,
        temporal_proximity=args.temporal,
        true_link_density=args.density,
    )
    corpus = synthesize_corpus(config.seed, args.issues, args.commits, signal)
    save_corpus_dir(corpus, args.out)
    linked = sum(1 for c in corpus.commits if c.linked_issue_ids)
    print(
        f"synthesized {len(corpus.issues)} issues, {len(corpus.commits)} commits "
        f"({linked} linked) -> {args.out}"
    )
    return 0


def cmd_gen_links(args, config: Config) -> int:
    corpus = load_corpus_dir(args.corpus)
    candidates = generate_candidates(corpus, config.window_days)
    n_true = sum(1 for c in candidates if c.label == 1)
    n_false = len(candidates) - n_true
    if args.no_balance:
        write_candidates(args.out, candidates)
        print(
            f"wrote {len(candidates)} candidates ({n_true} true, {n_false} false) "
            f"-> {args.out}"
        )
        return 0
    balanced = balance_candidates(candidates, config.resolved_balance_seed())
    if balanced.deficit:
        print(
            f"warning: only {balanced.n_false_available} false candidates for "
            f"{balanced.n_true} true ones; classes stay unbalanced",
            file=sys.stderr,
        )
    write_candidates(args.out, list(balanced.candidates))
    print(
        f"wrote {len(balanced.candidates)} balanced candidates "
        f"({balanced.n_true} true, {balanced.n_false_sampled} of "
        f"{balanced.n_false_available} false) -> {args.out}"
    )
    return 0


def cmd_train(args, config: Config) -> int:
    corpus = load_corpus_dir(args.corpus)
    candidates = read_candidates(args.candidates, corpus)
    model = train_hybrid(candidates, corpus, config)
    save_model(model, args.out)
    print(
        f"trained on {model.n_fit}+{model.n_validation} candidates; "
        f"alpha={model.alpha:g} validation_f1={model.validation_f1:.4f} -> {args.out}"
    )
    return 0


def cmd_evaluate(args, config: Config) -> int:
    corpus = load_corpus_dir(args.corpus)
    candidates = read_candidates(args.candidates, corpus)
    if args.ablation:
        report = ablation(candidates, corpus, config)
    else:
        report = cross_validate(candidates, corpus, config)
    text = render_report(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        mean = report["channels"]["hybrid"]["mean"] if args.ablation else report["mean"]
        print(f"mean f1={mean['f1']:.4f} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_predict(args, config: Config) -> int:
    model = load_model(args.model)
    corpus = load_corpus_dir(args.corpus)
    try:
        issue = corpus.issue(args.issue)
        commit = corpus.commit(args.commit)
    except KeyError as exc:
        raise HybridLinkerError(f"{args.corpus}: {exc.args[0]}") from None
    result = predict_pairs(model, [(issue, commit)])[0]
    print(
        f"{issue.issue_id} {commit.commit_hash} "
        f"{result.probability!r} {result.label}"
    )
    return 0


def _read_pairs(path: str, corpus: Corpus) -> list[tuple[Issue, Commit]]:
    """The (issue, commit) records each row of a pairs TSV names."""
    pairs = []
    for lineno, line in tsv_lines(path, HybridLinkerError):
        if not line or (lineno == 1 and line == "issue_id\tcommit_hash"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise HybridLinkerError(
                f"{path}:{lineno}: expected issue_id<TAB>commit_hash"
            )
        try:
            pairs.append((corpus.issue(fields[0]), corpus.commit(fields[1])))
        except KeyError as exc:
            raise HybridLinkerError(f"{path}:{lineno}: {exc.args[0]}") from None
    return pairs


def cmd_predict_batch(args, config: Config) -> int:
    model = load_model(args.model)
    corpus = load_corpus_dir(args.corpus)
    pairs = _read_pairs(args.pairs, corpus)
    results = predict_pairs(model, pairs)
    lines = ["issue_id\tcommit_hash\tprobability\tlabel"]
    for (issue, commit), result in zip(pairs, results):
        lines.append(
            f"{issue.issue_id}\t{commit.commit_hash}\t{result.probability!r}\t"
            f"{result.label}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"scored {len(results)} pairs -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _effective_config(args)
        _echo_config(config)
        return args.handler(args, config)
    except (HybridLinkerError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
