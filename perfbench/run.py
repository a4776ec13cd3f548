"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--workload all runs every workload in turn, each in its own process.
Run it from the repository root; it imports hybrid_linker from ./src and
writes only under ./.perfbench_runs. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the exit
code is 1 when a check or an operation failed. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run, whose spans go to spans.jsonl in the
run's directory.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: one client, at most two threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("train-readme", "score-unseen", "gen-links-4k", "evaluate-small")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """One process per workload, as the load shape requires; worst exit code wins."""
    codes = []
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run([sys.executable, __file__, *argv]).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SOURCE / "hybrid_linker" / "cli.py").is_file():
        print(f"error: no hybrid_linker sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench import workloads

    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    (workdir / "digests.json").write_text(
        json.dumps(result.digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in result.summary.items():
        print(f"  {name:<22} {value:.6g} {unit}")
    for problem in result.problems:
        print(f"  check failed: {problem}")
    for note in result.notes:
        print(f"  note: {note}")
    print(f"  outputs: {workdir / 'digests.json'}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
