"""Seeded, output-checked benchmark of the hybrid-linker CLI stages.

Run it from the repository root:

    python3 perfbench/run.py --workload train-readme --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""
