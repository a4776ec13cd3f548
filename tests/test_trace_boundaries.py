"""The benchmark's tracer finds every package function it wraps by name.

perfbench.spans wraps package functions and methods by their names; one
that a refactor renamed or removed would silently read 0 in a traced run.
"""

from __future__ import annotations

# cli imports every module the tracer wraps.
from hybrid_linker import cli
from hybrid_linker._tree import ColumnIndex, Tree
from perfbench import spans


def _package_state() -> dict:
    state = {
        (module.__name__, name): value
        for module in spans._package_modules()
        for name, value in vars(module).items()
    }
    for cls in (ColumnIndex, Tree):
        for name, value in vars(cls).items():
            state[(cls.__qualname__, name)] = value
    return state


def test_every_traced_boundary_exists_and_is_restored():
    before = _package_state()
    patches = spans.install(spans.Recorder())
    try:
        assert patches.missing == []
        assert cli.main is not before[("hybrid_linker.cli", "main")]
        assert cli.train_hybrid is not before[("hybrid_linker.cli", "train_hybrid")]
        assert vars(Tree)["predict"] is not before[("Tree", "predict")]
    finally:
        patches.restore()
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
