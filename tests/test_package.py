"""Properties of the source tree as a whole."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chronospike"


def _defined(tree):
    """Names of the functions and classes of a module, and of the methods of
    its classes but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"))


def _named(tree):
    """Every name a module reads or looks up as an attribute. Definitions,
    imports and strings (``__all__``) are not names here."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_function_has_a_caller_outside_the_tests():
    """Code only the tests call is not part of the model."""
    callers = [p for d in ("src", "scripts", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    named = {name for p in callers for name in _named(ast.parse(p.read_text()))}
    defined = [name for p in sorted(SRC.glob("*.py")) for name in _defined(ast.parse(p.read_text()))]
    assert len(defined) > 50
    assert sorted(set(defined) - named) == []


def test_benchmark_trace_targets_exist(monkeypatch):
    """Every function the benchmark traces exists, so a refactor that renames
    a traced helper fails here. The one known gap is ``pair_spikes``, which
    the benchmark still names after ``nearest_pairs`` replaced it (ROADMAP
    open item 1); when the benchmark traces ``nearest_pairs``, this list
    becomes empty. The test enters and leaves the tracer and changes nothing
    under ``bench/``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up there
    spec.loader.exec_module(tracing)
    originals = [getattr(ns, attr, None) for ns, attr, _name, _hook in tracing.TARGETS]
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == ["plasticity.pair_spikes"]
    assert [getattr(ns, attr, None) for ns, attr, _name, _hook in tracing.TARGETS] == originals


def test_stage_time_targets_exist(monkeypatch):
    """Every ``harness`` name ``scripts/stage_times.py`` wraps or reads
    exists: its stages, phases, the per-bin LIF functions it counts under
    the two simulation stages, and the function that gives a decision
    window's last bin. A refactor that renames one fails here, not after a
    run of the script. Entering and leaving the clock puts every name back."""
    spec = importlib.util.spec_from_file_location("stage_times", ROOT / "scripts" / "stage_times.py")
    stage_times = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, stage_times)
    spec.loader.exec_module(stage_times)
    harness = stage_times.harness
    bins = stage_times.BIN_CALLS
    names = stage_times.STAGES + stage_times.PHASES + tuple(bins.values()) + ("_window_last",)
    assert set(bins) <= set(stage_times.STAGES)
    assert [name for name in names if not callable(getattr(harness, name, None))] == []
    originals = {name: getattr(harness, name) for name in names}
    with stage_times.StageClock():
        assert all(getattr(harness, name) is not fn for name, fn in originals.items())
    assert {name: getattr(harness, name) for name in names} == originals
