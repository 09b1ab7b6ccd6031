"""Properties of the source tree as a whole."""

import ast
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
