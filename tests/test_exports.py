"""No public name exists only for a test: each name `locscape` exports is read by the library
outside its own definition, or by a demo."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "locscape"

# exports whose consumer is not (yet) in the library or a demo, each with its reason
ALLOWED = {
    "assemble_line": "the planned half-period two-well sweep is to solve through it",
    "load_potential": "the save/load round trip reads back what save_potential writes",
}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _reads(node, inside=frozenset()):
    """(name, enclosing definitions) for each name read below ``node``, as a bare name or as
    an attribute; a name read inside its own def or class body is not a consumer."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, inside
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, inside)


def _consumed():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    return {name for path in paths for name, inside in _reads(ast.parse(path.read_text()))
            if name not in inside}


def test_every_export_has_a_consumer_outside_the_tests():
    exports = _exports()
    unread = exports - _consumed()
    assert sorted(unread - set(ALLOWED)) == []
    # an allowance ends when its name gains a consumer or stops being exported
    assert sorted(set(ALLOWED) - unread) == []
