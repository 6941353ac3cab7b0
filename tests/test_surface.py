"""The package has no public surface that only tests reach: every public
top-level function and class of ``src/fermatlab`` is named somewhere in
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fermatlab"
USERS = ("src", "scripts", "perfbench")


def _identifiers(tree: ast.AST):
    """(identifier, line) for every name, attribute, imported name and
    identifier-like string (``__all__`` entries, ``getattr`` targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _unused_public_names() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for user in USERS
        for path in sorted((ROOT / user).rglob("*.py"))
    }
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _identifiers(tree):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            outside = [
                (p, line)
                for p, line in uses.get(node.name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unused.append(f"{path.name}:{node.name}")
    return unused


def test_every_public_name_is_used_by_the_program():
    assert _unused_public_names() == []
