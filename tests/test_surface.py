"""The package has no surface that only tests reach: every public top-level
function and class of ``src/fermatlab``, every public method and property of
such a class, and every private top-level function, class and constant is
named somewhere in ``src/``, ``scripts/`` or ``perfbench/`` outside its own
definition."""

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


def _trees() -> dict:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for user in USERS
        for path in sorted((ROOT / user).rglob("*.py"))
    }


def _unused(definitions) -> list[str]:
    """Labels of the (path, label, name, node) definitions whose name is
    never named outside the node's own lines."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in _trees().items():
        for name, line in _identifiers(tree):
            uses.setdefault(name, []).append((path, line))
    return [
        f"{path.name}:{label}"
        for path, label, name, node in definitions
        if all(p == path and node.lineno <= line <= node.end_lineno
               for p, line in uses.get(name, []))
    ]


def _unused_public_names() -> list[str]:
    def public(body):
        return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")]

    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in public(ast.parse(path.read_text(encoding="utf-8")).body):
            members = public(node.body) if isinstance(node, ast.ClassDef) else []
            definitions.append((path, node.name, node.name, node))
            definitions += [(path, f"{node.name}.{m.name}", m.name, m) for m in members]
    return _unused(definitions)


def _top_level_names(body):
    """(name, node) for every function, class and assigned name of a module
    body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        yield t.id, node


def _unused_private_names() -> list[str]:
    definitions = [
        (path, name, name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in _top_level_names(ast.parse(path.read_text(encoding="utf-8")).body)
        if name.startswith("_") and not name.startswith("__")
    ]
    return _unused(definitions)


def test_every_public_name_is_used_by_the_program():
    assert _unused_public_names() == []


def test_every_private_top_level_name_is_read_by_the_program():
    assert _unused_private_names() == []
