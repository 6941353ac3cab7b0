"""The package has no public surface that only tests reach: every public
top-level function and class of ``src/fermatlab``, and every public method
and property of such a class, is named somewhere in ``src/``, ``scripts/``
or ``perfbench/`` outside its own definition."""

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

    def public(body):
        return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")]

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in public(trees[path].body):
            members = public(node.body) if isinstance(node, ast.ClassDef) else []
            for name, member in [(node.name, node)] + [
                (f"{node.name}.{m.name}", m) for m in members
            ]:
                outside = [
                    (p, line)
                    for p, line in uses.get(member.name, [])
                    if not (p == path and member.lineno <= line <= member.end_lineno)
                ]
                if not outside:
                    unused.append(f"{path.name}:{name}")
    return unused


def test_every_public_name_is_used_by_the_program():
    assert _unused_public_names() == []
