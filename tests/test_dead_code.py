"""Every module-level function, class and method in ``src/adapterleak`` has a
caller in ``src/`` itself; code that only tests call is deleted, not kept.

A reference is any use of the bare name (``f``) or an attribute of that name
(``x.f``) outside the definition itself, so the check errs toward passing:
two definitions that share a name keep each other alive.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adapterleak"

# Definitions with no caller in src/ that the program still needs.
ALLOWED: dict[str, str] = {}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub.name


def unreferenced(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, name in _definitions(tree) if not refs[name]]


def test_every_definition_has_a_caller_in_src():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, f"no caller in src/: {dead}"


def test_allow_list_names_only_uncalled_definitions():
    assert sorted(ALLOWED) == sorted(unreferenced())
