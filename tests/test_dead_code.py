"""Every module-level function, class and method in ``src/adapterleak`` has a
caller in ``src/`` itself, and every dataclass field and module-level
constant a reader there; code that only tests call or read is deleted, not
kept.

A reference is any use of the bare name (``f``) or an attribute of that name
(``x.f``) outside the definition itself. A field is read by an attribute
load (``x.f``) or by its name as a string (``getattr(x, "f")``,
``fields``-driven code naming it). A module-level name assigned in ``src/``
(dunders exempt) is read by a bare-name load, an attribute load or its name
as a string. The check errs toward passing: two definitions that share a
name keep each other alive.

Every key of the forward cache's per-sublayer record
(``model._run_sublayer``) is read in ``src/`` by name: as a string that
is not a dict literal's key. The cache holds only what is read.

Every defaulted parameter of a function in ``src/adapterleak`` is also set
by some call there; a default no call overrides is a constant. A call sets
a parameter by its keyword or its position (a method's first parameter is
its receiver), and a call with ``*args`` or ``**kwargs`` sets every
parameter it could reach. Dunder methods are not checked.

Every exception class defined in ``errors.py`` is raised somewhere in
``src/``: by a ``raise`` of the class or of a call to it, by bare name or
attribute. A class that is only caught or imported is dead.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adapterleak"

# Definitions with no caller in src/ that the program still needs.
ALLOWED: dict[str, str] = {}

# Defaulted parameters no call in src/ sets that the program still needs.
UNSET_ALLOWED: dict[str, str] = {
    "cli.main(argv)": "perfbench and the tests drive the CLI through main(argv); "
                      "the console script calls main() to read sys.argv",
}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub.name


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass" or
               isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _fields(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield f"{node.name}.{sub.target.id}", sub.target.id


def _constants(tree: ast.Module):
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and not (
                        sub.id.startswith("__") and sub.id.endswith("__")):
                    yield sub.id, sub.id


def unreferenced(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs, reads, loads = Counter(), Counter(), Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
                loads[node.id] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
                reads[node.attr] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads[node.value] += 1
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, name in _definitions(tree) if not refs[name]] + \
        [f"{module}.{qualname}" for module, tree in trees.items()
         for qualname, name in _fields(tree) if not reads[name]] + \
        [f"{module}.{qualname}" for module, tree in trees.items()
         for qualname, name in _constants(tree) if not reads[name] + loads[name]]


def unread_record_keys(src: Path = SRC) -> list[str]:
    """Keys of the dict ``model._run_sublayer`` appends to its record that
    no string in ``src/`` names, dict literal keys aside."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    run = next(node for node in ast.walk(trees["model"])
               if isinstance(node, ast.FunctionDef) and node.name == "_run_sublayer")
    record = next(node.args[0] for node in ast.walk(run)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append"
                  and node.args and isinstance(node.args[0], ast.Dict))
    written = {id(k) for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Dict) for k in node.keys}
    named = Counter(node.value for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in written)
    return [k.value for k in record.keys
            if isinstance(k, ast.Constant) and not named[k.value]]


def unraised_errors(src: Path = SRC) -> list[str]:
    """Exception classes of ``errors.py`` that no ``raise`` in ``src/`` names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    raised = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised[getattr(exc, "id", None) or getattr(exc, "attr", None)] += 1
    return [f"errors.{node.name}" for node in trees["errors"].body
            if isinstance(node, ast.ClassDef) and not raised[node.name]]


def _functions(body, prefix="", in_class=False):
    """(qualname, def node, is method) of every function under ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}{node.name}", node, in_class
            yield from _functions(node.body, f"{prefix}{node.name}.")


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` sets ``param``, at ``position`` if it is positional."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > position)


def unset_defaults(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for module, tree in trees.items():
        for qualname, fn, is_method in _functions(tree.body):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            args = fn.args
            positional = [*args.posonlyargs, *args.args][int(is_method):]
            defaulted = [(a.arg, i) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            unset += [f"{module}.{qualname}({param})" for param, position in defaulted
                      if not any(_sets(c, param, position) for c in calls.get(fn.name, []))]
    return unset


def test_every_definition_has_a_caller_in_src():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, f"no caller in src/: {dead}"


def test_allow_list_names_only_uncalled_definitions():
    assert sorted(ALLOWED) == sorted(unreferenced())


def test_unread_dataclass_field_flagged(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass R:\n    read: int\n    by_name: int\n"
        "    written: int\n\n"
        "def use(r: R):\n    r.written = r.read\n    return getattr(r, 'by_name'), use\n")
    assert unreferenced(tmp_path) == ["m.R.written"]


def test_unread_module_constant_flagged(tmp_path):
    (tmp_path / "m.py").write_text(
        "__all__ = ['use']\nREAD = 1\nBY_ATTR = 2\nBY_NAME = 3\nUNREAD = 4\n"
        "A, B = 5, 6\nTYPED: int = 7\n\n"
        "def use(m):\n    return READ + m.BY_ATTR + A + getattr(m, 'BY_NAME'), use\n")
    assert unreferenced(tmp_path) == ["m.UNREAD", "m.B", "m.TYPED"]


def test_every_default_is_set_by_a_call_in_src():
    unset = [name for name in unset_defaults() if name not in UNSET_ALLOWED]
    assert not unset, f"no call in src/ sets: {unset}"


def test_unset_allow_list_names_only_unset_defaults():
    assert sorted(UNSET_ALLOWED) == sorted(unset_defaults())


def test_unset_default_flagged(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "def g(a, b=1):\n    return a\n\n"
        "class K:\n    def m(self, x=0, y=1):\n        return x\n\n"
        "def use(k, rest):\n"
        "    def inner(z=5):\n        return z\n"
        "    return f(1, 2, e=4), g(*rest), k.m(5), inner(), use\n")
    assert unset_defaults(tmp_path) == ["m.f(c)", "m.f(d)", "m.K.m(y)", "m.use.inner(z)"]


def test_every_forward_cache_key_is_read_in_src():
    unread = unread_record_keys()
    assert not unread, f"recorded by model._run_sublayer, read nowhere in src/: {unread}"


def test_unread_record_key_flagged(tmp_path):
    (tmp_path / "model.py").write_text(
        "def _run_sublayer(x, record):\n"
        "    record.append({'read': x, 'by_get': x, 'unread': x})\n\n"
        "def use(sub):\n    return sub['read'], sub.get('by_get'), {'unread': 0}\n")
    assert unread_record_keys(tmp_path) == ["unread"]


def test_every_error_class_is_raised_in_src():
    unraised = unraised_errors()
    assert not unraised, f"defined in errors.py, raised nowhere in src/: {unraised}"


def test_unraised_error_class_flagged(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Called(ValueError):\n    pass\n\n"
        "class Bare(ValueError):\n    pass\n\n"
        "class ByAttr(ValueError):\n    pass\n\n"
        "class OnlyCaught(ValueError):\n    pass\n")
    (tmp_path / "m.py").write_text(
        "from errors import Bare, Called, OnlyCaught\nimport errors\n\n"
        "def use(x):\n    try:\n        if x:\n            raise Called('x')\n"
        "        raise Bare\n    except OnlyCaught:\n        raise errors.ByAttr() from None\n")
    assert unraised_errors(tmp_path) == ["errors.OnlyCaught"]
