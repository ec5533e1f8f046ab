"""The package's export list, no module importing what it does not use, and
no private helper that nothing in the package reads."""

import ast
from pathlib import Path

import compnet


def test_every_export_is_listed_once_and_resolves():
    names = compnet.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(compnet, n)] == []
    namespace = {}
    exec("from compnet import *", namespace)
    assert set(names) <= set(namespace)


def _nodes(tree: ast.AST) -> list[ast.AST]:
    """Every node of ``tree`` and of the string annotations in it."""
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return [n for t in trees for n in ast.walk(t)]


def _unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, string annotations included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in _nodes(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports in order to re-export.
    package = Path(compnet.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("from .exceptions import DataError, FormatError\n"
                           "raise FormatError('x')\n") == ["DataError (line 1)"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions that no source reads as a name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in _nodes(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{name}: {d} (line {node.lineno})" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in read]
    return unread


def test_no_private_helper_is_left_unread():
    package = Path(compnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _unread_private_names(sources) == []
    assert _unread_private_names({
        "a.py": "_USED = 1\ndef _dead(): pass\nclass _Kept: pass\n",
        "b.py": "from a import _USED\nx: '_Kept' = _USED\n",
    }) == ["a.py: _dead (line 2)"]
