"""The package's export list, and no module importing what it does not use."""

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
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports in order to re-export.
    package = Path(compnet.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("from .exceptions import DataError, FormatError\n"
                           "raise FormatError('x')\n") == ["DataError (line 1)"]
