"""The package's export list, no module importing what it does not use, no
private helper that nothing in the package reads, no public definition
that the program never reads, field types stated only in annotations, and
every input file opened by the one reader, one tensor type, one table
parser, one scoring route for eval and importance, every tape operation a
layer, and a data layer that imports nothing of the model or above it."""

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


def _read_names(trees) -> set[str]:
    """Every name that ``trees`` read as a name or an attribute; importing a
    name does not read it."""
    read = set()
    for tree in trees:
        for n in _nodes(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """``_name`` definitions at module level or in a module-level class body
    (private methods too) that no source reads as a name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names(trees.values())
    unread = []
    for name, tree in trees.items():
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for node in (n for body in scopes for n in body):
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
        "a.py": "_USED = 1\ndef _dead(): pass\nclass _Kept:\n"
                "    def _called(self): pass\n    def _orphan(self): pass\n"
                "def _reexported(): pass\n",
        "b.py": "from a import _USED\nx: '_Kept' = _USED\nx._called()\n",
        # __init__.py is exempt from the unused-import check; a re-export is no read
        "__init__.py": "from .a import _reexported\n",
    }) == ["a.py: _dead (line 2)", "a.py: _reexported (line 6)", "a.py: _orphan (line 5)"]


def _unread_public_names(defined: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public functions and classes at module level in ``defined``, and public
    methods in their module-level class bodies, that no source in ``readers``
    reads or imports by name; dunder methods are exempt."""
    trees = [ast.parse(source) for source in readers.values()]
    read = _read_names(trees) | {alias.name for tree in trees for n in _nodes(tree)
                                 if isinstance(n, ast.ImportFrom) for alias in n.names}
    unread = []
    for name, source in defined.items():
        tree = ast.parse(source)
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        unread += [f"{name}: {node.name} (line {node.lineno})"
                   for node in (n for body in scopes for n in body)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and node.name not in read]
    return unread


def test_every_public_definition_is_read_by_the_program():
    # The program is the package and the benchmark that drives it; the tests
    # and __init__.py's re-exports do not count as readers.
    package = Path(compnet.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    defined = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    readers = {**defined, **{f"perfbench/{path.name}": path.read_text(encoding="utf-8")
                             for path in sorted(perfbench.glob("*.py"))}}
    assert _unread_public_names(defined, readers) == []
    sources = {
        "a.py": "def used(): pass\ndef dead(): pass\nclass Kept:\n"
                "    def __repr__(self): pass\n    def called(self): pass\n"
                "    def orphan(self): pass\nclass Imported: pass\n",
        "b.py": "from a import Imported\nused()\nKept().called()\n",
    }
    assert _unread_public_names({"a.py": sources["a.py"]}, sources) == [
        "a.py: dead (line 2)", "a.py: orphan (line 6)"]


def _check_type_importers(sources: dict[str, str]) -> list[str]:
    """Modules other than ``config.py`` that import ``check_type``."""
    return [f"{name} (line {node.lineno})" for name, source in sources.items()
            if name != "config.py" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "check_type" for alias in node.names)]


def test_field_types_live_only_in_annotations():
    # A record whose fields are DictConfig annotations needs no check_type
    # call of its own; importing it elsewhere is how a hand-written check returns.
    package = Path(compnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _check_type_importers(sources) == []
    assert _check_type_importers({
        "config.py": "def check_type(): pass\n",
        "a.py": "from .config import DictConfig\n",
        "b.py": "import json\nfrom .config import DictConfig, check_type\n",
    }) == ["b.py (line 2)"]


_OPENERS = ("open_input", "write_atomic")  # in data.py: the one reader, and the writer


def _reads_outside_the_reader(sources: dict[str, str]) -> list[str]:
    """Every ``.read_bytes``, ``.read_text``, ``.exists`` or ``.stat`` (``os.stat``
    too), and every ``open``, ``os.open`` or ``Path.open`` call outside
    ``data.py``'s ``open_input`` and ``write_atomic``."""
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        openers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   and fn.name in _OPENERS] if name == "data.py" else []
        allowed = {node for fn in openers for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and node.attr in ("read_bytes", "read_text", "exists", "stat"):
                found.append(f"{name}: .{node.attr} (line {node.lineno})")
            elif isinstance(node, ast.Call) and node not in allowed and "open" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{name}: open (line {node.lineno})")
    return sorted(found)


def test_every_input_file_is_opened_by_the_one_reader():
    # One reader holds the policy for a missing file, a FIFO, a device or a
    # directory; a second open would bring back a path that blocks or that
    # ends in an errno line.
    package = Path(compnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _reads_outside_the_reader(sources) == []
    assert _reads_outside_the_reader({
        "data.py": "def open_input(p):\n    return open(os.open(p, 0), 'rb')\n"
                   "def write_atomic(p):\n    open(p, 'wb')\n"
                   "def other(p):\n    return open(p)\n",
        "cli.py": "import os\np.read_bytes()\np.read_text()\np.exists()\nos.stat(p)\n"
                  "p.open()\nos.fstat(0)\ndef open_input(p):\n    return open(p)\n",
    }) == ["cli.py: .exists (line 4)", "cli.py: .read_bytes (line 2)",
           "cli.py: .read_text (line 3)", "cli.py: .stat (line 5)", "cli.py: open (line 6)",
           "cli.py: open (line 9)", "data.py: open (line 6)"]


def _tensor_subclasses(sources: dict[str, str]) -> list[str]:
    """Classes that name ``Tensor`` (or ``<module>.Tensor``) among their bases."""
    return [f"{name}: {node.name} (line {node.lineno})" for name, source in sources.items()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            and any("Tensor" in (getattr(base, "id", None), getattr(base, "attr", None))
                    for base in node.bases)]


def test_there_is_one_tensor_type():
    # A model checks only shapes, and the program makes each array finite where it
    # enters; a Tensor subclass is how a second, "checked" kind of tensor returns.
    package = Path(compnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _tensor_subclasses(sources) == []
    assert _tensor_subclasses({
        "a.py": "from .autodiff import Tensor\nclass Checked(Tensor):\n    pass\n",
        "b.py": "from . import autodiff as ad\nclass Plain:\n    pass\n"
                "class Other(ad.Tensor):\n    pass\n",
    }) == ["a.py: Checked (line 2)", "b.py: Other (line 4)"]


def _csv_imports(sources: dict[str, str]) -> list[str]:
    """Imports of the ``csv`` module or of names from it."""
    return [f"{name}: line {node.lineno}" for name, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "csv"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "csv"]


def test_there_is_one_table_parser():
    # NumPy's parser reads features.csv and labels.csv; the csv module beside
    # it would be a second parser that has to agree with the first.
    package = Path(compnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _csv_imports(sources) == []
    assert _csv_imports({
        "a.py": "import json\nimport csv\n",
        "b.py": "from csv import reader\nfrom . import csv\nimport os, csv as c\n",
    }) == ["a.py: line 2", "b.py: line 1", "b.py: line 3"]


_LOADERS = ("cmd_train", "cmd_compare")  # the commands that train on a whole dataset


def _other_loaders(source: str) -> list[str]:
    """Functions of ``source``, other than ``_LOADERS``, that call ``load_dataset``
    (or ``<module>.load_dataset``)."""
    return [f"{fn.name} (line {node.lineno})" for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name not in _LOADERS
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and "load_dataset" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))]


def test_only_the_training_commands_load_a_dataset():
    # eval, of any split, and importance score through the pass on the mapped
    # pixels (cli._score_mapped); a load beside it is how a second scoring
    # route, and its copy of the images, returns.
    source = (Path(compnet.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert _other_loaders(source) == []
    assert _other_loaders(
        "def cmd_train(a):\n    return load_dataset(a)\n"
        "def cmd_compare(a):\n    return data.load_dataset(a)\n"
        "def cmd_eval(a):\n    ds = load_dataset(a)\n"
        "def _side(a):\n    return data.load_dataset(a)\n"
        "def cmd_importance(a):\n    return map_images(a)\n") == [
        "cmd_eval (line 6)", "_side (line 8)"]


def _wrap_result_callers(sources: dict[str, str]) -> list[str]:
    """Calls of ``wrap_result`` (or ``<module>.wrap_result``) outside ``layers.py``."""
    return [f"{name}: line {node.lineno}" for name, source in sources.items()
            if name != "layers.py" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and "wrap_result" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))]


def test_every_tape_operation_is_a_layer():
    # autodiff holds the tensor, the tape and backward; an operation recorded
    # anywhere but layers.py is a second home for backward rules.
    package = Path(compnet.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _wrap_result_callers(sources) == []
    assert _wrap_result_callers({
        "layers.py": "def dense(x):\n    return wrap_result(x, (x,), None)\n",
        "autodiff.py": "def wrap_result(d, i, b): pass\n"
                       "def reshape(t):\n    return wrap_result(t, (t,), None)\n",
        "models.py": "from . import autodiff as ad\nad.wrap_result(1, (), None)\n",
    }) == ["autodiff.py: line 3", "models.py: line 2"]


_ABOVE_DATA = ("autodiff", "layers", "models", "train", "cli", "forkpool")


def _package_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The compnet modules that an import names, each by its name in the package."""
    if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
        names = [node.module] if node.module else [alias.name for alias in node.names]
        return [name.split(".")[0] for name in names]
    if isinstance(node, ast.ImportFrom):
        names = ([f"compnet.{alias.name}" for alias in node.names]
                 if node.module == "compnet" else [node.module])
    else:
        names = [alias.name for alias in node.names]
    return [name.split(".")[1] for name in names if name.startswith("compnet.")]


def _imports_from_above_data(source: str) -> list[str]:
    """Imports in ``source``, in line order, of a module in ``_ABOVE_DATA``."""
    return [f"{module} (line {node.lineno})"
            for node in sorted((n for n in ast.walk(ast.parse(source))
                                if isinstance(n, (ast.Import, ast.ImportFrom))),
                               key=lambda n: n.lineno)
            for module in _package_modules(node) if module in _ABOVE_DATA]


def test_the_data_layer_imports_nothing_of_the_model():
    # A dataset is arrays; the trainer makes the tensors a training step
    # records.  An import of the model's modules in data.py is how a layer
    # below them starts to depend on them.
    source = (Path(compnet.__file__).parent / "data.py").read_text(encoding="utf-8")
    assert _imports_from_above_data(source) == []
    assert _imports_from_above_data(
        "from .autodiff import Tensor\nfrom .config import DictConfig\n"
        "import numpy as np\ndef f():\n    from . import models, exceptions\n"
        "import compnet.train\nfrom compnet import cli, data\n"
        "from compnet.forkpool import run\nfrom .layers.sub import y\n") == [
        "autodiff (line 1)", "models (line 5)", "train (line 6)", "cli (line 7)",
        "forkpool (line 8)", "layers (line 9)"]
