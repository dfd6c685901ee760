"""Every name a `wordspace` module imports is used in that module, every
exception class it defines is one that some caller tells apart, and no
module loads scipy when it is imported.

A deletion that leaves an import behind (a name read nowhere else in the
module) fails here.  A name in a module's ``__all__`` counts as used:
the package ``__init__`` imports its public names only to re-export them.

An exception class in ``errors.py`` is either a root, one per CLI exit
code and the package base, or named in some ``except`` clause of the
package: a subclass nobody catches by name adds a type with no behaviour
behind it.

scipy costs more to import than numpy and the rest of the package
together, and most commands (``--help``, every ``classify`` of short
documents) never call it.  So a module imports it only inside the
function that calls it.  This is checked on the source: the test
session itself loads scipy (``conftest.py``), so an in-process check
could not see a module-level import come back.
"""

import ast
from pathlib import Path

import pytest

import wordspace

MODULES = sorted(Path(wordspace.__file__).parent.glob("*.py"))
ERROR_ROOTS = {"WordspaceError", "ConfigError", "DataError", "NumericalError"}


def unused_imports(source):
    """``(name, line)`` of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`; `import a.b as c` binds `c`
            imported += [(alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.asname or alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = ("import numpy as np\nimport scipy.sparse as sp\nfrom os import path, sep\n"
              "__all__ = ['sep']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [("sp", 2), ("path", 3)]


def import_time_scipy_imports(source):
    """Lines of the ``import scipy...`` and ``from scipy...`` statements
    that run when ``source`` is imported: those outside any function."""
    lines = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs when called
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_scipy_only_inside_functions(path):
    lines = import_time_scipy_imports(path.read_text(encoding="utf-8"))
    assert lines == [], f"{path.name} imports scipy at import time on lines {lines}"


def test_checker_finds_an_import_time_scipy_import():
    source = ("import numpy, scipy.sparse\nfrom scipy import special\nimport scipyx\n"
              "try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
              "class A:\n    from scipy.sparse import linalg\n"
              "def f():\n    import scipy.linalg\n    return scipy.linalg\n"
              "async def g():\n    from scipy import special\n"
              "from . import scipy\n")
    assert import_time_scipy_imports(source) == [1, 2, 5, 9]


def uncaught_error_classes(errors_source, sources):
    """Names of the classes ``errors_source`` defines that are not in
    ERROR_ROOTS and that no ``except`` clause in ``sources`` names."""
    defined = [node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)]
    caught = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                # `except FormatError` or `except errors.FormatError`
                caught.update(getattr(t, "id", None) or getattr(t, "attr", None)
                              for t in types)
    return [name for name in defined if name not in ERROR_ROOTS and name not in caught]


def test_every_error_class_is_a_root_or_caught():
    errors = Path(wordspace.__file__).parent / "errors.py"
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert uncaught_error_classes(errors.read_text(encoding="utf-8"), sources) == []


def test_checker_finds_an_uncaught_error_class():
    errors = ("class DataError(Exception): pass\nclass FormatError(DataError): pass\n"
              "class GapError(DataError): pass\nclass TieError(DataError): pass\n"
              "class LoneError(DataError): pass\n")
    caller = ("try:\n    pass\nexcept (FormatError, OSError):\n    pass\n"
              "except errors.TieError as err:\n    pass\nexcept Exception:\n    pass\n"
              "raise GapError('raised, never caught')\n")
    assert uncaught_error_classes(errors, [caller]) == ["GapError", "LoneError"]
