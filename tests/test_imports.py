"""Every name a `wordspace` module imports is used in that module.

A deletion that leaves an import behind (a name read nowhere else in the
module) fails here.  A name in a module's ``__all__`` counts as used:
the package ``__init__`` imports its public names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

import wordspace

MODULES = sorted(Path(wordspace.__file__).parent.glob("*.py"))


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
