"""The package needs only numpy: every import in src/mpoqst is relative,
numpy, __future__ or a module of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mpoqst"
ALLOWED = {"numpy", "__future__"} | set(sys.stdlib_module_names)


def _imported_modules(source: str) -> list:
    """(line, top-level module) of each absolute import in ``source``,
    also those inside functions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_the_import_scan_sees_every_kind_of_import():
    source = ("import os.path, scipy\nfrom numpy import linalg\n"
              "from . import tt\nfrom .povm import gamma\n"
              "def f():\n    import matplotlib.pyplot\n")
    assert sorted(name for _, name in _imported_modules(source)) == [
        "matplotlib", "numpy", "os", "scipy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_numpy_and_the_standard_library(path):
    foreign = [(line, name)
               for line, name in _imported_modules(path.read_text())
               if name not in ALLOWED]
    assert not foreign, f"{path.name} imports {foreign}"
