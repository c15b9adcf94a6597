"""numpy stays the only runtime dependency: every import in the package's
modules names the standard library, numpy, or the package itself.

Test-only packages (networkx, hypothesis, scipy) are installed wherever the
tests run, so an accidental runtime import of one would pass every other test.
"""

import ast
import sys
from pathlib import Path

import pytest

import opinionnet

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "opinionnet"}
MODULES = sorted(Path(opinionnet.__file__).parent.glob("*.py"))


def _foreign_imports(source: str) -> list:
    """Top-level names of the modules imported anywhere in source, at any
    depth (inside functions too), that are not ALLOWED; relative imports are
    the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in ALLOWED]


def test_the_check_sees_imports_at_any_depth():
    source = ("import numpy as np\nfrom . import project\nfrom .render import fr_layout\n"
              "import os.path, json\nfrom collections import deque\n"
              "def f():\n    import scipy.sparse\n    from networkx import Graph\n")
    assert _foreign_imports(source) == ["scipy.sparse", "networkx"]


@pytest.mark.parametrize("module", MODULES, ids=[path.name for path in MODULES])
def test_each_module_imports_only_the_standard_library_numpy_and_itself(module):
    assert MODULES
    assert _foreign_imports(module.read_text(encoding="utf-8")) == []
