"""The runtime is stdlib-only: every module of the package imports only the
standard library and the package itself."""

import ast
import sys
from pathlib import Path

import fiidlab

PACKAGE = Path(fiidlab.__file__).parent


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_are_stdlib_or_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, root)
        for path in sources
        for root in _imported_roots(path)
        if root != "fiidlab" and root not in sys.stdlib_module_names
    }
    assert not foreign
