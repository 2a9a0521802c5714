"""The library's public surface is what the package, the benchmark and the
README use: every public top-level function and class of the package is
named somewhere besides its own `def` or `class` line, in the package, in
`perfbench/*.py` or in `README.md`.  A helper that only tests call belongs
in the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fiidlab"


def _texts():
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    assert paths
    return {path: path.read_text().splitlines() for path in [*paths, ROOT / "README.md"]}


def _public_definitions(path):
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno


def test_every_public_definition_is_named_elsewhere():
    texts = _texts()
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in _public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(line)
                for other, lines in texts.items()
                for i, line in enumerate(lines, 1)
                if (other, i) != (path, lineno)
            ):
                unnamed.append(f"{path.name}:{name}")
    assert not unnamed
