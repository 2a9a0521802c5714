"""Results are plain data: `fiidlab.jsonable` is the one encoder, and only
the CLI shapes results into payloads.  No other module mentions `jsonable`,
imports `asdict` or gives a result a `to_json_dict` method."""

import ast
from pathlib import Path

import fiidlab

PACKAGE = Path(fiidlab.__file__).parent
ENCODERS = {"__init__.py", "cli.py"}


def _sources():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return sources


def test_only_the_cli_and_the_package_mention_jsonable():
    assert {path.name for path in _sources() if "jsonable" in path.read_text()} <= ENCODERS


def test_only_the_cli_and_the_package_import_asdict():
    importers = {
        path.name
        for path in _sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and any(a.name == "asdict" for a in node.names)
    }
    assert importers <= ENCODERS


def test_no_module_defines_to_json_dict():
    defined = {
        (path.name, node.lineno)
        for path in _sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "to_json_dict"
    }
    assert not defined
