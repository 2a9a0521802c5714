"""Results are plain data: `fiidlab.jsonable` is the one encoder, and only
the CLI shapes results into payloads.  No other module mentions `jsonable`,
imports `asdict` or gives a result a `to_json_dict` method."""

import ast
import json
from pathlib import Path

import fiidlab
from fiidlab import graphs, homsearch, rules

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


def test_a_rules_bytes_encode_as_hex():
    # a LocalRule stores its outputs as bytes, and a library caller meets
    # one in the rule of a Found search outcome
    out = homsearch.search(graphs.named_graph("K2"), 1, 1, rules.SeedModel("rank"))
    assert out.kind == "Found" and out.rule.outputs == b"\x00\x01"
    data = fiidlab.jsonable(out)
    assert data["rule"] == {
        "d": 1, "t": 1, "model": {"kind": "rank", "q": None},
        "output_alphabet": [0, 1], "outputs": "0001",
    }
    assert json.loads(json.dumps(data)) == data
    assert fiidlab.jsonable({"x": [b"\xff\x00", (b"",)]}) == {"x": ["ff00", [""]]}
