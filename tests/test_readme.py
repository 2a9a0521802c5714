"""The README's examples run as written: every `fiidlab` line of its shell
block exits 0 and prints one JSON line, and its library tour gives the
values its comments state.  A flag or function renamed in the code but not
in the README fails here."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from fiidlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)


def _commands():
    """(argv, the `# payload:` comments below it) of each `fiidlab` line."""
    commands = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("fiidlab "):
                commands.append((shlex.split(line)[1:], []))
            elif line.startswith("# payload:") and commands:
                commands[-1][1].append(line)
    return commands


def test_shell_block_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert len(commands) == 10
    commented = {}
    for argv, comments in commands:
        assert cli.main(["--no-timestamp", *argv]) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, argv
        if comments:
            commented[argv[1]] = (json.loads(lines[0])["payload"], comments[0])
    assert sorted(commented) == ["audit", "constant", "search"]

    payload, comment = commented["constant"]
    assert payload["C"] == 59050 and '{"C": 59050}' in comment

    payload, comment = commented["search"]
    assert (payload["kind"], payload["rules_examined"]) == ("ExhaustedNone", 625)
    assert '"ExhaustedNone"' in comment and "rules_examined 625" in comment

    payload, comment = commented["audit"]
    assert payload["slack_edge_vertex"] == pytest.approx(0.289941, abs=5e-7)
    assert payload["verdicts"] and all(v["pass"] for v in payload["verdicts"])
    assert "slack_edge_vertex ~ 0.289941" in comment and "all pass" in comment


def test_library_tour_runs():
    tour = _blocks("python")[0]
    assert "(1/4, 3/4)" in tour and "'ExhaustedNone', 625" in tour
    assert "'adjacent_in_in': 0" in tour
    scope = {}
    exec(compile(tour, str(README), "exec"), scope)
    assert scope["vertex"].p == (Fraction(1, 4), Fraction(3, 4))
    assert (scope["outcome"].kind, scope["outcome"].rules_examined) == ("ExhaustedNone", 625)
    assert scope["report"].independent_set["adjacent_in_in"] == 0
