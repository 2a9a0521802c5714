"""The package metadata points at code that exists: each console script in
pyproject.toml names an importable callable, and setuptools is told to find
the package where it lives.  Tier-1 runs from the source tree, so nothing
else reads these entries."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def _pyproject():
    with (ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


def test_console_scripts_import():
    scripts = _pyproject()["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_packages_are_found_where_they_live():
    where = _pyproject()["tool"]["setuptools"]["packages"]["find"]["where"]
    assert any((ROOT / w / "fiidlab" / "__init__.py").is_file() for w in where)
