"""Checks on the package source that a linter would make.

No module imports a name it never reads or exports a private one, only ``cli`` and ``problems`` reach the file
writers of ``linalg`` and only ``problems`` its table reader, and every config key's rule and default live on its
record's field, with no second JSON reader beside them.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from noisyrk import ExperimentConfig, NoiseSpec, RkConfig, SpectrumSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "noisyrk"


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name ``source`` imports and never reads.

    A name listed in ``__all__`` is read by ``from ... import *``, and one on a line
    marked ``# noqa: F401`` is imported for a reader elsewhere; neither is reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = {
        node.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read | exported and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_the_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np, json\n"
        "from .a import (b,\n"
        "    c,  # noqa: F401\n"
        "    d)\n"
        "__all__ = ['d']\n"
        "def f():\n"
        "    import sys\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "json"), (4, "b"), (9, "sys")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text()) == []


def private_names(names) -> list:
    """The names in ``names`` that begin with an underscore, except dunders such as ``__version__``."""
    return [name for name in names if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def test_the_guard_sees_a_private_name():
    assert private_names(["solve", "_solve", "__version__", "__solve"]) == ["_solve", "__solve"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_exports_a_private_name(path):
    # the package's own __all__ included, so a helper renamed private cannot stay exported
    mod = importlib.import_module("noisyrk" if path.stem == "__init__" else f"noisyrk.{path.stem}")
    assert private_names(getattr(mod, "__all__", [])) == []


FILE_IO = {"_write_table", "_write_json", "_read_table"}


def writer_users(source: str) -> set:
    """The file writers ``_write_table`` and ``_write_json`` and the table reader ``_read_table`` that ``source``
    imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & FILE_IO


def test_the_guard_sees_a_writer():
    source = "from .linalg import _kernel, _write_table\nfrom . import linalg\nlinalg._write_json\nlinalg._read_table"
    assert writer_users(source) == FILE_IO


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_the_cli_and_problems_write_files(path):
    # the CLI names and formats every dataset file and save_system and load_system lay out and read a system
    # directory; the solver, the bounds and the experiments compute and write nothing, and the CLI reads no table
    allowed = {"cli": {"_write_table", "_write_json"}, "problems": FILE_IO, "linalg": FILE_IO}
    assert writer_users(path.read_text()) <= allowed.get(path.stem, set())


@pytest.mark.parametrize("record", [SpectrumSpec, NoiseSpec, RkConfig, ExperimentConfig], ids=lambda r: r.__name__)
def test_every_config_field_carries_its_rule(record):
    # the rule a record checks in Python is the one the JSON reader applies, so a new key cannot skip it
    assert [f.name for f in dataclasses.fields(record) if "rule" not in f.metadata] == []


def from_dicts(source: str) -> list:
    """The line of each function or method named ``from_dict`` that ``source`` defines."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "from_dict"]


def test_the_guard_sees_a_from_dict():
    assert from_dicts("class A:\n    @classmethod\n    def from_dict(cls, data):\n        pass\n") == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_defines_a_second_config_reader(path):
    # a record is read from JSON by problems._read through its fields, so its defaults are written once
    assert from_dicts(path.read_text()) == []
