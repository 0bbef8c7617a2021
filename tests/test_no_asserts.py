"""No `assert` statement in the library: `python -O` strips them, so an
invariant that guards a returned number is an explicit check that raises
instead (`if not ...: raise InvariantError(...)`), never a bare
AssertionError."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "drinlat"
MODULES = sorted(SRC.glob("*.py"))


def test_library_modules_found():
    assert {"localfield.py", "extension.py", "goodprime.py"} <= \
        {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_invariants_raise_invariant_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert not lines, f"{path.name}: bare AssertionError at lines {lines}"


_INEXACT_DIVISION = """
from drinlat._chainring import ChainRing
from drinlat.errors import InvariantError
from drinlat.ffpoly import FiniteField, prime_from_str
ring = ChainRing(prime_from_str("t", FiniteField.of_order(3)), 4)
a = ring.reduce(prime_from_str("t+1", ring.prime.field).poly)
try:
    ring.unit_part(a, 1)
except InvariantError as exc:
    print(__debug__, type(exc).__name__, exc)
"""


def test_invariant_check_survives_optimize():
    """Under `python -O` an inexact chain-ring division still raises."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _INEXACT_DIVISION],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == \
        "False InvariantError inexact chain-ring division"
