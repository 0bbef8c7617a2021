"""No `assert` statement in the library: `python -O` strips them, so an
invariant that guards a returned number is an explicit check that raises
instead (`if not ...: raise AssertionError(...)`)."""

import ast
import pathlib

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
