"""`tools/reach_allow.json`, the library functions that no README command,
criterion or workload reaches but the library keeps, checked on the
source alone: each entry names a function defined in `src/drinlat`, one of
the five groups, and a test that exists.  `tools/reach.py` compares the
file with what the traffic reaches; this keeps it from going stale
between those runs."""

import ast
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUPS = {"paper-api", "input-dependent", "error-path", "display",
          "oracle-fallback"}

with open(os.path.join(ROOT, "tools", "reach_allow.json"),
          encoding="utf-8") as _fh:
    ENTRIES = json.load(_fh)

_TREES = {}


def _tree(path):
    if path not in _TREES:
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            _TREES[path] = ast.parse(fh.read(), path)
    return _TREES[path]


def _scope_children(node):
    """Definitions directly inside node's scope, not inside a nested one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            yield child
        else:
            yield from _scope_children(child)


def _resolves(node, parts):
    """Whether the qualified name split into `parts` names a function (or
    lambda) defined below node; what a function defines follows its
    `<locals>`."""
    if not parts:
        return not isinstance(node, ast.ClassDef)
    if not isinstance(node, (ast.Module, ast.ClassDef)):
        if parts[0] != "<locals>":
            return False
        parts = parts[1:]
    for child in _scope_children(node):
        name = "<lambda>" if isinstance(child, ast.Lambda) else child.name
        if parts and name == parts[0] and _resolves(child, parts[1:]):
            return True
    return False


def _ids(entries):
    return [f"{e['file']}:{e['function']}" for e in entries]


def test_entries_are_unique_and_sorted():
    keys = [(e["file"], e["function"]) for e in ENTRIES]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("entry", ENTRIES, ids=_ids(ENTRIES))
def test_entry(entry):
    path = entry["file"]
    assert path.startswith("src/drinlat/") and path.endswith(".py")
    assert _resolves(_tree(path), entry["function"].split("."))
    assert entry["group"] in GROUPS
    test_file, *test_name = entry["test"].split("::")
    assert test_file.startswith("tests/test_") and test_name
    test_name[-1] = test_name[-1].split("[")[0]  # a parametrized case
    assert _resolves(_tree(test_file), test_name)
