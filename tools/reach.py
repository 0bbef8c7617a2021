"""Which `drinlat` functions does the benchmark and acceptance traffic reach?

Runs, in this one interpreter under `sys.settrace`: every README command
of `perfbench/run.py`'s `CLI_CASES` through `drinlat.cli.main`,
`verify-suite --output json`, and one pass of each library workload of
`perfbench/workloads.py` (`BUILDERS`) at `--seed`, following each item's
`follow` units as the benchmark worker does.  Prints, as one JSON object
on stdout, every function defined in `src/drinlat` that none of this
traffic entered: its file, first line and qualified name.  Comprehensions
and generator expressions are left out, since they are parts of a
function; lambdas are listed as `<lambda>`.  Answers are not checked, and
the commands' own output is discarded.  `nonzero` names each command that
exited non-zero and each workload item that raised: the README's
good-prime scan finds no prime and exits 2, as its golden output does.

The unreached set is held to `tools/reach_allow.json`, one entry per
function that no traffic reaches but the library keeps: its file, its
qualified name, its group (`paper-api`, `input-dependent`, `error-path`,
`display` or `oracle-fallback`) and a tier-1 test that reaches it.
`added` lists the unreached functions the file does not name, `removed`
the named ones that are reached now or no longer defined.  The exit code
is 0 when both are empty and 1 otherwise; `tests/test_reach_allow.py`
checks the file itself, without the traffic.

Standard library only.  It reads `CLI_CASES` from the source of
`perfbench/run.py` without importing it, and writes no bytecode, so
`perfbench/` is left as it is.  Run it from the repository root:

    python3 tools/reach.py --seed 3
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "drinlat")
ALLOW = os.path.join(ROOT, "tools", "reach_allow.json")
PART_NAMES = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
FUNCTION_FLAGS = inspect.CO_OPTIMIZED | inspect.CO_NEWLOCALS


def cli_cases() -> list:
    """`CLI_CASES` of perfbench/run.py, a literal read off its source."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLI_CASES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"reach: no CLI_CASES in {path}")


def defined_functions() -> dict:
    """(file, first line, name) -> qualified name, for every function
    code object compiled from src/drinlat."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if (code.co_flags & FUNCTION_FLAGS == FUNCTION_FLAGS
                    and code.co_name not in PART_NAMES):
                out[(path, code.co_firstlineno, code.co_name)] = \
                    code.co_qualname
    return out


def traffic(seed: int) -> list:
    """Run the README commands, verify-suite and one pass of each library
    workload in this interpreter; return the non-zero exits and raises."""
    from drinlat.cli import main
    nonzero = []
    sink = io.StringIO()
    for name, args in cli_cases() + [("verify-suite",
                                      ["verify-suite", "--output", "json"])]:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main(args)
        if code:
            nonzero.append(f"{name}: exit {code}")
        sink.seek(0)
        sink.truncate()
    from workloads import BUILDERS
    for workload, build in BUILDERS.items():
        pending = list(reversed(build(seed)))
        while pending:
            unit = pending.pop()
            try:
                result = unit.call()
            except Exception as exc:  # a refusal still reached what it ran
                nonzero.append(f"{workload} {unit.key}: "
                               f"{type(exc).__name__}: {exc}")
                continue
            if unit.follow is not None:
                pending.extend(reversed(unit.follow(result)))
    return nonzero


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    sys.dont_write_bytecode = True
    os.chdir(ROOT)  # the README commands read @perfbench/data/... files
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "perfbench")]
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(PACKAGE):
            entered.add((code.co_filename, code.co_firstlineno,
                         code.co_name))
        return None  # calls only: no line events

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        nonzero = traffic(args.seed)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    defined = defined_functions()
    unreached = [{"file": os.path.relpath(path, ROOT), "line": line,
                  "function": defined[path, line, name]}
                 for path, line, name in sorted(set(defined) - entered)]
    with open(ALLOW, encoding="utf-8") as fh:
        allowed = {(e["file"], e["function"]) for e in json.load(fh)}
    found = {(u["file"], u["function"]) for u in unreached}
    added, removed = sorted(found - allowed), sorted(allowed - found)
    print(json.dumps({"seed": args.seed, "functions": len(defined),
                      "nonzero": nonzero, "unreached": unreached,
                      "added": [f"{f}:{q}" for f, q in added],
                      "removed": [f"{f}:{q}" for f, q in removed]},
                     indent=1))
    sys.exit(1 if added or removed else 0)


if __name__ == "__main__":
    main()
