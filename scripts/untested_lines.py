"""List the statements of src/energynet that no test executes.

Runs pytest in this process under sys.settrace, with line events traced only
in frames whose code lives in src/energynet, and then prints
`file:line statement` for each statement whose first line never ran, in file
order.  Only lines that carry bytecode count, so declarations such as
`nonlocal` and `global` and function docstrings are never listed.  A
`try:` line does carry bytecode, and is listed when it never ran.

Code that the tests run only in a subprocess (the `python -m energynet.cli`
checks, the experiment scripts) is not seen: its statements are listed even
when such a test covers them.

Usage:
    python scripts/untested_lines.py                          # the whole suite
    python scripts/untested_lines.py tests/test_network.py -k csv

The arguments go to pytest, and the exit status is pytest's.
"""

import ast
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "energynet"


def executable_lines(code):
    """The lines that carry bytecode in code and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def statements(path):
    """(line, source line) of each statement of the file that carries bytecode."""
    source = path.read_text()
    text = source.splitlines()
    live = executable_lines(compile(source, str(path), "exec"))
    return sorted(
        {(node.lineno, text[node.lineno - 1].strip())
         for node in ast.walk(ast.parse(source))
         if isinstance(node, ast.stmt) and node.lineno in live}
    )


class NoDeadline:
    """Tracing slows every call, so a hypothesis deadline would fail tests
    that pass untraced.  (hypothesis is imported here, once pytest has
    registered its plugin for assertion rewriting.)"""

    def pytest_configure(self, config):
        from hypothesis import settings

        settings.register_profile("untested_lines", deadline=None)
        settings.load_profile("untested_lines")


def main(argv):
    prefix = str(PACKAGE) + os.sep
    traced = {}  # code object -> whether its file is in the package
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in traced:
            traced[code] = os.path.abspath(code.co_filename).startswith(prefix)
        return local if traced[code] else None

    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")], plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
    if not hit:
        print(f"no line of {PACKAGE} ran: is energynet imported from elsewhere?", file=sys.stderr)
        return 2
    hit = {(os.path.abspath(name), line) for name, line in hit}
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, stmt in statements(path):
            if (str(path), line) not in hit:
                print(f"{path.relative_to(ROOT)}:{line} {stmt}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
