"""Unreached-line report for the in-process test suite: a stdlib pytest plugin.

Usage, from the root of the checkout:

    PYTHONPATH=src:tools python -m pytest -q -p unreached -p no:cacheprovider

Tracing starts in ``pytest_configure``, before the tests are collected, so the
statements that run when a module is imported count as reached.  The
interpreter drops a trace function that raises, as it does when a test runs
into the recursion limit, so each test starts by putting it back.  At the end
of the session it prints, per module of ``src/flopwin``, the statement lines
that never ran.  A statement counts when the compiler gave it code: docstrings,
``global`` and ``nonlocal`` lines are left out.  Only this process is traced;
a subprocess that a test starts is not.  The report never changes the exit
status.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

def _code_lines(code) -> set:
    """Lines that carry bytecode in a code object and those nested in it."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statement_lines(source: str, filename: str) -> set:
    tree = ast.parse(source, filename)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    statements = {node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and node not in docstrings}
    return statements & _code_lines(compile(source, filename, "exec"))


class _Collector:
    """Lines run in the modules of one package directory, per file."""

    def __init__(self, package: Path):
        self.package = package
        self.prefix = str(package) + "/"
        self.hits: dict = {}

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def unreached(self) -> dict:
        """Map each module to its sorted unreached statement lines."""
        out = {}
        for path in sorted(self.package.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            missing = _statement_lines(source, str(path)) - self.hits.get(str(path), set())
            if missing:
                out[path.name] = sorted(missing)
        return out

    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        report = self.unreached()
        total = sum(len(lines) for lines in report.values())
        terminalreporter.write_sep("-", f"unreached statement lines in src/flopwin: {total}")
        for name, lines in report.items():
            terminalreporter.write_line(f"{name} ({len(lines)}): {', '.join(map(str, lines))}")


def pytest_configure(config):
    collector = _Collector(config.rootpath / "src" / "flopwin")
    config.pluginmanager.register(collector, "unreached-collector")
    sys.settrace(collector.trace)
    threading.settrace(collector.trace)
