"""Unreached-line report for the in-process test suite: a stdlib pytest plugin.

Usage, from the root of the checkout:

    PYTHONPATH=src:tools python -m pytest -q -p unreached -p no:cacheprovider

Tracing starts in ``pytest_configure``, before the tests are collected, so the
statements that run when a module is imported count as reached.  The
interpreter drops a trace function that raises, as it does when a test runs
into the recursion limit, so each test starts by putting it back.  At the end
of the session it prints, per module of ``src/flopwin``, the statement lines
that never ran.  A statement counts when the compiler gave it code: docstrings,
``global`` and ``nonlocal`` lines are left out.  The report never changes the
exit status.

A Python subprocess that a test starts is traced too.  The plugin writes a
``sitecustomize.py`` into a temporary directory and puts that directory first
on ``PYTHONPATH``, which the children inherit; each child then appends the
first hit of every line of the package to a file of its own in that
directory, with one unbuffered write, so a child that leaves by ``os._exit``
loses none.  The report merges those files, and the directory is removed at
the end of the session; nothing is written into the checkout.
"""

from __future__ import annotations

import ast
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

# a child's tracer; it loads only os, sys and threading, so no module that a
# test counts in a child's sys.modules (flopwin's own, dataclasses) comes in
_SITECUSTOMIZE = """\
import os, sys, threading
_fd = os.open(os.path.join({out!r}, f"{{os.getpid()}}.lines"),
              os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
_seen = set()

def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith({prefix!r}):
        return None

    def local(frame, event, arg):
        if event == "line" and (filename, frame.f_lineno) not in _seen:
            _seen.add((filename, frame.f_lineno))
            os.write(_fd, f"{{filename}}\\t{{frame.f_lineno}}\\n".encode())
        return local
    return local

sys.settrace(_trace)
threading.settrace(_trace)
"""


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
    """Lines run in the modules of one package directory, per file, in this
    process and in the traced subprocesses that write to the directory out."""

    def __init__(self, package: Path, out: Path):
        self.package, self.out = package, out
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
        for path in self.out.glob("*.lines"):
            for entry in path.read_text(encoding="utf-8").splitlines():
                filename, line = entry.split("\t")
                self.hits.setdefault(filename, set()).add(int(line))
        report = self.unreached()
        total = sum(len(lines) for lines in report.values())
        terminalreporter.write_sep("-", f"unreached statement lines in src/flopwin: {total}")
        for name, lines in report.items():
            terminalreporter.write_line(f"{name} ({len(lines)}): {', '.join(map(str, lines))}")

    def pytest_unconfigure(self, config):
        shutil.rmtree(self.out, ignore_errors=True)


def pytest_configure(config):
    out = Path(tempfile.mkdtemp(prefix="unreached-"))
    collector = _Collector(config.rootpath / "src" / "flopwin", out)
    (out / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(out=str(out), prefix=collector.prefix), encoding="utf-8")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(out), os.environ.get("PYTHONPATH")]))
    config.pluginmanager.register(collector, "unreached-collector")
    sys.settrace(collector.trace)
    threading.settrace(collector.trace)
