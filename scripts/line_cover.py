#!/usr/bin/env python3
"""List the statements of the ``trussmerge`` package that a pytest run never executes.

Runs pytest in-process with its arguments under ``sys.settrace``, tracing
only frames whose code lives in the package directory that ``trussmerge``
resolves to on the path, then prints each statement that never ran as
``file:line: source``. A statement is a line start of a code object
compiled from the file, except ``def``, ``class``, import and docstring
lines. The tracer slows the run about threefold (tier-1: 100 s against
38 s on a 2-vCPU host). The exit code is pytest's. Example, from the
root of a source checkout:

    PYTHONPATH=src python3 scripts/line_cover.py -q -p no:cacheprovider
"""

from __future__ import annotations

import ast
import dis
import importlib.util
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import pytest


def statement_lines(source: str, filename: str) -> set[int]:
    """Line starts of every code object compiled from ``source``, less def, class, import and docstring lines."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0 or None: no line
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not isinstance(node, ast.Module):  # the header, decorators and signature lines
            lines.difference_update(range(min(d.lineno for d in [node, *node.decorator_list]),
                                          node.body[0].lineno))
        doc = node.body[0] if node.body else None
        if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def unrun(path: Path, ran: set[int]) -> list[str]:
    """``file:line: source`` for each statement of ``path`` not in ``ran``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    return [f"{path.name}:{n}: {text[n - 1].strip()}"
            for n in sorted(statement_lines(source, str(path)) - ran)]


@contextmanager
def traced(directory: Path):
    """Collect into the yielded {filename: lines} every line run by code under ``directory``."""
    prefix, ran, before = str(directory) + "/", defaultdict(set), sys.gettrace()

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        yield ran
    finally:
        sys.settrace(before)


def main(argv=None) -> int:
    package = Path(importlib.util.find_spec("trussmerge").origin).parent  # as in co_filename
    with traced(package) as ran:
        code = pytest.main(sys.argv[1:] if argv is None else argv)
    missed = [line for path in sorted(package.glob("*.py")) for line in unrun(path, ran[str(path)])]
    print("\n".join(missed) if missed else "every statement ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
