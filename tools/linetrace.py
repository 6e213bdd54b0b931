"""List the statement lines of ``src/owpdb`` that the tier-1 tests never run.

Usage::

    python tools/linetrace.py [pytest arguments]

With no arguments it runs the tier-1 suite (``-q
--continue-on-collection-errors``).  pytest runs in this process under
``sys.settrace`` and ``threading.settrace``, tracing only frames whose code
is in ``src/owpdb``; standard library only, so no coverage package is
needed.  Per module it then prints the statement lines that never ran,
skipping docstrings and ``def``, ``class`` and import lines.

Code that runs only in a subprocess shows as missed: the CLI tests that
start ``python -m owpdb.cli`` and the tool run of ``tests/test_answers.py``.
Tracing slows the suite several times over; it is not part of tier-1.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "owpdb"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements in ``path`` that a run can execute."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
        ):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        lines.add(node.lineno)
    return lines


def ranges(numbers: list[int]) -> str:
    """``1 2 3 7`` as ``1-3 7``."""
    out, start = [], None
    for i, n in enumerate(numbers):
        if start is None:
            start = n
        if i + 1 == len(numbers) or numbers[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return " ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("statement lines never run in process (subprocess-only code included):")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path) - ran.get(str(path), set()))
        print(f"{path.relative_to(ROOT)}: {len(missed)}" + (f": {ranges(missed)}" if missed else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
