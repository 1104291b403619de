"""List the statements of the poleplace package that Tier-1 never executes.

    python3 scripts/uncovered.py

Runs the test suite under tests/ in this process, with `sys.settrace`
recording the lines executed in src/poleplace, then prints each statement
that never ran as ``module.py:line  source``, followed by the count.  A
statement counts as executed when a line of its own ran: for a simple
statement, any of its lines; for a compound one (if, for, def, ...), any
line of its header, decorators included.  Docstrings are not statements
here, as in scripts/count_statements.py.  The exit status is pytest's.
Tracing makes the suite a few times slower.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "poleplace"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from count_statements import is_docstring  # noqa: E402


def statement_spans(source):
    """(first line, last line, lineno) of each statement of a module."""
    spans = []
    for parent in ast.walk(ast.parse(source)):
        for child in ast.iter_child_nodes(parent):
            if not isinstance(child, ast.stmt) or is_docstring(child, parent):
                continue
            first = min([child.lineno]
                        + [d.lineno for d in getattr(child, "decorator_list", ())])
            body = getattr(child, "body", None)
            last = body[0].lineno - 1 if body else child.end_lineno
            spans.append((first, max(first, last), child.lineno))
    return sorted(spans, key=lambda span: span[2])


def trace_package(fn):
    """Call fn() with `sys.settrace` recording the lines executed in the
    package; returns (fn's result, executed lines per file of the
    package)."""
    executed = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, executed


def print_missed(executed):
    """Print each statement of the package whose lines never ran, as
    ``module.py:line  source``, then their count."""
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        for first, last, lineno in statement_spans(source):
            if ran.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.name}:{lineno}  {lines[lineno - 1].strip()}")
    print(f"{missed} statements never executed")


def main():
    import pytest

    sys.path.insert(0, str(SRC.parent))
    status, executed = trace_package(
        lambda: pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    print_missed(executed)
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
