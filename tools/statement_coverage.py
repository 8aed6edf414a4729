"""List the statements of ``src/liqlab`` that the tier-1 suite never runs.

Runs the tier-1 suite (``tests/``) in this process under a standard-library
line tracer: ``sys.settrace`` for the main thread and ``threading.settrace``
for threads started later, such as the ``simulate --jobs`` workers. Code
that tests run in a child process is not traced. Hypothesis draws from a
fixed seed, so that a statement only some draws reach is either always
counted or never.

A statement is one ``ast.stmt`` node, less docstrings and ``global`` or
``nonlocal`` declarations. It ran when any line of its head ran: every line
of a simple statement, and of a compound one its decorators and the lines
up to its body. Every statement that never ran is printed as ``file:line``
with its first source line. The exit status is 1 when any did, apart from
the body of ``cli.py``'s ``__main__`` guard, which only ``python -m`` runs;
the suite's own pass or fail is printed but does not set the status.

Run from anywhere; liqlab is imported from ``src/`` of this checkout:

    python3 tools/statement_coverage.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liqlab"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> dict:
    """``{first line: (head lines, exempt)}`` for each statement in the
    module's source; ``exempt`` marks the body of a module-level
    ``__main__`` guard."""
    tree = ast.parse(source)
    exempt = set()
    for guard in tree.body:
        if isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'":
            exempt.update(range(guard.body[0].lineno, guard.end_lineno + 1))
    found = {}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal))
                    or _is_docstring(node, parent)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            found[node.lineno] = (range(first, max(first, last) + 1), node.lineno in exempt)
    return found


def _tracers(files) -> dict:
    """``{co_filename: local tracer}``: each tracer adds the line numbers it
    sees to its file's set."""

    def tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return {name: tracer(lines) for name, lines in files.items()}


def main() -> int:
    sources = {str(path): path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    ran = {name: set() for name in sources}
    tracers = _tracers(ran)

    def trace(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--hypothesis-seed=0", "tests"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = exempt = total = 0
    for name, source in sources.items():
        lines = source.splitlines()
        for lineno, (head, is_exempt) in sorted(statements(source).items()):
            total += 1
            if ran[name].isdisjoint(head):
                exempt += is_exempt
                missed += not is_exempt
                note = "  (exempt: the __main__ guard)" if is_exempt else ""
                print(f"{Path(name).relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}{note}")
    print(f"{total} statements, {missed} never ran, {exempt} exempt; pytest exit status {int(status)}")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
