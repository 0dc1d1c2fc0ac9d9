"""Fail when tier-1 leaves a statement of ``src/channel_lab`` unexecuted.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
and compares the lines that ran with the statements ``ast`` finds in every
module of the package.  A simple statement counts as run when any of its
lines ran; a compound one (``if``, ``for``, ``def``, ...) when a line of its
header ran, from its first decorator to the line before its body.
Docstrings are not statements here.  Besides pytest it uses only the
standard library; the tracer roughly doubles the suite's run time.

Usage, from the repository root::

    python tools/statement_trace.py [extra pytest arguments]

It prints each unexecuted statement outside the allowlist and each
allowlist entry that matches nothing.  The exit status is pytest's when a
test fails, else 1 when it printed anything and 0 when it did not.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "channel_lab"

#: Statements no in-process test can run.  The script entry point runs only
#: under ``python -m``; ``_parallel`` keeps two functions that only the
#: benchmark harness in ``bench/`` calls.
ALLOWED_STATEMENTS = {("cli.py", "sys.exit(main())")}
ALLOWED_FUNCTIONS = {("_parallel.py", "thread_cap"), ("_parallel.py", "pmap")}


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _span(node: ast.stmt) -> range:
    """The lines whose execution shows that ``node`` ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(first + 1, body[0].lineno))
    return range(first, node.end_lineno + 1)


def statements(path: Path):
    """Every statement of a module but its docstrings, as (line span, enclosing functions, source)."""
    source = path.read_text(encoding="utf-8")
    found = []

    def visit(parent: ast.AST, scopes: tuple) -> None:
        for name in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, name, []):
                if isinstance(node, ast.ExceptHandler):
                    visit(node, scopes)
                    continue
                if isinstance(node, (ast.Global, ast.Nonlocal)) or _is_docstring(node, parent):
                    continue
                found.append((_span(node), scopes, ast.get_source_segment(source, node)))
                inner = scopes + (node.name,) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scopes
                visit(node, inner)

    visit(ast.parse(source), ())
    return found


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process and return its exit status with the package lines that ran, per file."""
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(global_trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), ran


def unexecuted(ran: dict[str, set[int]]) -> tuple[list[str], list[str]]:
    """The unexecuted statements outside the allowlist, and the allowlist entries that matched nothing."""
    missed, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for span, scopes, text in statements(path):
            if lines.intersection(span):
                continue
            allowed = {(path.name, text)} & ALLOWED_STATEMENTS or {(path.name, s) for s in scopes} & ALLOWED_FUNCTIONS
            if allowed:
                used |= allowed
                continue
            head = text.splitlines()[0]
            missed.append(f"src/channel_lab/{path.name}:{span.start}: {head}")
    stale = sorted(f"{f}: {name}" for f, name in (ALLOWED_STATEMENTS | ALLOWED_FUNCTIONS) - used)
    return missed, stale


def main(argv: list[str]) -> int:
    status, ran = run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    missed, stale = unexecuted(ran)
    for line in missed:
        print(f"not executed by tier-1: {line}")
    for entry in stale:
        print(f"allowlist entry matches no unexecuted statement: {entry}")
    print(f"statement trace: {len(missed)} unexecuted statement(s) outside the allowlist")
    if status:
        return status
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
