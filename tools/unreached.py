"""List the statements of the package that no Tier-1 test executes.

    python3 tools/unreached.py [PYTEST_ARGS...]

Runs the Tier-1 suite (`pytest -q --continue-on-collection-errors`, or the
given arguments) in this process under a `sys.settrace` line trace of the
files in src/sincfilters, then prints one line per statement that never
ran, `path:line: source`, and a count.  A statement counts as run when a
traced line falls inside it and inside none of its sub-statements, so a
compound statement is reached through its header.  Docstrings are not
statements here.  Code run in a subprocess is not traced, so the suite runs
`python -m sincfilters.cli` in process (`runpy`).  Standard library only,
with pytest and numpy for the suite.  Exits with pytest's exit code if the
suite fails, else 1 if any statement is listed, else 0.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "sincfilters"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(path: Path) -> tuple[list[ast.stmt], dict[int, ast.stmt]]:
    """The file's statements, docstrings excepted, and each line's innermost statement."""
    stmts, owner = [], {}

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if not _is_docstring(node):
                stmts.append(node)
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node  # inner statements, visited next, overwrite their lines
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for child in getattr(node, field, []):  # handlers and cases hold a body
                    visit([child] if isinstance(child, ast.stmt) else child.body)

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return stmts, owner


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    executed: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in executed else None

    sys.path.insert(0, str(SRC))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in files.items():
        stmts, owner = _statements(path)
        reached = {id(owner[line]) for line in executed[name] if line in owner}
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in stmts:
            if id(node) not in reached:
                total += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"{total} statement(s) in {PACKAGE.relative_to(ROOT)} that no test executes")
    return int(code) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
