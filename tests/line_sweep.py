"""Statement lines of src/radio_gather that the Tier-1 suite never runs.

    PYTHONPATH=src python tests/line_sweep.py [pytest arguments]

Runs pytest in-process (on the tests directory, or on the arguments
given) under a sys.settrace line tracer that follows only frames whose
code lives in src/radio_gather.  Then it prints, per module, every
statement line that never ran and the total count.  A statement line
is the first line of an AST statement; docstrings are left out.  It
needs nothing beyond the standard library and takes about 4 minutes
against 40 s untraced, so it is a tool, not a gate.  Its exit status
is pytest's.

The file name has no test_ prefix, so pytest does not collect it.
"""
import ast
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "radio_gather")


def statement_lines(source: str) -> set[int]:
    """The first line of every statement in source but docstrings: the
    string that opens a module, class or function body."""
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.add(first)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docs}


def unrun_lines(root: str, run) -> dict[str, list[int]]:
    """Call run() under a line tracer confined to the .py files below
    root, and return for each of them, by path relative to root, the
    ascending statement lines that never ran (files with none left
    out).  The tracer in place before is restored afterwards."""
    root = os.path.join(os.path.abspath(root), "")
    ran: dict[str, set[int]] = {}
    tracers = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        local = tracers.get(path)
        if local is None and path.startswith(root):
            add = ran.setdefault(path, set()).add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local

            tracers[path] = local
        return local

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(before)
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    missed = statement_lines(fh.read()) - ran.get(path, set())
                if missed:
                    out[os.path.relpath(path, root)] = sorted(missed)
    return out


def main(argv: list[str]) -> int:
    import pytest

    status = 0

    def suite():
        nonlocal status
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", HERE])

    missed = unrun_lines(SRC, suite)
    total = 0
    for path, lines in sorted(missed.items()):
        with open(os.path.join(SRC, path)) as fh:
            text = fh.read().splitlines()
        for line in lines:
            print(f"{path}:{line}: {text[line - 1].strip()}")
        total += len(lines)
    print(f"{total} statement lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
