"""The line sweep's two halves on a tiny module: which lines are
statements, and which of them a call leaves unrun."""
import importlib.util

from line_sweep import statement_lines, unrun_lines

TINY = '''"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    if x:
        return os.sep
    y = (
        2
    )
    return y


class C:
    """Class docstring."""

    def g(self):
        raise ValueError
'''


def test_sweep_reports_the_statements_a_call_leaves_unrun(tmp_path):
    # docstrings (lines 1, 6, 16) are no statements; the statement
    # spread over lines 9-11 counts once, at its first line
    assert statement_lines(TINY) == {2, 5, 7, 8, 9, 12, 15, 18, 19}
    path = tmp_path / "tiny.py"
    path.write_text(TINY)

    def call():
        spec = importlib.util.spec_from_file_location("tiny", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.f(1)

    assert unrun_lines(str(tmp_path), call) == {"tiny.py": [9, 12, 19]}
