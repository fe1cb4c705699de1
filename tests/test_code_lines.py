import subprocess
import sys
from pathlib import Path

from conftest import load_module

ROOT = Path(__file__).resolve().parent.parent


def test_total_is_the_sum_of_the_modules():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert sorted(Path(path) for _, path in modules) == sorted(
        p.relative_to(ROOT) for p in (ROOT / "src").rglob("*.py"))
    assert int(total) == sum(int(n) for n, _ in modules) > 0


def test_blank_comment_and_docstring_lines_are_no_code():
    code_lines = load_module("scripts/code_lines.py").code_lines
    text = '''"""Module
docstring."""

# a comment
X = (1,
     2)  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a multi-line
        string"""
'''
    # X = (1, / 2), class A:, def f, return and the rest of its string
    assert code_lines(text) == 6
