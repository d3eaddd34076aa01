"""The repository's tools, on small inline inputs."""

import importlib.util
from pathlib import Path

SAMPLE = '''"""A module docstring,

with a blank line inside it."""

import os  # a trailing comment leaves a code line

# a comment line


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        # an indented comment
        return 1


X = """a string that is
not a docstring"""
'''


def test_src_lines_counts_whole_docstrings_and_comment_lines():
    """Docstring lines are every line of a module, class or function
    docstring, blanks inside included; other strings are code, a trailing
    comment leaves a code line, and the four counts add up to the lines."""
    spec = importlib.util.spec_from_file_location(
        "src_lines", Path(__file__).resolve().parents[1] / "tools" /
        "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    code, doc, comment, blank = src_lines.split(SAMPLE)
    assert (code, doc, comment, blank) == (6, 6, 2, 7)
    assert code + doc + comment + blank == len(SAMPLE.splitlines()) == 21
