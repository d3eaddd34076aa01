"""Print the code, docstring, comment and blank lines of src/wittlink/*.py.

Every line of a module, class or function docstring counts as docstring,
blank lines inside it included.  Outside docstrings a line is blank if it
holds only whitespace, a comment if its text starts with ``#``, and code
otherwise, so the four counts add up to ``wc -l``.  Usage:
``python tools/src_lines.py``, which prints the package's totals.
"""

import ast
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(text):
    """(code, docstring, comment, blank) line counts of the source ``text``."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    rest = [line.strip() for i, line in enumerate(text.splitlines(), 1)
            if i not in doc]
    blank = rest.count("")
    comment = sum(line.startswith("#") for line in rest)
    return len(rest) - blank - comment, len(doc), comment, blank


if __name__ == "__main__":
    package = Path(__file__).resolve().parents[1] / "src" / "wittlink"
    counts = [split(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))]
    code, doc, comment, blank = map(sum, zip(*counts))
    print(f"code {code}, docstring {doc}, comment {comment}, blank {blank}, "
          f"total {code + doc + comment + blank}")
