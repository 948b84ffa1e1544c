"""Line counts of the ``src/dmgeo`` modules, total and code-only.

Run from the repository root:

    python tests/line_count.py

Total is the number of lines in each file.  Code-only counts the lines
that hold a token other than a comment, a newline or indentation, found
with ``tokenize``, less the lines of docstrings, found with ``ast``.  It
prints one row per module and their sum; it gates nothing.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "dmgeo"
#: token types that do not make a line code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(text: str) -> set:
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple:
    """(total, code-only) lines of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(text))


def main() -> int:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(SOURCE.glob("*.py"))]
    rows.append(("src/dmgeo", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
