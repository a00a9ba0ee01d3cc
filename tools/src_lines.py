"""Count the lines of each ``lcalearn`` module: all lines, and code lines.

    python3 tools/src_lines.py [<checkout>]

Prints ``lines  code  module`` for every module under
``<checkout>/src/lcalearn`` (default: this checkout), then the totals.
Code lines leave out blank lines, comments and docstrings (of modules,
classes and functions); every other line that holds part of a statement
counts, the continuation lines of a multi-line string included.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are not code on their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines holding a token of code that is not part of a docstring."""
    docstrings = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    package = root / "src" / "lcalearn"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no modules under {package}", file=sys.stderr)
        return 2
    print(f"{'lines':>6} {'code':>6}  module")
    total_lines = total_code = 0
    for path in modules:
        text = path.read_text()
        lines, code = len(text.splitlines()), code_lines(text)
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
