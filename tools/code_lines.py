"""Count the code lines of a Python package: lines without docstrings, comments or blanks.

A line counts if it holds a token other than a comment, a line break or an
indent change, and it is not inside a module, class or function docstring.
A token that spans lines (a multi-line string) holds each line it spans.

    python3 tools/code_lines.py [DIR]

prints the count of each module under DIR (src/ssisim by default), then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers the module's, its classes' and its functions' docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source are code (see the module docstring)."""
    held = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in _NOT_CODE:
            held.update(range(token.start[0], token.end[0] + 1))
    return len(held - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[0] if argv else "src/ssisim")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name}\t{count}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
