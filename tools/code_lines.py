"""Print the code lines of each Python module under a directory, and their total.

    python3 tools/code_lines.py            # src/wpdenoise
    python3 tools/code_lines.py some/dir   # any other tree

A code line holds at least one token that is neither a comment nor part
of a docstring (the leading string of a module, class or function), so
blank lines, comment lines and docstrings do not count, and a statement
written over three lines counts three. This is the count the project's
change notes quote: one line per module, `<path> <lines>` with the path
relative to the directory, then `total <lines>`.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the docstrings of `tree`."""
    lines = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("directory", nargs="?",
                        default=os.path.join(ROOT, "src", "wpdenoise"))
    args = parser.parse_args(argv)
    total = 0
    for folder, _, files in sorted(os.walk(args.directory)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    n = code_lines(fh.read())
                total += n
                print(f"{os.path.relpath(path, args.directory)} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
