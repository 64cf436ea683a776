"""Count the code lines of each Python module in a directory.

A code line holds at least one token other than a comment or layout
(newlines, indentation), and is not part of a module, class or function
docstring.  A token that spans several lines, such as a triple-quoted
string that is not a docstring, counts each line it spans.

Usage: python tools/code_lines.py [DIRECTORY]   (default: src/schlichtlab)

Prints one ``<lines> <module>`` line per ``*.py`` file, sorted by name,
then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the module text ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def count(directory) -> dict:
    """Module file name -> code lines, for each ``*.py`` in ``directory``."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(Path(directory).glob("*.py"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    counts = count(args[0] if args else "src/schlichtlab")
    for name, n in counts.items():
        print(f"{n:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
