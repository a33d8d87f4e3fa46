"""Count the source lines of the package, two ways.

For each module, and in total, prints its line count as ``wc -l`` gives
it, and the lines that hold a token outside module, class and function
docstrings: a comment, a blank line or a docstring line holds none, and
each line that a multi-line token or a bracketed statement spans counts
once.  Run from anywhere as::

    python tools/src_lines.py [FILE ...]

With no files it counts ``src/zeno_ent/*.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# token kinds that hold no code: layout, comments and the end of the file
_EMPTY = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(wc, code)`` of a module's text: its newline count, as ``wc -l``
    reads it, and its lines holding a token outside its docstrings."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _EMPTY:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docs)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "zeno_ent").glob("*.py"))
    totals = [0, 0]
    print(f"{'wc -l':>7} {'code':>7}  module")
    for path in paths:
        wc, code = count(path.read_text(encoding="utf-8"))
        totals[0] += wc
        totals[1] += code
        print(f"{wc:7d} {code:7d}  {path.name}")
    print(f"{totals[0]:7d} {totals[1]:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
