"""Count the source lines of the package, two ways.

For each module, and in total, prints its line count as ``wc -l`` gives
it, and the lines that hold a token outside module, class and function
docstrings: a comment, a blank line or a docstring line holds none, and
each line that a multi-line token or a bracketed statement spans counts
once.  Run from anywhere as::

    python tools/src_lines.py [--rev REV] [FILE ...]

With no files it counts ``src/zeno_ent/*.py``.  With ``--rev`` it prints
the counts of the same files at the git revision ``REV`` beside those of
the working tree, the package's modules being those of either side, and
``-`` for a file that one side lacks.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=False)


def _text_at(root: Path, rev: str, path: Path) -> str | None:
    """``path``'s text at the git revision ``rev``, or ``None`` where the
    revision has no such file."""
    try:
        name = path.resolve().relative_to(root).as_posix()
    except ValueError:
        return None
    shown = _git(root, "show", f"{rev}:{name}")
    return shown.stdout.decode("utf-8") if shown.returncode == 0 else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the package's source lines.")
    parser.add_argument("--rev", help="also count the files at this git revision")
    parser.add_argument("files", nargs="*", type=Path)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    paths = args.files or sorted((root / "src" / "zeno_ent").glob("*.py"))
    sides = []
    if args.rev is not None:
        if _git(root, "rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}").returncode:
            parser.error(f"unknown revision {args.rev!r}")
        if not args.files:
            listed = _git(root, "ls-tree", "--name-only", args.rev, "src/zeno_ent/").stdout
            paths = sorted(set(paths) | {root / name for name in listed.decode().split()
                                         if name.endswith(".py")})
        sides.append([_text_at(root, args.rev, path) for path in paths])
        print(f"{args.rev:>15} {'tree':>15}")
    sides.append([path.read_text(encoding="utf-8") if path.exists() else None
                  for path in paths])
    totals = [[0, 0] for _ in sides]
    print(" ".join(f"{'wc -l':>7} {'code':>7}" for _ in sides) + "  module")
    for i, path in enumerate(paths):
        cells = []
        for texts, total in zip(sides, totals):
            if texts[i] is None:
                cells.append(f"{'-':>7} {'-':>7}")
                continue
            wc, code = count(texts[i])
            total[0] += wc
            total[1] += code
            cells.append(f"{wc:7d} {code:7d}")
        print(" ".join(cells) + f"  {path.name}")
    print(" ".join(f"{wc:7d} {code:7d}" for wc, code in totals) + "  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
