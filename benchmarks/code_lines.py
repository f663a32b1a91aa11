"""Count code lines: not blank, not comment-only, docstrings excluded.

ROADMAP's "net-negative line counts are a goal" needs a number that
prose cannot move: deleting a comment or shortening a docstring must
not look like less code.  CI appends the default table to the job
summary (not gated)::

    python -m benchmarks.code_lines                # src/repro/<package>, tests/, benchmarks/
    python -m benchmarks.code_lines FILE_OR_DIR... # one row per argument
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count(path: Path) -> tuple[int, int]:
    """``(files, code lines)`` of one python file or a tree of them."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return len(files), sum(code_lines(f.read_text()) for f in files)


def default_paths() -> list[Path]:
    packages = sorted(p for p in (ROOT / "src" / "repro").iterdir()
                      if p.is_dir() and any(p.glob("*.py")))
    return [*packages, ROOT / "tests", ROOT / "benchmarks"]


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or default_paths()
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"code_lines: no such file or directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    print("| path | files | code lines |")
    print("|---|---:|---:|")
    total = 0
    for path in paths:
        files, lines = count(path)
        total += lines
        shown = path.resolve()
        if shown.is_relative_to(ROOT):
            shown = shown.relative_to(ROOT)
        print(f"| `{shown}` | {files} | {lines} |")
    print(f"| **total** | | **{total}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
