#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each module of a package.

    python3 scripts/code_lines.py                       # src/octasphere of this checkout
    python3 scripts/code_lines.py path/to/src/octasphere

A docstring line is a line of a module, class or function docstring (read
with `ast`); a comment line holds nothing but a comment (read with
`tokenize`); a code line is any other line that is not blank.  Run on two
checkouts, the counts tell whether a change cut code or only documentation.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def counts(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docs = _docstring_lines(ast.parse(source))
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT and tok.line.lstrip().startswith("#")}
    out = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(source.splitlines(), 1):
        kind = "docstring" if i in docs else "comment" if i in comments \
            else "blank" if not line.strip() else "code"
        out[kind] += 1
    return out


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "octasphere"
    rows = [(path.name, counts(path.read_text())) for path in sorted(package.glob("*.py"))]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  " + "  ".join(f"{k:>9}" for k in KINDS))
    for name, c in rows:
        print(f"{name:<{width}}  " + "  ".join(f"{c[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
