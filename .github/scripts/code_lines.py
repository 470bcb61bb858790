"""Count the code lines of a package: lines holding a token outside
comments and docstrings.

Usage: python .github/scripts/code_lines.py [DIR]   (default: src/gsurf)

Prints one line per ``.py`` file under DIR, then the total.  A line
counts when a token other than a comment, a line break or an
indentation change starts or runs on it (a string spread over lines
counts every line it covers), unless that token is a docstring: the
string standing first in a module, class or function body.  Blank lines
and lines of comments or docstrings alone do not count.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(tree) -> set:
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIP or tok.type == tokenize.STRING \
                    and tok.start in docstrings:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/gsurf")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
