"""Count the lines of the ncgb package.

Prints, per module and in total, the number of lines and the number of
code lines: lines that hold a token other than a comment, a docstring or a
line break.  A docstring is a string literal that stands alone as a
statement.  Uses the standard library only.

Usage: python tests/src_lines.py [PACKAGE_DIR]   (default: src/ncgb)
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
# Tokens after which a string literal starts a statement.
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count_lines(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    tokens = [
        t
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    code: set[int] = set()
    previous = tokenize.ENCODING
    for i, t in enumerate(tokens):
        if t.type in SKIPPED:
            previous = t.type
            continue
        following = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.ENDMARKER
        docstring = (
            t.type == tokenize.STRING
            and previous in STATEMENT_START
            and following in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            code.update(range(t.start[0], t.end[0] + 1))
        previous = t.type
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src" / "ncgb")
    total = code = 0
    for path in sorted(package.glob("*.py")):
        lines, code_lines = count_lines(path.read_text(encoding="utf-8"))
        print(f"{path.name:20} {lines:6} {code_lines:6}")
        total += lines
        code += code_lines
    print(f"{'total':20} {total:6} {code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
