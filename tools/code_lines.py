"""Count the code lines of each module of ``src/fractomo``.

A code line is a line that holds part of a token other than a comment,
a docstring or layout (newlines, indentation); blank lines, comment
lines and docstring lines do not count.  A docstring is a string literal
that makes up a whole statement.

Usage::

    python3 tools/code_lines.py [PACKAGE_DIR]

prints ``lines  module`` for each module, sorted by name, then the total.
``PACKAGE_DIR`` defaults to ``src/fractomo`` next to this script.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: layout tokens left after comments and blank-line newlines are dropped
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}

#: tokens after which a new statement starts
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                   tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of code lines of the Python source at ``path``."""
    with path.open("rb") as source:
        tokens = [t for t in tokenize.tokenize(source.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING and tokens[k - 1].type in STATEMENT_START
                and tokens[k + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "fractomo")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.stem}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
