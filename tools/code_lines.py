"""Count the code lines of a package's Python modules.

A code line is a line that holds part of a token other than a comment or
a docstring, so comments, docstrings and blank lines do not count, and a
statement or string spread over several lines counts each of them.  A
docstring is a string that is a whole statement on its own.

    python tools/code_lines.py [DIR ...]

prints the count of each module of each DIR (default src/smalldev) and
their total.
"""

import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code: layout, comments and the file's ends.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = set()
    statement_start = True
    for tok, nxt in zip(tokens, tokens[1:] + tokens[-1:]):
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type == tokenize.NEWLINE
            continue
        docstring = (
            statement_start
            and tok.type == tokenize.STRING
            and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        statement_start = False
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for directory in argv or ["src/smalldev"]:
        for path in sorted(Path(directory).glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{path}\t{count}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
