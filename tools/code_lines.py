"""Count the code lines of Python modules.

A line counts if it carries a token outside docstrings and comments:
blank lines, comment lines and docstrings (a string that is a statement
of its own) do not count, and a string that spans lines counts each line
it spans.  Standard library only.

    python tools/code_lines.py src/fiblat

prints the count of each module under the given files or directories,
then the total.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of code lines of one module."""
    lines, statement = set(), []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):  # not a docstring
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(args: list[str]) -> None:
    paths = [Path(a) for a in args] or [Path("src")]
    modules = sorted(q for p in paths for q in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for module in modules:
        n = code_lines(module)
        total += n
        print(f"{n:6d}  {module}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
