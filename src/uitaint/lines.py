"""The line format shared by the three config files and a bundle's rtable.txt.

A `#` comment runs to the end of its line and blank lines are skipped.
Lines are numbered from 1 and end at `\\n`, `\\r\\n` or `\\r`; no other
character (a form feed, say) ends a line.
"""

from __future__ import annotations

import re
from pathlib import Path

_EOL = re.compile(r"\r\n?|\n")


def numbered_lines(text: str, name):
    """Yield ("<name>:<lineno>", line) for each line of text that is not
    blank once its comment is cut off; the line keeps its other blanks."""
    for lineno, raw in enumerate(_EOL.split(text), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield f"{name}:{lineno}", line


def config_lines(path, builtin: str, error: type[Exception]):
    """numbered_lines of the UTF-8 config file at path, or of the built-in
    data/<builtin> when path is None or empty; other bytes raise error.
    A leading byte-order mark is skipped."""
    if not path:
        path = Path(__file__).parent / "data" / builtin
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from None
    return numbered_lines(text, path)
