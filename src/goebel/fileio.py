"""The line files the package keeps between runs: one reader, one whole-file writer."""

import os

from .errors import GoebelError


def read_rows(path, parse, what: str, header: bool = True):
    """Yield parse(line) for each non-blank line of path, after its header line if any.

    A ValueError from parse ends in a GoebelError that names the file and line;
    bytes outside ASCII decode to U+FFFD, so a damaged number fails int().
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        if header and next(fh, None) is None:
            raise GoebelError(f"empty {what} file {path}: no header line")
        for lineno, line in enumerate(fh, start=2 if header else 1):
            if line.strip():
                try:
                    yield parse(line.strip())
                except ValueError:
                    raise GoebelError(f"bad {what} row {path}, line {lineno}") from None


def read_keyed(path, parse, key, what: str, header: bool = True) -> dict:
    """{key(row): row} over the rows of read_rows; a row with an earlier row's key is a bad row."""
    rows = {}
    def parse_once(line):
        row = parse(line)
        if key(row) in rows:
            raise ValueError(f"repeated key: {line!r}")
        return row
    for row in read_rows(path, parse_once, what, header):
        rows[key(row)] = row
    return rows


def replace_lines(path, lines) -> None:
    """Write lines (LF-terminated ASCII) to a sibling file and rename it over path.

    An interrupted run leaves either the old file or the new one, never a
    torn line.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
