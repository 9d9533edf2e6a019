"""The line files the package keeps between runs, and the text of the large outputs.

One reader and one whole-file writer for the files; int_lines writes the
rows of integer columns that sieve and verify stream out.
"""

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


def int_lines(columns, pieces, width: int = 1) -> str:
    """pieces[0] + str(col0[i]) + pieces[1] + ... + pieces[-1] for each row i, as one str.

    columns are int64 arrays of one length with values >= 0, and pieces
    are one more NUL-free ASCII str than there are columns; each value is
    written with at least width digits, zero-padded.  The lines are the
    rows of one uint8 matrix, as wide as the pieces plus each column's
    largest digit count: the pieces are constant columns, each digit
    position is one division by 10 over the column, and the leading
    positions a value does not reach hold byte 0, which is dropped from
    the text at the end.
    """
    import numpy as np

    if not len(columns[0]):
        return ""
    digits = [max(width, len(str(int(values.max())))) for values in columns]
    lines = np.empty((len(columns[0]), sum(map(len, pieces)) + sum(digits)), dtype=np.uint8)
    at = 0
    for piece, values, count in zip(pieces, [*columns, None], [*digits, 0]):
        lines[:, at : at + len(piece)] = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
        at += len(piece) + count
        for pos in range(count):
            rest = values // 10
            digit = rest * -10
            digit += values
            digit += ord("0")
            if pos >= width:
                digit *= values != 0  # the value has no digit left here
            lines[:, at - 1 - pos] = digit
            values = rest
    # bytes.replace drops the 0 bytes several times faster than numpy's
    # lines[lines != 0], and returns the text itself when there are none
    return lines.tobytes().replace(b"\0", b"").decode("ascii")
