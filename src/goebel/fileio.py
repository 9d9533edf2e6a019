"""Whole-file replacement for the files the package keeps between runs."""

import os


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
