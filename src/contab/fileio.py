"""Text files written whole or not at all, and read naming the file that does not decode."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Text file for writing ``path``: the block writes a temporary file
    beside it, which replaces ``path`` (``os.replace``) only when the
    block finishes without raising.  Readers of ``path`` therefore see
    the previous file or the complete new one, never a half-written one;
    on a raise the temporary file is removed and ``path`` is untouched."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_text(path) -> str:
    """The text of the UTF-8 file ``path``; bytes that do not decode
    raise ``ValueError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
