"""Output files that are written whole or not at all."""

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
