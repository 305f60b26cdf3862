"""Atomic file replacement, shared by every on-disk store.

A reader of a path sees the old file or the new one, never a torn
write: the new bytes go to a temp file in the same directory, which
``os.replace`` then moves over the path. :func:`tempfile.mkstemp` names
the temp file, so two writers of one path, even in one process, each
write their own; the later replace wins. A failed write removes its
temp file. Temp files are created, and so entries end up, with
``mkstemp``'s owner-only mode.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO


def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> Path:
    """Replace ``path`` with what ``write`` writes to the binary file
    object it is given, creating the parent directory; returns
    ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path
