"""Durable file updates for index directories.

Every truncate, write, fsync and rename a save performs goes through this
module, so the order of those steps is visible in one place (and a test can
make any one of them fail).
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any

_OPEN_FLAGS = os.O_RDWR | os.O_CREAT | getattr(os, "O_BINARY", 0)


def append(path: Path, committed: int, data: bytes) -> None:
    """Cut ``path`` back to its first ``committed`` bytes, append ``data``
    and fsync. The file is created if missing.

    Cutting first drops whatever an earlier, interrupted append left past the
    committed length."""
    fd = os.open(path, _OPEN_FLAGS, 0o644)
    try:
        os.ftruncate(fd, committed)
        os.lseek(fd, committed, os.SEEK_SET)
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def overwrite(path: Path, offset: int, data: bytes) -> None:
    """Write ``data`` over the bytes of an existing file at ``offset``, then
    fsync."""
    fd = os.open(path, _OPEN_FLAGS, 0o644)
    try:
        os.lseek(fd, offset, os.SEEK_SET)
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def replace_json(path: Path, obj: Any) -> None:
    """Atomically make ``path`` hold ``obj`` as indented JSON: write a
    temporary sibling, fsync it, rename it over ``path``, fsync the
    directory. Readers see the old file or the new one, never a mix."""
    tmp = path.with_name(path.name + ".tmp")
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    append(tmp, 0, data)
    os.replace(tmp, path)
    # Makes the rename itself durable; not every platform can open a directory.
    with contextlib.suppress(OSError):
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def remove(path: Path) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]
