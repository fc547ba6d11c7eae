"""Durable file updates for index directories.

Every truncate, write, fsync and rename a save performs goes through this
module, so the order of those steps is visible in one place (and a test can
make any one of them fail).

An index commits its files in three ways. The manifest, replaced whole by
``replace_json``, commits the byte length of each graph file. A vector
file is replaced whole by ``replace_file``, its rename the commit. A tail
file commits its own records: it begins with an 8-byte header, the
little-endian byte length of its committed records, and ``append_tail``
writes and fsyncs a record past that length before it writes the new length
over the header and fsyncs again. In each, the data is synced before the
rename or write that commits it (Pillai et al., OSDI 2014), and readers
ignore bytes past what is committed, so a save that fails leaves the old
state readable.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .errors import ConsistencyError

_OPEN_FLAGS = os.O_RDWR | os.O_CREAT | getattr(os, "O_BINARY", 0)
TAIL_HEADER = struct.Struct("<Q")
# The node counts at which a tail record starts, and those at which it ends.
N_COUNTS = 3


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


def append_tail(path: Path, committed: int, record: bytes) -> None:
    """Append ``record`` to the tail file ``path`` after the first
    ``committed`` bytes of its records, and commit it.

    The file is cut back to its header and those bytes, which drops what an
    interrupted append left past them; the record is written and fsynced;
    then the new committed length is written over the header and fsynced.
    A tail file that did not exist is created, and its directory fsynced
    before the length commits anything in it. The length sits in the
    file's first bytes, within one sector, so a crash leaves it whole."""
    try:
        fd = os.open(path, os.O_RDWR | getattr(os, "O_BINARY", 0))
        created = False
    except FileNotFoundError:
        fd = os.open(path, _OPEN_FLAGS, 0o644)
        created = True
    try:
        end = TAIL_HEADER.size + committed
        os.ftruncate(fd, end)
        os.lseek(fd, end, os.SEEK_SET)
        _write_all(fd, record)
        os.fsync(fd)
        if created:
            sync_directory(path.parent)
        os.lseek(fd, 0, os.SEEK_SET)
        _write_all(fd, TAIL_HEADER.pack(committed + len(record)))
        os.fsync(fd)
    finally:
        os.close(fd)


def reset_tail(path: Path) -> None:
    """Commit an empty tail: write a zero length over the header of the tail
    file ``path`` and fsync. Its old records stay in the file, uncommitted,
    until the next ``append_tail`` cuts them off."""
    fd = os.open(path, _OPEN_FLAGS, 0o644)
    try:
        _write_all(fd, TAIL_HEADER.pack(0))
        os.fsync(fd)
    finally:
        os.close(fd)


def replace_file(path: Path, data: bytes) -> None:
    """Atomically make ``path`` hold ``data``: write a temporary sibling,
    fsync it and rename it over ``path``. Readers see the old file or the
    new one, never a mix; the rename is durable once the caller fsyncs the
    directory."""
    tmp = path.with_name(path.name + ".tmp")
    append(tmp, 0, data)
    os.replace(tmp, path)


def replace_json(path: Path, obj: Any) -> None:
    """``replace_file`` with ``obj`` as indented JSON, then fsync the
    directory."""
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    replace_file(path, data)
    sync_directory(path.parent)


def sync_directory(path: Path) -> None:
    """fsync the directory ``path``, which makes the creation, renaming or
    removal of its entries durable. Not every platform can open a
    directory; there this does nothing. An error of the fsync itself, such
    as EIO, is raised."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except (PermissionError, IsADirectoryError):
        return
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


@dataclass(frozen=True)
class TailRecord:
    """One record of a tail file: the node counts it starts and ends at,
    the bytes it adds to each file of its kind, and its footer's extra
    bytes."""

    start: tuple[int, ...]
    end: tuple[int, ...]
    parts: tuple[memoryview, ...]
    extra: bytes


class TailFormat:
    """The layout of the records of one kind of tail file.

    A record is its ``n_parts`` parts followed by a footer: ``N_COUNTS``
    start counts, ``N_COUNTS`` end counts and the byte length of each part,
    all little-endian uint64, then ``extra`` bytes. The last record's footer
    ends the committed bytes, so a save reads it without reading the
    records, and a load walks the records back from it."""

    def __init__(self, n_parts: int, extra: int = 0):
        self.n_parts = n_parts
        self.extra = extra
        self._fields = struct.Struct(f"<{2 * N_COUNTS + n_parts}Q")
        self.footer_size = self._fields.size + extra

    def record(
        self,
        start: Sequence[int],
        end: Sequence[int],
        parts: Sequence[bytes],
        extra: bytes = b"",
    ) -> bytes:
        if len(parts) != self.n_parts or len(extra) != self.extra:
            raise ValueError("a record does not fit its tail's format")
        footer = self._fields.pack(*start, *end, *map(len, parts))
        return b"".join((*parts, footer, extra))

    def last(self, path: Path) -> tuple[int, TailRecord | None]:
        """The committed length of the tail file ``path`` and its last
        record, with no parts: two reads, whatever the tail holds. A missing
        or empty file is an empty tail; ConsistencyError if the committed
        length passes the end of the file."""
        try:
            f = open(path, "rb", buffering=0)
        except FileNotFoundError:
            return 0, None
        with f:
            length = _committed_length(path, f.read(TAIL_HEADER.size))
            if not length:
                return 0, None
            at = TAIL_HEADER.size + length - self.footer_size
            f.seek(max(at, 0))
            footer = f.read(self.footer_size)
        if at < 0:
            raise ConsistencyError(f"{path}: a record overruns the tail's start")
        if len(footer) < self.footer_size:
            raise ConsistencyError(_past_end(path, length))
        start, end, _, extra = self._footer(footer)
        return length, TailRecord(start, end, (), extra)

    def records(self, path: Path) -> list[TailRecord]:
        """Every committed record of the tail file ``path``, oldest first.
        ConsistencyError if the committed length passes the end of the file
        or the records do not fill it exactly."""
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise ConsistencyError(f"cannot read {path}: {exc}") from exc
        length = _committed_length(path, raw[: TAIL_HEADER.size])
        if not length:
            return []
        if TAIL_HEADER.size + length > len(raw):
            raise ConsistencyError(_past_end(path, length))
        data = memoryview(raw)[TAIL_HEADER.size : TAIL_HEADER.size + length]
        found: list[TailRecord] = []
        end_at = length
        while end_at:
            parts_end = end_at - self.footer_size
            if parts_end < 0:
                raise ConsistencyError(f"{path}: a record overruns the tail's start")
            start, end, sizes, extra = self._footer(data[parts_end:end_at])
            bounds = [parts_end]
            for size in reversed(sizes):
                bounds.append(bounds[-1] - size)
            if bounds[-1] < 0:
                raise ConsistencyError(f"{path}: a record overruns the tail's start")
            bounds.reverse()
            parts = tuple(data[a:b] for a, b in zip(bounds, bounds[1:]))
            found.append(TailRecord(start, end, parts, extra))
            end_at = bounds[0]
        found.reverse()
        return found

    def _footer(self, footer: bytes | memoryview):
        fields = self._fields.unpack(footer[: self._fields.size])
        return (
            fields[:N_COUNTS],
            fields[N_COUNTS : 2 * N_COUNTS],
            fields[2 * N_COUNTS :],
            bytes(footer[self._fields.size :]),
        )


def records_past(
    path: Path,
    records: Sequence[TailRecord],
    base: Sequence[int],
    columns: Sequence[int],
) -> list[TailRecord]:
    """The tail records that reach past ``base``, read at ``columns`` of
    their counts: the counts the base files commit.

    A record that ends at or before ``base`` there was already folded into
    the base files and is skipped; a fold that failed before its tail was
    reset leaves such records. Each other record must start where the one
    before it ended, the first at ``base``, or ConsistencyError."""
    kept: list[TailRecord] = []
    running = tuple(base)
    for k, record in enumerate(records):
        start = tuple(record.start[c] for c in columns)
        end = tuple(record.end[c] for c in columns)
        if all(e <= b for e, b in zip(end, base)):
            continue
        if start != running or any(e < s for s, e in zip(start, end)):
            raise ConsistencyError(
                f"{path}: record {k} does not continue the running counts: it "
                f"runs from {list(start)} to {list(end)}, they stand at {list(running)}"
            )
        kept.append(record)
        running = end
    return kept


def _committed_length(path: Path, header: bytes) -> int:
    """The committed length a tail file's first bytes give; 0 for an empty
    file, which a crash can leave before the header was first written."""
    if not header:
        return 0
    if len(header) < TAIL_HEADER.size:
        raise ConsistencyError(
            f"{path}: shorter than its {TAIL_HEADER.size}-byte header"
        )
    return TAIL_HEADER.unpack(header)[0]


def _past_end(path: Path, length: int) -> str:
    return f"{path}: committed length {length} passes the end of the file"
