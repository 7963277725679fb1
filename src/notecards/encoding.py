"""Canonical JSON, content-derived ids, and the two store file formats.

:func:`canonical_json` gives equal values equal bytes, which is what
makes whole-store byte determinism achievable. Every store file is read
and written here, in one of two formats:

- Logs are JSON Lines, one canonical record per line (:func:`read_jsonl`,
  :func:`read_jsonl_at`, :func:`append_jsonl`). A last line without its
  newline is an append cut short: readers refuse it, and a writer cuts it
  off once, under the lock, before it opens the stores
  (:func:`cut_torn_tail`).
- Whole files are indented JSON with sorted keys (:func:`read_json`,
  :func:`write_json`), written to a synced temp file and renamed over the
  old one, so a crash leaves the old or the new version, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Iterable, Iterator

# Namespace for all name-based UUIDs minted by this package.
ID_NAMESPACE = uuid.NAMESPACE_DNS


class StoreFormatError(ValueError):
    """A store file that does not decode; the message names the file."""


def canonical_json(value: Any) -> str:
    """Stable, whitespace-free JSON with sorted keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_hash(value: Any, length: int = 16) -> str:
    """Short hex digest of the canonical JSON form of *value*."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]


def name_uuid(*parts: str) -> str:
    """Deterministic name-based UUID over the given parts."""
    return str(uuid.uuid5(ID_NAMESPACE, "\x1f".join(parts)))


def read_json(path: Path, default: Any = None) -> Any:
    """The value of a whole-file JSON store file, or *default* if it is missing."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return default
    try:
        return json.loads(text)
    except ValueError as exc:
        raise StoreFormatError(f"{path}: not valid JSON: {exc}") from None


def write_json(path: Path, value: Any) -> None:
    """Replace a whole-file JSON store file with *value*, through a synced temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps(value, indent=0, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _decode(path: Path, where: str, line: str | bytes) -> Any:
    try:
        return json.loads(line)
    except ValueError as exc:
        raise StoreFormatError(f"{path}: {where} does not decode: {exc}") from None


def read_jsonl(path: Path) -> Iterator[Any]:
    """The records of a log, in order; a missing log has none, a torn one raises."""
    if not path.exists():
        return
    with path.open("r", encoding="utf-8", newline="\n") as handle:
        for number, line in enumerate(handle, 1):
            if not line.endswith("\n"):
                raise StoreFormatError(
                    f"{path}: line {number} is the torn end of an interrupted append; "
                    "the next run repairs it"
                )
            yield _decode(path, f"line {number}", line)


def cut_torn_tail(path: Path) -> bool:
    """Cut a log back to its last whole line; True if it had a torn tail.

    Reads only the last byte of a log that is not torn. The caller must
    hold the store lock.
    """
    try:
        handle = path.open("r+b")
    except FileNotFoundError:
        return False
    with handle:
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return False
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return False
        handle.seek(0)
        handle.truncate(handle.read().rfind(b"\n") + 1)
    return True


def read_jsonl_at(path: Path, offsets: Iterable[int]) -> Iterator[Any]:
    """The records of the log lines that start at *offsets*, in that order."""
    with path.open("rb") as handle:
        for offset in offsets:
            handle.seek(offset)
            yield _decode(path, f"the line at byte {offset}", handle.readline())


def append_jsonl(path: Path, records: Iterable[Any]) -> list[int]:
    """Append one canonical line per record; returns each line's byte offset."""
    offsets = []
    with path.open("ab") as handle:
        position = handle.tell()
        for record in records:
            line = canonical_json(record).encode("ascii") + b"\n"
            handle.write(line)
            offsets.append(position)
            position += len(line)
    return offsets
