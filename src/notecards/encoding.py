"""Canonical JSON, content hashes, the two store file formats and the operational error.

:func:`canonical_json` gives equal values equal bytes, which is what
makes whole-store byte determinism achievable. Every store file is read
and written here, in one of two formats:

- Logs are JSON Lines, one canonical record per line (:func:`read_jsonl`,
  :func:`read_jsonl_index`, :func:`read_jsonl_at`, :func:`append_jsonl`).
  A commit record names a log's length only once the log is on disk
  (:func:`synced_length`). Every command reads a log only up to that
  length, once it holds it (:func:`committed_size`), and a writer first
  cuts it back to that length (:func:`cut_to_length`), so no reader meets
  the torn end of an interrupted append: a line without its newline.
  A store indexes a log by reading each line's id out of its canonical
  bytes (:func:`id_string`), and decodes a line only when that fails or
  when it needs the record.
- Whole files are indented JSON with sorted keys (:func:`read_json`,
  :func:`write_json`), written to a synced temp file and renamed over the
  old one, so a crash leaves the old or the new version, never a torn one.

The two writers create a file's directory when it is missing; nothing
else does, so reading a store never creates anything in it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


class PipelineError(Exception):
    """Operational failures: bad config, busy store, missing files; the
    ontology and ingest errors are kinds of it."""


class StoreFormatError(ValueError):
    """A store file that does not decode; the message names the file."""


def canonical_json(value: Any) -> str:
    """Stable, whitespace-free JSON with sorted keys."""
    return _CANONICAL.encode(value)


# What json.dumps builds on each call with these arguments; it holds no state.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_hash(value: Any, length: int = 16) -> str:
    """Short hex digest of the canonical JSON form of *value*."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]


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
    path.parent.mkdir(parents=True, exist_ok=True)
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


def build_record(path: Path, where: str, build: Callable[[Any], Any], value: Any) -> Any:
    """``build(value)``; a value it cannot build, valid JSON that is not a
    record of *path* (say, one missing a field), raises :class:`StoreFormatError`."""
    try:
        return build(value)
    except StoreFormatError:
        raise  # a build that reads another store file names that file
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise StoreFormatError(f"{path}: {where} is not a {path.name} record: {exc!r}") from None


def record_id(raw: Any, name: str) -> str:
    """The id field *name* of a raw record, which must be a string."""
    value = raw[name]
    if not isinstance(value, str):
        raise TypeError(f"{name} {value!r} is not a string")
    return value


def _decode(path: Path, where: str, line: bytes, build: Callable[[Any], Any] | None) -> Any:
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise StoreFormatError(f"{path}: {where} does not decode: {exc}") from None
    return record if build is None else build_record(path, where, build, record)


def read_jsonl(
    path: Path, end: int | None = None, build: Callable[[Any], Any] | None = None
) -> Iterator[Any]:
    """A log's records in order, up to byte *end* (a line end) if given; a torn line raises.

    With *build*, each record is ``build(record)``; a record it cannot
    build raises :class:`StoreFormatError`, naming the file and the line.
    """
    for _offset, record in read_jsonl_index(path, end, scan=_unread, build=build):
        yield record


def _unread(line: bytes) -> None:
    return None


def read_jsonl_index(
    path: Path,
    end: int | None,
    scan: Callable[[bytes], Any],
    build: Callable[[Any], Any] | None,
) -> Iterator[tuple[int, Any]]:
    """Each line of a log with the byte offset it starts at and ``scan(line)``,
    or where that is None, the decoded line's ``build(record)``, as :func:`read_jsonl`.

    A line whose scan reads is not decoded, so damage elsewhere in it goes
    unnoticed until a reader decodes it (``store check`` decodes them all).
    """
    if not path.exists():
        return
    with path.open("rb") as handle:
        offset = 0
        for number, line in enumerate(handle, 1):
            if end is not None and offset >= end:
                return
            if not line.endswith(b"\n"):
                raise StoreFormatError(
                    f"{path}: line {number} is the torn end of an interrupted append"
                )
            value = scan(line)
            if value is None:
                value = _decode(path, f"line {number}", line, build)
            yield offset, value
            offset += len(line)


def id_string(line: bytes, key: bytes, end: int | None = None) -> str | None:
    """The string value of the last *key*, a ``b'"name":"'``, before byte *end*
    of a canonical log line; None if there is none, or it holds an escape or
    a byte that is not ASCII.

    In canonical JSON (sorted keys, ASCII, no whitespace) a quote followed by
    a colon only ends an object key, so *key* matches only the end of one,
    and the last match is the top-level key when no key sorted after it
    holds an object.
    """
    at = line.rfind(key, 0, end)
    value = None if at < 0 else _PLAIN_STRING.match(line, at + len(key))
    return None if value is None else value[0].decode("ascii")


# The bytes of a JSON string up to its closing quote, when none is escaped or non-ASCII.
_PLAIN_STRING = re.compile(rb'[^"\\\x80-\xff]*(?=")')


def committed_size(path: Path, length: int) -> int:
    """The size of a log, missing meaning empty, that holds its committed *length*;
    no crash leaves it shorter or *length* mid-line, so either raises, naming it."""
    size = path.stat().st_size if path.exists() else 0
    if size < length:
        raise StoreFormatError(f"{path}: {size} bytes, shorter than its committed {length}")
    if length:
        with path.open("rb") as handle:
            handle.seek(length - 1)
            if handle.read(1) != b"\n":
                raise StoreFormatError(f"{path}: its committed length {length} does not end a line")
    return size


def cut_to_length(path: Path, length: int) -> bool:
    """Cut a log back to its committed *length*; True if it was longer.
    One that does not hold it raises (:func:`committed_size`), untouched."""
    if committed_size(path, length) == length:
        return False
    os.truncate(path, length)
    return True


def synced_length(path: Path) -> int:
    """Force a log, missing meaning empty, and its directory entry to disk;
    returns its length, which a commit record may then name."""
    if not path.exists():
        return 0
    for name in (path, path.parent):
        fd = os.open(name, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return path.stat().st_size


def read_jsonl_at(
    path: Path, lines: Iterable[tuple[str, int]], key: str, build: Callable[[Any], Any]
) -> Iterator[Any]:
    """The records of the log lines that *lines* names as (id, offset) pairs,
    each ``build(record)``, in that order; no pairs open nothing.

    A record whose *key* attribute is not the id its line is indexed under
    raises :class:`StoreFormatError`, naming the file and the line, as does
    one that does not decode or build.
    """
    lines = list(lines)
    if not lines:
        return
    with path.open("rb") as handle:
        for indexed, offset in lines:
            handle.seek(offset)
            where = f"the line at byte {offset}"
            record = _decode(path, where, handle.readline(), build)
            if getattr(record, key) != indexed:
                raise StoreFormatError(
                    f"{path}: {where} holds {key} {getattr(record, key)!r}, "
                    f"but is indexed under {indexed!r}"
                )
            yield record


def append_jsonl(path: Path, records: Iterable[Any]) -> list[int]:
    """Append one canonical line per record; returns each line's byte offset."""
    offsets = []
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as handle:
        position = handle.tell()
        for record in records:
            line = canonical_json(record).encode("ascii") + b"\n"
            handle.write(line)
            offsets.append(position)
            position += len(line)
    return offsets
