"""Canonical JSON, content hashes, the two store file formats and the operational error.

:func:`canonical_json` gives equal values equal bytes, which is what
makes whole-store byte determinism achievable. Every store file is read
and written here, in one of two formats:

- Logs are JSON Lines, one canonical record per line (:class:`Log`,
  :func:`read_jsonl_at`, :func:`append_jsonl`).
  A commit record names a log's length and the sha256 of its bytes only
  once the log is on disk (:func:`commit_logs`). Every command reads a log
  only up to that length, once it holds it (:func:`committed_size`), and a
  writer first cuts it back to that length (:func:`cut_to_length`), so no
  reader meets the torn end of an interrupted append: a line without its
  newline. A store reads a log once, as a :class:`Log`, checking its bytes
  against their digest in the same pass; it takes what it indexes from
  bytes the digest vouches for with one regex pass per block, decoding no
  line, and decodes every line of a log that has no digest, or whose bytes
  differ from it, naming the line that does not decode, or else the log.
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
from contextlib import contextmanager
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


class PipelineError(Exception):
    """Operational failures: bad config, busy store, missing files; the
    ontology and ingest errors are kinds of it."""


class StoreFormatError(ValueError):
    """A store file that does not decode; the message names the file."""


def _canonical_encoder() -> Callable[[Any], str]:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)``
    as a function. ``json.dumps`` builds the C encoder anew on each call; this
    builds it once, with no circular-reference check, which would keep state
    between calls. Without the C encoder, it is the pure Python one's."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    if c_make_encoder is None:
        return encoder.encode
    encode = c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None, ":", ",", True, False, True
    )
    return lambda value: "".join(encode(value, 0))


_CANONICAL = _canonical_encoder()


def canonical_json(value: Any) -> str:
    """Stable, whitespace-free JSON with sorted keys."""
    return _CANONICAL(value)


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


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise an :class:`OSError` that names no file, as a failed write or
    fsync gives, as one that names *path*."""
    try:
        yield
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_json(path: Path, value: Any) -> None:
    """Replace a whole-file JSON store file with *value*, through a synced temp file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with _naming(tmp), tmp.open("w", encoding="utf-8", newline="\n") as handle:
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


def _lines(path: Path, end: int | None) -> Iterator[tuple[int, int, bytes]]:
    """The number, offset and bytes of each line of a log up to byte *end*;
    a line without its newline raises."""
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
            yield number, offset, line
            offset += len(line)


# A log is read in blocks of about this many bytes, each cut at a line end:
# small enough to stay in cache over the passes a read makes over a block
# (hash, scan), which at 1 MiB take half as long again, and to add little
# to a command's peak memory.
BLOCK = 1 << 16


def _nothing(record: Any) -> None:
    return None


class Log:
    """A log as the last commit left it: its bytes up to *end* (None: the
    whole file), which *digest*, the sha256 of them the commit recorded,
    vouches for.

    A store reads it once (:meth:`index`, :meth:`records` or :meth:`check`)
    and checks it against the digest in the same pass. Only bytes the digest
    vouches for are read without decoding each line; without one (a store
    committed before digests, or a log opened outside a store) every line is
    decoded once. Committed bytes that differ from their digest raise, naming
    the line that does not decode, or else the log. The commit that follows
    continues the checked hash over what was appended (:func:`commit_logs`).
    """

    def __init__(self, path: Path, end: int | None = None, digest: str | None = None):
        self.path = Path(path)
        self.end = end
        self.digest = digest
        self.lines = 0  # committed lines, once read
        # sha256 of the committed bytes, once checked; an empty log needs no read.
        self._hasher = hashlib.sha256() if end == 0 else None

    def check(self, build: Callable[[Any], Any] = _nothing) -> None:
        """Read the committed bytes and check them, counting the lines; what
        they hold is not kept. Without a digest, or if they differ from it,
        every line is decoded, and ``build(record)`` of each may refuse it."""
        if self.digest is None or self._scan(None) is None:
            self._decoded(build)

    def index(
        self, scan: Callable[[str], tuple[list, list[int]] | None] | None,
        build: Callable[[Any], Any],
    ) -> tuple[list, list[int]]:
        """A value for each committed line, and the offset of each line, from one read.

        When the digest vouches for the bytes, ``scan(text)`` reads the lines
        of each block, *text*: it gives the value of each line and the
        offset in *text* at which each line starts, in log order, or None if
        a line is not one it reads. A scan is a regex pass that decodes no
        line. Without a scan or a digest, or if a scan fails, every line is
        decoded instead, and its value is ``build(record)``, as :meth:`records`.
        """
        found = None if scan is None or self.digest is None else self._scan(scan)
        return self._decoded(build) if found is None else found

    def _scan(
        self, scan: Callable[[str], tuple[list, list[int]] | None] | None
    ) -> tuple[list, list[int]] | None:
        """What :meth:`index` gives from bytes the digest vouches for, or None;
        without a scan, only a check, which counts the lines and keeps nothing."""
        hasher, found, starts, lines, length = hashlib.sha256(), [], [], 0, 0
        for offset, block in self._blocks():
            hasher.update(block)
            if scan is None:
                lines += block.count(b"\n")
            else:
                try:  # no canonical line holds a byte that is not ASCII; decoding reads it
                    read = scan(block.decode("ascii"))
                except UnicodeDecodeError:
                    return None
                if read is None:
                    return None
                found += read[0]
                starts += map(offset.__add__, read[1])
            length = offset + len(block)
        if hasher.hexdigest() != self.digest:
            return None
        self._hasher, self.end = hasher, length
        self.lines = lines if scan is None else len(starts)
        return found, starts

    def records(self, build: Callable[[Any], Any]) -> list:
        """``build(record)`` of each committed line, in log order, every line
        decoded; a line that does not decode or build raises, naming the file
        and the line, as do bytes that differ from the digest."""
        return self._decoded(build)[0]

    def _decoded(self, build: Callable[[Any], Any]) -> tuple[list, list[int]]:
        hasher, found, starts, length = hashlib.sha256(), [], [], 0
        for number, offset, line in _lines(self.path, self.end):
            hasher.update(line)
            found.append(_decode(self.path, f"line {number}", line, build))
            starts.append(offset)
            length = offset + len(line)
        if self.digest is not None and hasher.hexdigest() != self.digest:
            raise StoreFormatError(
                f"{self.path}: its committed bytes differ from the sha256 the last commit recorded"
            )
        self._hasher, self.lines, self.end = hasher, len(found), length
        return found, starts

    def _blocks(self) -> Iterator[tuple[int, bytes]]:
        """The committed bytes in blocks that each end a line, with their
        offsets; a torn end, which only a whole-file read meets, comes last."""
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            offset, size = 0, BLOCK
            while self.end is None or offset < self.end:
                data = handle.read(size if self.end is None else min(size, self.end - offset))
                if not data:
                    return
                cut = data.rfind(b"\n") + 1
                if cut == len(data) or len(data) < size:  # whole lines, or the end
                    yield offset, data
                    offset += len(data)
                    size = BLOCK
                elif cut:  # the last line runs on past the block: the next reads it
                    handle.seek(offset + cut)
                    yield offset, data[:cut]
                    offset += cut
                    size = BLOCK
                else:  # a line longer than the block
                    handle.seek(offset)
                    size *= 2

    def commit(self) -> tuple[int, str | None]:
        """The log's length, forced to disk if it grew since the read, and
        the sha256 of its bytes: the checked hash continued over what was
        appended. A log not read and not grown keeps the digest it had."""
        size = self.path.stat().st_size if self.path.exists() else 0
        if self._hasher is None:
            if size == self.end:
                return size, self.digest
            self.check()
        committed = self.end or 0
        if size == committed:
            return size, self._hasher.hexdigest()
        _fsync(self.path)
        hasher = self._hasher.copy()
        with self.path.open("rb") as handle:
            handle.seek(committed)
            for start in range(committed, size, BLOCK):
                hasher.update(handle.read(min(BLOCK, size - start)))
        return size, hasher.hexdigest()


def scan_ids(pattern: re.Pattern, text: str) -> tuple[list[str], list[int]] | None:
    """The id *pattern* reads in each line of *text*, whole lines, and where
    each line starts, or None if a line does not give one. *pattern* matches
    at each line break, and its one group is the id in the line that
    follows, read up to the next quote. A read that holds an escape, or a
    line break, which a read past a line's end would, may not be the whole
    id, so it gives None too."""
    matches = list(pattern.finditer("\n" + text))
    matches.pop()  # the break that ends the last line, which starts none
    ids = list(map(itemgetter(1), matches))
    if None in ids:
        return None
    read = "".join(ids)
    if "\\" in read or "\n" in read:
        return None
    return ids, list(map(re.Match.start, matches))  # a break's place in "\n" + text


def commit_logs(logs: Iterable[Log]) -> list[tuple[int, str | None]]:
    """:meth:`Log.commit` of each log, then the directory of each that was
    empty at its read forced to disk once, since only its entry can be new:
    each log's length and digest, which a commit record may then name."""
    logs = list(logs)
    committed = [log.commit() for log in logs]
    for directory in dict.fromkeys(
        log.path.parent for log, (size, _) in zip(logs, committed) if size and not log.end
    ):
        _fsync(directory)
    return committed


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        with _naming(path):
            os.fsync(fd)
    finally:
        os.close(fd)


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
    with _naming(path), path.open("ab") as handle:
        position = handle.tell()
        for record in records:
            line = canonical_json(record).encode("ascii") + b"\n"
            handle.write(line)
            offsets.append(position)
            position += len(line)
    return offsets
