"""Corpus ingestion: normalize text, attach metadata, persist append-only.

Supported corpus formats are plain text (one document per file) and JSON
Lines (one document per record:
``{"text": ..., "source_uri": ..., "timestamp"?, "place"?, "subjects"?}``).
Document ids are name-based UUIDs over (text, source_uri, timestamp), so
re-ingesting identical records is a no-op and needs no central counter.

A rerun parses only what a JSON Lines corpus gained. The maker's save
keeps, per corpus path, what was consumed of it: the length up to its
last whole line, a sha256 of those bytes, the accepted and rejected
records among them, and a keyed fingerprint of the masking settings.
When the prefix digest and the fingerprint still match, the prefix is
counted from that record and only the tail is parsed; otherwise the whole
file is, and content ids keep that idempotent. Either way the summary
counts what a whole parse counts. Plain-text corpora, one document each,
are always read whole.

The text store is one append-only log, ``documents.jsonl``: one line per
document in ingestion order, so a byte offset is a position in that
order. The maker's save commits the log with every other log of the
store, and records how far annotation has got as one such offset. The
store keeps the documents it appends, so the run that ingested them
reads them from memory, and the log only for what earlier commands logged.
One writer per store root; any number of readers, each up to the last commit.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import re
import unicodedata
import uuid
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

from .clock import Clock, format_instant, parse_instant
from .encoding import PipelineError, append_jsonl, canonical_json
from .encoding import Log, read_jsonl_at, record_id, scan_ids

MIN_MASK_KEY_BYTES = 16
_MASK_TOKEN_HEX = 32  # fixed token length; 128 bits of keyed hash
ID_NAMESPACE = uuid.NAMESPACE_DNS  # of every name-based UUID this package mints


class IngestError(PipelineError):
    """Unreadable source, bad key, or unknown document id."""


def name_uuid(*parts: str) -> str:
    """Deterministic name-based UUID over the given parts: ``str(uuid.uuid5(
    ID_NAMESPACE, name))``, minted from its sha1 without building a UUID."""
    name = "\x1f".join(parts).encode("utf-8")
    digest = bytearray(hashlib.sha1(ID_NAMESPACE.bytes + name).digest()[:16])
    digest[6] = digest[6] & 0x0F | 0x50  # version 5
    digest[8] = digest[8] & 0x3F | 0x80  # the RFC 4122 variant
    text = digest.hex()
    return f"{text[:8]}-{text[8:12]}-{text[12:16]}-{text[16:20]}-{text[20:]}"


@dataclass(frozen=True)
class SourceMeta:
    source_uri: str
    timestamp: datetime | None = None
    place: str | None = None
    subjects: tuple[str, ...] = ()
    format_tag: str = "plain"  # "plain" | "jsonl-record"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    meta: SourceMeta
    ingested_at: datetime
    masked: bool = False


@dataclass
class IngestSummary:
    accepted: int = 0
    rejected: int = 0
    duplicates: int = 0
    # Corpus path -> what was consumed of it (see the module docstring);
    # the caller commits it with the maker's save.
    consumed: dict[str, dict] = field(default_factory=dict)


def normalize_text(text: str) -> str:
    """NFC normalization with LF line endings."""
    return unicodedata.normalize("NFC", text).replace("\r\n", "\n").replace("\r", "\n")


def derive_doc_id(text: str, source_uri: str, timestamp: datetime | None) -> str:
    stamp = format_instant(timestamp) if timestamp is not None else None
    return name_uuid("doc", canonical_json([text, source_uri, stamp]))


def make_document(
    text: str,
    meta: SourceMeta,
    ingested_at: datetime,
    masked: bool = False,
) -> Document:
    normalized = normalize_text(text)
    return Document(
        doc_id=derive_doc_id(normalized, meta.source_uri, meta.timestamp),
        text=normalized,
        meta=meta,
        ingested_at=ingested_at,
        masked=masked,
    )


# ---------------------------------------------------------------------------
# Subject masking
# ---------------------------------------------------------------------------


def mask_token(key: bytes, subject: str) -> str:
    """Deterministic keyed-hash pseudonym for one subject id."""
    digest = hmac.new(key, subject.encode("utf-8"), hashlib.sha256).hexdigest()
    return digest[:_MASK_TOKEN_HEX]


def mask_fingerprint(key: bytes | None, aliases: dict[str, tuple[str, ...]] | None) -> str | None:
    """The masking settings as a corpus record keeps them: a keyed hash that
    reveals nothing of the key, or None when nothing is masked."""
    if key is None:
        return None
    settings = {subject: list(names) for subject, names in (aliases or {}).items()}
    return mask_token(key, canonical_json(["mask settings", settings]))


def mask_subjects(
    doc: Document,
    key: bytes,
    aliases: dict[str, tuple[str, ...]] | None = None,
) -> Document:
    """Replace subject ids (and configured in-text aliases) with tokens.

    The original ids are never stored alongside the result; the only way
    back is re-deriving tokens with the same key.
    """
    if len(key) < MIN_MASK_KEY_BYTES:
        raise IngestError(f"mask key must be at least {MIN_MASK_KEY_BYTES} bytes")
    tokens = {subject: mask_token(key, subject) for subject in doc.meta.subjects}
    text = doc.text
    for subject, names in (aliases or {}).items():
        token = tokens.get(subject) or mask_token(key, subject)
        for name in sorted(names, key=len, reverse=True):
            if name:
                text = text.replace(name, token)
    meta = replace(doc.meta, subjects=tuple(tokens[s] for s in doc.meta.subjects))
    return Document(
        doc_id=derive_doc_id(text, meta.source_uri, meta.timestamp),
        text=text,
        meta=meta,
        ingested_at=doc.ingested_at,
        masked=True,
    )


# ---------------------------------------------------------------------------
# Text store
# ---------------------------------------------------------------------------


def _meta_to_dict(meta: SourceMeta) -> dict:
    return {
        "source_uri": meta.source_uri,
        "timestamp": format_instant(meta.timestamp) if meta.timestamp else None,
        "place": meta.place,
        "subjects": list(meta.subjects),
        "format_tag": meta.format_tag,
    }


def _meta_from_dict(raw: dict) -> SourceMeta:
    return SourceMeta(
        source_uri=raw["source_uri"],
        timestamp=parse_instant(raw["timestamp"]) if raw.get("timestamp") else None,
        place=raw.get("place"),
        subjects=tuple(raw.get("subjects") or ()),
        format_tag=raw.get("format_tag", "plain"),
    )


def _document_to_dict(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "meta": _meta_to_dict(doc.meta),
        "ingested_at": format_instant(doc.ingested_at),
        "masked": doc.masked,
    }


# At each line break, the id of the document line that follows, if one does:
# doc_id is the first key of a document line.
_DOCUMENT_ID = re.compile(r'\n(?:\{"doc_id":"([^"]*)"|)')


def _document_from_dict(raw: dict) -> Document:
    return Document(
        doc_id=raw["doc_id"],
        text=raw["text"],
        meta=_meta_from_dict(raw["meta"]),
        ingested_at=parse_instant(raw["ingested_at"]),
        masked=raw.get("masked", False),
    )


class TextStore:
    """Append-only document log, indexed by doc_id at open as committed
    (*log*; the whole file without one).

    It keeps the documents it appends, so the run that ingested them reads
    them back from memory; only lines logged before the open are decoded.
    """

    def __init__(self, root: Path, log: Log | None = None):
        self.root = Path(root)
        self._path = self.root / "documents.jsonl"
        self._log = log or Log(self._path)
        scan = partial(scan_ids, _DOCUMENT_ID)
        ids, offsets = self._log.index(scan, partial(record_id, name="doc_id"))
        self._lines = dict(zip(ids, offsets))  # doc_id -> the offset of its line
        self._appended: dict[str, Document] = {}  # since the open, in log order

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def end(self) -> int:
        """The log's length in bytes: the offset the next document gets."""
        return self._path.stat().st_size if self._path.exists() else 0

    def add_all(self, documents: Iterable[Document]) -> tuple[int, int]:
        """Append the documents not stored yet; returns (added, duplicates)."""
        new: dict[str, Document] = {}
        duplicates = 0
        for doc in documents:
            if doc.doc_id in self._lines or doc.doc_id in new:
                duplicates += 1
            else:
                new[doc.doc_id] = doc
        if new:
            offsets = append_jsonl(self._path, map(_document_to_dict, new.values()))
            self._lines.update(zip(new, offsets))
            self._appended.update(new)
        return len(new), duplicates

    def get(self, doc_id: str) -> Document:
        offset = self._lines.get(doc_id)
        if offset is None:
            raise IngestError(f"unknown doc_id {doc_id!r}")
        [document] = read_jsonl_at(self._path, [(doc_id, offset)], "doc_id", _document_from_dict)
        return document

    def list(self, start: int = 0) -> list[Document]:
        """The documents from byte offset *start* of the log on, in ingestion order."""
        lines = []
        if start < self._log.end:  # some committed lines start past it
            lines = [(doc_id, offset) for doc_id, offset in self._lines.items()
                     if offset >= start and doc_id not in self._appended]
        documents = list(read_jsonl_at(self._path, lines, "doc_id", _document_from_dict))
        # Appended past the commit, so after every committed line.
        if start <= self._log.end:
            return documents + list(self._appended.values())
        return documents + [doc for doc_id, doc in self._appended.items()
                            if self._lines[doc_id] >= start]


# ---------------------------------------------------------------------------
# Corpus readers
# ---------------------------------------------------------------------------


def _parse_record(raw: dict, clock: Clock) -> Document:
    text = raw.get("text")
    source_uri = raw.get("source_uri")
    if not isinstance(text, str) or not text:
        raise ValueError("record missing text")
    if not isinstance(source_uri, str) or not source_uri:
        raise ValueError("record missing source_uri")
    timestamp = raw.get("timestamp")
    if timestamp is not None:
        if not isinstance(timestamp, str):
            raise ValueError("timestamp must be a string")
        timestamp = parse_instant(timestamp)
    subjects = raw.get("subjects")
    subjects = [] if subjects is None else subjects
    if not isinstance(subjects, list) or any(not isinstance(s, str) for s in subjects):
        raise ValueError("subjects must be a list of strings")
    place = raw.get("place")
    if place is not None and not isinstance(place, str):
        raise ValueError("place must be a string")
    meta = SourceMeta(
        source_uri=source_uri,
        timestamp=timestamp,
        place=place,
        subjects=tuple(subjects),
        format_tag="jsonl-record",
    )
    return make_document(text, meta, ingested_at=clock.now())


def _parse_line(line: str, clock: Clock) -> Document:
    raw = json.loads(line)
    if not isinstance(raw, dict):
        raise ValueError("record is not an object")
    return _parse_record(raw, clock)


def _consumed_prefix(handle, known, mask: str | None):
    """A sha256 of the prefix *known* records, and whether that record still
    holds: same masking fingerprint, same bytes. The handle is left past the
    prefix when it holds, at the start when not. Any other record is stale."""
    digest = hashlib.sha256()
    if not isinstance(known, dict) or known.get("mask") != mask:
        return digest, False
    counts = [known.get(name) for name in ("length", "accepted", "rejected")]
    if not all(type(count) is int and count >= 0 for count in counts):
        return digest, False
    remaining = counts[0]
    while remaining:
        block = handle.read(min(remaining, 1 << 20))
        if not block:
            break
        digest.update(block)
        remaining -= len(block)
    if remaining or digest.hexdigest() != known.get("sha256"):
        handle.seek(0)
        return hashlib.sha256(), False
    return digest, True


def _read_jsonl_corpus(
    path: Path, clock: Clock, summary: IngestSummary, known, mask: str | None
) -> Iterator[Document]:
    """Yield the documents of a JSON Lines corpus past the prefix *known*
    records, counting that prefix from the record; the record of what is
    consumed now goes to ``summary.consumed``.

    Lines split as text mode splits them (``\\n``, ``\\r\\n`` or ``\\r``), so
    counts match a whole parse; a record ends at a ``\\n`` byte, so the bytes
    past the last one (a line still being written) are parsed on every run.
    """
    with path.open("rb") as handle:
        digest, skipped = _consumed_prefix(handle, known, mask)
        record = {"length": 0, "accepted": 0, "rejected": 0, "mask": mask}
        if skipped:
            record.update((name, known[name]) for name in ("length", "accepted", "rejected"))
            summary.duplicates += known["accepted"]  # stored by the commit that consumed them
            summary.rejected += known["rejected"]
        accepted = rejected = 0  # past record["length"]
        for raw in handle:
            lines = [raw]  # json.loads and strip() ignore the line's own end
            if b"\r" in raw:
                lines = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
            for line in lines:
                try:
                    text = line.decode("utf-8")  # a line that is not UTF-8 is malformed too
                    if not text.strip():
                        continue
                    doc = _parse_line(text, clock)
                except (ValueError, KeyError):
                    rejected += 1
                    continue
                accepted += 1
                yield doc
            if raw.endswith(b"\n"):
                digest.update(raw)
                record["length"] += len(raw)
                record["accepted"] += accepted
                record["rejected"] += rejected
                summary.rejected += rejected
                accepted = rejected = 0
        summary.rejected += rejected
    record["sha256"] = digest.hexdigest()
    summary.consumed[os.path.abspath(path)] = record


def read_corpus(
    path: Path,
    clock: Clock,
    summary: IngestSummary,
    known: dict | None = None,
    mask: str | None = None,
) -> Iterator[Document]:
    """Yield documents from one corpus file, counting rejects as we go.

    A JSON Lines corpus skips the prefix *known* records while it holds.
    """
    if not path.exists():
        raise IngestError(f"corpus not readable: {path}")
    if path.suffix == ".jsonl":
        yield from _read_jsonl_corpus(path, clock, summary, known, mask)
        return
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        text = ""  # rejected, as an empty file is
    if not text.strip():
        summary.rejected += 1
        return
    meta = SourceMeta(source_uri=path.as_posix(), format_tag="plain")
    yield make_document(text, meta, ingested_at=clock.now())


def check_sources(paths: Iterable[Path], mask_key: bytes | None) -> None:
    """Refuse a corpus that is not a file or a mask key too short to use, as
    ingestion would; a writer calls it before it creates a store."""
    for path in paths:
        if not Path(path).is_file():
            raise IngestError(f"corpus not readable: {path}")
    if mask_key is not None and len(mask_key) < MIN_MASK_KEY_BYTES:
        raise IngestError(f"mask key must be at least {MIN_MASK_KEY_BYTES} bytes")


def ingest_corpus(
    sources: Iterable[Path],
    store: TextStore,
    clock: Clock,
    mask_key: bytes | None = None,
    mask_aliases: dict[str, tuple[str, ...]] | None = None,
    consumed: dict[str, dict] | None = None,
) -> IngestSummary:
    """Ingest corpus files into the store; malformed records never abort.

    *consumed* is what the last commit consumed of each corpus path
    (``IngestSummary.consumed`` of the call it saved); its documents are
    in the store already, so a prefix it still describes is not parsed.
    """
    summary = IngestSummary()
    consumed = consumed or {}
    mask = mask_fingerprint(mask_key, mask_aliases)
    paths = [Path(source) for source in sources]
    check_sources(paths, mask_key)  # so a bad path never leaves a partial run

    def documents() -> Iterator[Document]:
        for source in paths:
            known = consumed.get(os.path.abspath(source))
            for doc in read_corpus(source, clock, summary, known, mask):
                if mask_key is not None:
                    doc = mask_subjects(doc, mask_key, mask_aliases)
                yield doc

    added, duplicates = store.add_all(documents())
    # A well-formed record is accepted even when it is already stored;
    # idempotence shows up as duplicates, not rejections.
    summary.duplicates += duplicates
    summary.accepted = added + summary.duplicates
    return summary
