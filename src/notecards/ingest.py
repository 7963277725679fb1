"""Corpus ingestion: normalize text, attach metadata, persist append-only.

Supported corpus formats are plain text (one document per file) and JSON
Lines (one document per record:
``{"text": ..., "source_uri": ..., "timestamp"?, "place"?, "subjects"?}``).
Document ids are name-based UUIDs over (text, source_uri, timestamp), so
re-ingesting identical records is a no-op and needs no central counter.

The text store is one append-only log, ``documents.jsonl``: one line per
document in ingestion order, so a byte offset is a position in that
order. The maker's save commits the log with every other log of the
store, and records how far annotation has got as one such offset.
One writer per store root; any number of readers, each up to the last commit.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import unicodedata
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator

from .clock import Clock, format_instant, parse_instant
from .encoding import append_jsonl, canonical_json, name_uuid, read_jsonl_at, read_jsonl_offsets

MIN_MASK_KEY_BYTES = 16
_MASK_TOKEN_HEX = 32  # fixed token length; 128 bits of keyed hash


class IngestError(Exception):
    """Unreadable source, bad key, or unknown document id."""


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


def _document_from_dict(raw: dict) -> Document:
    return Document(
        doc_id=raw["doc_id"],
        text=raw["text"],
        meta=_meta_from_dict(raw["meta"]),
        ingested_at=parse_instant(raw["ingested_at"]),
        masked=raw.get("masked", False),
    )


class TextStore:
    """Append-only document log, indexed by doc_id at open up to byte *end*."""

    def __init__(self, root: Path, end: int | None = None):
        self.root = Path(root)
        self._path = self.root / "documents.jsonl"
        # doc_id -> the offset of its line; insertion order is ingestion order.
        self._offsets: dict[str, int] = {
            record["doc_id"]: offset for offset, record in read_jsonl_offsets(self._path, end)
        }

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def end(self) -> int:
        """The log's length in bytes: the offset the next document gets."""
        return self._path.stat().st_size if self._path.exists() else 0

    def add_all(self, documents: Iterable[Document]) -> tuple[int, int]:
        """Append the documents not stored yet; returns (added, duplicates)."""
        new: dict[str, Document] = {}
        duplicates = 0
        for doc in documents:
            if doc.doc_id in self._offsets or doc.doc_id in new:
                duplicates += 1
            else:
                new[doc.doc_id] = doc
        if new:
            offsets = append_jsonl(self._path, map(_document_to_dict, new.values()))
            self._offsets.update(zip(new, offsets))
        return len(new), duplicates

    def get(self, doc_id: str) -> Document:
        offset = self._offsets.get(doc_id)
        if offset is None:
            raise IngestError(f"unknown doc_id {doc_id!r}")
        [record] = read_jsonl_at(self._path, [offset])
        return _document_from_dict(record)

    def list(self, start: int = 0) -> list[Document]:
        """The documents from byte offset *start* of the log on, in ingestion order."""
        offsets = [offset for offset in self._offsets.values() if offset >= start]
        if not offsets:
            return []
        return [_document_from_dict(record) for record in read_jsonl_at(self._path, offsets)]


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
    timestamp = None
    if raw.get("timestamp") is not None:
        timestamp = parse_instant(raw["timestamp"])
    subjects = raw.get("subjects") or []
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


def read_corpus(path: Path, clock: Clock, summary: IngestSummary) -> Iterator[Document]:
    """Yield documents from one corpus file, counting rejects as we go."""
    if not path.exists():
        raise IngestError(f"corpus not readable: {path}")
    if path.suffix == ".jsonl":
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                    if not isinstance(raw, dict):
                        raise ValueError("record is not an object")
                    yield _parse_record(raw, clock)
                except (ValueError, KeyError):
                    summary.rejected += 1
        return
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        summary.rejected += 1
        return
    meta = SourceMeta(source_uri=path.as_posix(), format_tag="plain")
    yield make_document(text, meta, ingested_at=clock.now())


def ingest_corpus(
    sources: Iterable[Path],
    store: TextStore,
    clock: Clock,
    mask_key: bytes | None = None,
    mask_aliases: dict[str, tuple[str, ...]] | None = None,
) -> IngestSummary:
    """Ingest corpus files into the store; malformed records never abort."""
    summary = IngestSummary()
    paths = [Path(source) for source in sources]
    # Check readability up front so a bad path never leaves a partial run.
    for path in paths:
        if not path.exists():
            raise IngestError(f"corpus not readable: {path}")

    def documents() -> Iterator[Document]:
        for source in paths:
            for doc in read_corpus(source, clock, summary):
                if mask_key is not None:
                    doc = mask_subjects(doc, mask_key, mask_aliases)
                yield doc

    added, duplicates = store.add_all(documents())
    # A well-formed record is accepted even when it is already stored;
    # idempotence shows up as duplicates, not rejections.
    summary.accepted = added + duplicates
    summary.duplicates = duplicates
    return summary
