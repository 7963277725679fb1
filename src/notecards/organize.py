"""Grouping, deduplication, and watermark-gated release of chunks.

Windows are fixed length and aligned to the Unix epoch in UTC, so reruns
are reproducible; a chunk exactly on a boundary belongs to the later
window (half-open intervals). Undated chunks form one catch-all group per
subject which is releasable at any close. Places compare by normalized
string equality only.

A group releases once ``window.end + watermark <= now``. Chunks that show
up for an already-released key form a supplemental group flagged ``late``;
downstream refinement reconciles those against the released notes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .annotate import AnnotatedChunk, Annotation
from .clock import format_instant, parse_instant
from .encoding import StoreFormatError, append_jsonl, canonical_json, read_jsonl

WILDCARD_PLACE = "*"

DEFAULT_WINDOW = timedelta(days=7)
DEFAULT_EPSILON = timedelta(hours=24)
DEFAULT_WATERMARK = timedelta(days=2)


def normalize_place(place: str | None) -> str:
    if place is None:
        return WILDCARD_PLACE
    normalized = " ".join(place.split()).casefold()
    return normalized or WILDCARD_PLACE


def window_index(instant: datetime, window_length: timedelta) -> int:
    seconds = instant.timestamp()
    length = window_length.total_seconds()
    return int(seconds // length)


def window_bounds(index: int, window_length: timedelta) -> tuple[datetime, datetime]:
    length = window_length.total_seconds()
    start = datetime.fromtimestamp(index * length, tz=timezone.utc)
    return start, datetime.fromtimestamp((index + 1) * length, tz=timezone.utc)


@dataclass(frozen=True)
class ChunkGroup:
    subject: str
    window: tuple[datetime, datetime] | None  # None for the undated catch-all
    place_key: str
    chunks: tuple[AnnotatedChunk, ...]
    late: bool = False

    @cached_property
    def key(self) -> str:
        start = format_instant(self.window[0]) if self.window else None
        return canonical_json([self.subject, start, self.place_key])


def _chunk_sort_key(chunk: AnnotatedChunk):
    stamp = format_instant(chunk.time) if chunk.time else ""
    return (stamp, chunk.doc_id, chunk.sentence_index)


def assign_windows(
    chunks: Iterable[AnnotatedChunk], window_length: timedelta
) -> list[ChunkGroup]:
    """Partition chunks into epoch-aligned (subject, window, place) groups."""
    if window_length <= timedelta(0):
        raise ValueError("window_length must be positive")
    buckets: dict[tuple[str, int | None, str], list[AnnotatedChunk]] = {}
    for chunk in chunks:
        index = window_index(chunk.time, window_length) if chunk.time else None
        key = (chunk.subject, index, normalize_place(chunk.place))
        buckets.setdefault(key, []).append(chunk)
    groups = []
    for (subject, index, place_key) in sorted(
        buckets, key=lambda k: (k[0], k[1] is None, k[1] or 0, k[2])
    ):
        members = sorted(buckets[(subject, index, place_key)], key=_chunk_sort_key)
        window = window_bounds(index, window_length) if index is not None else None
        groups.append(
            ChunkGroup(subject=subject, window=window, place_key=place_key, chunks=tuple(members))
        )
    return groups


def dedupe_group(group: ChunkGroup, epsilon: timedelta) -> ChunkGroup:
    """Collapse repeated reports of one event.

    Two chunks are duplicates iff they share the subject, an identical
    multiset of (canonical_id, kind) annotations, and times within
    epsilon (undated chunks in the catch-all group count as simultaneous).
    The earliest chunk (by time, then doc_id) survives and absorbs the
    duplicates' provenance. Input order never changes the surviving set.
    """
    survivors: list[AnnotatedChunk] = []
    for chunk in sorted(group.chunks, key=_chunk_sort_key):
        absorbed = False
        for i, survivor in enumerate(survivors):
            if survivor.annotation_signature() != chunk.annotation_signature():
                continue
            if survivor.time is None or chunk.time is None:
                close_enough = survivor.time is None and chunk.time is None
            else:
                close_enough = abs(chunk.time - survivor.time) <= epsilon
            if close_enough:
                survivors[i] = replace(
                    survivor, provenance=survivor.provenance + chunk.provenance
                )
                absorbed = True
                break
        if not absorbed:
            survivors.append(chunk)
    return replace(group, chunks=tuple(survivors))


def ready_for_release(
    group: ChunkGroup, now: datetime, watermark: timedelta
) -> bool:
    if group.window is None:
        return True  # the catch-all has no end to wait on
    return group.window[1] + watermark <= now


# ---------------------------------------------------------------------------
# Organizer store
# ---------------------------------------------------------------------------


def _annotation_to_dict(a: Annotation) -> dict:
    return {
        "start": a.start,
        "end": a.end,
        "surface": a.surface,
        "canonical_id": a.canonical_id,
        "kind": a.kind,
        "token_start": a.token_start,
        "token_end": a.token_end,
    }


def chunk_to_dict(chunk: AnnotatedChunk) -> dict:
    return {
        "chunk_id": chunk.chunk_id,
        "doc_id": chunk.doc_id,
        "sentence_index": chunk.sentence_index,
        "annotations": [_annotation_to_dict(a) for a in chunk.annotations],
        "subject": chunk.subject,
        "time": format_instant(chunk.time) if chunk.time else None,
        "place": chunk.place,
        "quantities": [[i, v] for i, v in chunk.quantities],
        "provenance": list(chunk.provenance),
        "schema_version": 1,
    }


def chunk_from_dict(raw: dict) -> AnnotatedChunk:
    return AnnotatedChunk(
        chunk_id=raw["chunk_id"],
        doc_id=raw["doc_id"],
        sentence_index=raw["sentence_index"],
        annotations=tuple(Annotation(**a) for a in raw["annotations"]),
        subject=raw["subject"],
        time=parse_instant(raw["time"]) if raw.get("time") else None,
        place=raw.get("place"),
        quantities=tuple((int(i), float(v)) for i, v in raw.get("quantities", ())),
        provenance=tuple(raw.get("provenance", ())),
    )


class OrganizerStore:
    """Single-writer chunk store with released-group bookkeeping.

    ``released.jsonl`` holds one line per run that released anything,
    mapping each released key to the chunk ids it released; replaying it
    gives every key's released chunk ids.
    """

    def __init__(
        self,
        root: Path,
        window_length: timedelta = DEFAULT_WINDOW,
        epsilon: timedelta = DEFAULT_EPSILON,
        watermark: timedelta = DEFAULT_WATERMARK,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.window_length = window_length
        self.epsilon = epsilon
        self.watermark = watermark
        legacy = self.root / "released.json"
        if legacy.exists():
            raise StoreFormatError(
                f"{legacy}: this store predates released.jsonl and cannot be opened; "
                "rebuild it in a new store"
            )
        self._chunks_path = self.root / "chunks.jsonl"
        self._released_path = self.root / "released.jsonl"
        self._chunks: dict[str, AnnotatedChunk] = {}
        # Documents with at least one stored chunk; a rerun need not annotate them.
        self.doc_ids: set[str] = set()
        for raw in read_jsonl(self._chunks_path):
            chunk = chunk_from_dict(raw)
            self._chunks[chunk.chunk_id] = chunk
            self.doc_ids.add(chunk.doc_id)
        self._released: dict[str, list[str]] = {}
        for record in read_jsonl(self._released_path):
            for key, chunk_ids in record.items():
                seen = self._released.get(key)
                self._released[key] = sorted(seen + chunk_ids) if seen else chunk_ids

    def __len__(self) -> int:
        return len(self._chunks)

    def has_chunk(self, chunk_id: str) -> bool:
        return chunk_id in self._chunks

    def get_chunk(self, chunk_id: str) -> AnnotatedChunk | None:
        return self._chunks.get(chunk_id)

    def add_chunks(self, chunks: Sequence[AnnotatedChunk]) -> int:
        """Append chunks not seen before; returns how many were new."""
        new = [c for c in chunks if c.chunk_id not in self._chunks]
        if not new:
            return 0
        append_jsonl(self._chunks_path, map(chunk_to_dict, new))
        for chunk in new:
            self._chunks[chunk.chunk_id] = chunk
            self.doc_ids.add(chunk.doc_id)
        return len(new)

    def close_window(self, now: datetime) -> list[ChunkGroup]:
        """Release every group whose watermark has passed.

        Released groups are immutable: a key is released at most once for
        a given chunk set, and chunks that arrive for an already-released
        key come back as a supplemental group flagged ``late``. Only the
        state in memory changes; :meth:`log_released` makes it durable.
        """
        released_now: list[ChunkGroup] = []
        for group in assign_windows(self._chunks.values(), self.window_length):
            group = dedupe_group(group, self.epsilon)
            seen = set(self._released.get(group.key, ()))
            if seen:
                fresh = tuple(c for c in group.chunks if c.chunk_id not in seen)
                if not fresh:
                    continue
                late_group = replace(group, chunks=fresh, late=True)
                self._released[group.key] = sorted(
                    seen | {c.chunk_id for c in fresh}
                )
                released_now.append(late_group)
            elif ready_for_release(group, now, self.watermark):
                self._released[group.key] = sorted(c.chunk_id for c in group.chunks)
                released_now.append(group)
        return released_now

    def log_released(self, groups: Sequence[ChunkGroup]) -> None:
        """Append one line holding the chunk ids each of *groups* released."""
        record = {group.key: sorted(c.chunk_id for c in group.chunks) for group in groups}
        append_jsonl(self._released_path, [record])
