"""Grouping, deduplication, and watermark-gated release of chunks.

Windows are fixed length and aligned to the Unix epoch in UTC, so reruns
are reproducible; a chunk exactly on a boundary belongs to the later
window (half-open intervals). Undated chunks form one catch-all group per
subject which is releasable at any close. Places compare by normalized
string equality only.

A group releases once ``window.end + watermark <= now``. Chunks that show
up for an already-released key form a supplemental group flagged ``late``;
downstream refinement reconciles those against the released notes.

The store keeps in memory only the chunks no released line names: this
run's new chunks, chunks still waiting on their watermark, and duplicates
absorbed into a released chunk. :meth:`OrganizerStore.close_window`
regroups only the keys those chunks fall in, each with the chunks already
released under it read back by offset. A key whose chunks were all
released has nothing fresh to release, so this releases exactly what
regrouping every stored chunk would.

A chunk's log line holds only what neither its id nor annotation says.
The id is ``f"{doc_id}#{sentence_index}"``, and a stored chunk's
provenance is always itself (dedupe merges provenance in memory only).
Annotation is deterministic, so a chunk is what annotating its document
with the store's ontology gives for its sentence: the line keeps of its
annotations only their signature, the sorted (canonical_id, kind) pairs
that dedupe compares, and leaves out the document, the sentence, the
provenance and a schema version. Reading it rebuilds the id's parts and
gives a chunk whose ``annotations`` is None; a reader that needs them
annotates the document again (:class:`notecards.pipeline.Stores`).
Lines of earlier shapes, which held the annotations whole (and maybe the
id's parts too), read with their annotations, and their signature comes
from them; keys a line holds beyond those are not read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Container, Iterable, Sequence

from .annotate import AnnotatedChunk, Annotation
from .clock import format_instant, parse_instant
from .durations import DEFAULT_WINDOW
from .encoding import Log, append_jsonl, canonical_json, read_jsonl_at, record_id
from .encoding import scan_ids

WILDCARD_PLACE = "*"

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
    # The stored text, not the datetime: "...:05.5Z" sorts before "...:05Z".
    return (chunk.stamp, chunk.doc_id, chunk.sentence_index)


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


def dedupe_group(
    group: ChunkGroup, epsilon: timedelta, released: Container[str] = frozenset()
) -> ChunkGroup:
    """Collapse repeated reports of one event.

    Two chunks are duplicates iff they share the subject, an identical
    multiset of (canonical_id, kind) annotations, and times within
    epsilon (undated chunks in the catch-all group count as simultaneous).
    The earliest chunk (by time, then doc_id) survives and absorbs the
    duplicates' provenance. Input order never changes the surviving set.
    Chunks whose ids are in *released* come first, so a chunk released
    before absorbs a late duplicate rather than being outlived by it.
    """
    survivors: list[AnnotatedChunk] = []
    # Signature -> positions in survivors; only chunks that share one can merge.
    by_signature: dict[tuple[tuple[str, str], ...], list[int]] = {}
    for chunk in sorted(group.chunks, key=lambda c: (c.chunk_id not in released, _chunk_sort_key(c))):
        positions = by_signature.setdefault(chunk.annotation_signature(), [])
        for i in positions:
            survivor = survivors[i]
            if survivor.time is None or chunk.time is None:
                close_enough = survivor.time is None and chunk.time is None
            else:
                close_enough = abs(chunk.time - survivor.time) <= epsilon
            if close_enough:
                survivors[i] = replace(
                    survivor, provenance=survivor.provenance + chunk.provenance
                )
                break
        else:
            positions.append(len(survivors))
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


def _stored_chunk(chunk: AnnotatedChunk) -> dict:
    """The log line of a chunk: what neither its id nor annotating its
    document again says, and the signature of its annotations."""
    return {
        "chunk_id": chunk.chunk_id,
        "place": chunk.place,
        "quantities": [[i, v] for i, v in chunk.quantities],
        "signature": [list(pair) for pair in chunk.annotation_signature()],
        "subject": chunk.subject,
        "time": chunk.stamp or None,
    }


def chunk_to_dict(chunk: AnnotatedChunk) -> dict:
    """A chunk as ``card show`` prints it: its line with the annotations whole
    in place of their signature, and what its id says."""
    line = _stored_chunk(chunk)
    del line["signature"]
    return {
        **line,
        "annotations": [_annotation_to_dict(a) for a in chunk.annotations],
        "doc_id": chunk.doc_id,
        "sentence_index": chunk.sentence_index,
        "provenance": list(chunk.provenance),
        "schema_version": 1,
    }


def stale_keys(stored: AnnotatedChunk, fresh: AnnotatedChunk) -> list[str]:
    """The keys of *stored*'s line whose value differs from *fresh*'s, the chunk
    annotating its document again gives; ``annotations`` too when the line holds them."""
    held, again = _stored_chunk(stored), _stored_chunk(fresh)
    if stored.annotations is not None:
        held["annotations"], again["annotations"] = stored.annotations, fresh.annotations
    return sorted(key for key in held if held[key] != again[key])


def _id_parts(chunk_id: str) -> tuple[str, int]:
    """The document and sentence a chunk id names; an id that does not name
    them as ``f"{doc_id}#{sentence_index}"`` raises ``ValueError``."""
    doc_id, _, sentence = chunk_id.rpartition("#")
    if not sentence.isdigit() or f"{doc_id}#{int(sentence)}" != chunk_id:
        raise ValueError(f"chunk id {chunk_id!r} does not name a document and sentence")
    return doc_id, int(sentence)


def _signature_from_list(raw: list) -> tuple[tuple[str, str], ...]:
    pairs = tuple((canonical_id, kind) for canonical_id, kind in raw)
    if not all(isinstance(part, str) for pair in pairs for part in pair):
        raise TypeError("a signature pair is not two strings")
    return pairs


def chunk_from_dict(raw: dict) -> AnnotatedChunk:
    """The chunk of a stored line, its document, sentence and provenance
    rebuilt from its id. A line that holds only the signature of its
    annotations gives ``annotations`` None; one of an earlier shape, which
    holds them whole, gives them."""
    chunk_id = record_id(raw, "chunk_id")
    doc_id, sentence_index = _id_parts(chunk_id)
    if "annotations" in raw:
        annotations, signature = tuple(Annotation(**a) for a in raw["annotations"]), None
    else:
        annotations, signature = None, _signature_from_list(raw["signature"])
    return AnnotatedChunk(
        chunk_id=chunk_id,
        doc_id=doc_id,
        sentence_index=sentence_index,
        annotations=annotations,
        subject=raw["subject"],
        time=parse_instant(raw["time"]) if raw.get("time") else None,
        place=raw.get("place"),
        quantities=tuple((int(i), float(v)) for i, v in raw.get("quantities", ())),
        provenance=(chunk_id,),
        signature=signature,
    )


def _check_storable(chunk: AnnotatedChunk) -> None:
    """Raise ``ValueError`` unless :func:`chunk_from_dict` rebuilds *chunk*,
    but for its annotations, from its :func:`_stored_chunk` line: its id names its document and
    sentence, and its provenance is itself (a merged one lives in memory only)."""
    if _id_parts(chunk.chunk_id) != (chunk.doc_id, chunk.sentence_index):
        raise ValueError(
            f"chunk id {chunk.chunk_id!r} does not name document {chunk.doc_id!r}, "
            f"sentence {chunk.sentence_index!r}"
        )
    if chunk.provenance != (chunk.chunk_id,):
        raise ValueError(
            f"chunk {chunk.chunk_id} has provenance {list(chunk.provenance)}, not its own id"
        )


# At each line break, the id of the chunk line that follows, if one does: the
# first "chunk_id" key in it, which starts it or follows the annotations
# that earlier lines held, none of which holds one.
_CHUNK_ID = re.compile(r'\n(?:\{(?:"annotations":[^\n]*?)?"chunk_id":"([^"]*)"|)')


def _released_from_dict(raw: dict) -> dict[str, list[str]]:
    if not (
        isinstance(raw, dict)
        and {list}.issuperset(map(type, raw.values()))
        and {str}.issuperset(map(type, chain.from_iterable(raw.values())))
    ):
        raise TypeError("not a map from group keys to released chunk ids")
    return raw


class OrganizerStore:
    """Single-writer chunk store with released-group bookkeeping.

    ``released.jsonl`` holds one line per close that released anything,
    mapping each released key to the chunk ids it released; replaying it
    gives every key's released chunk ids. Chunks are indexed by offset,
    and only the unreleased ones are kept decoded (see the module docstring).
    """

    def __init__(
        self,
        root: Path,
        window_length: timedelta = DEFAULT_WINDOW,
        epsilon: timedelta = DEFAULT_EPSILON,
        watermark: timedelta = DEFAULT_WATERMARK,
        chunks_log: Log | None = None,
        released_log: Log | None = None,
    ):
        self.root = Path(root)
        self.window_length = window_length
        self.epsilon = epsilon
        self.watermark = watermark
        self._chunks_path = self.root / "chunks.jsonl"
        self._released_path = self.root / "released.jsonl"
        self._released: dict[str, list[str]] = {}
        released = (released_log or Log(self._released_path)).records(_released_from_dict)
        for record in released:
            for key, chunk_ids in record.items():
                seen = self._released.get(key)
                self._released[key] = sorted(seen + chunk_ids) if seen else chunk_ids
        chunks_log = chunks_log or Log(self._chunks_path)
        scan = partial(scan_ids, _CHUNK_ID)
        ids, offsets = chunks_log.index(scan, partial(record_id, name="chunk_id"))
        self._lines = dict(zip(ids, offsets))  # chunk_id -> the offset of its line
        unreleased = set(ids).difference(*self._released.values())
        unreleased = [(c, offset) for c, offset in self._lines.items()
                      if c in unreleased] if unreleased else []
        self._unreleased: dict[str, AnnotatedChunk] = {  # in log order
            chunk.chunk_id: chunk
            for chunk in read_jsonl_at(self._chunks_path, unreleased, "chunk_id", chunk_from_dict)
        }

    def __len__(self) -> int:
        return len(self._lines)

    def has_chunk(self, chunk_id: str) -> bool:
        return chunk_id in self._lines

    def _read(self, chunk_ids) -> list[AnnotatedChunk]:
        lines = [(chunk_id, self._lines[chunk_id]) for chunk_id in chunk_ids]
        return list(read_jsonl_at(self._chunks_path, lines, "chunk_id", chunk_from_dict))

    def get_chunk(self, chunk_id: str) -> AnnotatedChunk | None:
        chunk = self._unreleased.get(chunk_id)
        if chunk is None and chunk_id in self._lines:
            [chunk] = self._read([chunk_id])
        return chunk

    def chunks(self) -> list[AnnotatedChunk]:
        """Every stored chunk, in log order: the unreleased ones as held, the
        rest each decoded from its line."""
        read = iter(self._read(c for c in self._lines if c not in self._unreleased))
        return [self._unreleased.get(chunk_id) or next(read) for chunk_id in self._lines]

    def unreleased(self) -> int:
        """How many stored chunks no released line names."""
        return len(self._unreleased)

    def add_chunks(self, chunks: Sequence[AnnotatedChunk]) -> int:
        """Append chunks not seen before; returns how many were new. A chunk
        its line cannot rebuild raises ``ValueError`` before anything is appended."""
        new = [c for c in chunks if c.chunk_id not in self._lines]
        if not new:
            return 0
        for chunk in new:
            _check_storable(chunk)
        offsets = append_jsonl(self._chunks_path, map(_stored_chunk, new))
        self._lines.update(zip((chunk.chunk_id for chunk in new), offsets))
        self._unreleased.update((chunk.chunk_id, chunk) for chunk in new)
        return len(new)

    def close_window(self, now: datetime) -> list[ChunkGroup]:
        """Release every group whose watermark has passed.

        Released groups are immutable: a key is released at most once for
        a given chunk set, and chunks that arrive for an already-released
        key come back as a supplemental group flagged ``late``. Only keys
        that hold an unreleased chunk are regrouped, each with all of its
        chunks. A close that releases anything appends one line holding
        the chunk ids each released group released.
        """
        groups = assign_windows(self._unreleased.values(), self.window_length)
        released_ids = [
            chunk_id
            for group in groups
            for chunk_id in self._released.get(group.key, ())
            if chunk_id in self._lines
        ]
        if released_ids:
            # Each touched key with the chunks released under it, in log order as stored.
            chunks = [*self._unreleased.values(), *self._read(released_ids)]
            chunks.sort(key=lambda chunk: self._lines[chunk.chunk_id])
            groups = assign_windows(chunks, self.window_length)
        released_now: list[ChunkGroup] = []
        for group in groups:
            seen = set(self._released.get(group.key, ()))
            group = dedupe_group(group, self.epsilon, seen)
            if seen:
                fresh = tuple(c for c in group.chunks if c.chunk_id not in seen)
                if not fresh:
                    continue
                group = replace(group, chunks=fresh, late=True)
                self._released[group.key] = sorted(seen | {c.chunk_id for c in fresh})
            elif ready_for_release(group, now, self.watermark):
                self._released[group.key] = sorted(c.chunk_id for c in group.chunks)
            else:
                continue
            released_now.append(group)
            for chunk in group.chunks:
                del self._unreleased[chunk.chunk_id]
        if released_now:
            record = {g.key: sorted(c.chunk_id for c in g.chunks) for g in released_now}
            append_jsonl(self._released_path, [record])
        return released_now
