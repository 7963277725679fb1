"""Synthesis of behavioral notes from released chunk groups.

A trained predictor is replaced by note templates plus fixed bucketing
behind this module's surface. An event is one surviving chunk containing
both trigger classes of a template; events are folded per (subject,
trigger, horizon), where the horizon is a fixed span of consecutive
windows aligned to the epoch (default 4, about a month at the 7d window).

Intensity comes from events per week e over the horizon
(e < 1 rare, < 2 occasional, < 3 frequent, else very_frequent);
confidence from distinct source documents s and the agreement ratio a
(s >= 3 and a >= 0.8 high; s >= 2 and a >= 0.6 medium; else low).

Quantities are extracted from text by adjacency only: a numeric token
immediately before a trigger-class mention is that event's value, and
several values inside one event collapse by maximum. That is a declared
extraction limitation, not a tunable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .clock import format_instant, parse_instant
from .durations import DEFAULT_WINDOW
from .encoding import Log, append_jsonl, content_hash, read_jsonl_at, record_id
from .encoding import scan_ids

if TYPE_CHECKING:  # synthesis reads these; the note store and its codec do not
    from .annotate import AnnotatedChunk
    from .ontology import NoteTemplate, OntologySpec
    from .organize import ChunkGroup

NOTE_SCHEMA_VERSION = 1

# Events-per-week upper bounds for rare / occasional / frequent.
INTENSITY_BOUNDS = (1.0, 2.0, 3.0)
HIGH_CONFIDENCE = (3, 0.8)  # (sources, agreement)
MEDIUM_CONFIDENCE = (2, 0.6)


class Intensity(str, Enum):
    RARE = "rare"
    OCCASIONAL = "occasional"
    FREQUENT = "frequent"
    VERY_FREQUENT = "very_frequent"

    @property
    def rank(self) -> int:
        return _INTENSITY_RANK[self]


_INTENSITY_RANK = {
    Intensity.RARE: 0,
    Intensity.OCCASIONAL: 1,
    Intensity.FREQUENT: 2,
    Intensity.VERY_FREQUENT: 3,
}


class Confidence(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def rank(self) -> int:
        return _CONFIDENCE_RANK[self]


_CONFIDENCE_RANK = {Confidence.LOW: 0, Confidence.MEDIUM: 1, Confidence.HIGH: 2}


@dataclass(frozen=True)
class SynthesisConfig:
    window_length: timedelta = DEFAULT_WINDOW
    horizon_windows: int = 4

    @property
    def horizon(self) -> timedelta:
        return self.window_length * self.horizon_windows

    @property
    def horizon_weeks(self) -> float:
        return self.horizon / timedelta(days=7)


@dataclass(frozen=True)
class Note:
    note_id: str
    subject: str
    action: tuple[str, str]  # (entity class, relationship class)
    attributes: tuple[tuple[str, float | str], ...]
    intensity: Intensity
    confidence: Confidence
    time_range: tuple[datetime | None, datetime | None]
    provenance: tuple[str, ...]  # chunk ids
    schema_version: int = NOTE_SCHEMA_VERSION
    place: str | None = None

    def attribute_map(self) -> dict[str, float | str]:
        return dict(self.attributes)


def intensity_for_rate(rate: float) -> Intensity:
    """Every non-negative rate maps to exactly one bucket."""
    low, mid, high = INTENSITY_BOUNDS
    if rate < low:
        return Intensity.RARE
    if rate < mid:
        return Intensity.OCCASIONAL
    if rate < high:
        return Intensity.FREQUENT
    return Intensity.VERY_FREQUENT


def confidence_for(sources: int, agreement: float) -> Confidence:
    if sources >= HIGH_CONFIDENCE[0] and agreement >= HIGH_CONFIDENCE[1]:
        return Confidence.HIGH
    if sources >= MEDIUM_CONFIDENCE[0] and agreement >= MEDIUM_CONFIDENCE[1]:
        return Confidence.MEDIUM
    return Confidence.LOW


def new_note(
    subject: str,
    action: tuple[str, str],
    attributes: Iterable[tuple[str, float | str]],
    intensity: Intensity,
    confidence: Confidence,
    time_range: tuple[datetime | None, datetime | None],
    provenance: Iterable[str],
    place: str | None,
) -> Note:
    """The one way to make a note: its id is a hash over every other field,
    as :func:`note_to_dict` stores them, but attributes as sorted pairs."""
    attributes = tuple(sorted(attributes))
    provenance = tuple(sorted(provenance))
    fields = {
        "subject": subject,
        "action": action,
        "attributes": attributes,
        "intensity": intensity.value,
        "confidence": confidence.value,
        "time_range": _stamps(time_range),
        "provenance": provenance,
        "schema_version": NOTE_SCHEMA_VERSION,
        "place": place,
    }
    return Note(
        "n-" + content_hash(fields), subject, action, attributes, intensity, confidence,
        time_range, provenance, place=place,
    )


def _event_value(chunk: AnnotatedChunk, template: NoteTemplate) -> float | None:
    """Numeric token immediately preceding a trigger-class mention, max-collapsed."""
    trigger_ids = {template.trigger_entity, template.trigger_relationship}
    quantities = dict(chunk.quantities)
    values = [
        quantities[a.token_start - 1]
        for a in chunk.annotations
        if a.canonical_id in trigger_ids and (a.token_start - 1) in quantities
    ]
    return max(values) if values else None


def _horizon_bucket(chunk: AnnotatedChunk, config: SynthesisConfig) -> int | None:
    if chunk.time is None:
        return None
    return int(chunk.time.timestamp() // config.horizon.total_seconds())


def synthesize_notes(
    groups: Sequence[ChunkGroup],
    spec: OntologySpec,
    config: SynthesisConfig | None = None,
) -> list[Note]:
    """One note per (subject, trigger, horizon) with enough events."""
    config = config or SynthesisConfig()
    events: dict[tuple[str, str, int | None], dict[str, AnnotatedChunk]] = {}
    for group in groups:
        for chunk in group.chunks:
            bucket = _horizon_bucket(chunk, config)
            entities = {a.canonical_id for a in chunk.annotations if a.kind == "entity"}
            relationships = {a.canonical_id for a in chunk.annotations if a.kind == "relationship"}
            for template in spec.note_templates:
                if (
                    template.trigger_entity in entities
                    and template.trigger_relationship in relationships
                ):
                    key = (chunk.subject, template.template_id, bucket)
                    events.setdefault(key, {})[chunk.chunk_id] = chunk

    templates = {t.template_id: t for t in spec.note_templates}
    notes = []
    for (subject, template_id, bucket) in sorted(
        events, key=lambda k: (k[0], k[1], k[2] is None, k[2] or 0)
    ):
        template = templates[template_id]
        chunks = [events[(subject, template_id, bucket)][cid] for cid in sorted(events[(subject, template_id, bucket)])]
        if len(chunks) < template.min_events:
            continue
        notes.append(_build_note(subject, template, chunks, config))
    return notes


def _build_note(
    subject: str,
    template: NoteTemplate,
    chunks: list[AnnotatedChunk],
    config: SynthesisConfig,
) -> Note:
    count = len(chunks)
    rate = count / config.horizon_weeks
    intensity = intensity_for_rate(rate)

    per_event = [(_event_value(chunk, template), chunk) for chunk in chunks]
    extracted = [v for v, _ in per_event if v is not None]

    attributes: list[tuple[str, float | str]] = []
    for attr, aggregator in template.attribute_aggregations:
        if aggregator == "count":
            attributes.append((attr, float(count)))
        elif extracted:
            if aggregator == "sum":
                attributes.append((attr, float(sum(extracted))))
            elif aggregator == "max":
                attributes.append((attr, float(max(extracted))))
            else:  # mean
                attributes.append((attr, sum(extracted) / len(extracted)))

    sources = len({chunk.doc_id for chunk in chunks})
    if extracted:
        counts = {v: extracted.count(v) for v in set(extracted)}
        best = max(counts.values())
        modal = min(v for v, c in counts.items() if c == best)  # smallest mode on ties
        consistent = sum(1 for v, _ in per_event if v is None or v == modal)
        agreement = consistent / count
    else:
        agreement = 1.0
    confidence = confidence_for(sources, agreement)

    times = [chunk.time for chunk in chunks if chunk.time is not None]
    time_range: tuple[datetime | None, datetime | None]
    time_range = (min(times), max(times)) if times else (None, None)

    places = {chunk.place for chunk in chunks}
    place = places.pop() if len(places) == 1 else None

    return new_note(
        subject,
        template.trigger,
        attributes,
        intensity,
        confidence,
        time_range,
        (chunk.chunk_id for chunk in chunks),
        place,
    )


# ---------------------------------------------------------------------------
# Note store
# ---------------------------------------------------------------------------


def _stamps(time_range: tuple[datetime | None, datetime | None]) -> list[str | None]:
    start, end = time_range
    return [format_instant(start) if start else None, format_instant(end) if end else None]


def note_to_dict(note: Note) -> dict:
    return {
        "note_id": note.note_id,
        "subject": note.subject,
        "action": list(note.action),
        "attributes": {k: v for k, v in note.attributes},
        "intensity": note.intensity.value,
        "confidence": note.confidence.value,
        "time_range": _stamps(note.time_range),
        "provenance": list(note.provenance),
        "schema_version": note.schema_version,
        "place": note.place,
    }


# At each line break, the id of the note line that follows, if one does: the
# last "note_id" key in it, the top-level one, since no key sorted after
# note_id holds an object.
_NOTE_ID = re.compile(r'\n(?:[^\n]*"note_id":"([^"]*)"|)')


def note_from_dict(raw: dict) -> Note:
    start, end = raw.get("time_range", (None, None))
    return Note(
        note_id=raw["note_id"],
        subject=raw["subject"],
        action=(raw["action"][0], raw["action"][1]),
        attributes=tuple(sorted(raw.get("attributes", {}).items())),
        intensity=Intensity(raw["intensity"]),
        confidence=Confidence(raw["confidence"]),
        time_range=(
            parse_instant(start) if start else None,
            parse_instant(end) if end else None,
        ),
        provenance=tuple(raw.get("provenance", ())),
        schema_version=raw.get("schema_version", NOTE_SCHEMA_VERSION),
        place=raw.get("place"),
    )


class NoteStore:
    """Append-only note table as committed (*log*; the whole file without
    one), indexed by note_id at open; notes are decoded from their lines on
    demand, and filters scan them.

    Opened *append_only*, as ``run`` opens it, it reads no note: the open
    checks the log and indexes nothing, and get, membership and list raise.
    ``run`` appends notes and reads none, and indexing the note log would
    take about a quarter of its open on a 4 000-document store.
    """

    def __init__(self, root: Path, log: Log | None = None, append_only: bool = False):
        self.root = Path(root)
        self._path = self.root / "notes.jsonl"
        self._log = log or Log(self._path)
        self._lines: dict[str, int] | None = None  # note_id -> the offset of its line
        self._appended: set[str] = set()  # the note ids appended here, when append only
        if append_only:
            self._log.check()
        else:
            scan = partial(scan_ids, _NOTE_ID)
            ids, offsets = self._log.index(scan, partial(record_id, name="note_id"))
            self._lines = dict(zip(ids, offsets))

    def _index(self) -> dict[str, int]:
        if self._lines is None:
            raise RuntimeError(f"{self._path}: opened to append only, so it reads no note")
        return self._lines

    def __len__(self) -> int:
        return self._log.lines + len(self._appended) if self._lines is None else len(self._lines)

    def __contains__(self, note_id: str) -> bool:
        return note_id in self._index()

    def get(self, note_id: str) -> Note | None:
        offset = self._index().get(note_id)
        if offset is None:
            return None
        [note] = read_jsonl_at(self._path, [(note_id, offset)], "note_id", note_from_dict)
        return note

    def add_all(self, notes: Iterable[Note]) -> int:
        """Append the notes not stored yet, each id once (an id hashes every
        other field, so notes of one id are equal); returns how many. Append
        only, it skips only the ids it appended before: a run's notes come
        only from chunks released for the first time, so none is committed."""
        held = self._appended if self._lines is None else self._lines
        new = {note.note_id: note for note in notes if note.note_id not in held}
        if not new:
            return 0
        offsets = append_jsonl(self._path, map(note_to_dict, new.values()))
        if self._lines is None:
            self._appended.update(new)
        else:
            self._lines.update(zip(new, offsets))
        return len(new)

    def list(
        self, subject: str | None = None, action: tuple[str, str] | None = None
    ) -> list[Note]:
        out = []
        lines = self._index().items()
        for note in read_jsonl_at(self._path, lines, "note_id", note_from_dict):
            if subject is not None and note.subject != subject:
                continue
            if action is not None and note.action != action:
                continue
            out.append(note)
        return out
