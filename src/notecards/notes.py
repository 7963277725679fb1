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

from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Sequence

from .annotate import AnnotatedChunk
from .clock import format_instant, parse_instant
from .encoding import append_jsonl, content_hash, read_jsonl
from .ontology import Confidence, Intensity, NoteTemplate, OntologySpec
from .organize import DEFAULT_WINDOW, ChunkGroup

NOTE_SCHEMA_VERSION = 1

# Events-per-week upper bounds for rare / occasional / frequent.
INTENSITY_BOUNDS = (1.0, 2.0, 3.0)
HIGH_CONFIDENCE = (3, 0.8)  # (sources, agreement)
MEDIUM_CONFIDENCE = (2, 0.6)


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
    """The one way to make a note: its id is a hash over every other field."""
    note = Note(
        "", subject, action, tuple(sorted(attributes)), intensity, confidence, time_range,
        tuple(sorted(provenance)), place=place,
    )
    fields = note_to_dict(note)
    del fields["note_id"]
    fields["attributes"] = note.attributes  # hashed as sorted pairs, not as the stored mapping
    return replace(note, note_id="n-" + content_hash(fields))


def _chunk_matches(chunk: AnnotatedChunk, template: NoteTemplate) -> bool:
    entities = {a.canonical_id for a in chunk.annotations if a.kind == "entity"}
    relationships = {a.canonical_id for a in chunk.annotations if a.kind == "relationship"}
    return template.trigger_entity in entities and template.trigger_relationship in relationships


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
            for template in spec.note_templates:
                if _chunk_matches(chunk, template):
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


def note_to_dict(note: Note) -> dict:
    return {
        "note_id": note.note_id,
        "subject": note.subject,
        "action": list(note.action),
        "attributes": {k: v for k, v in note.attributes},
        "intensity": note.intensity.value,
        "confidence": note.confidence.value,
        "time_range": [
            format_instant(note.time_range[0]) if note.time_range[0] else None,
            format_instant(note.time_range[1]) if note.time_range[1] else None,
        ],
        "provenance": list(note.provenance),
        "schema_version": note.schema_version,
        "place": note.place,
    }


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
    """Append-only note table keyed by note_id; filters scan it in memory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._path = self.root / "notes.jsonl"
        self._notes: dict[str, Note] = {}
        for raw in read_jsonl(self._path):
            note = note_from_dict(raw)
            self._notes[note.note_id] = note

    def __len__(self) -> int:
        return len(self._notes)

    def __contains__(self, note_id: str) -> bool:
        return note_id in self._notes

    def get(self, note_id: str) -> Note | None:
        return self._notes.get(note_id)

    def add_all(self, notes: Iterable[Note]) -> int:
        new = [n for n in notes if n.note_id not in self._notes]
        if not new:
            return 0
        append_jsonl(self._path, map(note_to_dict, new))
        for note in new:
            self._notes[note.note_id] = note
        return len(new)

    def list(
        self, subject: str | None = None, action: tuple[str, str] | None = None
    ) -> list[Note]:
        out = []
        for note in self._notes.values():
            if subject is not None and note.subject != subject:
                continue
            if action is not None and note.action != action:
                continue
            out.append(note)
        return out
