"""Criterion-scored cards: accumulation, commit, conflicts.

The maker accumulates refined-note evidence into one premature card per
(subject, concept) and hands a card over exactly when it first reaches
the concept threshold. The manager is the single serialization point: it
alone writes the official card ledger and resolves exclusion conflicts
(expire-older or flag-only). Every action lands as a reasoning event on
the affected cards' trails, so a committed card explains itself end to
end. A card is premature until it commits or expires, and a blocked one
stays held in its slot; a committed or expired card closes its slot, and
a closed slot takes no later evidence.

The ledger on disk is a JSON Lines log holding one card snapshot per
state change; each snapshot carries the card's whole reasoning trail.
The log is the durable record. The index (each card's latest snapshot
offset) and the maker state are whole files, rewritten once at the end
of each manager batch; replaying the log reconstructs the index
bit-exactly. The maker state commits the length and the sha256 of every
derived log, and every command reads a store up to it (:func:`read_commit`); the
index is written after it, so it never names bytes past the commit.
Drill-down and the audit walk a card's chain here too. No stage module
loads with this one, so ``cards list``, ``export`` and ``routes`` run
without the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .clock import format_instant, parse_instant
from .encoding import Log, StoreFormatError, append_jsonl, build_record, canonical_json
from .encoding import commit_logs, committed_size, read_json, write_json

if TYPE_CHECKING:
    from .ontology import ConceptDef, OntologySpec
    from .pipeline import Stores
    from .refine import RefinedNote

STATUS_PREMATURE = "premature"
STATUS_COMMITTED = "committed"
STATUS_EXPIRED = "expired"


class CardError(Exception):
    """Gate violations: below threshold, blocked commit, unknown card."""


@dataclass(frozen=True)
class ReasoningEvent:
    kind: str  # conflict-detected | expired | committed | flagged
    timestamp: datetime
    detail: tuple[tuple[str, str], ...] = ()

    def detail_map(self) -> dict[str, str]:
        return dict(self.detail)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "timestamp": format_instant(self.timestamp),
            "detail": dict(self.detail),
        }


def event_from_dict(raw: dict) -> ReasoningEvent:
    return ReasoningEvent(
        kind=raw["kind"],
        timestamp=parse_instant(raw["timestamp"]),
        detail=tuple(sorted(raw.get("detail", {}).items())),
    )


@dataclass(frozen=True)
class Card:
    card_id: str
    concept_id: str
    subject: str
    dimensions: tuple[tuple[int, tuple[str, ...]], ...]  # criterion -> evidence ids
    threshold: int
    min_score_per_criterion: int
    criteria_count: int
    status: str = STATUS_PREMATURE
    validity: tuple[datetime | None, datetime | None] = (None, None)
    reasoning_trail: tuple[ReasoningEvent, ...] = ()
    generation: int = 1

    def dimension_map(self) -> dict[int, tuple[str, ...]]:
        return dict(self.dimensions)

    def score_vector(self) -> tuple[int, ...]:
        evidence = self.dimension_map()
        return tuple(
            len(set(evidence.get(index, ()))) for index in range(1, self.criteria_count + 1)
        )

    @property
    def criteria_met(self) -> int:
        return sum(
            1 for score in self.score_vector() if score >= self.min_score_per_criterion
        )

    def evidence_ids(self) -> tuple[str, ...]:
        """Every evidence id once, in first-seen order across criteria."""
        return tuple(dict.fromkeys(eid for _, ids in self.dimensions for eid in ids))


def card_to_dict(card: Card) -> dict:
    return {
        "card_id": card.card_id,
        "concept_id": card.concept_id,
        "subject": card.subject,
        "dimensions": {
            str(index): list(ids) for index, ids in card.dimensions
        },
        "threshold": card.threshold,
        "min_score_per_criterion": card.min_score_per_criterion,
        "criteria_count": card.criteria_count,
        "status": card.status,
        "validity": [
            format_instant(card.validity[0]) if card.validity[0] else None,
            format_instant(card.validity[1]) if card.validity[1] else None,
        ],
        "reasoning_trail": [e.as_dict() for e in card.reasoning_trail],
        "generation": card.generation,
    }


def card_from_dict(raw: dict) -> Card:
    start, end = raw.get("validity", (None, None))
    return Card(
        card_id=raw["card_id"],
        concept_id=raw["concept_id"],
        subject=raw["subject"],
        dimensions=tuple(
            sorted((int(k), tuple(v)) for k, v in raw.get("dimensions", {}).items())
        ),
        threshold=raw["threshold"],
        min_score_per_criterion=raw["min_score_per_criterion"],
        criteria_count=raw["criteria_count"],
        status=raw.get("status", STATUS_PREMATURE),
        validity=(
            parse_instant(start) if start else None,
            parse_instant(end) if end else None,
        ),
        reasoning_trail=tuple(event_from_dict(e) for e in raw.get("reasoning_trail", ())),
        generation=raw.get("generation", 1),
    )


# ---------------------------------------------------------------------------
# Note-to-criteria mapping
# ---------------------------------------------------------------------------


def map_note_to_criteria(
    refined: RefinedNote, spec: OntologySpec
) -> list[tuple[str, int]]:
    """Every (concept, criterion) whose patterns accept the note, in spec order.

    Only criteria with a pattern on the note's action, or on a wildcard
    part of it, are tested; a note may hit several concepts.
    """
    note = refined.note
    entity, relationship = note.action
    index = spec.criteria_by_action
    candidates = {}
    for action in ((entity, relationship), (entity, None), (None, relationship), (None, None)):
        for position, concept_id, criterion in index.get(action, ()):
            candidates[position] = (concept_id, criterion)
    attributes = note.attribute_map()
    hits = []
    for position in sorted(candidates):
        concept_id, criterion = candidates[position]
        if any(
            pattern.matches(note.action, note.intensity, attributes)
            for pattern in criterion.match_patterns
        ):
            hits.append((concept_id, criterion.index))
    return hits


def make_card_id(concept_id: str, subject: str, generation: int) -> str:
    return f"{concept_id}@{subject}#g{generation}"


def new_card(concept: ConceptDef, subject: str, generation: int = 1) -> Card:
    return Card(
        card_id=make_card_id(concept.concept_id, subject, generation),
        concept_id=concept.concept_id,
        subject=subject,
        dimensions=(),
        threshold=concept.threshold,
        min_score_per_criterion=concept.min_score_per_criterion,
        criteria_count=len(concept.criteria),
        generation=generation,
    )


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conflict:
    rule_id: str
    resolution: str
    card_a: str  # candidate
    card_b: str  # candidate or committed counterpart


def _validity_overlaps(
    a: tuple[datetime | None, datetime | None],
    b: tuple[datetime | None, datetime | None],
) -> bool:
    if a[0] is None or b[0] is None:
        return True  # open starts always overlap something
    (a_start, a_end), (b_start, b_end) = a, b
    return (a_end is None or b_start < a_end) and (b_end is None or a_start < b_end)


def detect_conflicts(
    candidates: Sequence[Card],
    committed: Sequence[Card],
    spec: OntologySpec,
) -> list[Conflict]:
    """Exclusion-rule matches on same subject with overlapping validity."""
    conflicts = []
    ordered = sorted(candidates, key=lambda c: c.card_id)
    for i, candidate in enumerate(ordered):
        others = list(ordered[i + 1 :]) + [
            card for card in committed if card.status == STATUS_COMMITTED
        ]
        for other in others:
            if other.card_id == candidate.card_id:
                continue
            if other.subject != candidate.subject:
                continue
            rule = next(
                (
                    r
                    for r in spec.exclusion_rules
                    if {r.concept_a, r.concept_b}
                    == {candidate.concept_id, other.concept_id}
                ),
                None,
            )
            if rule is None:
                continue
            if _validity_overlaps(candidate.validity, other.validity):
                conflicts.append(
                    Conflict(
                        rule_id=rule.rule_id,
                        resolution=rule.resolution,
                        card_a=candidate.card_id,
                        card_b=other.card_id,
                    )
                )
    return conflicts


def _already_flagged(candidate: Card, conflict: Conflict) -> bool:
    """The candidate's trail already flags this rule against this counterpart."""
    flagged = {"rule": conflict.rule_id, "counterpart": conflict.card_b}
    return any(
        event.kind == "flagged" and event.detail_map() == flagged
        for event in candidate.reasoning_trail
    )


def older_of(a: Card, b: Card) -> Card:
    """Earlier validity.start; ties break by card_id ordering."""
    a_key = (format_instant(a.validity[0]) if a.validity[0] else "", a.card_id)
    b_key = (format_instant(b.validity[0]) if b.validity[0] else "", b.card_id)
    return a if a_key <= b_key else b


# ---------------------------------------------------------------------------
# Maker
# ---------------------------------------------------------------------------


# Every log of a store, relative to its root, in the order a store opens
# them: the maker's save commits their lengths.
LOGS = ("documents/documents.jsonl", "chunks/chunks.jsonl", "chunks/released.jsonl",
        "notes/notes.jsonl", "refined/refined.jsonl", "cards/log.jsonl")


def read_commit(root: Path) -> tuple[dict[str, Any], dict[str, Log]]:
    """The maker state the last commit saved (``{}`` in a new store) and each
    log as it committed it: its length and the digest of its bytes, keyed by
    its name in :data:`LOGS`. A commit that does not hold raises, naming the file.

    Never writes. Committed prefixes never change, so a reader without the
    lock sees the last commit whole, and nothing a run appends after it.
    """
    root = Path(root)
    maker = root / "cards" / "maker.json"
    state = read_json(maker)
    if state is None:
        if any(committed_size(root / name, 0) for name in LOGS):
            raise StoreFormatError(f"{maker}: missing, so nothing commits the logs beside it")
        return {}, {name: Log(root / name, 0) for name in LOGS}
    lengths = state.get("logs") if isinstance(state, dict) else None
    if not isinstance(lengths, dict) or sorted(lengths) != sorted(LOGS):
        raise StoreFormatError(f"{maker}: the store predates this store format; build a new store")
    if not isinstance(state.get("manifest"), dict | None):
        raise StoreFormatError(f"{maker}: manifest is not a JSON object")
    for value in (*lengths.values(), state.get("annotated", 0)):
        if type(value) is not int or value < 0:  # a bool is an int, but not a length
            raise StoreFormatError(
                f"{maker}: committed length {value!r} is not a non-negative integer"
            )
    # A store committed before digests has none; its next writer's save adopts them.
    digests = state.get("digests", {})
    if not isinstance(digests, dict) or not set(digests) <= set(LOGS) or not all(
        isinstance(digest, str) for digest in digests.values()
    ):
        raise StoreFormatError(f"{maker}: digests is not a map from logs to sha256 digests")
    for name in LOGS:
        committed_size(root / name, lengths[name])
    if state.get("annotated", 0) > lengths["documents/documents.jsonl"]:
        raise StoreFormatError(f"{maker}: annotated is past the committed documents log")
    return state, {name: Log(root / name, lengths[name], digests.get(name)) for name in LOGS}


class CardMaker:
    """Holds premature cards per (subject, concept) until threshold.

    ``maker.json`` holds the held cards, the closed slots, ``annotated``
    (how much of the documents log annotation has covered), ``corpora``
    (what ingestion consumed of each corpus path, which only writers read;
    see :mod:`notecards.ingest`), ``manifest`` (the inputs a run pinned the
    store to, or null) and, under ``logs`` and ``digests``, the synced byte
    length at the save of each of :data:`LOGS` in the store *root* is in and
    the sha256 of those bytes, which commit them. Other keys are ignored.
    *state* is that file's value when the caller has read it already, and
    *logs* what :func:`read_commit` gave with it, as the caller's stores
    have read them: the save continues the digest each read checked.
    """

    def __init__(
        self, root: Path, state: dict | None = None, logs: dict[str, Log] | None = None
    ):
        self.root = Path(root)
        self._path = self.root / "maker.json"
        state = read_json(self._path, {}) if state is None else state
        # Without *logs*, a save commits every log whole, as if all of it were appended.
        self.logs = logs or {name: Log(self.root.parent / name, 0) for name in LOGS}
        self._cards: dict[str, Card] = build_record(
            self._path, "the value of cards",
            lambda cards: {k: card_from_dict(v) for k, v in cards.items()}, state.get("cards", {}),
        )
        self._closed: set[str] = set(state.get("closed", ()))
        self.annotated: int = state.get("annotated", 0)
        self.corpora: dict[str, dict] = state.get("corpora", {})
        self.manifest: dict | None = state.get("manifest")
        if not isinstance(self.corpora, dict):
            raise StoreFormatError(f"{self._path}: corpora is not a JSON object")

    @staticmethod
    def slot_key(subject: str, concept_id: str) -> str:
        return canonical_json([subject, concept_id])

    def save(self) -> None:
        state = {
            "annotated": self.annotated,
            "cards": {k: card_to_dict(v) for k, v in self._cards.items()},
            "closed": sorted(self._closed),
            "corpora": self.corpora,
            "manifest": self.manifest,
        }
        committed = dict(zip(LOGS, commit_logs(self.logs[name] for name in LOGS)))
        state["logs"] = {name: length for name, (length, _) in committed.items()}
        state["digests"] = {name: digest for name, (_, digest) in committed.items() if digest}
        write_json(self._path, state)

    def premature_cards(self) -> list[Card]:
        return [self._cards[k] for k in sorted(self._cards)]

    def open_candidates(self) -> list[Card]:
        """Held cards at or above threshold (blocked ones re-admit later)."""
        return [
            card
            for card in self.premature_cards()
            if card.criteria_met >= card.threshold
        ]

    def close_slot(self, card: Card) -> None:
        key = self.slot_key(card.subject, card.concept_id)
        self._cards.pop(key, None)
        self._closed.add(key)

    def reopen_slot(self, card: Card) -> None:
        """Hold *card*, a blocked candidate, in its slot."""
        key = self.slot_key(card.subject, card.concept_id)
        self._closed.discard(key)
        self._cards[key] = card

    def update_premature_cards(
        self, notes: Sequence[RefinedNote], spec: OntologySpec, now: datetime
    ) -> list[Card]:
        """Accumulate evidence; return cards newly reaching their threshold.

        Every card is generation 1. The batch's evidence is collected per
        slot first, and each touched card is then rebuilt once. Evidence
        only grows and a closed slot takes none, so a card is announced
        (validity stamped) when the batch carries it across its threshold,
        at most once. Nothing is saved here: the manager saves the maker
        after admit.
        """
        concepts = {concept.concept_id: concept for concept in spec.concepts}
        before: dict[str, Card] = {}  # slot key -> its card before this batch
        evidence: dict[str, dict[int, dict[str, None]]] = {}  # slot key -> criterion -> ids
        for refined in sorted(notes, key=lambda r: r.refined_id):
            for concept_id, criterion_index in map_note_to_criteria(refined, spec):
                key = self.slot_key(refined.subject, concept_id)
                if key in self._closed:
                    continue  # committed or expired: closed for good
                if key not in before:
                    card = self._cards.get(key) or new_card(concepts[concept_id], refined.subject)
                    before[key] = card
                    evidence[key] = {index: dict.fromkeys(ids) for index, ids in card.dimensions}
                evidence[key].setdefault(criterion_index, {})[refined.refined_id] = None
        announced = []
        for key, old in before.items():
            dimensions = tuple(sorted((i, tuple(ids)) for i, ids in evidence[key].items()))
            card = replace(old, dimensions=dimensions)
            if old.criteria_met < card.threshold <= card.criteria_met:
                card = replace(card, validity=(now, None))
                announced.append(key)
            self._cards[key] = card
        return [self._cards[key] for key in sorted(announced)]


# ---------------------------------------------------------------------------
# Ledger (the official Card DB)
# ---------------------------------------------------------------------------


def _snapshot(record: dict) -> Card | None:
    return card_from_dict(record["card"]) if record["type"] == "snapshot" else None


class CardLedger:
    """Snapshot log, replayed as committed (*log*; the whole file without
    one), plus its index; manager-only writes.

    ``index.json`` maps each card id to the byte offset of the line holding
    that card's latest snapshot in ``log.jsonl``. It is written whole once
    per manager batch, after the maker's save commits the batch, and
    replaying the log reproduces it. The log alone holds the cards.
    """

    def __init__(self, root: Path, log: Log | None = None):
        self.root = Path(root)
        self.log_path = self.root / "log.jsonl"
        self.index_path = self.root / "index.json"
        self._cards: dict[str, Card] = {}
        self._offsets: dict[str, int] = {}  # card id -> offset of its latest snapshot line
        for card, offset in zip(*(log or Log(self.log_path)).index(None, _snapshot)):
            if card is not None:
                self._cards[card.card_id] = card
                self._offsets[card.card_id] = offset

    @staticmethod
    def replay(log_path: Path, end: int | None = None) -> dict[str, Card]:
        snapshots = Log(log_path, end).records(_snapshot)
        return {card.card_id: card for card in snapshots if card is not None}

    def write_snapshot(self, card: Card) -> None:
        [offset] = append_jsonl(self.log_path, [{"type": "snapshot", "card": card_to_dict(card)}])
        self._cards[card.card_id] = card
        self._offsets[card.card_id] = offset

    def write_index(self) -> None:
        write_json(self.index_path, self._offsets)

    def index_mismatches(self) -> list[str]:
        """Each card on which ``index.json`` differs from the replayed ledger's
        latest snapshot offsets; missing, the index reads as empty."""
        index = read_json(self.index_path)
        index = {} if index is None else index
        if not isinstance(index, dict):
            return [f"{self.index_path}: not a JSON object"]
        return [
            f"index {card_id} -> offset {index.get(card_id, 'none')}, "
            f"latest snapshot at {self._offsets.get(card_id, 'none')}"
            for card_id in sorted(index.keys() | self._offsets.keys())
            if index.get(card_id) != self._offsets.get(card_id)
        ]

    def get(self, card_id: str) -> Card | None:
        return self._cards.get(card_id)

    def cards(self, status: str | None = None) -> list[Card]:
        out = [self._cards[cid] for cid in sorted(self._cards)]
        if status is not None:
            out = [card for card in out if card.status == status]
        return out

    def committed(self) -> list[Card]:
        return self.cards(STATUS_COMMITTED)


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------


@dataclass
class AdmissionReport:
    committed: list[Card] = field(default_factory=list)
    blocked: list[Card] = field(default_factory=list)
    expired: list[Card] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)


class CardManager:
    """Sole writer of the card ledger; serializes commits per subject."""

    def __init__(self, ledger: CardLedger, maker: CardMaker):
        self.ledger = ledger
        self.maker = maker
        self._pending: dict[str, Card] = {}

    # -- events ------------------------------------------------------------

    def _record(self, card: Card, kind: str, now: datetime, **detail: str) -> Card:
        event = ReasoningEvent(
            kind=kind, timestamp=now, detail=tuple(sorted(detail.items()))
        )
        return replace(card, reasoning_trail=card.reasoning_trail + (event,))

    def _current(self, card_id: str) -> Card:
        if card_id in self._pending:
            return self._pending[card_id]
        card = self.ledger.get(card_id)
        if card is None:
            raise CardError(f"unknown card {card_id}")
        return card

    def _persist(self, card: Card) -> None:
        # Ledger cards and terminal outcomes get a snapshot; still-premature
        # candidates wait in _pending until they commit or return to the maker.
        if self.ledger.get(card.card_id) is not None or card.status != STATUS_PREMATURE:
            self.ledger.write_snapshot(card)
        self._pending[card.card_id] = card

    # -- commit path ---------------------------------------------------------

    def commit_card(self, card: Card, now: datetime, spec: OntologySpec) -> Card:
        """The only write path into the committed set."""
        if card.criteria_met < card.threshold:
            raise CardError(
                f"card {card.card_id} below threshold "
                f"({card.criteria_met} < {card.threshold})"
            )
        remaining = detect_conflicts([card], self.ledger.committed(), spec)
        if remaining:
            raise CardError(
                f"card {card.card_id} blocked by unresolved conflict "
                f"{remaining[0].rule_id} with {remaining[0].card_b}"
            )
        card = replace(card, status=STATUS_COMMITTED, validity=(now, None))
        card = self._record(card, "committed", now)
        self.ledger.write_snapshot(card)
        self.maker.close_slot(card)
        return card

    def resolve_conflict(self, conflict: Conflict, now: datetime) -> list[ReasoningEvent]:
        """Apply one resolution; all actions land on both cards' trails."""
        a = self._current(conflict.card_a)
        b = self._current(conflict.card_b)
        events = []
        a = self._record(a, "conflict-detected", now, rule=conflict.rule_id, counterpart=b.card_id)
        b = self._record(b, "conflict-detected", now, rule=conflict.rule_id, counterpart=a.card_id)
        events.extend([a.reasoning_trail[-1], b.reasoning_trail[-1]])
        if conflict.resolution == "expire-older":
            if older_of(a, b) is a:
                older, newer = a, b
            else:
                older, newer = b, a
            older = replace(
                older, status=STATUS_EXPIRED, validity=(older.validity[0], now)
            )
            older = self._record(
                older, "expired", now, rule=conflict.rule_id, outlived_by=newer.card_id
            )
            events.append(older.reasoning_trail[-1])
            self._persist(older)
            self._persist(newer)
        else:  # flag-only: both flagged, nothing expires, candidate stays blocked
            a = self._record(a, "flagged", now, rule=conflict.rule_id, counterpart=b.card_id)
            b = self._record(b, "flagged", now, rule=conflict.rule_id, counterpart=a.card_id)
            events.extend([a.reasoning_trail[-1], b.reasoning_trail[-1]])
            self._persist(a)
            self._persist(b)
        return events

    def admit(
        self, candidates: Sequence[Card], spec: OntologySpec, now: datetime
    ) -> AdmissionReport:
        """Deterministic conflict-checked commit of threshold-reaching cards."""
        report = AdmissionReport()
        ordered = sorted(
            candidates,
            key=lambda c: (
                format_instant(c.validity[0]) if c.validity[0] else "",
                c.card_id,
            ),
        )
        for card in ordered:
            self._pending = {card.card_id: card}
            conflicts = detect_conflicts([card], self.ledger.committed(), spec)
            report.conflicts.extend(conflicts)
            expired_self = False
            blocked = False
            for conflict in conflicts:
                if conflict.resolution != "expire-older":
                    blocked = True
                    if _already_flagged(self._pending[card.card_id], conflict):
                        continue
                self.resolve_conflict(conflict, now)
                if self._pending[card.card_id].status == STATUS_EXPIRED:
                    expired_self = True
                    break
            current = self._pending[card.card_id]
            if expired_self:
                report.expired.append(current)
                self.maker.close_slot(current)
            elif blocked:
                report.blocked.append(current)
                self.maker.reopen_slot(current)
            else:
                report.committed.append(self.commit_card(current, now, spec))
            self._pending = {}
        # Once after the batch's last log append. The maker's save commits, and
        # the index follows it, so the index never names uncommitted bytes.
        self.maker.save()
        self.ledger.write_index()
        return report


# ---------------------------------------------------------------------------
# Drill-down and traceability
# ---------------------------------------------------------------------------


def _card(card_id: str, stores: Stores) -> Card:
    """The ledger's card, else the maker's held card; an unknown id raises :class:`CardError`."""
    card = stores.ledger.get(card_id)
    if card is None:
        card = next((c for c in stores.maker.premature_cards() if c.card_id == card_id), None)
    if card is None:
        raise CardError(f"unknown card {card_id}")
    return card


def drill_down(card_id: str, stores: Stores) -> dict[str, Any]:
    """Full chain card -> refined notes -> notes -> chunks -> documents, each
    chunk with the annotations annotating its document again gives."""
    from .notes import note_to_dict
    from .organize import chunk_to_dict
    from .refine import DanglingNote, refined_to_dict

    card = _card(card_id, stores)
    refined_records = []
    for refined_id in card.evidence_ids():
        try:
            record = stores.refined.get(refined_id)
        except DanglingNote as exc:
            raise CardError(f"dangling note {exc.note_id}") from None
        if record is None:
            raise CardError(f"dangling refined note {refined_id}")
        note_records = []
        for note_id in record.input_note_ids():
            # A passthrough's note is its note store's, read with the refined line.
            note = record.note if record.passthrough else stores.notes.get(note_id)
            if note is None:
                raise CardError(f"dangling note {note_id}")
            chunk_records = []
            for chunk_id in note.provenance:
                chunk = stores.organizer.get_chunk(chunk_id)
                if chunk is None:
                    raise CardError(f"dangling chunk {chunk_id}")
                document = stores.text.get(chunk.doc_id)
                chunk = stores.whole(chunk, document)
                source = {"doc_id": document.doc_id, "source_uri": document.meta.source_uri}
                chunk_records.append({"chunk": chunk_to_dict(chunk), "document": source})
            note_records.append({"note": note_to_dict(note), "chunks": chunk_records})
        refined_records.append({"refined": refined_to_dict(record), "notes": note_records})
    return {"card": card_to_dict(card), "evidence": refined_records}


def audit_card(card_id: str, stores: Stores) -> list[str]:
    """Dangling references along the provenance chain; empty means sound."""
    from .refine import DanglingNote

    problems = []
    card = _card(card_id, stores)
    for refined_id in card.evidence_ids():
        try:
            record = stores.refined.get(refined_id)
        except DanglingNote as exc:
            problems.append(str(exc))
            continue
        if record is None:
            problems.append(f"card {card_id} -> missing refined note {refined_id}")
            continue
        for note_id in () if record.passthrough else record.input_note_ids():
            if stores.notes.get(note_id) is None:
                problems.append(f"refined {refined_id} -> missing note {note_id}")
        for chunk_id in record.note.provenance:
            chunk = stores.organizer.get_chunk(chunk_id)
            if chunk is None:
                problems.append(f"refined {refined_id} -> missing chunk {chunk_id}")
                continue
            if chunk.doc_id not in stores.text:
                problems.append(f"chunk {chunk_id} -> missing document {chunk.doc_id}")
    return problems
