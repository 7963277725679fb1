"""Criterion-scored cards: accumulation, commit, conflicts, remakes.

The maker accumulates refined-note evidence into one premature card per
(subject, concept) and hands a card over exactly when it first reaches
the concept threshold. The manager is the single serialization point: it
alone writes the official card ledger, resolves exclusion conflicts
(expire-older or flag-only), and runs the remake protocol. Every action
lands as a reasoning event on the affected cards' trails, so a committed
card explains itself end to end.

The ledger on disk is a JSON Lines log holding one card snapshot per
state change; each snapshot carries the card's whole reasoning trail.
The log is the durable record. The current-state index and the maker
state are derived whole files, rewritten once at the end of each manager
batch; replaying the log reconstructs the index bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable, Sequence

from .clock import format_instant, parse_instant
from .encoding import append_jsonl, canonical_json, content_hash, read_json, read_jsonl, write_json
from .ontology import ConceptDef, OntologySpec
from .refine import RefinedNote, RefinedNoteStore

STATUS_PREMATURE = "premature"
STATUS_COMMITTED = "committed"
STATUS_EXPIRED = "expired"
STATUS_SUPERSEDED = "superseded"


class CardError(Exception):
    """Gate violations: below threshold, blocked commit, bad remake."""


@dataclass(frozen=True)
class ReasoningEvent:
    kind: str  # conflict-detected | expired | remake-requested | remake-completed | committed | flagged
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
    evidence_seq: int = -1  # refined-store high-water mark, for remakes

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
        "evidence_seq": card.evidence_seq,
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
        evidence_seq=raw.get("evidence_seq", -1),
    )


# ---------------------------------------------------------------------------
# Note-to-criteria mapping
# ---------------------------------------------------------------------------


def map_note_to_criteria(
    refined: RefinedNote, spec: OntologySpec
) -> list[tuple[str, int]]:
    """Every (concept, criterion) whose patterns accept the note; may span concepts."""
    note = refined.note
    hits = []
    for concept in spec.concepts:
        for criterion in concept.criteria:
            if any(
                pattern.matches(note.action, note.intensity, note.attribute_map())
                for pattern in criterion.match_patterns
            ):
                hits.append((concept.concept_id, criterion.index))
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


def add_evidence(card: Card, criterion_index: int, refined_id: str, seq: int = -1) -> Card:
    """Monotone: adding evidence never lowers any dimension score."""
    dims = {index: list(ids) for index, ids in card.dimensions}
    bucket = dims.setdefault(criterion_index, [])
    if refined_id not in bucket:
        bucket.append(refined_id)
    return replace(
        card,
        dimensions=tuple(sorted((i, tuple(ids)) for i, ids in dims.items())),
        evidence_seq=max(card.evidence_seq, seq),
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
    a_start = a[0] or datetime.min.replace(tzinfo=a[1].tzinfo if a[1] else None)
    b_start = b[0] or datetime.min.replace(tzinfo=b[1].tzinfo if b[1] else None)
    if a[0] is None or b[0] is None:
        return True  # open starts always overlap something
    a_end, b_end = a[1], b[1]
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


class CardMaker:
    """Holds premature cards per (subject, concept) until threshold."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._path = self.root / "maker.json"
        state = read_json(self._path, {})
        self._cards: dict[str, Card] = {
            k: card_from_dict(v) for k, v in state.get("cards", {}).items()
        }
        self._closed: set[str] = set(state.get("closed", ()))
        self._generations: dict[str, int] = dict(state.get("generations", {}))
        self._announced: set[str] = set(state.get("announced", ()))
        # Refined-log sequence of the last note accumulated; newer ones are unread.
        self.refined_seq: int = state.get("refined_seq", -1)

    @staticmethod
    def slot_key(subject: str, concept_id: str) -> str:
        return canonical_json([subject, concept_id])

    def save(self) -> None:
        state = {
            "cards": {k: card_to_dict(v) for k, v in self._cards.items()},
            "closed": sorted(self._closed),
            "generations": self._generations,
            "announced": sorted(self._announced),
            "refined_seq": self.refined_seq,
        }
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

    def close_slot(self, subject: str, concept_id: str) -> None:
        key = self.slot_key(subject, concept_id)
        self._cards.pop(key, None)
        self._closed.add(key)

    def reopen_slot(self, subject: str, concept_id: str, card: Card) -> None:
        key = self.slot_key(subject, concept_id)
        self._closed.discard(key)
        self._cards[key] = card
        self._generations[key] = card.generation

    def update_premature_cards(
        self,
        notes: Sequence[RefinedNote],
        spec: OntologySpec,
        now: datetime,
        seq_of: Callable[[str], int] | None = None,
    ) -> list[Card]:
        """Accumulate evidence; return cards newly reaching their threshold.

        Nothing is saved here: the manager saves the maker after admit.
        """
        newly = []
        for refined in sorted(notes, key=lambda r: r.refined_id):
            seq = seq_of(refined.refined_id) if seq_of else -1
            self.refined_seq = max(self.refined_seq, seq)
            for concept_id, criterion_index in map_note_to_criteria(refined, spec):
                key = self.slot_key(refined.subject, concept_id)
                if key in self._closed:
                    continue  # committed concept; remake picks newer notes up
                card = self._cards.get(key)
                if card is None:
                    generation = self._generations.get(key, 0) + 1
                    self._generations[key] = generation
                    card = new_card(spec.concept(concept_id), refined.subject, generation)
                before = card.criteria_met
                card = add_evidence(card, criterion_index, refined.refined_id, seq)
                if (
                    before < card.threshold <= card.criteria_met
                    and card.card_id not in self._announced
                ):
                    card = replace(card, validity=(now, None))
                    self._announced.add(card.card_id)
                    newly.append(card)
                self._cards[key] = card
        # Return the final state of each newly announced card.
        announced_ids = {c.card_id for c in newly}
        return [
            self._cards[self.slot_key(c.subject, c.concept_id)]
            for c in self.premature_cards()
            if c.card_id in announced_ids
        ]


# ---------------------------------------------------------------------------
# Ledger (the official Card DB)
# ---------------------------------------------------------------------------


class CardLedger:
    """Snapshot log plus derived current-state index; manager-only writes."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log_path = self.root / "log.jsonl"
        self.index_path = self.root / "index.json"
        self._cards = self.replay(self.log_path)

    @staticmethod
    def replay(log_path: Path) -> dict[str, Card]:
        cards: dict[str, Card] = {}
        for record in read_jsonl(log_path):
            if record["type"] == "snapshot":
                card = card_from_dict(record["card"])
                cards[card.card_id] = card
        return cards

    def write_snapshot(self, card: Card) -> None:
        append_jsonl(self.log_path, [{"type": "snapshot", "card": card_to_dict(card)}])
        self._cards[card.card_id] = card

    def write_index(self) -> None:
        write_json(self.index_path, {cid: card_to_dict(card) for cid, card in self._cards.items()})

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


@dataclass(frozen=True)
class RemakeTicket:
    ticket_id: str
    card_id: str
    requested_at: datetime
    ready_at: datetime


@dataclass
class AdmissionReport:
    committed: list[Card] = field(default_factory=list)
    blocked: list[Card] = field(default_factory=list)
    expired: list[Card] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)


class CardManager:
    """Sole writer of the card ledger; serializes commits per subject."""

    def __init__(self, ledger: CardLedger, maker: CardMaker | None = None):
        self.ledger = ledger
        self.maker = maker
        self._pending: dict[str, Card] = {}

    # -- events ------------------------------------------------------------

    def _record(self, card: Card, kind: str, now: datetime, **detail: str) -> Card:
        event = ReasoningEvent(
            kind=kind, timestamp=now, detail=tuple(sorted(detail.items()))
        )
        return replace(card, reasoning_trail=card.reasoning_trail + (event,))

    def _save(self) -> None:
        # Derived whole-file state, rewritten once after a batch's last log append.
        self.ledger.write_index()
        if self.maker is not None:
            self.maker.save()

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

    def commit_card(
        self, card: Card, now: datetime, spec: OntologySpec | None = None
    ) -> Card:
        """The only write path into the committed set."""
        if card.criteria_met < card.threshold:
            raise CardError(
                f"card {card.card_id} below threshold "
                f"({card.criteria_met} < {card.threshold})"
            )
        if spec is not None:
            remaining = detect_conflicts([card], self.ledger.committed(), spec)
            if remaining:
                raise CardError(
                    f"card {card.card_id} blocked by unresolved conflict "
                    f"{remaining[0].rule_id} with {remaining[0].card_b}"
                )
        card = replace(card, status=STATUS_COMMITTED, validity=(now, None))
        card = self._record(card, "committed", now)
        self.ledger.write_snapshot(card)
        if self.maker is not None:
            self.maker.close_slot(card.subject, card.concept_id)
        return card

    def resolve_conflict(
        self, conflict: Conflict, resolution: str, now: datetime
    ) -> list[ReasoningEvent]:
        """Apply one resolution; all actions land on both cards' trails."""
        a = self._current(conflict.card_a)
        b = self._current(conflict.card_b)
        events = []
        a = self._record(a, "conflict-detected", now, rule=conflict.rule_id, counterpart=b.card_id)
        b = self._record(b, "conflict-detected", now, rule=conflict.rule_id, counterpart=a.card_id)
        events.extend([a.reasoning_trail[-1], b.reasoning_trail[-1]])
        if resolution == "expire-older":
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
            logged = self.ledger.get(card.card_id)
            if logged is not None and logged.status in (STATUS_COMMITTED, STATUS_EXPIRED):
                # Settled by a batch that stopped before its maker save.
                if self.maker is not None:
                    self.maker.close_slot(card.subject, card.concept_id)
                continue
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
                self.resolve_conflict(conflict, conflict.resolution, now)
                if self._pending[card.card_id].status == STATUS_EXPIRED:
                    expired_self = True
                    break
            current = self._pending[card.card_id]
            if expired_self:
                report.expired.append(current)
                if self.maker is not None:
                    self.maker.close_slot(current.subject, current.concept_id)
            elif blocked:
                report.blocked.append(current)
                if self.maker is not None:
                    self.maker.reopen_slot(current.subject, current.concept_id, current)
            else:
                report.committed.append(self.commit_card(current, now, spec))
            self._pending = {}
        self._save()
        return report

    # -- remakes -------------------------------------------------------------

    def request_remake(
        self, card_id: str, waiting_period: timedelta, now: datetime
    ) -> RemakeTicket:
        card = self.ledger.get(card_id)
        if card is None:
            raise CardError(f"unknown card {card_id}")
        ready_at = now + waiting_period
        ticket = RemakeTicket(
            ticket_id="rmk-" + content_hash([card_id, format_instant(now)]),
            card_id=card_id,
            requested_at=now,
            ready_at=ready_at,
        )
        card = self._record(
            card, "remake-requested", now, ticket=ticket.ticket_id,
            ready_at=format_instant(ready_at),
        )
        self.ledger.write_snapshot(card)
        self._save()
        return ticket

    def complete_remake(
        self,
        ticket: RemakeTicket,
        now: datetime,
        refined_store: RefinedNoteStore,
        spec: OntologySpec,
    ) -> Card:
        """Rebuild the card from its old evidence plus newer refined notes."""
        if now < ticket.ready_at:
            raise CardError(
                f"waiting period runs until {format_instant(ticket.ready_at)}"
            )
        old = self.ledger.get(ticket.card_id)
        if old is None:
            raise CardError(f"unknown card {ticket.card_id}")
        concept = spec.concept(old.concept_id)
        if concept is None:
            raise CardError(f"concept {old.concept_id} missing from ontology")

        rebuilt = new_card(concept, old.subject, old.generation + 1)
        evidence: list[tuple[int, RefinedNote]] = []
        for refined_id in old.evidence_ids():
            record = refined_store.get(refined_id)
            if record is not None:
                evidence.append((refined_store.sequence_of(refined_id), record))
        for seq_record in refined_store.newer_than(old.evidence_seq):
            if seq_record.subject == old.subject:
                evidence.append((refined_store.sequence_of(seq_record.refined_id), seq_record))
        seen = set()
        for seq, record in sorted(evidence, key=lambda pair: pair[0]):
            if record.refined_id in seen:
                continue
            seen.add(record.refined_id)
            for concept_id, criterion_index in map_note_to_criteria(record, spec):
                if concept_id == old.concept_id:
                    rebuilt = add_evidence(rebuilt, criterion_index, record.refined_id, seq)

        old = replace(old, status=STATUS_SUPERSEDED, validity=(old.validity[0], now))
        old = self._record(
            old, "remake-completed", now, ticket=ticket.ticket_id, successor=rebuilt.card_id
        )
        self.ledger.write_snapshot(old)
        if rebuilt.criteria_met >= rebuilt.threshold:
            rebuilt = replace(rebuilt, validity=(now, None))
        rebuilt = self._record(
            rebuilt, "remake-completed", now, ticket=ticket.ticket_id, predecessor=old.card_id
        )
        self.ledger.write_snapshot(rebuilt)
        if self.maker is not None:
            self.maker.reopen_slot(rebuilt.subject, rebuilt.concept_id, rebuilt)
        self._save()
        return rebuilt
