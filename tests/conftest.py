from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from notecards.cards import Card
from notecards.clock import parse_instant
from notecards.notes import Note
from notecards.ontology import ConceptDef, Confidence, Intensity, OntologySpec, load_ontology
from notecards.refine import RefinedNote

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "notecards" / "fixtures"

PINNED_NOW = parse_instant("2011-11-13T00:00:00Z")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def ocpd_spec():
    return load_ontology(FIXTURES / "ocpd.json")


@pytest.fixture(scope="session")
def alcohol_spec():
    return load_ontology(FIXTURES / "alcohol.json")


@pytest.fixture(scope="session")
def jobs_rows() -> list[dict]:
    return json.loads((FIXTURES / "jobs_rows.json").read_text(encoding="utf-8"))


def store_bytes(root: Path) -> dict[str, bytes]:
    """Every file under a store root, by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def commit_as_it_stands(root: Path, digests: bool = True) -> None:
    """Rewrite ``cards/maker.json`` of store *root* so that its commit holds
    every log as it stands, as a save would: its length and the sha256 of its
    bytes, or no digest, as a store committed before digests (*digests* false).
    For tests whose store holds lines a writer could have committed."""
    from notecards.cards import LOGS

    maker = root / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    logs = {name: (root / name).read_bytes() if (root / name).exists() else b"" for name in LOGS}
    state["logs"] = {name: len(data) for name, data in logs.items()}
    state.pop("digests", None)
    if digests:
        state["digests"] = {name: hashlib.sha256(data).hexdigest() for name, data in logs.items()}
    maker.write_text(json.dumps(state, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def assert_card_index_follows_the_log(root: Path) -> None:
    """``cards/index.json`` under store *root* maps exactly the ids of the
    ledger replayed up to its commit, each to the offset of that card's last
    snapshot line in the committed ``cards/log.jsonl``, a line holding the
    card's replayed state."""
    from notecards.cards import CardLedger, card_to_dict, read_commit

    log = root / "cards" / "log.jsonl"
    committed = log.read_bytes()[: read_commit(root)[1]["cards/log.jsonl"].end]
    replayed = CardLedger.replay(log, len(committed))
    last: dict[str, int] = {}  # card id -> offset of its last snapshot line, read here
    offset = 0
    for line in committed.splitlines(keepends=True):
        record = json.loads(line)
        if record["type"] == "snapshot":
            last[record["card"]["card_id"]] = offset
        offset += len(line)
    index = json.loads((root / "cards" / "index.json").read_text(encoding="utf-8"))
    assert index == last
    assert sorted(index) == sorted(replayed)
    for card_id, offset in index.items():
        assert 0 <= offset < len(committed)
        line = committed[offset : committed.index(b"\n", offset)]
        assert json.loads(line) == {"type": "snapshot", "card": card_to_dict(replayed[card_id])}


def utc(year, month, day, hour=0, minute=0, second=0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


def make_note(
    subject: str = "steve",
    action: tuple[str, str] = ("alcohol", "consume"),
    attributes: dict | None = None,
    intensity: Intensity = Intensity.RARE,
    confidence: Confidence = Confidence.LOW,
    start: datetime | None = None,
    end: datetime | None = None,
    provenance: tuple[str, ...] = ("chunk-0",),
    place: str | None = None,
    note_id: str | None = None,
    schema_version: int = 1,
) -> Note:
    attrs = tuple(sorted((attributes or {}).items()))
    if note_id is None:
        stamps = (
            start.isoformat() if start else "",
            end.isoformat() if end else "",
        )
        note_id = "n-test-" + str(abs(hash((subject, action, attrs, stamps, provenance, place))))
    return Note(
        note_id=note_id,
        subject=subject,
        action=action,
        attributes=attrs,
        intensity=intensity,
        confidence=confidence,
        time_range=(start, end),
        provenance=provenance,
        schema_version=schema_version,
        place=place,
    )


def passthrough(note: Note) -> RefinedNote:
    return RefinedNote(
        note=note,
        applied_rules=(),
        refined_id="rn-test-" + note.note_id,
        passthrough=True,
    )


def fixture_refined_rows(jobs_rows: list[dict]) -> list[RefinedNote]:
    """The 20 evidence rows as refined-note fixtures (one per row)."""
    records = []
    base = utc(2011, 10, 14)
    for i, row in enumerate(jobs_rows):
        note = make_note(
            subject="steve",
            action=(row["entity"], row["relationship"]),
            start=base + timedelta(days=i),
            end=base + timedelta(days=i),
            provenance=(f"fx-{row['o_code']}",),
            note_id=f"n-fx-{row['o_code']}",
        )
        records.append(
            RefinedNote(
                note=note,
                applied_rules=(),
                refined_id=f"rn-fx-{row['o_code']}",
                passthrough=True,
            )
        )
    return records


def concept_of(spec: OntologySpec, concept_id: str) -> ConceptDef | None:
    return next((c for c in spec.concepts if c.concept_id == concept_id), None)


def add_evidence(card: Card, criterion_index: int, refined_id: str) -> Card:
    """Monotone: adding evidence never lowers any dimension score."""
    dims = {index: list(ids) for index, ids in card.dimensions}
    bucket = dims.setdefault(criterion_index, [])
    if refined_id not in bucket:
        bucket.append(refined_id)
    return replace(card, dimensions=tuple(sorted((i, tuple(ids)) for i, ids in dims.items())))
