"""End-to-end pipeline wiring: config, stores, the run loop, drill-down.

A run is: ingest -> annotate -> organize -> synthesize -> validate ->
refine -> accumulate cards -> admit. Every stage writes through
content-derived ids, so re-running over the same inputs is a no-op at
every store and two fresh runs with a pinned clock produce byte-identical
stores. A run annotates only the stored documents that have no chunk yet,
which is safe because ``store.json`` pins the ontology and the grouping
parameters a store was built with. One pipeline run per store root at a
time, enforced by a lock file that names its owner's pid.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Any

from .annotate import GazetteerMatcher, annotate_with_matcher
from .cards import (
    CardLedger,
    CardMaker,
    CardManager,
    STATUS_COMMITTED,
    STATUS_EXPIRED,
)
from .clock import Clock, parse_instant
from .durations import format_duration, parse_duration
from .encoding import cut_torn_tail, read_json, read_jsonl, write_json
from .ingest import TextStore, ingest_corpus
from .notes import NoteStore, SynthesisConfig, synthesize_notes
from .ontology import OntologySpec, load_ontology, merged_or_single
from .organize import (
    DEFAULT_EPSILON,
    DEFAULT_WATERMARK,
    DEFAULT_WINDOW,
    OrganizerStore,
)
from .refine import RefinedNoteStore, refine_notes, validate_note


class PipelineError(Exception):
    """Operational failures: bad config, busy store, missing files."""


@dataclass
class PipelineConfig:
    ontology_paths: list[Path] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)
    store_root: Path = Path("store")
    window: timedelta = DEFAULT_WINDOW
    epsilon: timedelta = DEFAULT_EPSILON
    watermark: timedelta = DEFAULT_WATERMARK
    horizon_windows: int = 4
    mask_key_file: Path | None = None
    mask_aliases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    now_override: str | None = None

    def synthesis(self) -> SynthesisConfig:
        return SynthesisConfig(
            window_length=self.window, horizon_windows=self.horizon_windows
        )

    def clock(self) -> Clock:
        if self.now_override:
            return Clock(fixed=parse_instant(self.now_override))
        return Clock()

    def mask_key(self) -> bytes | None:
        if self.mask_key_file is None:
            return None
        try:
            raw = Path(self.mask_key_file).read_bytes()
        except OSError as exc:
            raise PipelineError(f"cannot read mask key file: {exc}") from exc
        return raw.rstrip(b"\n")


def load_config(path: Path) -> PipelineConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise PipelineError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PipelineError(f"malformed config {path}: {exc}") from exc
    return config_from_dict(data, base=Path(path).parent)


def config_from_dict(data: dict[str, Any], base: Path | None = None) -> PipelineConfig:
    base = base or Path(".")

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    config = PipelineConfig()
    ontology = data.get("ontology", [])
    config.ontology_paths = [resolve(p) for p in ([ontology] if isinstance(ontology, str) else ontology)]
    corpus = data.get("corpus", [])
    config.corpus_paths = [resolve(p) for p in ([corpus] if isinstance(corpus, str) else corpus)]
    if "store" in data:
        config.store_root = resolve(data["store"])
    organize = data.get("organize", {})
    if "window" in organize:
        config.window = parse_duration(organize["window"])
    if "epsilon" in organize:
        config.epsilon = parse_duration(organize["epsilon"])
    if "watermark" in organize:
        config.watermark = parse_duration(organize["watermark"])
    notes = data.get("notes", {})
    if "horizon_windows" in notes:
        config.horizon_windows = int(notes["horizon_windows"])
    if data.get("mask_key_file"):
        config.mask_key_file = resolve(data["mask_key_file"])
    config.mask_aliases = {
        subject: tuple(names) for subject, names in (data.get("mask_aliases") or {}).items()
    }
    if data.get("now"):
        config.now_override = data["now"]
    return config


@dataclass
class RunSummary:
    documents_ingested: int = 0
    documents_rejected: int = 0
    documents_annotated: int = 0
    chunks_emitted: int = 0
    chunks_skipped: int = 0
    groups_released: int = 0
    notes_synthesized: int = 0
    notes_refined: int = 0
    notes_rejected: int = 0
    cards_premature: int = 0
    cards_committed: int = 0
    cards_expired: int = 0
    conflicts_detected: int = 0
    conflicts_resolved: int = 0
    wall_time_seconds: float = 0.0
    # Grouping parameters in effect, recorded with every run.
    window: str = "7d"
    epsilon: str = "1d"
    watermark: str = "2d"
    # Logs whose torn last line this run cut off; reported on stderr only.
    repaired: list[Path] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "documents": {
                "ingested": self.documents_ingested,
                "rejected": self.documents_rejected,
                "annotated": self.documents_annotated,
            },
            "chunks": {"emitted": self.chunks_emitted, "skipped": self.chunks_skipped},
            "groups": {"released": self.groups_released},
            "notes": {
                "synthesized": self.notes_synthesized,
                "refined": self.notes_refined,
                "rejected": self.notes_rejected,
            },
            "cards": {
                "premature": self.cards_premature,
                "committed": self.cards_committed,
                "expired": self.cards_expired,
            },
            "conflicts": {
                "detected": self.conflicts_detected,
                "resolved": self.conflicts_resolved,
            },
            "organize": {
                "window": self.window,
                "epsilon": self.epsilon,
                "watermark": self.watermark,
            },
            "wall_time_seconds": self.wall_time_seconds,
        }

    def format_text(self) -> str:
        groups = self.as_dict()
        wall_time = groups.pop("wall_time_seconds")
        lines = [
            f"{name:<12}" + " ".join(f"{key}={value}" for key, value in fields.items())
            for name, fields in groups.items()
        ]
        return "\n".join(lines + [f"{'wall time':<12}{wall_time:.3f}s"])


class StoreLock:
    """One pipeline run per store root; everything else is read-only."""

    def __init__(self, store_root: Path):
        self.path = Path(store_root) / "lock"

    def __enter__(self) -> "StoreLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = self.path.read_text(encoding="utf-8").strip() or "unknown"
            except OSError:
                owner = "unknown"
            raise PipelineError(
                f"store is locked by another run (pid {owner}): {self.path}; "
                "delete it if that process is gone"
            ) from None
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


class Stores:
    """All six stores under one root."""

    def __init__(self, config: PipelineConfig):
        root = Path(config.store_root)
        self.root = root
        self.text = TextStore(root / "documents")
        self.organizer = OrganizerStore(
            root / "chunks",
            window_length=config.window,
            epsilon=config.epsilon,
            watermark=config.watermark,
        )
        self.notes = NoteStore(root / "notes")
        self.refined = RefinedNoteStore(root / "refined")
        self.maker = CardMaker(root / "cards")
        self.ledger = CardLedger(root / "cards")
        self.manager = CardManager(self.ledger, self.maker)


# Every file Stores decodes, in the order it decodes them.
STORE_FILES = (
    "documents/index.json",
    "chunks/chunks.jsonl",
    "chunks/released.jsonl",
    "notes/notes.jsonl",
    "refined/refined.jsonl",
    "cards/maker.json",
    "cards/log.jsonl",
)


def cut_torn_logs(root: Path) -> list[Path]:
    """Cut every torn log of the store back to its last whole line.

    The one repair of the store: ``run`` and ``ingest`` call it under the
    lock, before they open the stores. Returns the logs it cut.
    """
    logs = [Path(root) / name for name in STORE_FILES if name.endswith(".jsonl")]
    return [path for path in logs if cut_torn_tail(path)]


def check_store_files(root: Path) -> None:
    """Decode every file Stores decodes and keep nothing.

    A damaged file raises ``StoreFormatError`` naming it, as ``Stores``
    would, so a command that opens only some stores still refuses a
    damaged store. Never repairs: it is for commands without the lock.
    """
    for name in STORE_FILES:
        path = Path(root) / name
        if path.suffix == ".jsonl":
            for _record in read_jsonl(path):
                pass
        else:
            read_json(path)


def load_specs(config: PipelineConfig) -> OntologySpec:
    if not config.ontology_paths:
        raise PipelineError("at least one ontology is required")
    return merged_or_single([load_ontology(Path(p)) for p in config.ontology_paths])


MANIFEST = "store.json"


def store_manifest(config: PipelineConfig) -> dict[str, str]:
    """What a store's derived records depend on: ontology bytes and grouping."""
    digest = hashlib.sha256()
    for path in config.ontology_paths:
        try:
            digest.update(hashlib.sha256(Path(path).read_bytes()).digest())
        except OSError as exc:
            raise PipelineError(f"cannot read ontology {path}: {exc}") from exc
    return {
        "ontology_sha256": digest.hexdigest(),
        "window": format_duration(config.window),
        "epsilon": format_duration(config.epsilon),
        "watermark": format_duration(config.watermark),
    }


def check_manifest(store_root: Path, manifest: dict[str, str]) -> None:
    """Refuse a store built with other inputs; adopt a store that has no manifest."""
    path = Path(store_root) / MANIFEST
    stored = read_json(path)
    if stored is None:
        write_json(path, manifest)
        return
    for name, value in manifest.items():
        if stored.get(name) != value:
            raise PipelineError(
                f"store {store_root} was built with {name}={stored.get(name)!r}, "
                f"this run has {name}={value!r}; use a new store"
            )


def run_pipeline(config: PipelineConfig, clock: Clock | None = None) -> RunSummary:
    """One full deterministic pass over the configured corpora."""
    clock = clock or config.clock()
    if not config.corpus_paths:
        raise PipelineError("at least one corpus is required")
    spec = load_specs(config)
    manifest = store_manifest(config)
    summary = RunSummary(
        window=manifest["window"],
        epsilon=manifest["epsilon"],
        watermark=manifest["watermark"],
    )
    with StoreLock(config.store_root):
        check_manifest(config.store_root, manifest)
        summary.repaired = cut_torn_logs(config.store_root)
        stores = Stores(config)
        now = clock.now()

        ingest_summary = ingest_corpus(
            config.corpus_paths,
            stores.text,
            clock,
            mask_key=config.mask_key(),
            mask_aliases=config.mask_aliases or None,
        )
        summary.documents_ingested = ingest_summary.accepted
        summary.documents_rejected = ingest_summary.rejected

        # Pending: stored documents without a chunk, wherever they came from.
        pending = stores.text.list(skip_ids=stores.organizer.doc_ids)
        summary.documents_annotated = len(pending)
        matcher = GazetteerMatcher(spec)
        produced = []
        for doc in pending:
            outcome = annotate_with_matcher(doc, matcher)
            produced.extend(outcome.chunks)
            summary.chunks_skipped += outcome.skipped
        summary.chunks_emitted = stores.organizer.add_chunks(produced)

        released = stores.organizer.close_window(now)
        summary.groups_released = len(released)

        synthesized = synthesize_notes(released, spec, config.synthesis())
        summary.notes_synthesized = stores.notes.add_all(synthesized)

        processed = stores.refined.processed_note_ids()
        batch = []
        for note in synthesized:
            verdict = validate_note(note, processed, stores.organizer.has_chunk)
            if verdict.accepted:
                batch.append(note)
            else:
                summary.notes_rejected += 1
        refined = refine_notes(batch, spec, config.window)
        summary.notes_refined = stores.refined.add_all(refined)

        # By log position, so notes refined by a run that crashed still reach a card.
        stores.maker.update_premature_cards(
            stores.refined.newer_than(stores.maker.refined_seq),
            spec,
            now,
            seq_of=stores.refined.sequence_of,
        )
        report = stores.manager.admit(stores.maker.open_candidates(), spec, now)
        # The commit point: until this line is whole, a rerun releases the same groups again.
        if released:
            stores.organizer.log_released(released)
        summary.conflicts_detected = len(report.conflicts)
        summary.conflicts_resolved = sum(
            1 for c in report.conflicts if c.resolution == "expire-older"
        )

        summary.cards_premature = len(stores.maker.premature_cards())
        summary.cards_committed = len(stores.ledger.cards(STATUS_COMMITTED))
        summary.cards_expired = len(stores.ledger.cards(STATUS_EXPIRED))
    summary.wall_time_seconds = round(clock.elapsed(), 3)
    return summary


# ---------------------------------------------------------------------------
# Drill-down and traceability
# ---------------------------------------------------------------------------


def drill_down(card_id: str, stores: Stores) -> dict[str, Any]:
    """Full chain card -> refined notes -> notes -> chunks -> documents."""
    from .cards import card_to_dict
    from .notes import note_to_dict
    from .organize import chunk_to_dict
    from .refine import refined_to_dict

    card = stores.ledger.get(card_id)
    if card is None:
        card = next(
            (c for c in stores.maker.premature_cards() if c.card_id == card_id), None
        )
    if card is None:
        raise PipelineError(f"unknown card {card_id}")

    refined_records = []
    for refined_id in card.evidence_ids():
        record = stores.refined.get(refined_id)
        if record is None:
            raise PipelineError(f"dangling refined note {refined_id}")
        note_records = []
        for note_id in record.input_note_ids():
            note = stores.notes.get(note_id)
            if note is None and note_id == record.note.note_id:
                note = record.note  # passthrough notes need not be re-fetched
            if note is None:
                raise PipelineError(f"dangling note {note_id}")
            chunk_records = []
            for chunk_id in note.provenance:
                chunk = stores.organizer.get_chunk(chunk_id)
                if chunk is None:
                    raise PipelineError(f"dangling chunk {chunk_id}")
                document = stores.text.get(chunk.doc_id)
                chunk_records.append(
                    {
                        "chunk": chunk_to_dict(chunk),
                        "document": {
                            "doc_id": document.doc_id,
                            "source_uri": document.meta.source_uri,
                        },
                    }
                )
            note_records.append({"note": note_to_dict(note), "chunks": chunk_records})
        refined_records.append(
            {"refined": refined_to_dict(record), "notes": note_records}
        )
    return {"card": card_to_dict(card), "evidence": refined_records}


def audit_card(card_id: str, stores: Stores) -> list[str]:
    """Dangling references along the provenance chain; empty means sound."""
    problems = []
    card = stores.ledger.get(card_id)
    if card is None:
        return [f"unknown card {card_id}"]
    for refined_id in card.evidence_ids():
        record = stores.refined.get(refined_id)
        if record is None:
            problems.append(f"card {card_id} -> missing refined note {refined_id}")
            continue
        for note_id in record.input_note_ids():
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
