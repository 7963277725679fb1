"""End-to-end pipeline wiring: config, stores, the run loop.

A run is: ingest -> annotate -> organize -> synthesize -> validate ->
refine -> accumulate cards -> admit. Every stage writes through
content-derived ids, so re-running over the same inputs is a no-op at
every store and two fresh runs with a pinned clock produce byte-identical
stores. A run annotates only the documents logged past ``annotated``,
the position the last commit recorded, which is safe because the commit
pins the ontology, the grouping and note parameters and the annotator
version of a store (the maker's ``manifest``). One pipeline run per store
root at a time, enforced by a lock.

A chunk line keeps of its annotations only their signature
(:mod:`notecards.organize`), since annotation is deterministic. The store
keeps the merged ontology it annotates with, ``ontology.json``, written
by the run that first pins the store and never rewritten; the manifest
records its sha256. Whoever needs a stored chunk's annotations annotates
its document again (:meth:`Stores.whole`): ``run`` with its own matcher,
for the chunks it releases that the open read from their lines, and
``card show`` and ``store check`` with the store's copy, which a store
committed before it kept one needs only once a line holds no annotations.

One commit rule: the last write of ``run`` and of ``ingest``, the maker's
save, syncs every log it grew and records each log's length and the
sha256 of its bytes. Every command reads each log only up to it
(:func:`read_commit`), checking the bytes against the digest as it reads
them (:class:`notecards.encoding.Log`); ``run`` and ``ingest`` first
cut each log back to it (:func:`cut_to_commit`) and open from that same
read: ``run`` through the writer's :class:`Stores`. Both check that each
corpus is a file and read the mask key before the lock, so an input they
cannot read leaves no store behind. A run's save also moves
``annotated`` to the end of the documents log; an ingest's leaves it, and
both record what they consumed of each corpus, so the next skips it.

A rerun costs what its new input costs, but for hashing the store and
indexing it. Opening the stores reads each log once and keeps what a
writer needs: where each document and chunk line is, the released chunk
ids, the chunks not yet released and the cards. It takes the ids and the
line offsets out of the canonical lines the digest vouches for, one
regex pass a block, and decodes only the released lines, the ledger and
the chunks not yet released; the note and refined logs, which ``run``
appends to and never reads, it only checks. Everything else, drill-down
included, decodes a record from its line when asked, and organizing
regroups only the keys that hold an unreleased chunk. So
``run`` and the readers refuse any committed byte that differs from what
the commit hashed, and ``store check`` also decodes every line. The documents a run
ingests itself it annotates from memory, and it decodes only those
pending documents that an earlier command logged.

This module imports every stage. ``run``, ``ingest``, ``card show``,
``store check`` and readers given ``--config`` load it; ``cards list``,
``export``, ``routes`` and ``notes list`` do not (:mod:`notecards.cli`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from datetime import timedelta
from functools import cached_property
from pathlib import Path
from typing import Any

from .annotate import ANNOTATOR_VERSION, AnnotatedChunk, GazetteerMatcher, annotate_with_matcher
from .cards import (
    LOGS,
    CardLedger,
    CardMaker,
    CardManager,
    STATUS_COMMITTED,
    STATUS_EXPIRED,
    audit_card,  # re-exported: callers outside the package import it from here
    read_commit,
)
from .clock import Clock, parse_instant
from .durations import format_duration, parse_duration
from .encoding import Log, PipelineError, StoreFormatError, cut_to_length, write_json
from .ingest import Document, TextStore, check_sources, ingest_corpus
from .notes import NoteStore, SynthesisConfig, synthesize_notes
from .ontology import OntologyError, OntologySpec, load_ontology, merged_or_single, spec_to_dict
from .organize import (
    DEFAULT_EPSILON,
    DEFAULT_WATERMARK,
    DEFAULT_WINDOW,
    OrganizerStore,
)
from .refine import RefinedNoteStore, refine_notes, validate_note


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
        return SynthesisConfig(window_length=self.window, horizon_windows=self.horizon_windows)

    def clock(self) -> Clock:
        if self.now_override is not None:
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


def config_from_dict(data: Any, base: Path | None = None) -> PipelineConfig:
    """The config a JSON document describes; a malformed one raises ``PipelineError``."""
    base = base or Path(".")

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    def section(value: Any, name: str) -> dict[str, Any]:
        if not isinstance(value, dict):
            raise PipelineError(f"config {name} must be a JSON object")
        return value

    def paths(name: str) -> list[Path]:
        value = data.get(name, [])
        names = [value] if isinstance(value, str) else value
        if not isinstance(names, list) or not all(isinstance(p, str) for p in names):
            raise PipelineError(f"config {name} must be a string or a list of strings")
        return [resolve(p) for p in names]

    def string(value: Any, name: str) -> str:
        if not isinstance(value, str):
            raise PipelineError(f"config {name} must be a string")
        return value

    data = section(data, "document")
    config = PipelineConfig()
    config.ontology_paths = paths("ontology")
    config.corpus_paths = paths("corpus")
    if "store" in data:
        config.store_root = resolve(string(data["store"], "store"))
    organize = section(data.get("organize", {}), "organize")
    for name in ("window", "epsilon", "watermark"):
        if name in organize:
            setattr(config, name, parse_duration(string(organize[name], f"organize.{name}")))
    if not config.window:
        raise PipelineError("config organize.window must be longer than 0d")
    notes = section(data.get("notes", {}), "notes")
    if "horizon_windows" in notes:
        config.horizon_windows = notes["horizon_windows"]
        if type(config.horizon_windows) is not int or config.horizon_windows < 1:
            raise PipelineError("config notes.horizon_windows must be an integer >= 1")
    # Only null or an absent key leaves a setting unset; any other value must be valid.
    if data.get("mask_key_file") is not None:
        config.mask_key_file = resolve(string(data["mask_key_file"], "mask_key_file"))
    aliases = data.get("mask_aliases")
    aliases = section({} if aliases is None else aliases, "mask_aliases")
    for names in aliases.values():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise PipelineError("config mask_aliases must map each subject to a list of strings")
    config.mask_aliases = {subject: tuple(names) for subject, names in aliases.items()}
    if data.get("now") is not None:
        config.now_override = string(data["now"], "now")
        try:
            parse_instant(config.now_override)
        except ValueError as exc:
            raise PipelineError(f"config now: {exc}") from None
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
    # Logs this run cut back to their committed length; reported on stderr only.
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
            "conflicts": {"detected": self.conflicts_detected, "resolved": self.conflicts_resolved},
            "organize": {"window": self.window, "epsilon": self.epsilon,
                         "watermark": self.watermark},
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
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):  # a file, or a path below one
            raise PipelineError(f"store root is not a directory: {self.path.parent}") from None
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
        self.path.unlink(missing_ok=True)


class Stores:
    """All six stores under one root, each reading its logs once as the last
    commit left them (``logs``, by name) and checking them against their digests.

    A reader passes no *manifest*, and nothing is written. ``run`` passes
    its own under the lock, with the merged ontology *spec*, and opens as a
    writer: every log is first cut back to the commit it then opens from
    (:func:`cut_to_commit`), and ``repaired`` names the logs that were cut.
    The writer indexes only what it writes from: its note and refined
    stores are append only (:class:`notecards.notes.NoteStore`,
    :class:`notecards.refine.RefinedNoteStore`), checking their logs and
    indexing nothing. The maker then holds the
    manifest the run's commit pins: the store's, or the run's own, adopted
    with the store's copy of *spec*, which the run that first pins a store
    writes and none rewrites; its save continues the digests the open checked.
    """

    def __init__(
        self,
        config: PipelineConfig,
        manifest: dict[str, Any] | None = None,
        spec: OntologySpec | None = None,
    ):
        self.root = root = Path(config.store_root)
        self.repaired: list[Path] = []
        if manifest is None:
            state, self.logs = read_commit(root)
            maker = CardMaker(root / "cards", state, self.logs)
        else:
            maker, self.logs, self.repaired = cut_to_commit(root, manifest)
        logs = self.logs
        self.text = TextStore(root / "documents", logs["documents/documents.jsonl"])
        self.organizer = OrganizerStore(
            root / "chunks",
            window_length=config.window,
            epsilon=config.epsilon,
            watermark=config.watermark,
            chunks_log=logs["chunks/chunks.jsonl"],
            released_log=logs["chunks/released.jsonl"],
        )
        self.notes = NoteStore(
            root / "notes", logs["notes/notes.jsonl"], append_only=manifest is not None
        )
        self.refined = RefinedNoteStore(
            root / "refined", self.notes, logs["refined/refined.jsonl"],
            append_only=manifest is not None,
        )
        self.ledger = CardLedger(root / "cards", logs["cards/log.jsonl"])
        self.maker = maker
        self.manager = CardManager(self.ledger, self.maker)
        if manifest is not None:
            kept = (self.maker.manifest or {}).get("stored_ontology_sha256")
            kept = kept or keep_ontology(root, spec)
            self.maker.manifest = {**manifest, "stored_ontology_sha256": kept}

    @cached_property
    def matcher(self) -> GazetteerMatcher:
        """The matcher of the ontology the store keeps; ``run`` sets its own."""
        return GazetteerMatcher(load_stored_ontology(self.root, self.maker.manifest))

    def annotate_again(
        self, chunk: AnnotatedChunk, document: Document | None = None
    ) -> AnnotatedChunk | None:
        """The chunk annotating *chunk*'s document (*document*, when read
        already) again gives for its sentence; None if it gives none."""
        document = document or self.text.get(chunk.doc_id)
        outcome = annotate_with_matcher(document, self.matcher)
        return next((c for c in outcome.chunks if c.chunk_id == chunk.chunk_id), None)

    def whole(self, chunk: AnnotatedChunk, document: Document | None = None) -> AnnotatedChunk:
        """*chunk* with its annotations. One read from a line that holds only
        their signature takes them from annotating its document again."""
        if chunk.annotations is not None:
            return chunk
        fresh = self.annotate_again(chunk, document)
        if fresh is None:
            raise StoreFormatError(
                f"chunk {chunk.chunk_id}: annotating document {chunk.doc_id} again "
                f"gives no chunk for sentence {chunk.sentence_index}"
            )
        return replace(chunk, annotations=fresh.annotations, signature=None)


def cut_to_commit(
    root: Path, manifest: dict[str, Any] | None = None
) -> tuple[CardMaker, dict[str, Log], list[Path]]:
    """Cut every log back to the length the last commit recorded.

    ``run`` and ``ingest`` call it under the lock, before they open the
    stores. A store whose commit does not hold, whose maker state does not
    build, or whose pinned manifest differs from a run's *manifest*, is left
    untouched. A new store first gets the empty maker's save, which commits
    its logs empty and pins nothing, so a crash in its first run is cut back
    like any other. Returns the maker of the commit :func:`read_commit` read,
    the logs as it read them, which the stores open from, and the logs it cut.
    """
    root = Path(root)
    state, logs = read_commit(root)
    maker = CardMaker(root / "cards", state, logs)
    pinned = maker.manifest
    if not pinned and (root / "store.json").exists():
        raise StoreFormatError(f"{root / 'store.json'}: predates this store format; build a new store")
    if manifest and pinned:
        for name, value in manifest.items():
            if name == "annotator" and name not in pinned:
                continue  # pinned before the version was: adopted by this run
            if pinned.get(name) != value:
                raise PipelineError(
                    f"store {root} was built with {name}={pinned.get(name)!r}, "
                    f"this run has {name}={value!r}; use a new store"
                )
    if not state:
        maker.save()  # commits what was read: nothing
        return maker, logs, []
    repaired = [root / name for name in LOGS if cut_to_length(root / name, logs[name].end)]
    return maker, logs, repaired


def load_specs(config: PipelineConfig) -> OntologySpec:
    if not config.ontology_paths:
        raise PipelineError("at least one ontology is required")
    return merged_or_single([load_ontology(Path(p)) for p in config.ontology_paths])


# The store's own copy of the merged ontology, relative to its root.
STORED_ONTOLOGY = "ontology.json"


def keep_ontology(root: Path, spec: OntologySpec) -> str:
    """Write the store's copy of *spec*; returns the sha256 of its bytes."""
    path = Path(root) / STORED_ONTOLOGY
    write_json(path, spec_to_dict(spec))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_stored_ontology(root: Path, manifest: dict[str, Any] | None) -> OntologySpec:
    """The ontology the store keeps, as *manifest*, the last commit's pin,
    records it. A missing or damaged copy, or one annotated by another
    annotator version, raises :class:`StoreFormatError` naming the file."""
    path = Path(root) / STORED_ONTOLOGY
    manifest = manifest or {}
    digest = manifest.get("stored_ontology_sha256")
    if digest is None:
        raise StoreFormatError(f"{path}: the last commit keeps no ontology to annotate with")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreFormatError(f"{path}: cannot read the store's ontology: {exc.strerror}") from None
    if hashlib.sha256(data).hexdigest() != digest:
        raise StoreFormatError(f"{path}: not the ontology the last commit kept (sha256 differs)")
    if manifest.get("annotator") != ANNOTATOR_VERSION:
        raise StoreFormatError(
            f"{path}: the store was annotated with annotator={manifest.get('annotator')!r}, "
            f"this program annotates with annotator={ANNOTATOR_VERSION}; use a new store"
        )
    try:
        return load_ontology(data.decode("utf-8"))
    except (OntologyError, UnicodeDecodeError) as exc:
        raise StoreFormatError(f"{path}: {exc}") from None


def store_manifest(config: PipelineConfig) -> dict[str, Any]:
    """What a store's derived records depend on: ontology bytes, grouping,
    horizon and the annotator's version."""
    digest = hashlib.sha256()
    for path in config.ontology_paths:
        try:
            digest.update(hashlib.sha256(Path(path).read_bytes()).digest())
        except OSError as exc:
            raise PipelineError(f"cannot read ontology {path}: {exc}") from exc
    return {
        "annotator": ANNOTATOR_VERSION,
        "ontology_sha256": digest.hexdigest(),
        "window": format_duration(config.window),
        "epsilon": format_duration(config.epsilon),
        "watermark": format_duration(config.watermark),
        "horizon_windows": config.horizon_windows,
    }


def run_pipeline(config: PipelineConfig, clock: Clock | None = None) -> RunSummary:
    """One full deterministic pass over the configured corpora."""
    clock = clock or config.clock()
    if not config.corpus_paths:
        raise PipelineError("at least one corpus is required")
    spec = load_specs(config)
    manifest = store_manifest(config)
    mask_key = config.mask_key()
    check_sources(config.corpus_paths, mask_key)  # before the lock makes the store
    summary = RunSummary(
        window=manifest["window"],
        epsilon=manifest["epsilon"],
        watermark=manifest["watermark"],
    )
    with StoreLock(config.store_root):
        stores = Stores(config, manifest, spec)
        summary.repaired = stores.repaired
        now = clock.now()

        ingest_summary = ingest_corpus(
            config.corpus_paths,
            stores.text,
            clock,
            mask_key=mask_key,
            mask_aliases=config.mask_aliases or None,
            consumed=stores.maker.corpora,
        )
        stores.maker.corpora.update(ingest_summary.consumed)
        summary.documents_ingested = ingest_summary.accepted
        summary.documents_rejected = ingest_summary.rejected

        matcher = stores.matcher = GazetteerMatcher(spec)
        produced = []
        # Pending: the documents stored since the last run's commit, by any command.
        pending = stores.text.list(start=stores.maker.annotated)
        stores.maker.annotated = stores.text.end()
        summary.documents_annotated = len(pending)
        for doc in pending:
            outcome = annotate_with_matcher(doc, matcher)
            produced.extend(outcome.chunks)
            summary.chunks_skipped += outcome.skipped
        summary.chunks_emitted = stores.organizer.add_chunks(produced)

        released = stores.organizer.close_window(now)
        summary.groups_released = len(released)
        # Chunks read at the open hold only a signature; synthesis reads the annotations.
        released = [replace(g, chunks=tuple(map(stores.whole, g.chunks))) for g in released]

        synthesized = synthesize_notes(released, spec, config.synthesis())
        summary.notes_synthesized = stores.notes.add_all(synthesized)

        # Append only, the refined store has refined none of this run's notes
        # yet, so no note is a duplicate: each comes from chunks released for
        # the first time. The gate still checks format and provenance.
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

        stores.maker.update_premature_cards(refined, spec, now)
        # Admit saves the maker last, which commits every log this run appended to.
        report = stores.manager.admit(stores.maker.open_candidates(), spec, now)
        summary.conflicts_detected = len(report.conflicts)
        summary.conflicts_resolved = sum(c.resolution == "expire-older" for c in report.conflicts)

        summary.cards_premature = len(stores.maker.premature_cards())
        summary.cards_committed = len(stores.ledger.cards(STATUS_COMMITTED))
        summary.cards_expired = len(stores.ledger.cards(STATUS_EXPIRED))
    summary.wall_time_seconds = round(clock.elapsed(), 3)
    return summary
