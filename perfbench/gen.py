"""Workload inputs generated from the shipped jobs fixture.

Every subject gets the 20 jobs sentences once per repetition. Repetition
``r`` moves them forward by ``r`` whole 28-day horizons, so window (7 d)
and horizon (4 windows) bucketing stay aligned to the epoch exactly as in
the original fixture. The seed picks the subject ids, a whole-horizon
offset for the first repetition and the record order inside each corpus
file; nothing else depends on it.

The expectations (scores, notes per subject, source URIs) come from the
fixture files read as plain JSON, never from the program's own output.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
WINDOW = timedelta(days=7)
HORIZON = 4 * WINDOW
WATERMARK = timedelta(days=2)
MAX_OFFSET_HORIZONS = 24


def _parse(stamp: str) -> datetime:
    return datetime.fromisoformat(stamp.replace("Z", "+00:00"))


def _format(instant: datetime) -> str:
    return instant.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class Fixture:
    """The jobs fixture and what it implies for one subject and repetition."""

    records: list[dict]
    ontology: Path
    concept_id: str
    threshold: int
    min_score: int
    row_scores: tuple[int, ...]  # per criterion, one repetition
    notes_per_rep: int


def load_fixture(fixtures: Path) -> Fixture:
    records = [
        json.loads(line)
        for line in (fixtures / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    for record in records:
        text = record["text"].strip()
        # One chunk per record holds only if each text is a single sentence.
        if text[-1] not in ".!?" or re.search(r"[.!?]\s", text):
            raise ValueError(f"fixture text is not one sentence: {text!r}")
    rows = json.loads((fixtures / "jobs_rows.json").read_text(encoding="utf-8"))
    ontology = fixtures / "ocpd.json"
    spec = json.loads(ontology.read_text(encoding="utf-8"))
    if len(spec["concepts"]) != 1:
        raise ValueError("expected exactly one concept in ocpd.json")
    if spec["refinement_policies"]:
        # With no policies every note passes refinement unchanged, which is
        # what makes refined-note counts predictable from the rows.
        raise ValueError("expected no refinement policies in ocpd.json")
    concept = spec["concepts"][0]
    row_scores = [0] * len(concept["criteria"])
    for row in rows:
        for index in row["criteria"]:
            row_scores[index - 1] += 1
    events: dict[str, int] = {}
    for row in rows:
        for template in spec["note_templates"]:
            trigger = template["trigger"]
            if (trigger["entity"], trigger["relationship"]) == (row["entity"], row["relationship"]):
                events[template["template_id"]] = events.get(template["template_id"], 0) + 1
    notes_per_rep = sum(
        1
        for template in spec["note_templates"]
        if events.get(template["template_id"], 0) >= template.get("min_events", 1)
    )
    return Fixture(
        records=records,
        ontology=ontology,
        concept_id=concept["concept_id"],
        threshold=concept["threshold"],
        min_score=concept["min_score_per_criterion"],
        row_scores=tuple(row_scores),
        notes_per_rep=notes_per_rep,
    )


@dataclass
class Inputs:
    root: Path
    store: Path
    config: Path  # base corpora only
    config_plus: Path  # base corpora plus the new ones
    subjects: list[str]
    new_subjects: list[str]
    repetitions: int
    docs: int  # base documents
    new_docs: int
    concept_id: str
    threshold: int
    scores: tuple[int, ...]  # every card's expected score vector
    criteria_met: int
    notes_per_subject: int
    uris: dict[str, set[str]]

    def card_id(self, subject: str) -> str:
        return f"{self.concept_id}@{subject}#g1"


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def generate(
    root: Path,
    fixtures: Path,
    seed: int,
    subjects: int,
    repetitions: int,
    new_subjects: int = 0,
) -> Inputs:
    """Write corpora and configs under ``root``; the same seed gives the same files."""
    fixture = load_fixture(fixtures)
    rng = random.Random(seed)
    names: list[str] = []
    while len(names) < subjects + new_subjects:
        name = f"s{rng.getrandbits(32):08x}"
        if name not in names:
            names.append(name)
    offset = rng.randrange(MAX_OFFSET_HORIZONS)
    base, new = names[:subjects], names[subjects:]

    uris: dict[str, set[str]] = {name: set() for name in names}
    latest = EPOCH

    def records_for(subject: str, rep: int) -> list[dict]:
        nonlocal latest
        shift = (offset + rep) * HORIZON
        out = []
        for row, record in enumerate(fixture.records):
            stamp = _parse(record["timestamp"]) + shift
            latest = max(latest, stamp)
            uri = f"bench://{subject}/r{rep}/row{row + 1:02d}"
            uris[subject].add(uri)
            out.append(
                {"text": record["text"], "source_uri": uri,
                 "timestamp": _format(stamp), "subjects": [subject]}
            )
        return out

    root.mkdir(parents=True, exist_ok=True)
    corpora = []
    for rep in range(repetitions):
        records = [r for subject in base for r in records_for(subject, rep)]
        rng.shuffle(records)
        corpora.append(root / f"corpus-r{rep}.jsonl")
        _write_jsonl(corpora[-1], records)
    new_corpora = []
    if new:
        records = [r for subject in new for rep in range(repetitions) for r in records_for(subject, rep)]
        rng.shuffle(records)
        new_corpora.append(root / "corpus-new.jsonl")
        _write_jsonl(new_corpora[-1], records)

    # Release needs window end + watermark <= now; one more day of margin.
    window_end = EPOCH + ((latest - EPOCH) // WINDOW + 1) * WINDOW
    now = window_end + WATERMARK + timedelta(days=1)
    store = root / "store"

    def write_config(path: Path, corpus: list[Path]) -> Path:
        config = {
            "ontology": [str(fixture.ontology.resolve())],
            "corpus": [str(p.resolve()) for p in corpus],
            "store": str(store.resolve()),
            "organize": {"window": "7d", "epsilon": "1d", "watermark": "2d"},
            "notes": {"horizon_windows": 4},
            "now": _format(now),
        }
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    scores = tuple(repetitions * s for s in fixture.row_scores)
    per_subject = repetitions * len(fixture.records)
    return Inputs(
        root=root,
        store=store,
        config=write_config(root / "config.json", corpora),
        config_plus=write_config(root / "config-plus.json", corpora + new_corpora),
        subjects=base,
        new_subjects=new,
        repetitions=repetitions,
        docs=len(base) * per_subject,
        new_docs=len(new) * per_subject,
        concept_id=fixture.concept_id,
        threshold=fixture.threshold,
        scores=scores,
        criteria_met=sum(1 for s in scores if s >= fixture.min_score),
        notes_per_subject=repetitions * fixture.notes_per_rep,
        uris=uris,
    )
