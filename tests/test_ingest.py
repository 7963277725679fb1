from __future__ import annotations

import json
import random
import uuid
from pathlib import Path

import pytest

from notecards import ingest
from notecards.clock import Clock, parse_instant
from notecards.ingest import (
    IngestError,
    SourceMeta,
    TextStore,
    derive_doc_id,
    ingest_corpus,
    make_document,
    mask_fingerprint,
    mask_subjects,
    mask_token,
)

from conftest import utc

CLOCK = Clock(fixed=utc(2011, 11, 13))


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def corpus_records() -> list[dict]:
    return [
        {
            "text": "He locks away expansion slots.",
            "source_uri": "bio://ch01",
            "timestamp": "2011-10-14T09:00:00Z",
            "subjects": ["steve"],
        },
        {
            "text": "He dictates white factory walls.",
            "source_uri": "bio://ch02",
            "timestamp": "2011-10-15T09:00:00Z",
            "subjects": ["steve"],
            "place": "the plant",
        },
        {
            "text": "He refuses flatly all trade-offs.",
            "source_uri": "bio://ch03",
            "subjects": ["steve"],
        },
    ]


def test_ingest_accepts_well_formed_records(tmp_path):
    corpus = write_jsonl(tmp_path / "c.jsonl", corpus_records())
    store = TextStore(tmp_path / "docs")
    summary = ingest_corpus([corpus], store, CLOCK)
    assert summary.accepted == 3
    assert summary.rejected == 0
    assert len(store) == 3


def test_reingest_is_a_noop(tmp_path):
    corpus = write_jsonl(tmp_path / "c.jsonl", corpus_records())
    store = TextStore(tmp_path / "docs")
    ingest_corpus([corpus], store, CLOCK)
    size_before = len(store)
    log = tmp_path / "docs" / "documents.jsonl"
    before = log.read_bytes()
    summary = ingest_corpus([corpus], store, CLOCK)
    assert len(store) == size_before
    assert summary.duplicates == 3
    # An all-duplicate pass appends nothing.
    assert log.read_bytes() == before
    assert sorted(p.name for p in log.parent.iterdir()) == ["documents.jsonl"]


MALFORMED = {
    "no-text": {"source_uri": "bio://ch04"},
    "number-place": {"text": "He rests.", "source_uri": "bio://ch04", "place": 5},
    "false-subjects": {"text": "He rests.", "source_uri": "bio://ch04", "subjects": False},
    "empty-string-subjects": {"text": "He rests.", "source_uri": "bio://ch04", "subjects": ""},
    "number-timestamp": {"text": "He rests.", "source_uri": "bio://ch04", "timestamp": 5},
    "boolean-timestamp": {"text": "He rests.", "source_uri": "bio://ch04", "timestamp": True},
    "list-timestamp": {"text": "He rests.", "source_uri": "bio://ch04", "timestamp": ["2011"]},
    "empty-timestamp": {"text": "He rests.", "source_uri": "bio://ch04", "timestamp": ""},
    "out-of-range-timestamp": {
        "text": "He rests.", "source_uri": "bio://ch04", "timestamp": "0001-01-01T00:00:00+01:00",
    },
}


@pytest.mark.parametrize("malformed", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_record_rejected_without_aborting(tmp_path, malformed):
    records = corpus_records()[:2] + [malformed]
    corpus = write_jsonl(tmp_path / "c.jsonl", records)
    store = TextStore(tmp_path / "docs")
    summary = ingest_corpus([corpus], store, CLOCK)
    assert summary.accepted == 2
    assert summary.rejected == 1


def test_unreadable_source_raises(tmp_path):
    store = TextStore(tmp_path / "docs")
    with pytest.raises(IngestError):
        ingest_corpus([tmp_path / "missing.jsonl"], store, CLOCK)


def test_plain_text_file_is_one_document(tmp_path):
    source = tmp_path / "memo.txt"
    source.write_text("He treasures psychedelic sessions.\r\nSecond line.", encoding="utf-8")
    store = TextStore(tmp_path / "docs")
    summary = ingest_corpus([source], store, CLOCK)
    assert summary.accepted == 1
    doc = store.list()[0]
    assert "\r" not in doc.text  # LF normalization
    assert doc.meta.format_tag == "plain"


def test_get_returns_identical_text(tmp_path):
    corpus = write_jsonl(tmp_path / "c.jsonl", corpus_records())
    store = TextStore(tmp_path / "docs")
    ingest_corpus([corpus], store, CLOCK)
    doc = store.list()[0]
    again = TextStore(tmp_path / "docs").get(doc.doc_id)
    assert again.text == doc.text
    assert again == doc


def test_get_unknown_doc_id(tmp_path):
    store = TextStore(tmp_path / "docs")
    with pytest.raises(IngestError):
        store.get("nope")


def test_list_empty_store(tmp_path):
    assert TextStore(tmp_path / "docs").list() == []


def test_doc_id_is_stable_across_processes():
    doc_id = derive_doc_id(
        "He admits no middle ground.", "bio://ch07", parse_instant("2011-10-20T12:00:00Z")
    )
    # Name-based UUID; equal triples yield equal ids on any machine.
    assert doc_id == derive_doc_id(
        "He admits no middle ground.", "bio://ch07", parse_instant("2011-10-20T12:00:00Z")
    )
    assert doc_id == "5ab67dd0-d497-577d-a4d1-9ee2c57742d4"


def test_doc_id_distinguishes_the_triple():
    base = derive_doc_id("text", "uri", None)
    assert derive_doc_id("text2", "uri", None) != base
    assert derive_doc_id("text", "uri2", None) != base
    assert derive_doc_id("text", "uri", utc(2020, 1, 1)) != base


# ---------------------------------------------------------------------------
# Masking
# ---------------------------------------------------------------------------


def sample_doc(subjects=("steve",), text="Steve spurns regular showers."):
    meta = SourceMeta(source_uri="bio://ch05", subjects=tuple(subjects))
    return make_document(text, meta, ingested_at=CLOCK.now())


def test_masking_is_deterministic():
    doc = sample_doc()
    key = b"0123456789abcdef"
    first = mask_subjects(doc, key)
    second = mask_subjects(doc, key)
    assert first.meta.subjects == second.meta.subjects
    assert first.meta.subjects[0] != "steve"
    assert len(first.meta.subjects[0]) == 32  # fixed-length hex token
    int(first.meta.subjects[0], 16)


def test_masking_differs_across_keys():
    doc = sample_doc()
    a = mask_subjects(doc, b"0123456789abcdef")
    b = mask_subjects(doc, b"fedcba9876543210")
    assert a.meta.subjects != b.meta.subjects


def test_cross_key_collisions_absent():
    # 10^4 random (key, subject) pairs must all produce distinct tokens.
    rng = random.Random(301_4)
    seen = set()
    for _ in range(10_000):
        key = rng.randbytes(16)
        subject = f"subject-{rng.randrange(10**9)}"
        token = mask_token(key, subject)
        assert token not in seen
        seen.add(token)


def test_masking_empty_subjects_only_sets_flag():
    doc = sample_doc(subjects=())
    masked = mask_subjects(doc, b"0123456789abcdef")
    assert masked.masked is True
    assert masked.text == doc.text
    assert masked.meta.subjects == ()
    assert masked.doc_id == doc.doc_id


def test_masking_preserves_subject_count():
    doc = sample_doc(subjects=("steve", "woz"))
    masked = mask_subjects(doc, b"0123456789abcdef")
    assert len(masked.meta.subjects) == 2
    assert len(set(masked.meta.subjects)) == 2


def test_masking_replaces_configured_aliases_in_text():
    doc = sample_doc()
    masked = mask_subjects(
        doc, b"0123456789abcdef", aliases={"steve": ("Steve",)}
    )
    token = mask_token(b"0123456789abcdef", "steve")
    assert "Steve" not in masked.text
    assert token in masked.text
    # doc_id tracks the rewritten text.
    assert masked.doc_id != doc.doc_id


def test_short_key_rejected():
    with pytest.raises(IngestError):
        mask_subjects(sample_doc(), b"short")


def test_list_from_an_offset_keeps_ingestion_order_across_ingests(tmp_path):
    records = corpus_records()
    store = TextStore(tmp_path / "docs")
    ingest_corpus([write_jsonl(tmp_path / "a.jsonl", records[:2])], store, CLOCK)
    middle = store.end()
    ingest_corpus([write_jsonl(tmp_path / "b.jsonl", records[2:])], store, CLOCK)
    assert sorted(p.name for p in store.root.iterdir()) == ["documents.jsonl"]
    every = store.list()
    assert [doc.meta.source_uri for doc in every] == ["bio://ch01", "bio://ch02", "bio://ch03"]
    assert every == [store.get(doc.doc_id) for doc in every]
    assert store.list(start=middle) == every[2:]
    assert store.list(start=store.end()) == []
    assert store.end() == (tmp_path / "docs" / "documents.jsonl").stat().st_size


def test_reopened_store_indexes_every_document_at_its_offset(tmp_path):
    store = TextStore(tmp_path / "docs")
    ingest_corpus([write_jsonl(tmp_path / "a.jsonl", corpus_records())], store, CLOCK)
    reopened = TextStore(tmp_path / "docs")
    assert len(reopened) == 3
    assert reopened.list() == store.list()
    assert all(doc.doc_id in reopened for doc in store.list())
    assert reopened.end() == store.end()


def test_list_opens_the_log_once(tmp_path, monkeypatch):
    store = TextStore(tmp_path / "docs")
    ingest_corpus([write_jsonl(tmp_path / "a.jsonl", corpus_records())], store, CLOCK)
    reopened = TextStore(tmp_path / "docs")
    opened = []
    path_open = Path.open

    def counted_open(self, *args, **kwargs):
        opened.append(self.name)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted_open)
    assert len(reopened.list()) == 3
    assert opened == ["documents.jsonl"]
    # The store that appended the documents serves them without reading the log.
    assert len(store.list()) == 3
    assert opened == ["documents.jsonl"]


def random_timestamp(rng: random.Random) -> str:
    """An RFC-3339 instant: some years before 1000, some microseconds, any offset."""
    year = rng.choice([rng.randint(100, 999), rng.randint(1990, 2030)])
    month, day, hour = rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 23)
    stamp = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:00:00"
    if rng.random() < 0.5:
        stamp += f".{rng.randint(0, 999999):06d}"
    return stamp + rng.choice(["Z", "+00:00", "+05:30", "-08:00", ""])


def random_records(rng: random.Random, count: int) -> list[dict]:
    records = []
    for k in range(count):
        record = {
            "text": rng.choice(["Steve", "Jobs", "Café", "naïve ☕", "Wozniak\r\n"]) + f" {k}.",
            "source_uri": f"bio://{rng.randint(0, 5)}",
            "subjects": rng.sample(["steve", "woz", "jony"], rng.randint(0, 2)),
        }
        if rng.random() < 0.8:
            record["timestamp"] = random_timestamp(rng)
        if rng.random() < 0.5:
            record["place"] = rng.choice(["the plant", "Cupertino", ""])
        records.append(record)
    return records + rng.sample(records, 3)  # duplicates are stored once


@pytest.mark.parametrize("seed", range(4))
def test_documents_a_store_appended_equal_the_documents_read_from_its_log(tmp_path, seed):
    rng = random.Random(seed)
    options = {}
    if seed % 2:
        options = {"mask_key": b"0123456789abcdef", "mask_aliases": {"steve": ("Steve",)}}
    records = random_records(rng, 40)
    earlier = write_jsonl(tmp_path / "earlier.jsonl", records[:15])
    later = write_jsonl(tmp_path / "later.jsonl", records[15:])
    # Documents an earlier ingest logged are pending for the next run.
    ingest_corpus([earlier], TextStore(tmp_path / "docs"), Clock(), **options)
    writer = TextStore(tmp_path / "docs")
    ingest_corpus([earlier, later], writer, Clock(), **options)  # unpinned: microseconds
    reader = TextStore(tmp_path / "docs")
    assert len(reader) == len(writer) == len({json.dumps(r, sort_keys=True) for r in records})
    starts = {0, writer.end(), *rng.sample(range(writer.end()), 30)}
    for start in sorted(starts):
        assert writer.list(start) == reader.list(start)
    assert all(doc.masked == bool(options) for doc in writer.list())


# ---------------------------------------------------------------------------
# Reruns parse only what a corpus gained since the last commit
# ---------------------------------------------------------------------------


def count_parsed(monkeypatch) -> list[str]:
    parsed = []
    parse_line = ingest._parse_line

    def counted(line, clock):
        parsed.append(line)
        return parse_line(line, clock)

    monkeypatch.setattr(ingest, "_parse_line", counted)
    return parsed


def append(path: Path, text: str) -> None:
    with path.open("a", encoding="utf-8", newline="") as handle:
        handle.write(text)


def test_a_rerun_parses_only_what_the_corpus_gained(tmp_path, monkeypatch):
    records = corpus_records()
    corpus = write_jsonl(tmp_path / "c.jsonl", records[:2])
    stores = [TextStore(tmp_path / "lean"), TextStore(tmp_path / "whole")]
    first = [ingest_corpus([corpus], store, CLOCK) for store in stores]
    append(corpus, json.dumps(records[2]) + "\n{not json\n")
    parsed = count_parsed(monkeypatch)
    lean = ingest_corpus([corpus], stores[0], CLOCK, consumed=first[0].consumed)
    assert len(parsed) == 2
    whole = ingest_corpus([corpus], stores[1], CLOCK)
    assert len(parsed) == 2 + 4
    # The skipped prefix counts as a whole parse counts it.
    assert (lean.accepted, lean.duplicates, lean.rejected) == (3, 2, 1)
    assert (whole.accepted, whole.duplicates, whole.rejected) == (3, 2, 1)
    assert lean.consumed == whole.consumed
    [record] = lean.consumed.values()
    assert record["length"] == corpus.stat().st_size
    assert (record["accepted"], record["rejected"], record["mask"]) == (3, 1, None)
    assert stores[0].list() == stores[1].list()


def test_a_changed_prefix_or_masking_parses_the_whole_corpus(tmp_path, monkeypatch):
    corpus = write_jsonl(tmp_path / "c.jsonl", corpus_records())
    store = TextStore(tmp_path / "docs")
    key = b"0123456789abcdef"
    consumed = ingest_corpus([corpus], store, CLOCK, mask_key=key).consumed
    parsed = count_parsed(monkeypatch)
    ingest_corpus([corpus], store, CLOCK, mask_key=key, consumed=consumed)
    assert parsed == []
    for options in ({}, {"mask_key": b"fedcba9876543210"},
                    {"mask_key": key, "mask_aliases": {"steve": ("Steve",)}}):
        ingest_corpus([corpus], store, CLOCK, consumed=consumed, **options)
        assert len(parsed) == 3
        parsed.clear()
    data = corpus.read_bytes()
    corpus.write_bytes(data.replace(b"ch01", b"ch09"))  # same length, other bytes
    summary = ingest_corpus([corpus], store, CLOCK, mask_key=key, consumed=consumed)
    assert len(parsed) == 3
    assert summary.accepted - summary.duplicates == 1
    corpus.write_bytes(data[:10])  # shorter than what was consumed
    summary = ingest_corpus([corpus], store, CLOCK, mask_key=key, consumed=consumed)
    assert (summary.accepted, summary.rejected) == (0, 1)


def test_a_line_still_being_written_is_parsed_until_it_ends(tmp_path, monkeypatch):
    records = corpus_records()
    corpus = write_jsonl(tmp_path / "c.jsonl", records[:2])
    whole = json.dumps(records[2]) + "\n"
    append(corpus, whole[:20])
    store = TextStore(tmp_path / "docs")
    first = ingest_corpus([corpus], store, CLOCK)
    assert (first.accepted, first.rejected) == (2, 1)
    [record] = first.consumed.values()
    assert record["length"] == corpus.stat().st_size - 20
    append(corpus, whole[20:])
    parsed = count_parsed(monkeypatch)
    second = ingest_corpus([corpus], store, CLOCK, consumed=first.consumed)
    assert len(parsed) == 1
    assert (second.accepted, second.duplicates, second.rejected) == (3, 2, 0)


def test_a_line_that_is_not_utf8_is_one_rejected_record(tmp_path, monkeypatch):
    good = [json.dumps(record).encode("utf-8") for record in corpus_records()[:2]]
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(good[0] + b"\n\xff\xfe bad\n" + good[1] + b"\n")
    store = TextStore(tmp_path / "docs")
    first = ingest_corpus([corpus], store, CLOCK)
    assert (first.accepted, first.rejected) == (2, 1)
    [record] = first.consumed.values()
    assert (record["length"], record["accepted"], record["rejected"]) == (corpus.stat().st_size, 2, 1)
    parsed = count_parsed(monkeypatch)
    second = ingest_corpus([corpus], store, CLOCK, consumed=first.consumed)
    assert parsed == []
    assert (second.accepted, second.duplicates, second.rejected) == (2, 2, 1)


def test_a_plain_text_file_that_is_not_utf8_is_rejected_as_an_empty_one_is(tmp_path):
    store = TextStore(tmp_path / "docs")
    for name, data in (("latin1.txt", b"caf\xe9"), ("empty.txt", b" \n")):
        (tmp_path / name).write_bytes(data)
        summary = ingest_corpus([tmp_path / name], store, CLOCK)
        assert (summary.accepted, summary.rejected) == (0, 1), name
    assert len(store) == 0


def test_lines_split_as_text_mode_splits_them(tmp_path):
    records = [json.dumps(record) for record in corpus_records()]
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(f"{records[0]}\r\n{records[1]}\r{records[2]}\n\r\n \n".encode("utf-8"))
    with corpus.open("r", encoding="utf-8") as handle:
        assert len([line for line in handle if line.strip()]) == 3
    summary = ingest_corpus([corpus], TextStore(tmp_path / "docs"), CLOCK)
    assert (summary.accepted, summary.rejected) == (3, 0)
    [record] = summary.consumed.values()
    assert (record["length"], record["accepted"]) == (corpus.stat().st_size, 3)


def test_the_mask_fingerprint_keys_the_settings_without_revealing_the_key():
    key = b"0123456789abcdef"
    fingerprint = mask_fingerprint(key, None)
    assert mask_fingerprint(None, None) is None
    assert len(fingerprint) == 32 and key.hex() not in fingerprint
    assert fingerprint == mask_fingerprint(key, {})
    assert fingerprint != mask_fingerprint(b"fedcba9876543210", None)
    assert fingerprint != mask_fingerprint(key, {"steve": ("Steve",)})


def test_name_uuid_equals_uuid5_of_the_joined_parts():
    rng = random.Random(23)
    alphabet = 'aZ0 "\\\n\x00\x1fé☕\U0001F600/'
    for _ in range(2000):
        parts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
                 for _ in range(rng.randint(1, 4))]
        expected = str(uuid.uuid5(ingest.ID_NAMESPACE, "\x1f".join(parts)))
        assert ingest.name_uuid(*parts) == expected
