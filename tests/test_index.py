"""Opening a store takes each line's id from its canonical bytes.

A store reads each log once, checking it against the digest its commit
recorded, and takes what it indexes from bytes the digest vouches for with
one regex pass per block. That pass must give exactly the index that
decoding every line gives, and read ids only where the store format lets it:
the tests below pin both, so a schema change that breaks a scan fails here
instead of indexing the wrong id.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from functools import partial
from itertools import accumulate
from pathlib import Path

import pytest

from notecards import encoding, ingest, notes, organize, refine
from notecards.cards import read_commit
from notecards.cli import main as cli_main
from notecards.encoding import Log, canonical_json, scan_ids
from notecards.notes import NoteStore
from notecards.pipeline import PipelineConfig, Stores, run_pipeline
from notecards.refine import RefinedNoteStore, refine_notes

from conftest import FIXTURES, make_note, passthrough, utc
from test_pipeline import NOWS, PINNED, Corpora, many_subjects_corpus, record_pool


def vouched(path: Path) -> Log:
    """*path* as a commit that recorded its whole length and digest opens it."""
    data = path.read_bytes()
    return Log(path, len(data), hashlib.sha256(data).hexdigest())


def scan_of(pattern, lines: list[bytes]) -> list | None:
    """The id the scan reads in each of *lines*, None if it does not read
    one in each, as a log takes it; each line starts where the scan says."""
    text = b"".join(lines).decode("latin-1")
    read = scan_ids(pattern, text)
    if read is None or len(read[0]) != len(lines):
        return None
    ids, starts = read
    assert starts == [0, *accumulate(map(len, lines[:-1]))]
    return ids


def test_each_scan_reads_the_top_level_id_of_each_line():
    document = canonical_json({"doc_id": "d-1", "meta": {"doc_id": "z"}, "text": '{"doc_id":"q"'})
    chunk = canonical_json({"annotations": [{"kind": "k"}], "chunk_id": "c#0", "subject": "s"})
    note = canonical_json({"attributes": {"note_id": "x"}, "note_id": "n-1", "place": None})
    lines = [line.encode("ascii") + b"\n" for line in (document, chunk, note)]
    assert scan_of(ingest._DOCUMENT_ID, lines[:1] * 2) == ["d-1", "d-1"]
    assert scan_of(organize._CHUNK_ID, lines[1:2]) == ["c#0"]
    assert scan_of(notes._NOTE_ID, lines[2:] * 2) == ["n-1", "n-1"]
    # A line that holds no plain id sends the log to decoding.
    assert scan_of(notes._NOTE_ID, lines[2:] + [b'{"note_id":7}\n']) is None
    assert scan_of(notes._NOTE_ID, [b'{"note_id":"n\\u00e9"}\n'] + lines[2:]) is None


def test_a_log_that_holds_a_byte_no_canonical_line_holds_is_decoded(tmp_path):
    """A line that holds raw UTF-8, which a hand edit may leave and a commit
    then vouch for, reads as the id it decodes to, not as its bytes."""
    log = tmp_path / "notes.jsonl"
    log.write_bytes('{"note_id":"a"}\n{"note_id":"n\u00e9"}\n'.encode("utf-8"))
    scan = partial(scan_ids, notes._NOTE_ID)
    assert vouched(log).index(scan, partial(encoding.record_id, name="note_id")) == (
        ["a", "n\u00e9"], [0, 16]
    )
    assert NoteStore(tmp_path, vouched(log))._lines == {"a": 0, "n\u00e9": 16}


def test_a_log_whose_scan_or_digest_does_not_hold_is_decoded_and_named(tmp_path):
    log = tmp_path / "notes.jsonl"
    log.write_bytes(b'{"note_id":"a"}\n{"note_id":7}\n')
    build = lambda raw: raw["note_id"]  # noqa: E731
    scan = partial(scan_ids, notes._NOTE_ID)
    # The scan misses the second line, so every line is decoded instead.
    assert vouched(log).index(scan, build) == (["a", 7], [0, 16])
    good = vouched(log)
    log.write_bytes(b'{"note_id":"b"}\n{"note_id":7}\n')  # same length, other bytes
    with pytest.raises(encoding.StoreFormatError, match="its committed bytes differ from the sha256"):
        good.index(scan, build)
    log.write_bytes(b'{"note_id":"a"}\n{"note_id":\n\n')
    with pytest.raises(encoding.StoreFormatError, match="line 2 does not decode"):
        good.index(scan, build)


def decoding_every_line(patch) -> None:
    """Make every store index its logs by decoding each line, as without a digest."""
    index = Log.index
    patch.setattr(Log, "index", lambda self, scan, build: index(self, None, build))


def index_of(stores) -> dict:
    """What the stores keep of each log, in log order."""
    return {
        "documents": list(stores.text._lines.items()),
        "chunks": list(stores.organizer._lines.items()),
        "unreleased": list(stores.organizer._unreleased.items()),
        "notes": list(stores.notes._lines.items()),
        "refined": list(stores.refined._lines.items()),
        "processed": stores.refined.processed_note_ids(),
    }


def appended_to(root: Path) -> NoteStore:
    """The note store as ``run`` opens it: append only, it checks the log and indexes nothing."""
    return NoteStore(root / "notes", read_commit(root)[1]["notes/notes.jsonl"], append_only=True)


def counting_decoded_logs(patch, decoded: Counter) -> None:
    """Count the logs each store indexes by decoding every line."""
    decoded_lines = Log._decoded

    def counted(self, build):
        decoded[self.path.name] += 1
        return decoded_lines(self, build)

    patch.setattr(Log, "_decoded", counted)


def alcohol_with_a_total(root: Path) -> tuple[Path, list[str]]:
    """The alcohol ontology plus a second template on the same trigger that sums
    amounts, and a record pool whose every report names an amount: two notes of
    one horizon then conflict on ``amount``, and the max rule merges them."""
    spec = json.loads((FIXTURES / "alcohol.json").read_text(encoding="utf-8"))
    spec["note_templates"].append({
        "template_id": "t_drinking_total",
        "trigger": {"entity": "alcohol", "relationship": "consume"},
        "attribute_aggregations": {"amount": "sum"},
        "min_events": 2,
    })
    root.mkdir(parents=True)
    ontology = root / "alcohol-total.json"
    ontology.write_text(json.dumps(spec), encoding="utf-8")
    records = []
    lines = (FIXTURES / "alcohol_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        for drink in ("whiskey", "beers", "wine"):
            record["text"] = record["text"].replace(drink, f"{i + 2} {drink}")
        records.append(record)
    return ontology, record_pool(records)


@pytest.mark.parametrize("domain", ["jobs", "alcohol"])
def test_scanned_index_equals_the_decoded_one_over_random_run_sequences(
    tmp_path, monkeypatch, capsys, domain
):
    """The random sequences of test_incremental_runs_match_a_full_recompute,
    with the index compared after every command."""
    if domain == "jobs":
        ontology, pool = FIXTURES / "ocpd.json", None
    else:
        ontology, pool = alcohol_with_a_total(tmp_path / "alcohol")
    keys = []
    for name in ("a", "b"):
        keys.append(tmp_path / f"{name}.key")
        keys[-1].write_bytes(name.encode("ascii") * 32)
    decoded_logs: Counter = Counter()
    merged = 0  # refined lines that are not passthrough lines, over every scanned open
    for seed in range(16):
        rng = random.Random(seed)
        root = tmp_path / f"sequence-{seed}"
        corpora = Corpora(root / "corpora", rng, pool)
        key = rng.choice([None, *keys])
        config = PipelineConfig(store_root=root / "store")
        for now in sorted(rng.choices(NOWS, k=5)):
            corpora.change()
            if rng.random() < 0.2:
                key = rng.choice([None, *keys])
            command = rng.choice(["run", "run", "ingest"])
            argv = [command, *corpora.arguments(), "--now", now, "--store", str(config.store_root)]
            argv += ["--ontology", str(ontology)] if command == "run" else []
            argv += ["--mask-key-file", str(key)] if key else []
            assert cli_main(argv) == 0
            with monkeypatch.context() as patch:
                counting_decoded_logs(patch, decoded_logs)
                scanned = index_of(Stores(config))
                assert len(appended_to(config.store_root)) == len(scanned["notes"])
            refined = config.store_root / "refined" / "refined.jsonl"
            lines = refined.read_bytes().splitlines() if refined.exists() else []
            merged += sum(b'"passthrough":false' in line for line in lines)
            with monkeypatch.context() as patch:
                decoding_every_line(patch)
                decoded = index_of(Stores(config))
            assert scanned == decoded, (seed, now)
    capsys.readouterr()
    # Every document, chunk, note and refined log scans; only the logs that
    # are always decoded are, and the scan decodes the merged refined lines.
    assert set(decoded_logs) <= {"released.jsonl", "log.jsonl"}
    assert (merged > 0) == (domain == "alcohol")


def test_an_attribute_named_like_an_id_key_is_not_read_as_the_id(tmp_path):
    decoy = make_note(attributes={"note_id": "n-decoy", "refined_id": "rn-decoy", "zz": 1.0})
    notes_root, refined_root = tmp_path / "notes", tmp_path / "refined"
    NoteStore(notes_root).add_all([decoy])
    RefinedNoteStore(refined_root, NoteStore(notes_root)).add_all([passthrough(decoy)])
    line = (notes_root / "notes.jsonl").read_bytes()
    assert b'"note_id":"n-decoy"' in line and b'"refined_id":"rn-decoy"' in line
    # The passthrough line names its note and holds none of the note's fields.
    assert (refined_root / "refined.jsonl").read_bytes() == canonical_json({
        "applied_rules": [], "note_id": decoy.note_id, "passthrough": True,
        "refined_id": passthrough(decoy).refined_id,
    }).encode("ascii") + b"\n"
    reopened_notes = NoteStore(notes_root, vouched(notes_root / "notes.jsonl"))
    assert reopened_notes._lines == {decoy.note_id: 0}
    reopened = RefinedNoteStore(refined_root, reopened_notes, vouched(refined_root / "refined.jsonl"))
    assert reopened._lines == {passthrough(decoy).refined_id: 0}
    assert reopened.processed_note_ids() == {decoy.note_id}
    assert reopened.get(passthrough(decoy).refined_id) == passthrough(decoy)


def test_a_merged_refined_line_is_indexed_by_decoding_it(tmp_path, alcohol_spec):
    notes_in = [
        make_note(subject="a", attributes={"amount": amount}, start=utc(2011, 10, 14),
                  end=utc(2011, 10, 14), provenance=(f"c{amount}",))
        for amount in (2.0, 5.0)
    ]
    [merged] = refine_notes(notes_in, alcohol_spec)
    assert not merged.passthrough
    RefinedNoteStore(tmp_path, NoteStore(tmp_path)).add_all([merged])
    line = (tmp_path / "refined.jsonl").read_bytes()
    inputs = tuple(sorted(note.note_id for note in notes_in))
    assert refine._scan_refined(line.decode("ascii")) == ([(merged.refined_id, inputs)], [0])
    # It holds its merged note, and all refined_to_dict gives but the unread schema_version.
    expected = refine.refined_to_dict(merged)
    assert expected.pop("schema_version") == 1
    assert json.loads(line) == expected
    reopened = RefinedNoteStore(tmp_path, NoteStore(tmp_path), vouched(tmp_path / "refined.jsonl"))
    assert reopened._lines == {merged.refined_id: 0}
    assert reopened.processed_note_ids() == {note.note_id for note in notes_in}


def test_refined_lines_read_back_as_the_records_the_run_built(tmp_path, monkeypatch):
    """Passthrough lines, whose notes come from the note log, and merged lines alike."""
    ontology, pool = alcohol_with_a_total(tmp_path / "alcohol")
    corpus = tmp_path / "alcohol.jsonl"
    corpus.write_text("\n".join(pool[:-2]) + "\n", encoding="utf-8")
    config = PipelineConfig(
        ontology_paths=[FIXTURES / "ocpd.json", ontology],
        corpus_paths=[FIXTURES / "jobs_corpus.jsonl", corpus],
        store_root=tmp_path / "store", now_override="2011-11-20T00:00:00Z",
    )
    built = []
    add_all = RefinedNoteStore.add_all

    def keeping(self, records):
        records = list(records)
        built.extend(records)
        return add_all(self, records)

    monkeypatch.setattr(RefinedNoteStore, "add_all", keeping)
    run_pipeline(config)
    assert {record.passthrough for record in built} == {True, False}
    stores = Stores(config)
    assert stores.refined.read_all() == built
    assert [stores.refined.get(record.refined_id) for record in built] == built


def holds_object(value) -> bool:
    return isinstance(value, dict) or (
        isinstance(value, list) and any(holds_object(item) for item in value)
    )


def objects_after(record: dict, key: str) -> list[str]:
    """The keys sorted after *key*, one of *record*, whose values hold an object."""
    assert key in record
    return [name for name in record if name > key and holds_object(record[name])]


def test_no_key_sorted_after_an_id_key_holds_an_object(tmp_path):
    """What each store's scan rests on, over the records of real stores:
    jobs and alcohol in one run, and alcohol with merged refined notes."""
    ontology, pool = alcohol_with_a_total(tmp_path / "alcohol")
    corpus = tmp_path / "alcohol.jsonl"
    corpus.write_text("\n".join(pool[:-2]) + "\n", encoding="utf-8")
    stores = [tmp_path / "both", tmp_path / "merged"]
    run_pipeline(PipelineConfig(
        ontology_paths=[FIXTURES / "ocpd.json", FIXTURES / "alcohol.json"],
        corpus_paths=[FIXTURES / "jobs_corpus.jsonl", FIXTURES / "alcohol_corpus.jsonl"],
        store_root=stores[0], now_override=PINNED,
    ))
    run_pipeline(PipelineConfig(
        ontology_paths=[ontology], corpus_paths=[corpus], store_root=stores[1],
        now_override="2011-11-20T00:00:00Z",
    ))
    seen = Counter()
    for root in stores:
        for name in ("documents/documents.jsonl", "chunks/chunks.jsonl",
                     "notes/notes.jsonl", "refined/refined.jsonl"):
            for line in (root / name).read_bytes().splitlines():
                record = json.loads(line)
                assert canonical_json(record).encode("ascii") == line
                if name.startswith("documents"):
                    assert min(record) == "doc_id"  # the scan reads it only at the start
                elif name.startswith("chunks"):
                    assert objects_after(record, "chunk_id") == []
                    # Its id says its document and sentence, and its provenance is itself;
                    # annotating its document again says its annotations.
                    assert list(record) == [
                        "chunk_id", "place", "quantities", "signature", "subject", "time"
                    ]
                elif name.startswith("notes"):
                    assert objects_after(record, "note_id") == []
                elif record["passthrough"]:  # the scan reads the whole line
                    assert list(record) == ["applied_rules", "note_id", "passthrough", "refined_id"]
                    assert record["applied_rules"] == [] and not holds_object(list(record.values()))
                    found = refine._REFINED_LINE.findall(line.decode("ascii") + "\n")
                    assert found[0] == (record["note_id"], record["refined_id"], "")
                    seen["passthrough"] += 1
                else:  # the scan decodes it
                    assert record["applied_rules"] and "note" in record
                    found = refine._REFINED_LINE.findall(line.decode("ascii") + "\n")
                    assert found[0] == ("", "", line.decode("ascii"))
                    seen["merged"] += 1
                seen[name] += 1
    assert seen["merged"] and seen["passthrough"] and len(seen) == 6


def decodes(patch) -> Counter:
    """Count the log lines each log has decoded, by path relative to the store."""
    counts: Counter = Counter()
    decode = encoding._decode

    def counting(path, *args):
        counts[f"{Path(path).parent.name}/{Path(path).name}"] += 1
        return decode(path, *args)

    patch.setattr(encoding, "_decode", counting)
    return counts


def store_after_a_rerun(tmp_path: Path, subjects: int) -> PipelineConfig:
    """A store of *subjects* copies of the jobs fixture, rerun with one more
    subject at a time that leaves the chunks of the last weeks unreleased."""
    config = PipelineConfig(
        ontology_paths=[FIXTURES / "ocpd.json"],
        store_root=tmp_path / f"store-{subjects}",
        now_override="2011-11-03T00:00:00Z",
    )
    for count in (subjects, subjects + 1):
        (tmp_path / f"corpus-{count}").mkdir()
        config.corpus_paths = [many_subjects_corpus(tmp_path / f"corpus-{count}", count)]
        run_pipeline(config)
    return config


def open_budget(root: Path) -> Counter:
    """The lines an open may decode: each released line, each ledger line, and
    each chunk that no released line names."""
    def lines(name: str) -> list[bytes]:
        return (root / name).read_bytes().splitlines()

    released = [json.loads(line) for line in lines("chunks/released.jsonl")]
    named = {chunk_id for record in released for ids in record.values() for chunk_id in ids}
    chunks = [json.loads(line)["chunk_id"] for line in lines("chunks/chunks.jsonl")]
    ledger = lines("cards/log.jsonl")
    budget = Counter({"chunks/released.jsonl": len(released), "cards/log.jsonl": len(ledger),
                      "chunks/chunks.jsonl": sum(chunk_id not in named for chunk_id in chunks)})
    return +budget


def test_store_open_after_a_rerun_decodes_only_what_it_keeps_decoded(tmp_path, monkeypatch):
    """The open decodes the released lines, the ledger and the unreleased chunks,
    and not one document, note or refined line more, at N and at 2N documents."""
    beyond = []
    for subjects in (2, 4):
        config = store_after_a_rerun(tmp_path, subjects)
        with monkeypatch.context() as patch:
            counts = decodes(patch)
            Stores(config)
        assert counts == open_budget(config.store_root), subjects
        beyond.append(counts["documents/documents.jsonl"] + counts["notes/notes.jsonl"]
                      + counts["refined/refined.jsonl"])
    assert beyond == [0, 0]


def test_notes_list_decodes_each_note_line_once(tmp_path, monkeypatch, capsys):
    config = store_after_a_rerun(tmp_path, 2)
    lines = len((config.store_root / "notes/notes.jsonl").read_bytes().splitlines())
    with monkeypatch.context() as patch:
        counts = decodes(patch)
        assert cli_main(["notes", "list", "--store", str(config.store_root)]) == 0
    assert f"({lines} notes)" in capsys.readouterr().out
    assert counts == Counter({"notes/notes.jsonl": lines})
