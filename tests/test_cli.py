from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from notecards import cards, cli, encoding, ingest, notes, organize, pipeline, refine
from notecards.cards import LOGS, CardLedger, CardMaker
from notecards.cli import main
from notecards.ingest import TextStore
from notecards.notes import NoteStore
from notecards.organize import OrganizerStore
from notecards.pipeline import StoreLock
from notecards.refine import RefinedNoteStore

from conftest import FIXTURES, commit_as_it_stands, store_bytes


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def fixture_store(tmp_path) -> Path:
    store = tmp_path / "store"
    code = run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store", store)
    assert code == 0
    return store


def test_ontology_validate_clean_fixture_exits_zero(capsys):
    code = run_cli("ontology", "validate", FIXTURES / "ocpd.json", "--json")
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    severities = {
        f["severity"] for report in out["reports"] for f in report["findings"]
    }
    assert severities == {"not-checked"}


def test_ontology_validate_flags_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    spec = json.loads((FIXTURES / "ocpd.json").read_text(encoding="utf-8"))
    spec["concepts"][0]["threshold"] = 99
    bad.write_text(json.dumps(spec), encoding="utf-8")
    code = run_cli("ontology", "validate", bad)
    assert code == 1
    assert "error" in capsys.readouterr().out


def test_ontology_validate_missing_file_is_operational_error(tmp_path, capsys):
    code = run_cli("ontology", "validate", tmp_path / "absent.json")
    assert code == 2


def test_run_commits_the_fixture_card(tmp_path, capsys):
    store = tmp_path / "store"
    code = run_cli(
        "run", "--config", FIXTURES / "jobs_config.json", "--store", store, "--json"
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cards"]["committed"] == 1
    assert summary["documents"]["ingested"] == 20
    assert summary["notes"]["synthesized"] == 20
    assert summary["wall_time_seconds"] == 0.0  # pinned clock


GOLDEN_TEXT_SUMMARY = """\
documents   ingested=20 rejected=0 annotated=20
chunks      emitted=20 skipped=0
groups      released=3
notes       synthesized=20 refined=20 rejected=0
cards       premature=0 committed=1 expired=0
conflicts   detected=0 resolved=0
organize    window=1w epsilon=1d watermark=2d
wall time   0.000s
"""


def test_run_text_summary_of_the_golden_run(tmp_path, capsys):
    code = run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store", tmp_path / "store")
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_TEXT_SUMMARY


# Flags a command used to parse and ignore, each with a value where it takes one.
IGNORED_FLAGS = [
    (command, flag)
    for command in (
        ("notes", "list"),
        ("cards", "list"),
        ("card", "show", "301.4@steve#g1"),
        ("export",),
        ("routes", "301.4@steve#g1", "subject:steve"),
    )
    for flag in (("--now", "2011-11-13T00:00:00Z"), ("--mask-key-file", "key"))
] + [
    (("ontology", "validate", "spec.json"), flag)
    for flag in (
        ("--config", "config.json"),
        ("--store", "store"),
        ("--now", "2011-11-13T00:00:00Z"),
        ("--mask-key-file", "key"),
    )
] + [
    (("store", "check"), flag)
    for flag in (("--now", "2011-11-13T00:00:00Z"), ("--corpus", "corpus.jsonl"))
] + [
    (("ingest",), ("--ontology", "spec.json")),
    (("export",), ("--json",)),
]


@pytest.mark.parametrize(
    "command, flag", IGNORED_FLAGS, ids=[f"{' '.join(c[:2])} {f[0]}" for c, f in IGNORED_FLAGS]
)
def test_command_refuses_a_flag_it_does_not_use(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*command, *flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cards_list_shows_committed_card(fixture_store, capsys):
    code = run_cli(
        "cards", "list", "--store", fixture_store, "--status", "committed", "--json"
    )
    assert code == 0
    cards = json.loads(capsys.readouterr().out)
    assert len(cards) == 1
    assert cards[0]["concept_id"] == "301.4"
    scores = [len(v) for _, v in sorted(
        ((int(k), ids) for k, ids in cards[0]["dimensions"].items())
    )]
    assert scores == [4, 5, 2, 11, 5, 10]  # zero-score criteria carry no bucket


def test_card_show_reaches_all_twenty_rows(fixture_store, capsys):
    code = run_cli(
        "cards", "list", "--store", fixture_store, "--status", "committed", "--json"
    )
    card_id = json.loads(capsys.readouterr().out)[0]["card_id"]
    code = run_cli("card", "show", card_id, "--store", fixture_store, "--json", "--audit")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["audit"]["dangling"] == []
    assert len(payload["evidence"]) == 20
    # Every evidence entry drills down to a source document.
    for entry in payload["evidence"]:
        for note_entry in entry["notes"]:
            assert note_entry["chunks"]
            for chunk_entry in note_entry["chunks"]:
                assert chunk_entry["document"]["source_uri"].startswith("bio://")


def test_cards_list_met_bound_excludes_fixture_card(fixture_store, capsys):
    # The fixture card meets 6 criteria; a floor of 7 filters it out.
    code = run_cli("cards", "list", "--store", fixture_store, "--min-met", 7, "--json")
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


CARD = "301.4@steve#g1"


def held_store(tmp_path) -> Path:
    """A store whose card is held: three evidence rows reach 2 of 4 criteria."""
    lines = (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    subset = tmp_path / "subset.jsonl"
    subset.write_text("\n".join(lines[-3:]) + "\n", encoding="utf-8")
    store = tmp_path / "store"
    code = run_cli(
        "run",
        "--ontology", FIXTURES / "ocpd.json",
        "--corpus", subset,
        "--store", store,
        "--now", "2011-11-13T00:00:00Z",
    )
    assert code == 0
    return store


def test_premature_cards_are_inspectable(tmp_path, capsys):
    # The held card stays visible through cards list.
    store = held_store(tmp_path)
    capsys.readouterr()
    code = run_cli(
        "cards", "list", "--store", store, "--status", "premature", "--json"
    )
    cards = json.loads(capsys.readouterr().out)
    assert len(cards) == 1
    assert cards[0]["status"] == "premature"


def test_card_show_audit_covers_a_held_card(tmp_path, capsys):
    store = held_store(tmp_path)
    capsys.readouterr()
    assert run_cli("card", "show", CARD, "--store", store, "--audit", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["card"]["status"] == "premature"
    assert payload["audit"] == {"dangling": []}
    assert len(payload["evidence"]) == 3


def test_card_show_audit_reports_a_missing_refined_line(fixture_store, capsys):
    # A committed refined id rewritten in place and committed, as a writer
    # that wrote it would have: the log keeps its committed length.
    path = fixture_store / "refined" / "refined.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    missing = json.loads(lines[0])["refined_id"]
    renamed = missing[:-1] + ("1" if missing.endswith("0") else "0")
    field = '"refined_id":"{}"'.format
    lines[0] = lines[0].replace(field(missing).encode(), field(renamed).encode())
    assert json.loads(lines[0])["refined_id"] == renamed
    path.write_bytes(b"".join(lines))
    commit_as_it_stands(fixture_store)
    finding = f"card {CARD} -> missing refined note {missing}"
    capsys.readouterr()
    assert run_cli("card", "show", CARD, "--store", fixture_store, "--audit", "--json") == 1
    assert json.loads(capsys.readouterr().out) == {
        "card_id": CARD,
        "audit": {"dangling": [finding]},
    }
    assert run_cli("card", "show", CARD, "--store", fixture_store, "--audit") == 1
    assert capsys.readouterr().out == f"card {CARD}  audit: 1 dangling\n  {finding}\n"
    # Without --audit, drill-down refuses the dangling reference.
    assert run_cli("card", "show", CARD, "--store", fixture_store) == 2
    assert f"dangling refined note {missing}" in capsys.readouterr().err
    assert run_cli("store", "check", "--store", fixture_store, "--json") == 1
    assert json.loads(capsys.readouterr().out) == {"cards": 1, "dangling": [finding]}
    assert run_cli("store", "check", "--store", fixture_store) == 1
    assert capsys.readouterr().out == f"{finding}\n(1 cards, 1 dangling)\n"


def test_store_check_of_a_sound_store_exits_zero(fixture_store, tmp_path, capsys):
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store) == 0
    assert capsys.readouterr().out == "(1 cards, 0 dangling)\n"
    # Held cards are audited too.
    store = held_store(tmp_path)
    capsys.readouterr()
    assert run_cli("store", "check", "--store", store, "--json") == 0
    assert json.loads(capsys.readouterr().out) == {"cards": 1, "dangling": []}


def rename_document(store: Path, line: int) -> str:
    """Rewrite one document's doc_id in place, so the log keeps its committed
    length, and commit it, as a writer that wrote it would have."""
    path = store / "documents" / "documents.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    doc_id = json.loads(lines[line])["doc_id"]
    field = '"doc_id":"{}"'.format
    renamed = doc_id[:-1] + ("1" if doc_id.endswith("0") else "0")
    lines[line] = lines[line].replace(field(doc_id).encode(), field(renamed).encode())
    path.write_bytes(b"".join(lines))
    commit_as_it_stands(store)
    return doc_id


def repeat_first_line(store: Path, log: str) -> bytes:
    """Append a copy of a log's first line and commit it, as a run's save would."""
    path = store / log
    first = path.read_bytes().splitlines(keepends=True)[0]
    with path.open("ab") as handle:
        handle.write(first)
    commit_as_it_stands(store)
    return first


@pytest.mark.parametrize(
    "log, key",
    [
        ("documents/documents.jsonl", "doc_id"),
        ("chunks/chunks.jsonl", "chunk_id"),
        ("notes/notes.jsonl", "note_id"),
        ("refined/refined.jsonl", "refined_id"),
    ],
)
def test_store_check_reports_an_id_that_two_committed_lines_hold(fixture_store, capsys, log, key):
    # Each index keeps the later line, so only store check sees the earlier one.
    held = json.loads(repeat_first_line(fixture_store, log))[key]
    finding = f"{log}: {key} {held} is held by 2 committed lines"
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store) == 1
    assert capsys.readouterr().out == f"{finding}\n(1 cards, 0 dangling, 1 repeated)\n"
    assert run_cli("store", "check", "--store", fixture_store, "--json") == 1
    assert json.loads(capsys.readouterr().out) == {"cards": 1, "dangling": [], "repeated": [finding]}


def test_store_check_takes_a_card_snapshot_twice_in_the_ledger(fixture_store, capsys):
    # The ledger holds one snapshot per state change, many per card by design.
    repeat_first_line(fixture_store, "cards/log.jsonl")
    CardLedger(fixture_store / "cards").write_index()  # as the batch's save does after its commit
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store) == 0
    assert capsys.readouterr().out == "(1 cards, 0 dangling)\n"


def test_store_check_reports_a_card_index_that_the_ledger_does_not_give(fixture_store, capsys):
    index = fixture_store / "cards" / "index.json"
    offset = json.loads(index.read_text(encoding="utf-8"))[CARD]
    index.write_text(json.dumps({CARD: offset + 1, "x@y#g1": 0}), encoding="utf-8")
    findings = [f"index {CARD} -> offset {offset + 1}, latest snapshot at {offset}",
                "index x@y#g1 -> offset 0, latest snapshot at none"]
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store) == 1
    counts = "(1 cards, 0 dangling, 2 off the index)"
    assert capsys.readouterr().out == "\n".join([*findings, counts]) + "\n"
    assert run_cli("store", "check", "--store", fixture_store, "--json") == 1
    assert json.loads(capsys.readouterr().out) == {"cards": 1, "dangling": [], "index": findings}
    index.unlink()
    assert run_cli("store", "check", "--store", fixture_store) == 1
    finding = f"index {CARD} -> offset none, latest snapshot at {offset}"
    assert capsys.readouterr().out == f"{finding}\n(1 cards, 0 dangling, 1 off the index)\n"


def test_a_passthrough_line_whose_note_is_missing_dangles(fixture_store, capsys):
    # A passthrough line's note id rewritten in place and committed, as a
    # writer that wrote it would have: the log keeps its committed length.
    path = fixture_store / "refined" / "refined.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    note_id, refined_id = record["note_id"], record["refined_id"]
    missing = note_id[:-1] + ("1" if note_id.endswith("0") else "0")
    field = '"note_id":"{}"'.format
    lines[0] = lines[0].replace(field(note_id).encode(), field(missing).encode())
    path.write_bytes(b"".join(lines))
    commit_as_it_stands(fixture_store)
    finding = f"refined {refined_id} -> missing note {missing}"
    capsys.readouterr()
    assert run_cli("card", "show", CARD, "--store", fixture_store, "--audit") == 1
    assert capsys.readouterr().out == f"card {CARD}  audit: 1 dangling\n  {finding}\n"
    # Without --audit, drill-down refuses the dangling reference.
    assert run_cli("card", "show", CARD, "--store", fixture_store) == 2
    assert capsys.readouterr().err == f"error: dangling note {missing}\n"
    assert run_cli("store", "check", "--store", fixture_store) == 1
    assert capsys.readouterr().out == f"{finding}\n(1 cards, 1 dangling)\n"


def test_passthrough_lines_that_hold_their_notes_exit_two_naming_the_line(fixture_store, capsys):
    # Refined lines as they were before each note was stored once; there is no migration.
    notes_log = fixture_store / "notes" / "notes.jsonl"
    notes_by_id = {record["note_id"]: record for record in encoding.Log(notes_log).records(dict)}
    path = fixture_store / "refined" / "refined.jsonl"
    records = encoding.Log(path).records(dict)
    for record in records:
        record["note"] = notes_by_id[record.pop("note_id")]
    path.write_text("".join(encoding.canonical_json(r) + "\n" for r in records), encoding="utf-8")
    commit_as_it_stands(fixture_store, digests=False)  # committed before digests too
    before = store_bytes(fixture_store)
    capsys.readouterr()
    for command in (("card", "show", CARD), ("card", "show", CARD, "--audit"), ("store", "check"),
                    ("run", "--config", FIXTURES / "jobs_config.json")):
        assert run_cli(*command, "--store", fixture_store) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 1 is not a refined.jsonl record: ")
        assert "a passthrough line that holds its note predates this store format" in err
    assert store_bytes(fixture_store) == before


@pytest.mark.parametrize("id_parts", [True, False], ids=["with-id-parts", "annotations-only"])
def test_chunk_and_refined_lines_in_the_earlier_shape_read_as_before(
    fixture_store, tmp_path, capsys, monkeypatch, id_parts
):
    # Lines as they were before a chunk line left out its annotations (and,
    # before that, what its id says) and both left out their schema version,
    # in a store committed before it kept its ontology: read as they are,
    # with no migration.
    capsys.readouterr()
    assert run_cli("card", "show", CARD, "--audit", "--json", "--store", fixture_store) == 0
    shown = capsys.readouterr().out
    chunks_log = fixture_store / "chunks" / "chunks.jsonl"
    refined_log = fixture_store / "refined" / "refined.jsonl"
    stores = pipeline.Stores(pipeline.PipelineConfig(store_root=fixture_store))
    whole = [organize.chunk_to_dict(stores.whole(c)) for c in stores.organizer.chunks()]
    held_keys = {"doc_id", "sentence_index", "provenance", "schema_version"}
    earlier = {
        chunks_log: [r if id_parts else {k: v for k, v in r.items() if k not in held_keys}
                     for r in whole],
        refined_log: [{**record, "schema_version": 1}
                      for record in encoding.Log(refined_log).records(dict)],
    }
    assert "annotations" in earlier[chunks_log][0] and "signature" not in earlier[chunks_log][0]
    assert (held_keys <= set(earlier[chunks_log][0])) == id_parts
    for path, records in earlier.items():
        path.write_text("".join(encoding.canonical_json(r) + "\n" for r in records), encoding="utf-8")
    # Committed before the store kept its ontology (no copy, and no annotator
    # version) and before a commit held digests.
    maker = fixture_store / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    kept = fixture_store / "ontology.json"
    kept.unlink()
    for key in ("annotator", "stored_ontology_sha256"):
        del state["manifest"][key]
    maker.write_text(json.dumps(state, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    commit_as_it_stands(fixture_store, digests=False)
    assert run_cli("card", "show", CARD, "--audit", "--json", "--store", fixture_store) == 0
    assert capsys.readouterr().out == shown
    assert run_cli("store", "check", "--store", fixture_store) == 0
    assert capsys.readouterr().out == "(1 cards, 0 dangling)\n"
    # A run on top keeps the ontology once, adopts the annotator version and
    # the digests, and appends lines in the current shape after the earlier ones.
    written = []
    write_json = pipeline.write_json
    monkeypatch.setattr(pipeline, "write_json", lambda path, value: (written.append(path),
                                                                     write_json(path, value)))
    record = json.loads((FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
    record.update(source_uri="bio://jobs/early", timestamp="2011-09-01T09:00:00Z")
    corpus = tmp_path / "early.jsonl"
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    held = {path: path.read_bytes() for path in earlier}
    for _ in range(2):
        assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--corpus", corpus,
                       "--store", fixture_store) == 0
    assert written == [kept]
    committed = json.loads(maker.read_text(encoding="utf-8"))
    assert committed["digests"] == {
        name: hashlib.sha256((fixture_store / name).read_bytes()).hexdigest() for name in LOGS
    }
    manifest = committed["manifest"]
    assert manifest["annotator"] == 1
    assert manifest["stored_ontology_sha256"] == hashlib.sha256(kept.read_bytes()).hexdigest()
    appended = {path: path.read_bytes()[len(held[path]):].splitlines() for path in earlier}
    for path, lines in appended.items():
        assert path.read_bytes().startswith(held[path]) and len(lines) == 1
    [chunk_line], [refined_line] = appended[chunks_log], appended[refined_log]
    assert sorted(json.loads(chunk_line)) == [
        "chunk_id", "place", "quantities", "signature", "subject", "time"
    ]
    assert sorted(json.loads(refined_line)) == ["applied_rules", "note_id", "passthrough", "refined_id"]
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store) == 0
    assert capsys.readouterr().out == "(1 cards, 0 dangling)\n"
    assert run_cli("card", "show", CARD, "--audit", "--json", "--store", fixture_store) == 0
    assert capsys.readouterr().out == shown


def test_store_check_reports_a_chunk_line_that_annotating_its_document_again_does_not_give(
    fixture_store, capsys
):
    # One canonical id in the first line's signature rewritten in place, as
    # valid JSON, and committed: the log keeps its committed length.
    path = fixture_store / "chunks" / "chunks.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    canonical_id = record["signature"][0][0]
    changed = canonical_id[:-1] + ("x" if canonical_id[-1] != "x" else "y")
    lines[0] = lines[0].replace(f'[["{canonical_id}",'.encode(), f'[["{changed}",'.encode())
    assert json.loads(lines[0])["signature"][0][0] == changed
    path.write_bytes(b"".join(lines))
    commit_as_it_stands(fixture_store)
    doc_id = record["chunk_id"].rpartition("#")[0]
    finding = f"chunk {record['chunk_id']}: annotating document {doc_id} again gives another signature"
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store) == 1
    assert capsys.readouterr().out == f"{finding}\n(1 cards, 0 dangling, 1 stale)\n"
    assert run_cli("store", "check", "--store", fixture_store, "--json") == 1
    assert json.loads(capsys.readouterr().out) == {"cards": 1, "dangling": [], "stale": [finding]}


@pytest.mark.parametrize("damage", ["missing", "changed", "not-json"])
def test_a_missing_or_damaged_stored_ontology_exits_two_naming_it(fixture_store, capsys, damage):
    kept = fixture_store / "ontology.json"
    if damage == "missing":
        kept.unlink()
    elif damage == "changed":
        spec = json.loads(kept.read_text(encoding="utf-8"))
        spec["dictionary"] = spec["dictionary"][1:]
        kept.write_text(json.dumps(spec, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    else:
        kept.write_bytes(kept.read_bytes()[:-10])
    capsys.readouterr()
    for command in (("card", "show", CARD), ("card", "show", CARD, "--audit", "--json"),
                    ("store", "check")):
        assert run_cli(*command, "--store", fixture_store) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {kept}: ")
    # Commands that annotate nothing do not read it.
    assert run_cli("cards", "list", "--store", fixture_store) == 0


def test_store_stats_counts_each_log_and_writes_nothing(fixture_store, tmp_path, capsys):
    before = store_bytes(fixture_store)
    # A torn tail past the commit shows as the difference of the two lengths.
    with (fixture_store / "notes" / "notes.jsonl").open("ab") as handle:
        handle.write(b'{"torn":')
    torn = store_bytes(fixture_store)
    capsys.readouterr()
    assert run_cli("store", "stats", "--store", fixture_store) == 0
    assert capsys.readouterr().out == (
        "documents/documents.jsonl  records=20 committed=6483 on_disk=6483\n"
        "chunks/chunks.jsonl        records=20 committed=4080 on_disk=4080\n"
        "chunks/released.jsonl      records=1 committed=963 on_disk=963\n"
        "notes/notes.jsonl          records=20 committed=5920 on_disk=5928\n"
        "refined/refined.jsonl      records=20 committed=2120 on_disk=2120\n"
        "cards/log.jsonl            records=1 committed=1186 on_disk=1186\n"
        "unreleased chunks: 0\n"
    )
    assert run_cli("store", "stats", "--store", fixture_store, "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["logs", "unreleased_chunks"] and list(report["logs"]) == sorted(LOGS)
    assert report["logs"]["notes/notes.jsonl"] == {
        "committed_bytes": 5920, "disk_bytes": 5928, "records": 20
    }
    assert store_bytes(fixture_store) == torn and len(torn) == len(before)
    # A chunk on a window still open stays unreleased.
    record = json.loads((FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
    record.update(source_uri="bio://jobs/open", timestamp="2011-11-12T09:00:00Z")
    corpus = tmp_path / "open.jsonl"
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--corpus", corpus,
                   "--store", fixture_store) == 0
    capsys.readouterr()
    assert run_cli("store", "stats", "--store", fixture_store, "--json") == 0
    assert json.loads(capsys.readouterr().out)["unreleased_chunks"] == 1
    assert run_cli("store", "stats", "--store", tmp_path / "absent") == 2
    assert not (tmp_path / "absent").exists()


def test_store_check_reports_each_chunk_whose_document_is_missing_once(fixture_store, tmp_path, capsys):
    # Reported the day before the pinned clock: its chunk is stored, but its
    # window is still open, so no note and no card reaches it.
    record = json.loads((FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
    record.update(source_uri="bio://jobs/open", timestamp="2011-11-12T09:00:00Z")
    corpus = tmp_path / "open.jsonl"
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--corpus", corpus,
                   "--store", fixture_store) == 0
    chunks = [json.loads(line) for line in (fixture_store / "chunks" / "chunks.jsonl").open()]
    reached = rename_document(fixture_store, 0)  # the card reaches its chunk
    unreached = rename_document(fixture_store, -1)
    # A stored chunk line names its document only in its id, "<doc_id>#<sentence_index>".
    findings = [
        f"chunk {chunk['chunk_id']} -> missing document {doc_id}"
        for doc_id in (reached, unreached) for chunk in chunks
        if chunk["chunk_id"].rpartition("#")[0] == doc_id
    ]
    assert len(findings) == 2
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store, "--json") == 1
    assert json.loads(capsys.readouterr().out) == {"cards": 1, "dangling": findings}
    assert run_cli("store", "check", "--store", fixture_store) == 1
    assert capsys.readouterr().out == "\n".join([*findings, "(1 cards, 2 dangling)\n"])


def test_notes_list_filters(fixture_store, capsys):
    code = run_cli("notes", "list", "--store", fixture_store, "--subject", "steve", "--json")
    assert code == 0
    notes = json.loads(capsys.readouterr().out)
    assert len(notes) == 20
    code = run_cli("notes", "list", "--store", fixture_store, "--subject", "nobody", "--json")
    assert json.loads(capsys.readouterr().out) == []


def test_export_dot_and_json(fixture_store, capsys, tmp_path):
    code = run_cli("export", "--store", fixture_store, "--format", "dot")
    assert code == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph cards {")
    assert dot.count("->") == 1

    out_file = tmp_path / "graph.json"
    code = run_cli(
        "export", "--store", fixture_store, "--format", "json", "--out", out_file
    )
    assert code == 0
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert len(payload["nodes"]) == 2


def test_export_into_a_missing_directory_exits_two_naming_the_path(fixture_store, capsys, tmp_path):
    out_file = tmp_path / "missing" / "graph.dot"
    capsys.readouterr()
    assert run_cli("export", "--store", fixture_store, "--out", out_file) == 2
    assert f"error: cannot write {out_file}: " in capsys.readouterr().err
    assert not out_file.parent.exists()


def test_routes_between_card_and_subject(fixture_store, capsys):
    code = run_cli(
        "cards", "list", "--store", fixture_store, "--status", "committed", "--json"
    )
    card_id = json.loads(capsys.readouterr().out)[0]["card_id"]
    code = run_cli(
        "routes", card_id, "subject:steve", "--store", fixture_store, "--json"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["routes"] == [[card_id, "subject:steve"]]


def test_routes_unknown_node_exits_two(fixture_store, capsys):
    code = run_cli("routes", "nope", "subject:steve", "--store", fixture_store)
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_ingest_subcommand_counts(tmp_path, capsys):
    store = tmp_path / "store"
    code = run_cli(
        "ingest",
        "--corpus", FIXTURES / "jobs_corpus.jsonl",
        "--store", store,
        "--now", "2011-11-13T00:00:00Z",
        "--json",
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"accepted": 20, "rejected": 0}


def test_a_corpus_line_that_is_not_utf8_is_counted_rejected_run_after_run(tmp_path, capsys):
    lines = (FIXTURES / "jobs_corpus.jsonl").read_bytes().splitlines(keepends=True)
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(lines[0] + b"\xff\xfe bad\n" + lines[1])
    store = tmp_path / "store"
    run = ("run", "--store", store, "--ontology", FIXTURES / "ocpd.json", "--corpus", corpus,
           "--now", "2011-11-13T00:00:00Z", "--json")
    for annotated in (2, 0):
        assert run_cli(*run) == 0
        documents = json.loads(capsys.readouterr().out)["documents"]
        assert (documents["ingested"], documents["rejected"]) == (2, 1)
        assert documents["annotated"] == annotated
    assert run_cli("ingest", "--corpus", corpus, "--store", store, "--json") == 0
    assert json.loads(capsys.readouterr().out) == {"accepted": 2, "rejected": 1}


def test_missing_corpus_is_operational_error(tmp_path, capsys):
    code = run_cli("run", "--store", tmp_path / "s", "--ontology", FIXTURES / "ocpd.json")
    assert code == 2


def with_key(section, key, value):
    def change(config):
        (config[section] if section else config)[key] = value
        return config

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda config: [config], "config document must be a JSON object"),
        (with_key(None, "organize", ["7d"]), "config organize must be a JSON object"),
        (with_key(None, "notes", 4), "config notes must be a JSON object"),
        (with_key(None, "ontology", {"path": "ocpd.json"}), "config ontology must be a string or a list"),
        (with_key(None, "corpus", [str(FIXTURES / "jobs_corpus.jsonl"), 7]), "config corpus must be"),
        (with_key("organize", "window", "0d"), "config organize.window must be longer than 0d"),
        (with_key("notes", "horizon_windows", 0), "config notes.horizon_windows must be an integer"),
        (with_key("notes", "horizon_windows", "4"), "config notes.horizon_windows must be an integer"),
        (with_key("notes", "horizon_windows", True), "config notes.horizon_windows must be an integer"),
        (with_key(None, "store", 7), "config store must be a string"),
        (with_key(None, "mask_key_file", ["a.key"]), "config mask_key_file must be a string"),
        (with_key(None, "now", 20111113), "config now must be a string"),
        (with_key("organize", "window", 7), "config organize.window must be a string"),
        (with_key("organize", "epsilon", ["1d"]), "config organize.epsilon must be a string"),
        (with_key("organize", "watermark", {"days": 2}), "config organize.watermark must be a string"),
        (with_key(None, "mask_aliases", {"steve": "Steve"}), "config mask_aliases must map each subject"),
        (with_key(None, "mask_aliases", ["Steve"]), "config mask_aliases must be a JSON object"),
        (with_key(None, "mask_key_file", False), "config mask_key_file must be a string"),
        (with_key(None, "mask_key_file", 0), "config mask_key_file must be a string"),
        (with_key(None, "now", 0), "config now must be a string"),
        (with_key(None, "now", False), "config now must be a string"),
        (with_key(None, "now", ""), "config now: not an RFC-3339 instant: ''"),
        (with_key(None, "now", "0001-01-01T00:00:00+01:00"),
         "config now: instant out of range in UTC: '0001-01-01T00:00:00+01:00'"),
        (with_key(None, "mask_aliases", []), "config mask_aliases must be a JSON object"),
        (with_key(None, "mask_aliases", False), "config mask_aliases must be a JSON object"),
    ],
    ids=[
        "list-document", "list-organize", "number-notes", "object-ontology", "number-in-corpus",
        "zero-window", "zero-horizon", "string-horizon", "boolean-horizon", "number-store",
        "list-mask-key-file", "number-now", "number-window", "list-epsilon", "object-watermark",
        "string-aliases", "list-aliases", "false-mask-key-file", "zero-mask-key-file",
        "zero-now", "false-now", "empty-now", "out-of-range-now", "empty-list-aliases",
        "false-aliases",
    ],
)
@pytest.mark.parametrize("command", ["run", "ingest"])
def test_malformed_config_exits_two_before_the_store_is_touched(tmp_path, capsys, change, message, command):
    config = json.loads((FIXTURES / "jobs_config.json").read_text(encoding="utf-8"))
    config["ontology"] = [str(FIXTURES / "ocpd.json")]
    config["corpus"] = [str(FIXTURES / "jobs_corpus.jsonl")]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(change(config)), encoding="utf-8")
    store = tmp_path / "store"
    capsys.readouterr()
    assert run_cli(command, "--config", path, "--store", store) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not store.exists()


PINNED = "2011-11-13T00:00:00Z"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--config", FIXTURES / "jobs_config.json", "--now", "xyz"],
         "--now: not an RFC-3339 instant: 'xyz'"),
        (["ingest", "--corpus", FIXTURES / "jobs_corpus.jsonl", "--now", " 2011-13-01Z"],
         "--now: not an RFC-3339 instant: ' 2011-13-01Z'"),
        (["export", "--from", "xyz", "--to", PINNED], "--from: not an RFC-3339 instant: 'xyz'"),
        (["export", "--from", PINNED, "--to", "13/11/2011"],
         "--to: not an RFC-3339 instant: '13/11/2011'"),
        (["export", "--from", "2011-11-14T00:00:00Z", "--to", PINNED],
         f"--from 2011-11-14T00:00:00Z is later than --to {PINNED}"),
    ],
    ids=["run-now", "ingest-now", "export-from", "export-to", "export-from-after-to"],
)
def test_an_instant_flag_that_does_not_read_exits_two_naming_the_flag_and_the_text(
    fixture_store, tmp_path, capsys, argv, message
):
    store = fixture_store if argv[0] == "export" else tmp_path / "new"
    before = store_bytes(fixture_store)
    capsys.readouterr()
    assert run_cli(*argv, "--store", store) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "new").exists() and store_bytes(fixture_store) == before


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("run", ["--corpus", "absent.jsonl"], "corpus not readable: absent.jsonl"),
        ("ingest", ["--corpus", "absent.jsonl"], "corpus not readable: absent.jsonl"),
        ("ingest", ["--corpus", "."], "corpus not readable: ."),
        ("run", ["--mask-key-file", "absent.key"], "cannot read mask key file"),
        ("ingest", ["--mask-key-file", "absent.key"], "cannot read mask key file"),
        ("run", ["--mask-key-file", "short.key"], "mask key must be at least 16 bytes"),
    ],
    ids=["run-absent-corpus", "ingest-absent-corpus", "ingest-directory-corpus",
         "run-absent-key", "ingest-absent-key", "run-short-key"],
)
def test_unreadable_input_exits_two_before_the_store_is_made(
    tmp_path, monkeypatch, capsys, command, options, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "short.key").write_bytes(b"0123456789\n")
    ontology = ["--ontology", FIXTURES / "ocpd.json"] if command == "run" else []
    corpus = [] if "--corpus" in options else ["--corpus", FIXTURES / "jobs_corpus.jsonl"]
    capsys.readouterr()
    assert run_cli(command, *ontology, *corpus, *options, "--store", "store") == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_store_lock_blocks_concurrent_runs(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    (store / "lock").touch()
    code = run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store", store)
    assert code == 2
    assert "locked" in capsys.readouterr().err


def test_stale_lock_error_names_its_owner(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    (store / "lock").write_text("4242\n", encoding="utf-8")
    code = run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store", store)
    assert code == 2
    err = capsys.readouterr().err
    assert "pid 4242" in err
    assert str(store / "lock") in err


def test_lock_holds_the_pid_of_the_run(tmp_path):
    with StoreLock(tmp_path / "store") as lock:
        assert lock.path.read_text(encoding="utf-8") == f"{os.getpid()}\n"
    assert not lock.path.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["run", "ingest"])
def test_writer_on_a_store_root_that_is_not_a_directory_exits_two(tmp_path, capsys, command, below):
    regular = tmp_path / "regular"
    regular.write_bytes(b"not a store\n")
    store = regular / "store" if below else regular
    ontology = ["--ontology", FIXTURES / "ocpd.json"] if command == "run" else []
    capsys.readouterr()
    code = run_cli(command, *ontology, "--corpus", FIXTURES / "jobs_corpus.jsonl", "--store", store)
    assert code == 2
    assert capsys.readouterr().err == f"error: store root is not a directory: {store}\n"
    assert regular.read_bytes() == b"not a store\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["regular"]


READ_ONLY_COMMANDS = [
    ("notes", "list"),
    ("cards", "list"),
    ("card", "show", CARD),
    ("export", "--format", "json"),
    ("routes", CARD, "subject:steve"),
    ("card", "show", CARD, "--audit"),
    ("store", "check"),
]


@pytest.mark.parametrize("command", READ_ONLY_COMMANDS)
def test_read_only_command_on_missing_store_exits_two(tmp_path, capsys, command):
    store = tmp_path / "typo"
    code = run_cli(*command, "--store", store)
    assert code == 2
    assert "store not found" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("command", READ_ONLY_COMMANDS)
def test_read_only_command_on_an_empty_store_creates_nothing(tmp_path, capsys, command):
    store = tmp_path / "store"
    store.mkdir()
    run_cli(*command, "--store", store)
    assert list(store.iterdir()) == []


# Each command that does not drill down, and the only stores it reads.
PARTIAL_READERS = [
    (("cards", "list"), {CardLedger, CardMaker}),
    (("export", "--format", "dot"), {CardLedger}),
    (("export", "--format", "json"), {CardLedger}),
    (("routes", "301.4@steve#g1", "subject:steve"), {CardLedger}),
    (("notes", "list"), {NoteStore}),
]
PARTIAL_IDS = ["cards-list", "export-dot", "export-json", "routes", "notes-list"]


def refuse(store, *args, **kwargs):
    raise AssertionError(f"built {type(store).__name__}, which the command does not read")


@pytest.mark.parametrize("command, reads", PARTIAL_READERS, ids=PARTIAL_IDS)
def test_read_only_command_builds_only_the_stores_it_reads(
    fixture_store, capsys, monkeypatch, command, reads
):
    capsys.readouterr()
    assert run_cli(*command, "--store", fixture_store) == 0
    expected = capsys.readouterr().out
    everything = {TextStore, OrganizerStore, NoteStore, RefinedNoteStore, CardLedger, CardMaker}
    for store in everything - reads:
        monkeypatch.setattr(store, "__init__", refuse)
    assert run_cli(*command, "--store", fixture_store) == 0
    assert capsys.readouterr().out == expected


# Each read-only command and the logs it decodes.
DECODED_LOGS = [
    (("cards", "list"), ["cards/log.jsonl"]),
    (("export", "--format", "dot"), ["cards/log.jsonl"]),
    (("export", "--format", "json"), ["cards/log.jsonl"]),
    (("routes", "301.4@steve#g1", "subject:steve"), ["cards/log.jsonl"]),
    (("notes", "list"), ["notes/notes.jsonl"]),
    (("card", "show", CARD), list(LOGS)),
    # store check decodes each log that holds one line per id a second time, whole.
    # It also reads cards/index.json, a whole file, to compare it with the ledger.
    (("store", "check"), list(LOGS) + ["documents/documents.jsonl", "chunks/chunks.jsonl",
                                       "notes/notes.jsonl", "refined/refined.jsonl",
                                       "cards/index.json"]),
]


@pytest.mark.parametrize(
    "command, logs", DECODED_LOGS, ids=PARTIAL_IDS + ["card-show", "store-check"]
)
def test_read_only_command_decodes_the_commit_and_each_log_it_reads_once(
    fixture_store, monkeypatch, command, logs
):
    maker = fixture_store / "cards" / "maker.json"
    committed = json.loads(maker.read_text(encoding="utf-8"))["logs"]
    for name in LOGS:  # a line past the commit, which no reader may decode
        with (fixture_store / name).open("ab") as handle:
            handle.write(b"{not json\n")
    decoded = []

    def recording(reader):
        def read(path, *args, **kwargs):
            decoded.append((str(Path(path).relative_to(fixture_store)), *args))
            return reader(path, *args, **kwargs)

        return read

    def recording_log(read_log):
        def read(log, *args, **kwargs):
            decoded.append((str(log.path.relative_to(fixture_store)), log.end))
            return read_log(log, *args, **kwargs)

        return read

    for module in (ingest, organize, notes, refine, cards, pipeline, cli):
        if hasattr(module, "read_json"):
            monkeypatch.setattr(module, "read_json", recording(encoding.read_json))
    # Every read of a log's bytes is one of these: a store makes one, and a
    # fallback to decoding makes a second.
    for name in ("_scan", "_decoded"):
        monkeypatch.setattr(encoding.Log, name, recording_log(getattr(encoding.Log, name)))
    assert run_cli(*command, "--store", fixture_store) == 0
    expected = [("cards/maker.json",)]
    expected += [(name, committed[name]) if name in committed else (name,) for name in logs]
    assert sorted(decoded) == sorted(expected)


# ---------------------------------------------------------------------------
# Store files that do not decode
# ---------------------------------------------------------------------------


def tear(log: Path) -> bytes:
    """Leave *log* as an append cut short would: half a line after the last one."""
    intact = log.read_bytes()
    last = intact.splitlines(keepends=True)[-1]
    log.write_bytes(intact + last[: len(last) // 2])
    return intact


@pytest.mark.parametrize("command", READ_ONLY_COMMANDS)
@pytest.mark.parametrize("log", LOGS)
def test_read_only_command_on_a_torn_log_reads_the_commit_and_writes_nothing(
    fixture_store, capsys, log, command
):
    capsys.readouterr()
    assert run_cli(*command, "--store", fixture_store) == 0
    expected = capsys.readouterr()
    tear(fixture_store / log)
    before = store_bytes(fixture_store)
    assert run_cli(*command, "--store", fixture_store) == 0
    assert capsys.readouterr() == expected
    assert store_bytes(fixture_store) == before


@pytest.mark.parametrize("command", ["run", "ingest"])
@pytest.mark.parametrize("log", LOGS)
def test_writer_cuts_a_torn_log_and_reports_it(fixture_store, capsys, log, command):
    intact = tear(fixture_store / log)
    capsys.readouterr()
    code = run_cli(command, "--config", FIXTURES / "jobs_config.json", "--store", fixture_store)
    assert code == 0
    err = capsys.readouterr().err
    assert f"repaired: cut {fixture_store / log} back to its committed length\n" in err
    assert (fixture_store / log).read_bytes() == intact
    assert run_cli("cards", "list", "--store", fixture_store) == 0


def damage_in_place(path: Path) -> int:
    """Make the last committed line of *path* undecodable, keeping its
    length; returns that line's number."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = b"{not json".ljust(len(lines[-1]) - 1) + b"\n"
    path.write_bytes(b"".join(lines))
    return len(lines)


@pytest.mark.parametrize("log", LOGS)
def test_undecodable_log_line_exits_two_naming_file_and_line(fixture_store, capsys, log):
    path = fixture_store / log
    number = damage_in_place(path)
    capsys.readouterr()
    for command in (["store", "check"], ["run", "--config", FIXTURES / "jobs_config.json"]):
        assert run_cli(*command, "--store", fixture_store) == 2
        assert f"{path}: line {number} does not decode" in capsys.readouterr().err


def change_a_byte_near_the_end(path: Path) -> bytes:
    """Change the last lowercase letter or digit of the first line of *path*,
    one inside a string near the line's end, to another of its kind: the line
    keeps its length, its id prefix and its decoding. Returns the new line."""
    lines = path.read_bytes().splitlines(keepends=True)
    first = bytearray(lines[0])
    at = max(i for i, byte in enumerate(first) if chr(byte).isdigit() or chr(byte).islower())
    assert at > len(first) - 12
    first[at] = ord("0" if first[at] == ord("1") else "1") if chr(first[at]).isdigit() else (
        ord("a" if first[at] == ord("b") else "b"))
    lines[0] = bytes(first)
    json.loads(lines[0])  # still decodes
    path.write_bytes(b"".join(lines))
    return lines[0]


@pytest.mark.parametrize("log", LOGS)
def test_a_changed_byte_in_a_committed_line_that_still_decodes_exits_two_naming_the_log(
    fixture_store, capsys, log
):
    path = fixture_store / log
    change_a_byte_near_the_end(path)
    before = store_bytes(fixture_store)
    capsys.readouterr()
    message = f"error: {path}: its committed bytes differ from the sha256 the last commit recorded\n"
    commands = [["run", "--config", FIXTURES / "jobs_config.json"], ["store", "check"],
                ["card", "show", CARD], ["card", "show", CARD, "--audit"]]
    if log == "documents/documents.jsonl":  # the one log ingest reads
        commands.append(["ingest", "--config", FIXTURES / "jobs_config.json"])
    for command in commands:
        assert run_cli(*command, "--store", fixture_store) == 2
        assert capsys.readouterr().err == message
    assert store_bytes(fixture_store) == before


@pytest.mark.parametrize("log", LOGS)
def test_store_stats_exits_two_naming_a_log_whose_committed_bytes_changed(fixture_store, capsys, log):
    path = fixture_store / log
    change_a_byte_near_the_end(path)
    before = store_bytes(fixture_store)
    capsys.readouterr()
    assert run_cli("store", "stats", "--store", fixture_store) == 2
    message = f"error: {path}: its committed bytes differ from the sha256 the last commit recorded\n"
    assert capsys.readouterr().err == message
    assert store_bytes(fixture_store) == before


def without_digests(store: Path) -> None:
    """Drop the digests from the commit of *store*, as a store committed before them has none."""
    maker = store / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    del state["digests"]
    maker.write_text(json.dumps(state, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def test_a_store_committed_without_digests_adopts_them_and_reruns_as_one_that_has_them(
    tmp_path, capsys
):
    head, tail = tmp_path / "head.jsonl", tmp_path / "tail.jsonl"
    lines = (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    head.write_text("".join(lines[:12]), encoding="utf-8")
    tail.write_text("".join(lines[12:]), encoding="utf-8")
    stores = {name: tmp_path / name for name in ("with", "without")}
    for store in stores.values():
        assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--corpus", head,
                       "--store", store) == 0
    without_digests(stores["without"])
    capsys.readouterr()
    assert run_cli("store", "check", "--store", stores["without"]) == 0
    for store in stores.values():
        assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--corpus", head,
                       "--corpus", tail, "--store", store) == 0
    assert store_bytes(stores["without"]) == store_bytes(stores["with"])
    digests = json.loads((stores["with"] / "cards" / "maker.json").read_text())["digests"]
    assert digests == {
        name: hashlib.sha256((stores["with"] / name).read_bytes()).hexdigest() for name in LOGS
    }
    # Such a store is trusted only once every committed line decodes.
    without_digests(stores["without"])
    damage_in_place(stores["without"] / "notes" / "notes.jsonl")
    capsys.readouterr()
    assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store",
                   stores["without"]) == 2
    assert "notes.jsonl: line 20 does not decode" in capsys.readouterr().err


@pytest.mark.parametrize("log", LOGS)
def test_writer_cuts_an_undecodable_line_past_the_commit(fixture_store, capsys, log):
    path = fixture_store / log
    intact = path.read_bytes()
    path.write_bytes(intact + b"{not json\n")
    assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store", fixture_store) == 0
    assert path.read_bytes() == intact


def drop_field(path: Path, field: str | None) -> None:
    """Delete *field* from the first line of *path* (with None, make it a list),
    keeping the line's length: valid JSON that is not a record of the log."""
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    if field is None:
        record = []
    else:
        del record[field]
    lines[0] = encoding.canonical_json(record).encode("ascii").ljust(len(lines[0]) - 1) + b"\n"
    path.write_bytes(b"".join(lines))


NOT_RECORDS = [
    ("documents/documents.jsonl", "text"),
    ("chunks/chunks.jsonl", "subject"),
    ("chunks/released.jsonl", None),
    ("notes/notes.jsonl", "intensity"),
    ("refined/refined.jsonl", "note_id"),
    ("cards/log.jsonl", "card"),
]


@pytest.mark.parametrize("log, field", NOT_RECORDS, ids=[log for log, _ in NOT_RECORDS])
def test_a_line_that_is_not_a_record_exits_two_naming_file_and_line(
    fixture_store, capsys, log, field
):
    capsys.readouterr()
    outputs = {}
    for command in READ_ONLY_COMMANDS:
        assert run_cli(*command, "--store", fixture_store) == 0
        outputs[command] = capsys.readouterr().out
    path = fixture_store / log
    drop_field(path, field)
    commit_as_it_stands(fixture_store)  # as a writer that wrote the line would have
    before = store_bytes(fixture_store)
    for command in READ_ONLY_COMMANDS:
        # A command that decodes the line exits 2; one that does not is unchanged.
        code = run_cli(*command, "--store", fixture_store)
        out, err = capsys.readouterr()
        if command == ("store", "check") or code != 0:
            assert code == 2
            assert f"error: {path}: " in err and f"is not a {path.name} record" in err
            assert "line 1 " in err or "the line at byte 0 " in err
        else:
            assert out == outputs[command]
    assert store_bytes(fixture_store) == before
    code = run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store", fixture_store)
    assert code in (0, 2)


def test_a_chunk_without_its_subject_fails_drill_down_and_store_check(fixture_store, capsys):
    path = fixture_store / "chunks" / "chunks.jsonl"
    drop_field(path, "subject")
    commit_as_it_stands(fixture_store)  # as a writer that wrote the line would have
    capsys.readouterr()
    for command in (("store", "check"), ("card", "show", CARD), ("card", "show", CARD, "--audit")):
        assert run_cli(*command, "--store", fixture_store) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and "is not a chunks.jsonl record: KeyError('subject')" in err


@pytest.mark.parametrize(
    "name, value",
    [("corpora", []), ("cards", {"slot": {"card_id": "x"}}), ("manifest", [])],
    ids=["corpora", "cards", "manifest"],
)
def test_maker_state_whose_cards_or_corpora_are_not_records_exits_two_naming_it(
    fixture_store, capsys, name, value
):
    path = fixture_store / "cards" / "maker.json"
    state = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(state, **{name: value})), encoding="utf-8")
    capsys.readouterr()
    for command in (("cards", "list"), ("run", "--config", FIXTURES / "jobs_config.json")):
        assert run_cli(*command, "--store", fixture_store) == 2
        assert f"error: {path}: " in capsys.readouterr().err


def test_undecodable_maker_state_exits_two_naming_it(fixture_store, capsys):
    path = fixture_store / "cards" / "maker.json"
    path.write_bytes(path.read_bytes()[:-10])
    capsys.readouterr()
    assert run_cli("cards", "list", "--store", fixture_store) == 2
    assert f"{path}: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("damaged", ["refined/refined.jsonl", "documents/documents.jsonl"])
@pytest.mark.parametrize("command", [command for command, _ in PARTIAL_READERS], ids=PARTIAL_IDS)
def test_damage_in_a_store_a_command_does_not_read_is_left_to_store_check(
    fixture_store, capsys, command, damaged
):
    capsys.readouterr()
    assert run_cli(*command, "--store", fixture_store) == 0
    expected = capsys.readouterr().out
    path = fixture_store / damaged
    number = damage_in_place(path)
    before = store_bytes(fixture_store)
    assert run_cli(*command, "--store", fixture_store) == 0
    assert capsys.readouterr().out == expected
    assert run_cli("store", "check", "--store", fixture_store) == 2
    assert f"error: {path}: line {number} does not decode" in capsys.readouterr().err
    assert store_bytes(fixture_store) == before


def test_store_check_exits_two_on_a_line_that_holds_another_id_than_it_reads(
    fixture_store, capsys
):
    # The index takes the first doc_id of the line, json.loads keeps the last,
    # so only a command that decodes the line can tell.
    path = fixture_store / "documents" / "documents.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[0])
    doc_id, second = record["doc_id"], ',"doc_id":"d-other"}'
    record["text"] = record["text"][: -len(second) + 1]  # the commit still ends a line
    line = (encoding.canonical_json(record)[:-1] + second + "\n").encode("ascii")
    assert line.startswith(b'{"doc_id":"' + doc_id.encode("ascii")) and len(line) == len(lines[0])
    path.write_bytes(b"".join([line, *lines[1:]]))
    commit_as_it_stands(fixture_store)  # as a writer that wrote the line would have
    before = store_bytes(fixture_store)
    assert run_cli("run", "--config", FIXTURES / "jobs_config.json", "--store", fixture_store) == 0
    capsys.readouterr()
    assert run_cli("store", "check", "--store", fixture_store) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: the line at byte 0 holds doc_id 'd-other', " in err
    assert f"but is indexed under {doc_id!r}" in err
    assert store_bytes(fixture_store) == before


def test_store_with_a_released_json_exits_two_naming_it(fixture_store, capsys):
    # A store that old has a released.json and commits no log lengths.
    (fixture_store / "chunks" / "released.json").write_text("{}\n", encoding="utf-8")
    maker = fixture_store / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    del state["logs"], state["annotated"]
    maker.write_text(json.dumps(state), encoding="utf-8")
    before = store_bytes(fixture_store)
    capsys.readouterr()
    for command in (
        ["cards", "list"],
        ["card", "show", "301.4@steve#g1"],
        ["store", "check"],
        ["run", "--config", FIXTURES / "jobs_config.json"],
    ):
        assert run_cli(*command, "--store", fixture_store) == 2
        assert f"error: {maker}: the store predates this store format" in capsys.readouterr().err
    assert store_bytes(fixture_store) == before
