from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from notecards.cards import CardLedger, CardMaker
from notecards.cli import main
from notecards.ingest import TextStore
from notecards.notes import NoteStore
from notecards.organize import OrganizerStore
from notecards.pipeline import StoreLock
from notecards.refine import RefinedNoteStore

from conftest import FIXTURES, store_bytes


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


def test_premature_cards_are_inspectable(tmp_path, capsys):
    # Three evidence rows only reach 2 of 4 criteria: the card is held
    # premature and stays visible through cards list.
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
    capsys.readouterr()
    code = run_cli(
        "cards", "list", "--store", store, "--status", "premature", "--json"
    )
    cards = json.loads(capsys.readouterr().out)
    assert len(cards) == 1
    assert cards[0]["status"] == "premature"


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


def test_missing_corpus_is_operational_error(tmp_path, capsys):
    code = run_cli("run", "--store", tmp_path / "s", "--ontology", FIXTURES / "ocpd.json")
    assert code == 2


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


@pytest.mark.parametrize(
    "command",
    [
        ("notes", "list"),
        ("cards", "list"),
        ("card", "show", "301.4@steve#g1"),
        ("export", "--format", "json"),
        ("routes", "301.4@steve#g1", "subject:steve"),
    ],
)
def test_read_only_command_on_missing_store_exits_two(tmp_path, capsys, command):
    store = tmp_path / "typo"
    code = run_cli(*command, "--store", store)
    assert code == 2
    assert "store not found" in capsys.readouterr().err
    assert not store.exists()


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


# ---------------------------------------------------------------------------
# Store files that do not decode
# ---------------------------------------------------------------------------

LOGS = [
    "chunks/chunks.jsonl",
    "chunks/released.jsonl",
    "notes/notes.jsonl",
    "refined/refined.jsonl",
    "cards/log.jsonl",
]


def tear(log: Path) -> bytes:
    """Leave *log* as an append cut short would: half a line after the last one."""
    intact = log.read_bytes()
    last = intact.splitlines(keepends=True)[-1]
    log.write_bytes(intact + last[: len(last) // 2])
    return intact


@pytest.mark.parametrize("log", LOGS)
def test_read_only_command_on_a_torn_log_exits_two_and_writes_nothing(fixture_store, capsys, log):
    tear(fixture_store / log)
    before = store_bytes(fixture_store)
    capsys.readouterr()
    assert run_cli("cards", "list", "--store", fixture_store) == 2
    err = capsys.readouterr().err
    assert str(fixture_store / log) in err
    assert "the next run repairs it" in err
    assert store_bytes(fixture_store) == before


@pytest.mark.parametrize("command", ["run", "ingest"])
@pytest.mark.parametrize("log", LOGS)
def test_writer_cuts_a_torn_log_and_reports_it(fixture_store, capsys, log, command):
    intact = tear(fixture_store / log)
    capsys.readouterr()
    code = run_cli(command, "--config", FIXTURES / "jobs_config.json", "--store", fixture_store)
    assert code == 0
    assert f"repaired: cut the torn last line off {fixture_store / log}\n" in capsys.readouterr().err
    assert (fixture_store / log).read_bytes() == intact
    assert run_cli("cards", "list", "--store", fixture_store) == 0


@pytest.mark.parametrize("log", LOGS)
def test_undecodable_log_line_exits_two_naming_file_and_line(fixture_store, capsys, log):
    path = fixture_store / log
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = b"{not json\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    for command in (["cards", "list"], ["run", "--config", FIXTURES / "jobs_config.json"]):
        assert run_cli(*command, "--store", fixture_store) == 2
        assert f"{path}: line {len(lines)} does not decode" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["documents/index.json", "cards/maker.json"])
def test_undecodable_whole_file_exits_two_naming_it(fixture_store, capsys, name):
    path = fixture_store / name
    path.write_bytes(path.read_bytes()[:-10])
    capsys.readouterr()
    assert run_cli("cards", "list", "--store", fixture_store) == 2
    assert f"{path}: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("damaged", ["refined/refined.jsonl", "documents/index.json"])
@pytest.mark.parametrize("command", [command for command, _ in PARTIAL_READERS], ids=PARTIAL_IDS)
def test_command_refuses_damage_in_a_store_it_does_not_read(fixture_store, capsys, command, damaged):
    path = fixture_store / damaged
    if path.suffix == ".jsonl":
        tear(path)
    else:
        path.write_bytes(path.read_bytes()[:-10])
    before = store_bytes(fixture_store)
    capsys.readouterr()
    assert run_cli(*command, "--store", fixture_store) == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert store_bytes(fixture_store) == before


def test_store_with_a_released_json_exits_two_naming_it(fixture_store, capsys):
    legacy = fixture_store / "chunks" / "released.json"
    legacy.write_text("{}\n", encoding="utf-8")
    before = store_bytes(fixture_store)
    capsys.readouterr()
    for command in (["card", "show", "301.4@steve#g1"], ["run", "--config", FIXTURES / "jobs_config.json"]):
        assert run_cli(*command, "--store", fixture_store) == 2
        assert f"error: {legacy}: this store predates released.jsonl" in capsys.readouterr().err
    assert store_bytes(fixture_store) == before
