from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

from notecards.cli import main as cli_main
from notecards.encoding import StoreFormatError, append_jsonl, canonical_json, cut_to_length
from notecards.encoding import read_jsonl
from notecards.pipeline import LOGS, cut_to_commit

from conftest import FIXTURES, store_bytes


def random_text(rng: random.Random) -> str:
    """Text with escapes, control, non-ASCII and astral characters and a lone surrogate."""
    alphabet = 'aZ0 "\\\n\x00é☕\U0001F600\ud800/'
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))


def random_value(rng: random.Random, depth: int = 0):
    """A JSON value as the stores hold them: nested records, tuples, any text."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-2**70, 2**70)
    if kind == 3:
        return rng.choice([0.0, -0.0, 1e-300, 2.5, rng.uniform(-1e9, 1e9), float("inf")])
    if kind in (4, 5):
        return random_text(rng)
    items = [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {random_text(rng): value for value in items}


def test_canonical_json_equals_json_dumps_with_the_canonical_arguments():
    rng = random.Random(19)
    for _ in range(2000):
        value = random_value(rng)
        expected = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        assert canonical_json(value) == expected


def test_whole_log_is_left_alone(tmp_path):
    log = tmp_path / "log.jsonl"
    append_jsonl(log, [{"a": 1}, {"b": 2}])
    before = log.read_bytes()
    assert cut_to_length(log, len(before)) is False
    assert log.read_bytes() == before


def test_missing_and_empty_logs_are_not_torn(tmp_path):
    assert cut_to_length(tmp_path / "missing.jsonl", 0) is False
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert cut_to_length(empty, 0) is False
    assert not (tmp_path / "missing.jsonl").exists()


@pytest.mark.parametrize("tail", [b"{", b'{"c":' + b"x" * 50])
def test_torn_tail_is_cut_back_to_the_last_whole_line(tmp_path, tail):
    log = tmp_path / "log.jsonl"
    append_jsonl(log, [{"a": 1}, {"b": 2}])
    intact = log.read_bytes()
    log.write_bytes(intact + tail)
    with pytest.raises(StoreFormatError, match="line 3 is the torn end"):
        list(read_jsonl(log))
    assert cut_to_length(log, len(intact)) is True
    assert log.read_bytes() == intact
    assert list(read_jsonl(log)) == [{"a": 1}, {"b": 2}]


def test_log_without_any_whole_line_is_cut_to_nothing(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_bytes(b'{"a":')
    assert cut_to_length(log, 0) is True
    assert log.read_bytes() == b""


def test_whole_lines_past_the_committed_length_are_cut(tmp_path):
    log = tmp_path / "log.jsonl"
    append_jsonl(log, [{"a": 1}])
    committed = log.read_bytes()
    append_jsonl(log, [{"b": 2}, {"c": 3}])
    assert cut_to_length(log, len(committed)) is True
    assert log.read_bytes() == committed


# ---------------------------------------------------------------------------
# The commit rule: every command checks the commit, and run and ingest cut
# every log back to its committed length
# ---------------------------------------------------------------------------


def run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


WRITERS = [
    ["run", "--config", FIXTURES / "jobs_config.json"],
    ["ingest", "--config", FIXTURES / "jobs_config.json"],
]
# Writers and readers, which refuse a commit the same way.
COMMANDS = WRITERS + [["cards", "list"], ["store", "check"]]
COMMAND_IDS = ["run", "ingest", "cards-list", "store-check"]


@pytest.fixture
def store(tmp_path):
    store = tmp_path / "store"
    assert run_cli(*WRITERS[0], "--store", store) == 0
    return store


def test_a_run_commits_the_length_of_every_log(store):
    maker = json.loads((store / "cards" / "maker.json").read_text(encoding="utf-8"))
    assert maker["logs"] == {name: (store / name).stat().st_size for name in LOGS}
    assert maker["digests"] == {name: sha256_of(store / name) for name in LOGS}
    assert cut_to_commit(store)[2] == []


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes() if path.exists() else b"").hexdigest()


def test_a_new_store_commits_its_empty_logs_before_any_append(tmp_path):
    store = tmp_path / "store"
    assert cut_to_commit(store)[2] == []
    maker = json.loads((store / "cards" / "maker.json").read_text(encoding="utf-8"))
    assert maker == {
        "annotated": 0, "cards": {}, "closed": [], "corpora": {},
        "digests": dict.fromkeys(LOGS, sha256_of(store / "nothing")),
        "logs": dict.fromkeys(LOGS, 0), "manifest": None,
    }
    assert not any((store / name).exists() for name in LOGS)


def test_ingest_commits_the_documents_and_leaves_annotation_where_it_was(tmp_path):
    store = tmp_path / "store"
    assert run_cli(*WRITERS[1], "--store", store) == 0
    maker = json.loads((store / "cards" / "maker.json").read_text(encoding="utf-8"))
    documents = store / "documents" / "documents.jsonl"
    logs = dict.fromkeys(LOGS, 0)
    logs["documents/documents.jsonl"] = documents.stat().st_size
    corpus = FIXTURES / "jobs_corpus.jsonl"
    consumed = {"length": corpus.stat().st_size, "accepted": 20, "rejected": 0, "mask": None,
                "sha256": hashlib.sha256(corpus.read_bytes()).hexdigest()}
    corpora = {os.path.abspath(corpus): consumed}
    digests = {name: sha256_of(store / name) for name in LOGS}
    assert maker == {
        "annotated": 0, "cards": {}, "closed": [], "corpora": corpora, "digests": digests,
        "logs": logs, "manifest": None,
    }
    assert sorted(path.name for path in documents.parent.iterdir()) == ["documents.jsonl"]
    assert run_cli(*WRITERS[0], "--store", store) == 0
    maker = json.loads((store / "cards" / "maker.json").read_text(encoding="utf-8"))
    assert maker["annotated"] == maker["logs"]["documents/documents.jsonl"] == logs["documents/documents.jsonl"]
    assert sorted(path.name for path in documents.parent.iterdir()) == ["documents.jsonl"]


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_missing_maker_state_beside_written_logs_exits_two_naming_it(store, capsys, command):
    maker = store / "cards" / "maker.json"
    maker.unlink()
    before = store_bytes(store)
    capsys.readouterr()
    assert run_cli(*command, "--store", store) == 2
    assert f"error: {maker}: missing, so nothing commits the logs beside it" in capsys.readouterr().err
    assert store_bytes(store) == before


def test_the_maker_save_syncs_every_log_and_its_directory_before_it_commits(tmp_path, monkeypatch):
    synced = []
    fsync = os.fsync

    def record(fd):
        synced.append(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record)
    store = tmp_path / "store"
    assert run_cli(*WRITERS[0], "--store", store) == 0
    # Renamed into place, the maker state keeps the inode its temp file was
    # synced as; the last sync of that inode is the run's commit.
    inode = (store / "cards" / "maker.json").stat().st_ino
    commit = len(synced) - 1 - synced[::-1].index(inode)
    for name in LOGS:
        for path in (store / name, (store / name).parent):
            assert path.stat().st_ino in synced[:commit], path


def past_the_commit(store, *skip):
    """A whole line past the commit in every log but *skip*, as a crashed run leaves."""
    for name in LOGS:
        if name not in skip:
            with (store / name).open("ab") as handle:
                handle.write(b'{"past":"the commit"}\n')


def shorten(path):
    path.write_bytes(path.read_bytes()[:-1])


def commit_mid_line(path):
    maker = path.parents[1] / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    state["logs"][str(path.relative_to(path.parents[1]))] -= 2
    maker.write_text(json.dumps(state), encoding="utf-8")


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize(
    "damage, message",
    [(shorten, "shorter than its committed"), (commit_mid_line, "does not end a line")],
    ids=["shorter", "mid-line"],
)
@pytest.mark.parametrize("log", LOGS)
def test_log_that_does_not_match_its_commit_exits_two_naming_it(store, capsys, command, damage, message, log):
    path = store / log
    damage(path)
    past_the_commit(store, log)
    before = store_bytes(store)
    capsys.readouterr()
    assert run_cli(*command, "--store", store) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and message in err
    assert store_bytes(store) == before


def before_the_commit_record(store, state):
    # Committed no log lengths, and pinned its inputs, but no horizon, in store.json.
    manifest = state.pop("manifest")
    del state["logs"], manifest["horizon_windows"]
    (store / "store.json").write_text(json.dumps(manifest), encoding="utf-8")


def with_documents_outside_the_commit(store, state):
    # Committed the five derived logs; documents sat in run files and an index.
    del state["annotated"], state["logs"]["documents/documents.jsonl"]
    documents = store / "documents"
    (documents / "documents.jsonl").rename(documents / "run-0001.jsonl")
    (documents / "index.json").write_text("{}\n", encoding="utf-8")


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize("older", [before_the_commit_record, with_documents_outside_the_commit])
def test_maker_state_without_committed_lengths_exits_two_naming_it(store, capsys, command, older):
    maker = store / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    older(store, state)
    maker.write_text(json.dumps(state), encoding="utf-8")
    before = store_bytes(store)
    capsys.readouterr()
    assert run_cli(*command, "--store", store) == 2
    err = capsys.readouterr().err
    assert f"error: {maker}: the store predates this store format; build a new store" in err
    assert store_bytes(store) == before


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_annotation_past_the_committed_documents_exits_two_naming_the_maker_state(store, capsys, command):
    maker = store / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    state["annotated"] = state["logs"]["documents/documents.jsonl"] + 1
    maker.write_text(json.dumps(state), encoding="utf-8")
    past_the_commit(store)
    before = store_bytes(store)
    capsys.readouterr()
    assert run_cli(*command, "--store", store) == 2
    err = capsys.readouterr().err
    assert f"error: {maker}: annotated is past the committed documents log" in err
    assert store_bytes(store) == before


def length_as_text(state):
    state["logs"]["notes/notes.jsonl"] = str(state["logs"]["notes/notes.jsonl"])
    return state["logs"]["notes/notes.jsonl"]


def annotated_as_text(state):
    state["annotated"] = str(state["annotated"])
    return state["annotated"]


def negative_length(state):
    state["logs"]["notes/notes.jsonl"] = -1
    return -1


def boolean_length(state):
    state["logs"]["notes/notes.jsonl"] = True
    return True


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
@pytest.mark.parametrize("malform", [length_as_text, annotated_as_text, negative_length, boolean_length])
def test_committed_length_that_is_not_a_non_negative_integer_exits_two_naming_the_maker_state(
    store, capsys, command, malform
):
    maker = store / "cards" / "maker.json"
    state = json.loads(maker.read_text(encoding="utf-8"))
    value = malform(state)
    maker.write_text(json.dumps(state), encoding="utf-8")
    before = store_bytes(store)
    capsys.readouterr()
    assert run_cli(*command, "--store", store) == 2
    err = capsys.readouterr().err
    assert f"error: {maker}: committed length {value!r} is not a non-negative integer" in err
    assert store_bytes(store) == before
