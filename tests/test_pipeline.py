from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import replace
from datetime import timedelta
from operator import itemgetter
from pathlib import Path

import pytest

from notecards.cards import (
    STATUS_COMMITTED,
    CardError,
    CardLedger,
    CardMaker,
    CardManager,
    drill_down,
)
from notecards import cards, encoding, ingest, notes, organize, pipeline, refine
from notecards.encoding import canonical_json
from notecards.cli import main as cli_main
from notecards.clock import parse_instant
from notecards.ingest import TextStore
from notecards.notes import NoteStore
from notecards.ontology import load_ontology, spec_to_dict
from notecards.organize import OrganizerStore
from notecards.refine import RefinedNoteStore
from notecards.pipeline import (
    PipelineConfig,
    PipelineError,
    Stores,
    cut_to_commit,
    load_config,
    run_pipeline,
)

from conftest import FIXTURES, assert_card_index_follows_the_log, store_bytes

PINNED = "2011-11-13T00:00:00Z"


def jobs_config(store: Path, corpus: Path | None = None) -> PipelineConfig:
    return PipelineConfig(
        ontology_paths=[FIXTURES / "ocpd.json"],
        corpus_paths=[corpus or FIXTURES / "jobs_corpus.jsonl"],
        store_root=store,
        now_override=PINNED,
    )


def split_corpus(tmp_path: Path) -> tuple[Path, Path]:
    lines = (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    head = tmp_path / "head.jsonl"
    tail = tmp_path / "tail.jsonl"
    head.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    tail.write_text(lines[-1] + "\n", encoding="utf-8")
    return head, tail


def test_a_late_document_is_refined_and_leaves_the_committed_card_as_it_was(tmp_path):
    head, tail = split_corpus(tmp_path)
    store = tmp_path / "store"

    config = jobs_config(store, corpus=head)
    summary = run_pipeline(config)
    assert summary.cards_committed == 1
    stores = Stores(config)
    [card] = stores.ledger.committed()
    refined_before = len(stores.refined)

    # The last document arrives after its window was already released.
    late_config = jobs_config(store, corpus=tail)
    late_summary = run_pipeline(late_config)
    assert late_summary.documents_ingested == 1
    assert late_summary.groups_released == 1  # the supplemental late group
    assert late_summary.notes_synthesized == 1

    stores = Stores(late_config)
    assert len(stores.refined) == refined_before + 1
    # The card's slot closed when it committed: the late note reaches no card.
    assert stores.ledger.cards() == [card]
    assert stores.maker.premature_cards() == []


def test_masking_pseudonymizes_subjects_end_to_end(tmp_path):
    key_file = tmp_path / "mask.key"
    key_file.write_bytes(b"0123456789abcdef0123456789abcdef")
    store = tmp_path / "store"
    config = jobs_config(store)
    config.mask_key_file = key_file
    summary = run_pipeline(config)
    assert summary.cards_committed == 1
    stores = Stores(config)
    card = stores.ledger.committed()[0]
    assert card.subject != "steve"
    assert len(card.subject) == 32
    int(card.subject, 16)
    # No stored document keeps the original subject id.
    for doc in stores.text.list():
        assert "steve" not in doc.meta.subjects
        assert doc.masked

    # Same key in a fresh store: same pseudonym.
    other = jobs_config(tmp_path / "store2")
    other.mask_key_file = key_file
    run_pipeline(other)
    assert Stores(other).ledger.committed()[0].subject == card.subject


def test_config_file_with_flag_style_overrides(tmp_path):
    config = load_config(FIXTURES / "jobs_config.json")
    assert config.window == timedelta(days=7)
    assert config.epsilon == timedelta(days=1)
    assert config.watermark == timedelta(days=2)
    assert config.horizon_windows == 4
    assert config.now_override == PINNED
    # Relative paths resolve against the config file location.
    assert config.ontology_paths[0] == FIXTURES / "ocpd.json"
    # Overrides (what the CLI flags do) win over file values.
    config.store_root = tmp_path / "elsewhere"
    summary = run_pipeline(config)
    assert (tmp_path / "elsewhere" / "cards" / "log.jsonl").exists()
    assert summary.cards_committed == 1


def test_undated_plain_text_corpus_flows_through_catch_all(tmp_path):
    memo = tmp_path / "memo.txt"
    memo.write_text(
        "He agonizes over two thousand shades of beige and approves none for the case.",
        encoding="utf-8",
    )
    config = PipelineConfig(
        ontology_paths=[FIXTURES / "ocpd.json"],
        corpus_paths=[memo],
        store_root=tmp_path / "store",
        now_override=PINNED,
    )
    summary = run_pipeline(config)
    # Plain files carry no subjects metadata and no person entity exists in
    # the fixture dictionary, so the sentence is skipped, not crashed on.
    assert summary.documents_ingested == 1
    assert summary.chunks_skipped == 1
    assert summary.notes_synthesized == 0


def test_undated_records_with_subjects_synthesize_notes(tmp_path):
    corpus = tmp_path / "undated.jsonl"
    record = {
        "text": "He agonizes over two thousand shades of beige and approves none for the case.",
        "source_uri": "memo://undated",
        "subjects": ["steve"],
    }
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    config = jobs_config(tmp_path / "store", corpus=corpus)
    summary = run_pipeline(config)
    assert summary.notes_synthesized == 1
    stores = Stores(config)
    note = stores.notes.list(subject="steve")[0]
    assert note.time_range == (None, None)


def test_an_id_repeated_within_one_batch_is_stored_once(tmp_path):
    """A second template on the alcohol trigger that sums what the first
    maxes synthesizes equal notes, so one batch holds an id twice."""
    spec = json.loads((FIXTURES / "alcohol.json").read_text(encoding="utf-8"))
    spec["note_templates"].append({
        "template_id": "t_drinking_total",
        "trigger": {"entity": "alcohol", "relationship": "consume"},
        "attribute_aggregations": {"amount": "sum"},
        "min_events": 1,
    })
    ontology = tmp_path / "alcohol-total.json"
    ontology.write_text(json.dumps(spec), encoding="utf-8")
    store = tmp_path / "store"
    summary = run_pipeline(PipelineConfig(
        ontology_paths=[ontology], corpus_paths=[FIXTURES / "alcohol_corpus.jsonl"],
        store_root=store, now_override=PINNED,
    ))
    notes = encoding.Log(store / "notes/notes.jsonl").records(itemgetter("note_id"))
    refined = encoding.Log(store / "refined/refined.jsonl").records(itemgetter("refined_id"))
    assert "n-779c38c31edb2250" in notes and "rn-33be81da207f9045" in refined
    assert len(notes) == len(set(notes)) == summary.notes_synthesized
    assert len(refined) == len(set(refined)) == summary.notes_refined
    assert cli_main(["store", "check", "--store", str(store)]) == 0


def test_drill_down_unknown_card(tmp_path):
    config = jobs_config(tmp_path / "store")
    run_pipeline(config)
    with pytest.raises(CardError):
        drill_down("missing@x#g1", Stores(config))


def test_rerun_releases_nothing_new(tmp_path):
    config = jobs_config(tmp_path / "store")
    first = run_pipeline(config)
    assert first.notes_rejected == 0
    second = run_pipeline(config)
    # Released groups are immutable, so a rerun has nothing to hand to
    # synthesis; totals carry over unchanged.
    assert second.groups_released == 0
    assert second.notes_synthesized == 0
    assert second.cards_committed == first.cards_committed == 1


def test_a_late_duplicate_that_sorts_first_adds_no_note(tmp_path):
    # One event reported at 12:00 and at 08:00 the same day: a duplicate within epsilon.
    record = json.loads((FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
    corpora = []
    for hour in ("12", "08"):
        corpora.append(tmp_path / f"at-{hour}.jsonl")
        stamped = dict(record, timestamp=f"2011-10-14T{hour}:00:00Z")
        corpora[-1].write_text(json.dumps(stamped) + "\n", encoding="utf-8")
    both = tmp_path / "both.jsonl"
    both.write_text("".join(corpus.read_text(encoding="utf-8") for corpus in corpora), encoding="utf-8")
    run_pipeline(jobs_config(tmp_path / "one-run", corpus=both))
    for corpus in corpora:
        run_pipeline(jobs_config(tmp_path / "split", corpus=corpus))
    assert len(NoteStore(tmp_path / "split" / "notes")) == len(NoteStore(tmp_path / "one-run" / "notes")) == 1


# ---------------------------------------------------------------------------
# Card write policy: one log line per card change, whole files once per batch
# ---------------------------------------------------------------------------


def many_subjects_corpus(tmp_path: Path, count: int) -> Path:
    """The jobs fixture once per subject, each subject under its own URIs."""
    records = [
        json.loads(line)
        for line in (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    corpus = tmp_path / "subjects.jsonl"
    with corpus.open("w", encoding="utf-8") as handle:
        for i in range(count):
            for record in records:
                copy = dict(record, subjects=[f"subject{i}"])
                copy["source_uri"] = f"{record['source_uri']}/subject{i}"
                handle.write(json.dumps(copy) + "\n")
    return corpus


def test_golden_run_logs_only_snapshots(tmp_path):
    config = jobs_config(tmp_path / "store")
    run_pipeline(config)
    log = tmp_path / "store" / "cards" / "log.jsonl"
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert records and all(record["type"] == "snapshot" for record in records)
    card = Stores(config).ledger.committed()[0]
    assert card.reasoning_trail[-1].kind == "committed"
    assert sorted(p.name for p in (tmp_path / "store" / "notes").iterdir()) == ["notes.jsonl"]


def test_whole_file_card_state_is_written_once_per_run(tmp_path, monkeypatch):
    calls = {"index": 0, "maker": 0}
    write_index, save = CardLedger.write_index, CardMaker.save

    def counted_index(self):
        calls["index"] += 1
        write_index(self)

    def counted_save(self):
        calls["maker"] += 1
        save(self)

    monkeypatch.setattr(CardLedger, "write_index", counted_index)
    monkeypatch.setattr(CardMaker, "save", counted_save)
    config = jobs_config(tmp_path / "store", corpus=many_subjects_corpus(tmp_path, 5))
    summary = run_pipeline(config)
    assert summary.cards_committed == 5
    assert calls["index"] == 1
    assert calls["maker"] <= 2
    assert_card_index_follows_the_log(config.store_root)


def test_the_card_index_follows_the_log_through_a_rerun(tmp_path):
    corpus = many_subjects_corpus(tmp_path, 4)
    config = jobs_config(tmp_path / "store", corpus=corpus)
    assert run_pipeline(config).cards_committed == 4
    assert_card_index_follows_the_log(config.store_root)

    # New input on the same corpus path: a fifth subject.
    many_subjects_corpus(tmp_path, 5)
    summary = run_pipeline(config)
    assert (summary.documents_ingested, summary.cards_committed) == (100, 5)
    assert_card_index_follows_the_log(config.store_root)
    index = json.loads((config.store_root / "cards" / "index.json").read_text(encoding="utf-8"))
    assert sorted(index) == [f"301.4@subject{i}#g1" for i in range(5)]


def test_maker_state_with_older_keys_reruns_to_the_same_store(tmp_path):
    # Three rows hold the card below threshold; the full corpus commits it.
    lines = (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    held = tmp_path / "held.jsonl"
    held.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
    for name in ("current", "older"):
        run_pipeline(jobs_config(tmp_path / name, corpus=held))
    # The keys maker.json had before it dropped the slot generations and
    # the announced card ids, neither of which decides anything.
    older = tmp_path / "older" / "cards" / "maker.json"
    state = json.loads(older.read_text(encoding="utf-8"))
    assert sorted(state) == ["annotated", "cards", "closed", "corpora", "digests", "logs", "manifest"]
    [slot] = state["cards"]
    encoding.write_json(older, dict(state, generations={slot: 1}, announced=[]))

    for name in ("current", "older"):
        assert run_pipeline(jobs_config(tmp_path / name)).cards_committed == 1
    assert store_bytes(tmp_path / "older") == store_bytes(tmp_path / "current")
    rewritten = json.loads(older.read_text(encoding="utf-8"))
    assert sorted(rewritten) == ["annotated", "cards", "closed", "corpora", "digests", "logs", "manifest"]
    assert rewritten["closed"] == [slot]


def test_rerun_after_a_crash_in_admit_matches_an_uninterrupted_run(tmp_path, monkeypatch):
    corpus = many_subjects_corpus(tmp_path, 5)
    clean = jobs_config(tmp_path / "clean", corpus=corpus)
    run_pipeline(clean)

    commit_card = CardManager.commit_card
    calls = []

    def crash_on_third(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("injected crash")
        return commit_card(self, *args, **kwargs)

    crashed = jobs_config(tmp_path / "crashed", corpus=corpus)
    monkeypatch.setattr(CardManager, "commit_card", crash_on_third)
    with pytest.raises(RuntimeError):
        run_pipeline(crashed)
    monkeypatch.setattr(CardManager, "commit_card", commit_card)
    summary = run_pipeline(crashed)

    assert summary.cards_committed == 5
    log = "cards/log.jsonl"
    assert (tmp_path / "crashed" / log).read_bytes() == (tmp_path / "clean" / log).read_bytes()
    assert len(Stores(crashed).ledger.cards(STATUS_COMMITTED)) == 5
    assert_card_index_follows_the_log(crashed.store_root)


def crash_mid_append(patch, module, after: int) -> None:
    """*module*'s log appends write *after* whole lines, then half a line, then
    raise; until then each returns its lines' offsets, as append_jsonl does."""
    written = []

    def append(path, records):
        offsets = []
        for record in records:
            line = canonical_json(record).encode("ascii") + b"\n"
            if len(written) == after:
                line = line[: len(line) // 2]
            path.parent.mkdir(parents=True, exist_ok=True)  # as append_jsonl does
            with path.open("ab") as handle:
                offsets.append(handle.tell())
                handle.write(line)
            if len(written) == after:
                raise RuntimeError("injected crash mid-append")
            written.append(line)
        return offsets

    patch.setattr(module, "append_jsonl", append)


def crash_after_close_window(patch) -> None:
    close_window = OrganizerStore.close_window

    def close_then_crash(self, now):
        close_window(self, now)
        raise RuntimeError("injected crash")

    patch.setattr(OrganizerStore, "close_window", close_then_crash)


@pytest.mark.parametrize(
    "crash, appended",
    [
        (
            crash_after_close_window,
            ["documents/documents.jsonl", "chunks/chunks.jsonl", "chunks/released.jsonl"],
        ),
        (
            lambda patch: crash_mid_append(patch, notes, 7),
            ["documents/documents.jsonl", "chunks/chunks.jsonl", "chunks/released.jsonl",
             "notes/notes.jsonl"],
        ),
        (
            lambda patch: crash_mid_append(patch, organize, 25),
            ["documents/documents.jsonl", "chunks/chunks.jsonl"],
        ),
        (lambda patch: crash_mid_append(patch, cards, 1), list(pipeline.LOGS)),
    ],
    ids=["after-close-window", "mid-notes-append", "mid-chunk-append", "mid-card-append"],
)
def test_rerun_after_a_crash_matches_an_uninterrupted_run(tmp_path, monkeypatch, crash, appended):
    corpus = many_subjects_corpus(tmp_path, 3)
    run_pipeline(jobs_config(tmp_path / "clean", corpus=corpus))
    crashed = jobs_config(tmp_path / "crashed", corpus=corpus)
    with monkeypatch.context() as patch:
        crash(patch)
        with pytest.raises(RuntimeError):
            run_pipeline(crashed)
    summary = run_pipeline(crashed)
    # Every log the crashed run appended to, torn or whole, is past its commit.
    assert summary.repaired == [tmp_path / "crashed" / name for name in appended]
    assert store_bytes(tmp_path / "crashed") == store_bytes(tmp_path / "clean")


def test_crash_after_the_refined_append_still_commits_the_card(tmp_path, monkeypatch):
    run_pipeline(jobs_config(tmp_path / "clean"))
    crashed = jobs_config(tmp_path / "crashed")
    add_all = RefinedNoteStore.add_all

    def add_then_crash(self, records):
        add_all(self, records)
        raise RuntimeError("injected crash")

    with monkeypatch.context() as patch:
        patch.setattr(RefinedNoteStore, "add_all", add_then_crash)
        with pytest.raises(RuntimeError):
            run_pipeline(crashed)
    assert run_pipeline(crashed).cards_committed == 1
    assert store_bytes(tmp_path / "crashed") == store_bytes(tmp_path / "clean")


def test_an_ingest_after_a_crash_in_the_maker_save_keeps_the_index_on_the_commit(
    tmp_path, monkeypatch
):
    # The card index is written after the commit, so a run that crashes in its
    # commit leaves the last commit's index, which an ingest's commit keeps.
    store = tmp_path / "store"
    corpora = []
    for count in (1, 2):
        (tmp_path / str(count)).mkdir()
        corpora.append(many_subjects_corpus(tmp_path / str(count), count))
    run_pipeline(jobs_config(store, corpora[0]))

    def crash(self):
        raise RuntimeError("injected crash")

    with monkeypatch.context() as patch:
        patch.setattr(CardMaker, "save", crash)
        with pytest.raises(RuntimeError):
            run_pipeline(jobs_config(store, corpora[1]))  # commits a second card
    argv = ["ingest", "--corpus", str(corpora[1]), "--store", str(store), "--now", PINNED]
    assert cli_main(argv) == 0
    assert_card_index_follows_the_log(store)
    assert cli_main(["store", "check", "--store", str(store)]) == 0


# ---------------------------------------------------------------------------
# Crash sweep: a crash at any store write, then a rerun, ends as an uninterrupted run
# ---------------------------------------------------------------------------


class InjectedCrash(Exception):
    pass


def number_store_writes(patch, crash_at: int | None = None, torn: bool = False) -> list[tuple[str, Path]]:
    """Number every store write and raise at write *crash_at*.

    A store write is a log append, a whole-file write, or the rename that
    ends a whole-file write. A torn crash at an append first writes half
    of the bytes the append would write. Returns the kind and the file of
    every write reached, in order.
    """
    writes: list[tuple[str, Path]] = []

    def reached(kind: str, path) -> bool:
        writes.append((kind, Path(path)))
        return len(writes) - 1 == crash_at

    def append_jsonl(path, records):
        records = list(records)
        if reached("append", path):
            if torn:
                data = b"".join(canonical_json(r).encode("ascii") + b"\n" for r in records)
                path.parent.mkdir(parents=True, exist_ok=True)  # as append_jsonl does
                with path.open("ab") as handle:
                    handle.write(data[: len(data) // 2])
            raise InjectedCrash(f"append to {path}")
        return encoding.append_jsonl(path, records)

    def write_json(path, value):
        if reached("write", path):
            raise InjectedCrash(f"write of {path}")
        return encoding.write_json(path, value)

    rename = os.replace

    def replace(source, target):
        if reached("rename", target):
            raise InjectedCrash(f"rename onto {target}")
        return rename(source, target)

    for module in (ingest, organize, notes, refine, cards, pipeline):
        for name, fake in (("append_jsonl", append_jsonl), ("write_json", write_json)):
            if hasattr(module, name):
                patch.setattr(module, name, fake)
    patch.setattr(os, "replace", replace)
    return writes


def log_sizes(store: Path) -> dict[str, int]:
    return {name: (store / name).stat().st_size if (store / name).exists() else 0 for name in pipeline.LOGS}


# Read-only commands, whose output on a crashed store is that on the store before the crash.
READERS = [
    ["cards", "list", "--json"],
    ["notes", "list", "--json"],
    ["export", "--format", "json"],
    ["store", "check"],
]


def read_store(store: Path, capsys) -> list[tuple[int, str]]:
    """The exit status and output of each of :data:`READERS` on *store*."""
    capsys.readouterr()
    outputs = []
    for argv in READERS:
        status = cli_main([*argv, "--store", str(store)])
        outputs.append((status, capsys.readouterr().out))
    return outputs


def crash_sweep(tmp_path: Path, monkeypatch, capsys, earlier: list, steps: list) -> list[str]:
    """Take *earlier* steps, then each of *steps* on the store, crashing the
    first step at each of its store writes (whole, and torn for appends) and
    then taking every step again. Returned: every case whose readers, between
    the crash and the rerun, see other than the store before the crash, and
    every case whose store, after the rerun, differs from one where nothing
    crashed, holds a log longer than its committed length, or fails
    ``store check``."""
    base = tmp_path / "base"
    for step in earlier:
        step(base)
    base.mkdir(exist_ok=True)
    seen = read_store(base, capsys)
    assert all(status == 0 for status, _ in seen)
    clean = tmp_path / "clean"
    shutil.copytree(base, clean)
    with monkeypatch.context() as patch:
        writes = number_store_writes(patch)
        steps[0](clean)
    committed = read_store(clean, capsys), store_bytes(clean).get("cards/index.json")
    # The numbering reaches every log the step grew, and the commit is its last
    # write but the rewrite of the card index that follows it.
    grown = {name for name, size in log_sizes(clean).items() if size > log_sizes(base)[name]}
    assert grown and {str(path.relative_to(clean)) for kind, path in writes if kind == "append"} == grown
    maker = ("rename", clean / "cards" / "maker.json")
    commit = max(k for k, write in enumerate(writes) if write == maker)
    assert {path for _, path in writes[commit + 1 :]} <= {clean / "cards" / "index.json"}
    for step in steps[1:]:
        step(clean)
    # A finished step commits every log it appended to: the next open cuts nothing.
    assert cut_to_commit(clean)[2] == []
    expected = store_bytes(clean)
    cases = [(k, False) for k in range(len(writes))]
    cases += [(k, True) for k, (kind, _) in enumerate(writes) if kind == "append"]
    differ = []
    for k, torn in cases:
        store = tmp_path / f"crash-{k}-{'torn' if torn else 'whole'}"
        shutil.copytree(base, store)
        with monkeypatch.context() as patch:
            number_store_writes(patch, k, torn)
            with pytest.raises(InjectedCrash):
                steps[0](store)
        if k <= commit:
            names = [] if read_store(store, capsys) == seen else ["readers see past the commit"]
        else:  # committed: readers see the step's store, and store check an index left stale
            *outputs, (status, check) = read_store(store, capsys)
            (*expected_outputs, sound), index = committed
            names = [] if outputs == expected_outputs else ["readers do not see the commit"]
            if store_bytes(store).get("cards/index.json") == index:
                names += [] if (status, check) == sound else ["store check fails"]
            elif status != 1 or "off the index" not in check:
                names.append("store check misses the stale index")
        for step in steps:
            step(store)
        got = store_bytes(store)
        names += sorted(n for n in got.keys() | expected.keys() if got.get(n) != expected.get(n))
        names += [f"{path.relative_to(store)} past its commit" for path in cut_to_commit(store)[2]]
        if cli_main(["store", "check", "--store", str(store)]) != 0:
            names.append("store check fails")
        if names:
            kind, path = writes[k]
            differ.append(f"write {k} ({kind} {path.name}, {'torn' if torn else 'whole'}): {names}")
    return differ


def run_step(corpus: Path):
    return lambda store: run_pipeline(jobs_config(store, corpus=corpus))


def ingest_step(corpus: Path):
    def ingest_command(store):
        argv = ["ingest", "--corpus", str(corpus), "--store", str(store), "--now", PINNED]
        assert cli_main(argv) == 0

    return ingest_command


def golden_on_an_empty_store(tmp_path):
    corpus = FIXTURES / "jobs_corpus.jsonl"
    return [], [run_step(corpus)]


def tail_after_the_head(tmp_path):
    head, tail = halves(tmp_path)
    return [run_step(head)], [run_step(tail)]


def three_subjects(tmp_path):
    return [], [run_step(many_subjects_corpus(tmp_path, 3))]


def ingest_then_run_on_an_empty_store(tmp_path):
    corpus = FIXTURES / "jobs_corpus.jsonl"
    return [], [ingest_step(corpus), run_step(corpus)]


def ingest_then_run_of_the_tail_after_the_head(tmp_path):
    head, tail = halves(tmp_path)
    return [run_step(head)], [ingest_step(tail), run_step(tail)]


def growing_corpus(tmp_path):
    """A corpus run when it holds the head, then grown by the tail."""
    head, tail = halves(tmp_path)
    corpus = tmp_path / "growing.jsonl"
    corpus.write_bytes(head.read_bytes())

    def grow(store):
        corpus.write_bytes(head.read_bytes() + tail.read_bytes())

    return corpus, [run_step(corpus), grow]


def a_corpus_that_grows_between_runs(tmp_path):
    corpus, earlier = growing_corpus(tmp_path)
    return earlier, [run_step(corpus)]


def ingest_then_run_of_a_corpus_that_grew(tmp_path):
    corpus, earlier = growing_corpus(tmp_path)
    return earlier, [ingest_step(corpus), run_step(corpus)]


@pytest.mark.parametrize(
    "inputs",
    [
        golden_on_an_empty_store,
        tail_after_the_head,
        three_subjects,
        ingest_then_run_on_an_empty_store,
        ingest_then_run_of_the_tail_after_the_head,
        a_corpus_that_grows_between_runs,
        ingest_then_run_of_a_corpus_that_grew,
    ],
)
def test_rerun_after_a_crash_at_any_store_write_matches_an_uninterrupted_run(
    tmp_path, monkeypatch, capsys, inputs
):
    earlier, steps = inputs(tmp_path)
    assert crash_sweep(tmp_path, monkeypatch, capsys, earlier, steps) == []


def sentences_in_pairs(tmp_path: Path) -> Path:
    """The jobs corpus with each two records joined into one two-sentence document."""
    records = [
        json.loads(line)
        for line in (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    corpus = tmp_path / "pairs.jsonl"
    with corpus.open("w", encoding="utf-8") as handle:
        for first, second in zip(records[::2], records[1::2]):
            handle.write(json.dumps(dict(first, text=f"{first['text']} {second['text']}")) + "\n")
    return corpus


def test_crash_between_two_chunks_of_one_document_matches_an_uninterrupted_run(
    tmp_path, monkeypatch
):
    corpus = sentences_in_pairs(tmp_path)
    run_pipeline(jobs_config(tmp_path / "clean", corpus=corpus))
    assert len(OrganizerStore(tmp_path / "clean" / "chunks")) == 20
    crashed = jobs_config(tmp_path / "crashed", corpus=corpus)

    def first_chunk_then_crash(path, records):
        encoding.append_jsonl(path, list(records)[:1])
        raise InjectedCrash(f"append to {path}")

    with monkeypatch.context() as patch:
        patch.setattr(organize, "append_jsonl", first_chunk_then_crash)
        with pytest.raises(InjectedCrash):
            run_pipeline(crashed)
    run_pipeline(crashed)
    assert store_bytes(tmp_path / "crashed") == store_bytes(tmp_path / "clean")


def test_a_failed_fsync_of_a_log_exits_two_naming_it_and_commits_nothing(
    tmp_path, monkeypatch, capsys
):
    argv = ["run", "--config", str(FIXTURES / "jobs_config.json"), "--store"]
    assert cli_main([*argv, str(tmp_path / "clean")]) == 0
    store = tmp_path / "store"
    logs = [store / name for name in pipeline.LOGS]
    fsync = os.fsync
    failed: list[Path] = []

    def failing_fsync(fd):
        # Fails on a log, whose bytes a commit would name; syncs anything else.
        inode = os.fstat(fd).st_ino
        for path in logs:
            if path.exists() and path.stat().st_ino == inode:
                failed.append(path)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
        fsync(fd)

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", failing_fsync)
        capsys.readouterr()
        assert cli_main([*argv, str(store)]) == 2
    err = capsys.readouterr().err
    assert failed and err == f"error: {failed[0]}: {os.strerror(errno.EIO)}\n"
    assert not (store / "lock").exists()
    # The store's first save committed its empty logs, and no commit followed.
    assert all(log.end == 0 for log in cards.read_commit(store)[1].values())
    assert cli_main([*argv, str(store)]) == 0
    assert store_bytes(store) == store_bytes(tmp_path / "clean")


# ---------------------------------------------------------------------------
# Incremental annotation: only stored documents without chunks are annotated
# ---------------------------------------------------------------------------


def reference_lines(lines, clock, summary):
    """Every document of a JSON Lines corpus read in text mode, as a whole parse reads it."""
    for line in lines:
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            if not isinstance(raw, dict):
                raise ValueError("record is not an object")
            yield ingest._parse_record(raw, clock)
        except (ValueError, KeyError):
            summary.rejected += 1


def reference_consumed(path: Path, clock, mask) -> dict:
    """What a whole parse consumes of a JSON Lines corpus: every byte up to its last newline."""
    data = path.read_bytes()
    prefix = data[: data.rfind(b"\n") + 1]
    counts = ingest.IngestSummary()
    lines = io.TextIOWrapper(io.BytesIO(prefix), encoding="utf-8")
    accepted = sum(1 for _ in reference_lines(lines, clock, counts))
    return {"length": len(prefix), "accepted": accepted, "rejected": counts.rejected,
            "mask": mask, "sha256": hashlib.sha256(prefix).hexdigest()}


def reference_ingest(sources, store, clock, mask_key=None, mask_aliases=None, consumed=None):
    """Every corpus parsed in full, whatever the last commit consumed of it."""
    summary = ingest.IngestSummary()
    paths = [Path(source) for source in sources]
    for path in paths:
        if not path.exists():
            raise ingest.IngestError(f"corpus not readable: {path}")
    mask = ingest.mask_fingerprint(mask_key, mask_aliases)

    def documents():
        for path in paths:
            if path.suffix == ".jsonl":
                summary.consumed[os.path.abspath(path)] = reference_consumed(path, clock, mask)
                with path.open("r", encoding="utf-8") as handle:
                    found = list(reference_lines(handle, clock, summary))
            else:
                found = list(ingest.read_corpus(path, clock, summary))
            for doc in found:
                yield ingest.mask_subjects(doc, mask_key, mask_aliases) if mask_key else doc

    added, duplicates = store.add_all(documents())
    summary.accepted = added + duplicates
    summary.duplicates = duplicates
    return summary


def reference_close_window(self, now):
    """Every stored chunk regrouped, every key released as far as its watermark
    allows; one line logs what it released."""
    released_now = []
    for group in organize.assign_windows(self.chunks(), self.window_length):
        seen = set(self._released.get(group.key, ()))
        group = organize.dedupe_group(group, self.epsilon, seen)
        if seen:
            fresh = tuple(c for c in group.chunks if c.chunk_id not in seen)
            if not fresh:
                continue
            self._released[group.key] = sorted(seen | {c.chunk_id for c in fresh})
            released_now.append(replace(group, chunks=fresh, late=True))
        elif organize.ready_for_release(group, now, self.watermark):
            self._released[group.key] = sorted(c.chunk_id for c in group.chunks)
            released_now.append(group)
    if released_now:
        record = {g.key: sorted(c.chunk_id for c in g.chunks) for g in released_now}
        encoding.append_jsonl(self._released_path, [record])
    return released_now


def full_recompute(patch) -> None:
    """Make every writer recompute in full: every stored document annotated
    again, read back one by one, every corpus parsed whole and every stored
    chunk regrouped."""

    def every_document(self, start=0):
        ids = encoding.Log(self.root / "documents.jsonl").records(itemgetter("doc_id"))
        return list(map(self.get, ids))

    patch.setattr(TextStore, "list", every_document)
    patch.setattr(pipeline, "ingest_corpus", reference_ingest)
    patch.setattr(ingest, "ingest_corpus", reference_ingest)
    patch.setattr(OrganizerStore, "close_window", reference_close_window)


def reference_run(config: PipelineConfig, monkeypatch) -> None:
    with monkeypatch.context() as patch:
        full_recompute(patch)
        run_pipeline(config)


def halves(tmp_path: Path) -> tuple[Path, Path]:
    lines = (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    head = tmp_path / "first-half.jsonl"
    tail = tmp_path / "second-half.jsonl"
    head.write_text("\n".join(lines[:10]) + "\n", encoding="utf-8")
    tail.write_text("\n".join(lines[10:]) + "\n", encoding="utf-8")
    return head, tail


def head_then_tail(tmp_path, store, run, monkeypatch):
    head, tail = halves(tmp_path)
    run(jobs_config(store, corpus=head))
    run(jobs_config(store, corpus=tail))


def rerun_without_new_input(tmp_path, store, run, monkeypatch):
    run(jobs_config(store))
    run(jobs_config(store))


def ingest_command_then_run(tmp_path, store, run, monkeypatch):
    corpus = FIXTURES / "jobs_corpus.jsonl"
    assert cli_main(["ingest", "--corpus", str(corpus), "--store", str(store), "--now", PINNED]) == 0
    run(jobs_config(store))


def crash_after_ingest_then_rerun(tmp_path, store, run, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected crash")

    with monkeypatch.context() as patch:
        # The matcher is built right after ingest, which the reference replaces.
        patch.setattr(pipeline, "GazetteerMatcher", crash)
        with pytest.raises(RuntimeError):
            run(jobs_config(store))
    run(jobs_config(store))


@pytest.mark.parametrize(
    "sequence",
    [head_then_tail, rerun_without_new_input, ingest_command_then_run, crash_after_ingest_then_rerun],
)
def test_pending_annotation_matches_full_reannotation(tmp_path, monkeypatch, sequence):
    sequence(tmp_path, tmp_path / "pending", run_pipeline, monkeypatch)
    sequence(tmp_path, tmp_path / "reference", lambda c: reference_run(c, monkeypatch), monkeypatch)
    pending = store_bytes(tmp_path / "pending")
    assert pending == store_bytes(tmp_path / "reference")
    assert "cards/log.jsonl" in pending and json.loads(pending["cards/maker.json"])["manifest"]


def record_pool(records: list[dict] | None = None) -> list[str]:
    """Corpus lines: the records (by default the jobs records) for two subjects,
    each with a duplicate report four hours earlier (within epsilon), and two
    lines that are not records."""
    if records is None:
        text = (FIXTURES / "jobs_corpus.jsonl").read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines()]
    lines = []
    for subject in ("steve", "woz"):
        for record in records:
            record = dict(record, subjects=[subject], source_uri=f"{record['source_uri']}/{subject}")
            early = parse_instant(record["timestamp"]) - timedelta(hours=4)
            early = dict(record, source_uri=record["source_uri"] + "/early",
                         timestamp=early.strftime("%Y-%m-%dT%H:%M:%SZ"))
            lines += [json.dumps(record), json.dumps(early)]
    return lines + ["{not json", json.dumps({"text": "", "source_uri": "x"})]


# Clock readings of the random sequences: windows of the jobs corpus close
# one by one, so arrivals land before, inside and past their watermark.
NOWS = ["2011-10-20T00:00:00Z", "2011-10-27T00:00:00Z", "2011-11-03T00:00:00Z",
        "2011-11-10T00:00:00Z", "2011-11-20T00:00:00Z"]


class Corpora:
    """Corpus files that a random sequence grows, rewrites, tears and moves."""

    def __init__(self, root: Path, rng: random.Random, pool: list[str] | None = None):
        self.root = root
        self.rng = rng
        self.pool = pool or record_pool()
        self.paths = [root / "a.jsonl", root / "b.jsonl"]
        self.torn: dict[Path, str] = {}  # path -> the rest of its torn last line
        root.mkdir(parents=True)

    def lines(self, low: int, high: int) -> str:
        return "".join(line + "\n" for line in self.rng.sample(self.pool, self.rng.randint(low, high)))

    def change(self) -> str:
        rng = self.rng
        path = rng.choice(self.paths)
        kind = rng.choice(["append", "append", "rewrite", "tear", "move", "none"])
        if kind == "tear" and path in self.torn:
            kind = "complete"
        if not path.exists() or kind == "append":
            with path.open("a", encoding="utf-8") as handle:
                handle.write(self.lines(1, 8))
        elif kind == "rewrite":  # different bytes, shorter than what was consumed
            path.write_text(self.lines(0, 3), encoding="utf-8")
            self.torn.pop(path, None)
        elif kind == "tear":
            line = rng.choice(self.pool) + "\n"
            cut = rng.randrange(1, len(line))
            with path.open("a", encoding="utf-8") as handle:
                handle.write(line[:cut])
            self.torn[path] = line[cut:]
        elif kind == "complete":
            with path.open("a", encoding="utf-8") as handle:
                handle.write(self.torn.pop(path))
        elif kind == "move":
            moved = self.root / f"moved-{rng.getrandbits(32):08x}.jsonl"
            path.rename(moved)
            self.paths[self.paths.index(path)] = moved
            if path in self.torn:
                self.torn[moved] = self.torn.pop(path)
        return kind

    def arguments(self) -> list[str]:
        existing = [path for path in self.paths if path.exists()]
        chosen = self.rng.sample(existing, self.rng.randint(1, len(existing)))
        if self.rng.random() < 0.2:
            chosen.append(chosen[0])  # one corpus path listed twice
        return [arg for path in chosen for arg in ("--corpus", str(path))]


def test_incremental_runs_match_a_full_recompute(tmp_path, monkeypatch, capsys):
    """Random run sequences give the stores and summaries of a full recompute."""
    skips = []
    consumed_prefix = ingest._consumed_prefix

    def noting(*args):
        digest, skipped = consumed_prefix(*args)
        skips.append(skipped)
        return digest, skipped

    monkeypatch.setattr(ingest, "_consumed_prefix", noting)
    keys = []
    for name in ("a", "b"):
        keys.append(tmp_path / f"{name}.key")
        keys[-1].write_bytes(name.encode("ascii") * 32)
    kinds = set()
    for seed in range(16):
        rng = random.Random(seed)
        root = tmp_path / f"sequence-{seed}"
        corpora = Corpora(root / "corpora", rng)
        key = rng.choice([None, *keys])
        annotated = 0
        for step, now in enumerate(sorted(rng.choices(NOWS, k=5))):
            kinds.add(corpora.change())
            if rng.random() < 0.2:
                key = rng.choice([None, *keys])  # a masked corpus whose key changes
            command = rng.choice(["run", "run", "ingest"])
            argv = [command, *corpora.arguments(), "--now", now, "--json"]
            argv += ["--ontology", str(FIXTURES / "ocpd.json")] if command == "run" else []
            argv += ["--mask-key-file", str(key)] if key else []
            outputs = []
            for name in ("lean", "recomputed"):
                with monkeypatch.context() as patch:
                    if name == "recomputed":
                        full_recompute(patch)
                    assert cli_main([*argv, "--store", str(root / name)]) == 0
                outputs.append(json.loads(capsys.readouterr().out))
            if command == "run":
                # The recompute annotates every document; a run, those stored since the last.
                stored = len(TextStore(root / "lean" / "documents"))
                assert outputs[0]["documents"].pop("annotated") == stored - annotated
                outputs[1]["documents"].pop("annotated")
                annotated = stored
            assert outputs[0] == outputs[1], (seed, step, argv)
            assert store_bytes(root / "lean") == store_bytes(root / "recomputed"), (seed, step)
    assert kinds == {"append", "rewrite", "tear", "complete", "move", "none"}
    assert True in skips and False in skips


def test_rerun_annotates_only_documents_without_chunks(tmp_path):
    head, tail = halves(tmp_path)
    store = tmp_path / "store"
    first = run_pipeline(jobs_config(store, corpus=head))
    assert first.documents_annotated == 10
    second = run_pipeline(jobs_config(store, corpus=tail))
    assert second.documents_annotated == 10
    third = run_pipeline(jobs_config(store, corpus=tail))
    assert third.documents_annotated == 0
    assert third.chunks_emitted == third.chunks_skipped == 0


def test_documents_without_chunks_are_annotated_once(tmp_path):
    memo = tmp_path / "memo.txt"
    memo.write_text("He agonizes over beige.", encoding="utf-8")
    config = jobs_config(tmp_path / "store", corpus=memo)
    first = run_pipeline(config)
    assert first.documents_annotated == first.chunks_skipped == 1
    rerun = run_pipeline(config)
    assert rerun.documents_annotated == rerun.chunks_skipped == 0


def test_rerun_without_new_input_reports_zero_annotated(tmp_path, capsys):
    argv = ["run", "--config", str(FIXTURES / "jobs_config.json"), "--store", str(tmp_path / "s")]
    assert cli_main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["documents"]["annotated"] == 20
    assert cli_main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["documents"]["annotated"] == 0
    assert cli_main(argv) == 0
    assert "ingested=20 rejected=0 annotated=0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Store manifest: ontology bytes and grouping parameters are pinned per store
# ---------------------------------------------------------------------------


def tear_a_log(store: Path) -> None:
    """A crashed run's torn line past the commit, which only an accepted run cuts."""
    with (store / "notes" / "notes.jsonl").open("a", encoding="utf-8") as handle:
        handle.write('{"torn":')


def maker_state(store: Path) -> dict:
    return json.loads((store / "cards" / "maker.json").read_text(encoding="utf-8"))


def test_first_run_writes_the_manifest(tmp_path):
    store = tmp_path / "store"
    run_pipeline(jobs_config(store))
    kept = store / "ontology.json"
    assert maker_state(store)["manifest"] == {
        "annotator": 1,
        "ontology_sha256": hashlib.sha256(
            hashlib.sha256((FIXTURES / "ocpd.json").read_bytes()).digest()
        ).hexdigest(),
        "stored_ontology_sha256": hashlib.sha256(kept.read_bytes()).hexdigest(),
        "window": "1w",
        "epsilon": "1d",
        "watermark": "2d",
        "horizon_windows": 4,
    }
    assert json.loads(kept.read_text(encoding="utf-8")) == spec_to_dict(
        load_ontology(FIXTURES / "ocpd.json")
    )
    assert not (store / "store.json").exists()


def test_store_without_a_manifest_adopts_one(tmp_path, monkeypatch):
    # A crashed first run committed only the empty logs, so it pinned nothing.
    store = tmp_path / "store"
    with monkeypatch.context() as patch:
        crash_after_close_window(patch)
        with pytest.raises(RuntimeError):
            run_pipeline(jobs_config(store))
    assert maker_state(store)["manifest"] is None
    config = jobs_config(store)
    config.window = timedelta(days=14)
    run_pipeline(config)
    assert maker_state(store)["manifest"]["window"] == "2w"


def test_store_with_a_store_json_and_no_manifest_exits_two_naming_it(tmp_path, capsys):
    store = tmp_path / "store"
    argv = ["--config", str(FIXTURES / "jobs_config.json"), "--store", str(store)]
    assert cli_main(["run", *argv]) == 0
    # Such a store predates the manifest in the commit: store.json pinned its inputs.
    state = maker_state(store)
    encoding.write_json(store / "store.json", state.pop("manifest"))
    encoding.write_json(store / "cards" / "maker.json", state)
    tear_a_log(store)
    before = store_bytes(store)
    capsys.readouterr()
    for command in ("run", "ingest"):
        assert cli_main([command, *argv]) == 2
        assert f"error: {store / 'store.json'}: predates this store format" in capsys.readouterr().err
    assert store_bytes(store) == before
    assert cli_main(["cards", "list", "--store", str(store)]) == 0


def test_a_store_of_another_annotator_version_exits_two_and_is_left(tmp_path, capsys):
    store = tmp_path / "store"
    argv = ["--config", str(FIXTURES / "jobs_config.json"), "--store", str(store)]
    assert cli_main(["run", *argv]) == 0
    state = maker_state(store)
    state["manifest"]["annotator"] = 2
    encoding.write_json(store / "cards" / "maker.json", state)
    tear_a_log(store)
    before = store_bytes(store)
    capsys.readouterr()
    assert cli_main(["run", *argv]) == 2
    err = capsys.readouterr().err
    assert "built with annotator=2, this run has annotator=1; use a new store" in err
    # A reader annotates again only with the version that wrote the store.
    assert cli_main(["card", "show", "301.4@steve#g1", "--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store / 'ontology.json'}: ") and "use a new store" in err
    assert store_bytes(store) == before


def test_manifest_ignores_where_the_ontology_lives(tmp_path):
    store = tmp_path / "store"
    run_pipeline(jobs_config(store))
    moved = tmp_path / "elsewhere" / "renamed.json"
    moved.parent.mkdir()
    moved.write_bytes((FIXTURES / "ocpd.json").read_bytes())
    config = jobs_config(store)
    config.ontology_paths = [moved]
    assert run_pipeline(config).cards_committed == 1


@pytest.mark.parametrize("torn", [False, True], ids=["committed", "torn-tail"])
def test_changed_ontology_exits_two_and_leaves_the_store(tmp_path, capsys, torn):
    store = tmp_path / "store"
    corpus = FIXTURES / "jobs_corpus.jsonl"
    argv = ["run", "--corpus", str(corpus), "--store", str(store), "--now", PINNED]
    assert cli_main(argv + ["--ontology", str(FIXTURES / "ocpd.json")]) == 0
    if torn:
        tear_a_log(store)
    before = store_bytes(store)
    changed = tmp_path / "ocpd.json"
    spec = json.loads((FIXTURES / "ocpd.json").read_text(encoding="utf-8"))
    spec["dictionary"] = spec["dictionary"][: len(spec["dictionary"]) // 2]
    changed.write_text(json.dumps(spec), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(argv + ["--ontology", str(changed)]) == 2
    assert "ontology_sha256" in capsys.readouterr().err
    assert store_bytes(store) == before


@pytest.mark.parametrize("torn", [False, True], ids=["committed", "torn-tail"])
@pytest.mark.parametrize("name", ["window", "epsilon", "watermark", "horizon_windows"])
def test_changed_grouping_parameter_is_refused(tmp_path, name, torn):
    store = tmp_path / "store"
    run_pipeline(jobs_config(store))
    if torn:
        tear_a_log(store)
    before = store_bytes(store)
    config = jobs_config(store)
    step = 1 if name == "horizon_windows" else timedelta(days=1)
    setattr(config, name, getattr(config, name) + step)
    with pytest.raises(PipelineError, match=name):
        run_pipeline(config)
    assert store_bytes(store) == before
