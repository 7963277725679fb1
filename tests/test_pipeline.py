from __future__ import annotations

import hashlib
import json
import os
import shutil
from datetime import timedelta
from pathlib import Path

import pytest

from notecards.cards import (
    STATUS_COMMITTED,
    STATUS_SUPERSEDED,
    CardLedger,
    CardMaker,
    CardManager,
    card_to_dict,
)
from notecards import cards, encoding, ingest, notes, organize, pipeline, refine
from notecards.encoding import canonical_json
from notecards.cli import main as cli_main
from notecards.clock import parse_instant
from notecards.ingest import TextStore
from notecards.organize import OrganizerStore
from notecards.refine import RefinedNoteStore
from notecards.pipeline import (
    PipelineConfig,
    PipelineError,
    Stores,
    check_store_files,
    drill_down,
    load_config,
    run_pipeline,
)

from conftest import FIXTURES, store_bytes

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


def test_late_document_flows_to_refined_store_and_remake(tmp_path):
    head, tail = split_corpus(tmp_path)
    store = tmp_path / "store"

    config = jobs_config(store, corpus=head)
    summary = run_pipeline(config)
    assert summary.cards_committed == 1
    stores = Stores(config)
    card = stores.ledger.committed()[0]
    before = sum(card.score_vector())
    assert before == 19 * 0 + sum(card.score_vector())  # 19 rows' worth
    refined_before = len(stores.refined)

    # The last document arrives after its window was already released.
    late_config = jobs_config(store, corpus=tail)
    late_summary = run_pipeline(late_config)
    assert late_summary.documents_ingested == 1
    assert late_summary.groups_released == 1  # the supplemental late group
    assert late_summary.notes_synthesized == 1

    stores = Stores(late_config)
    assert len(stores.refined) == refined_before + 1
    # The committed card is untouched until a remake absorbs the late note.
    assert stores.ledger.committed()[0].dimension_map() == card.dimension_map()

    now = parse_instant(PINNED)
    ticket = stores.manager.request_remake(card.card_id, timedelta(days=2), now)
    spec = __import__("notecards.ontology", fromlist=["load_ontology"]).load_ontology(
        FIXTURES / "ocpd.json"
    )
    rebuilt = stores.manager.complete_remake(
        ticket, now + timedelta(days=2), stores.refined, spec
    )
    assert sum(rebuilt.score_vector()) == sum(card.score_vector()) + 2  # O7-4 hits 4 and 8
    assert stores.ledger.get(card.card_id).status == STATUS_SUPERSEDED
    report = stores.manager.admit([rebuilt], spec, now + timedelta(days=2))
    assert len(report.committed) == 1
    assert report.committed[0].criteria_met == 6


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


def test_drill_down_unknown_card(tmp_path):
    config = jobs_config(tmp_path / "store")
    run_pipeline(config)
    with pytest.raises(PipelineError):
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


def test_store_check_decodes_every_file_that_stores_decodes(tmp_path, monkeypatch):
    config = jobs_config(tmp_path / "store")
    run_pipeline(config)
    decoded = []

    def recording(reader):
        def read(path, *args, **kwargs):
            decoded.append(Path(path))
            return reader(path, *args, **kwargs)

        return read

    for module in (ingest, organize, notes, refine, cards, pipeline):
        for name in ("read_json", "read_jsonl"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(getattr(encoding, name)))
    Stores(config)
    by_stores = list(decoded)
    decoded.clear()
    check_store_files(config.store_root)
    assert len(by_stores) == 7
    assert decoded == by_stores


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
    ledger = Stores(config).ledger
    index = json.loads(ledger.index_path.read_text(encoding="utf-8"))
    replayed = CardLedger.replay(ledger.log_path)
    assert index == {cid: card_to_dict(card) for cid, card in replayed.items()}


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


def crash_mid_append(patch, module, after: int) -> None:
    """*module*'s log appends write *after* whole lines, then half a line, then raise."""
    written = []

    def append(path, records):
        for record in records:
            line = canonical_json(record).encode("ascii") + b"\n"
            if len(written) == after:
                line = line[: len(line) // 2]
            with path.open("ab") as handle:
                handle.write(line)
            if len(written) == after:
                raise RuntimeError("injected crash mid-append")
            written.append(line)

    patch.setattr(module, "append_jsonl", append)


def crash_after_close_window(patch) -> None:
    close_window = OrganizerStore.close_window

    def close_then_crash(self, now):
        close_window(self, now)
        raise RuntimeError("injected crash")

    patch.setattr(OrganizerStore, "close_window", close_then_crash)


@pytest.mark.parametrize(
    "crash, torn",
    [
        (crash_after_close_window, None),
        (lambda patch: crash_mid_append(patch, notes, 7), "notes/notes.jsonl"),
        (lambda patch: crash_mid_append(patch, organize, 25), "chunks/chunks.jsonl"),
        (lambda patch: crash_mid_append(patch, cards, 1), "cards/log.jsonl"),
    ],
    ids=["after-close-window", "mid-notes-append", "mid-chunk-append", "mid-card-append"],
)
def test_rerun_after_a_crash_matches_an_uninterrupted_run(tmp_path, monkeypatch, crash, torn):
    corpus = many_subjects_corpus(tmp_path, 3)
    run_pipeline(jobs_config(tmp_path / "clean", corpus=corpus))
    crashed = jobs_config(tmp_path / "crashed", corpus=corpus)
    with monkeypatch.context() as patch:
        crash(patch)
        with pytest.raises(RuntimeError):
            run_pipeline(crashed)
    summary = run_pipeline(crashed)
    assert summary.repaired == ([tmp_path / "crashed" / torn] if torn else [])
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


def test_crash_at_the_document_index_write_leaves_one_run_file(tmp_path, monkeypatch):
    run_pipeline(jobs_config(tmp_path / "clean"))
    crashed = jobs_config(tmp_path / "crashed")

    def crash(path, value):
        raise RuntimeError("injected crash")

    with monkeypatch.context() as patch:
        patch.setattr(ingest, "write_json", crash)
        with pytest.raises(RuntimeError):
            run_pipeline(crashed)
    assert (tmp_path / "crashed" / "documents" / "run-0001.jsonl").exists()
    run_pipeline(crashed)
    documents = tmp_path / "crashed" / "documents"
    assert sorted(path.name for path in documents.glob("run-*")) == ["run-0001.jsonl"]
    assert store_bytes(tmp_path / "crashed") == store_bytes(tmp_path / "clean")


# ---------------------------------------------------------------------------
# Crash sweep: a crash at any store write, then a rerun, ends as an uninterrupted run
# ---------------------------------------------------------------------------


class InjectedCrash(Exception):
    pass


def number_store_writes(patch, crash_at: int | None = None, torn: bool = False) -> list[str]:
    """Number every store write of a run and raise at write *crash_at*.

    A store write is a log append, a whole-file write, or the rename that
    ends a whole-file write. A torn crash at an append first writes half
    of the bytes the append would write. Returns the kind of every write
    reached, in order.
    """
    kinds: list[str] = []

    def reached(kind: str) -> bool:
        kinds.append(kind)
        return len(kinds) - 1 == crash_at

    def append_jsonl(path, records):
        records = list(records)
        if reached("append"):
            if torn:
                data = b"".join(canonical_json(r).encode("ascii") + b"\n" for r in records)
                with path.open("ab") as handle:
                    handle.write(data[: len(data) // 2])
            raise InjectedCrash(f"append to {path}")
        return encoding.append_jsonl(path, records)

    def write_json(path, value):
        if reached("write"):
            raise InjectedCrash(f"write of {path}")
        return encoding.write_json(path, value)

    rename = os.replace

    def replace(source, target):
        if reached("rename"):
            raise InjectedCrash(f"rename onto {target}")
        return rename(source, target)

    for module in (ingest, organize, notes, refine, cards, pipeline):
        for name, fake in (("append_jsonl", append_jsonl), ("write_json", write_json)):
            if hasattr(module, name):
                patch.setattr(module, name, fake)
    patch.setattr(os, "replace", replace)
    return kinds


def crash_sweep(tmp_path: Path, monkeypatch, earlier: list[Path], crashed: Path) -> list[str]:
    """Run *earlier* corpora, then *crashed*, crashing at each of its store
    writes (whole, and torn for appends) and rerunning it; every case whose
    store differs from an uninterrupted run is returned."""
    base = tmp_path / "base"
    for corpus in earlier:
        run_pipeline(jobs_config(base, corpus=corpus))
    base.mkdir(exist_ok=True)
    clean = tmp_path / "clean"
    shutil.copytree(base, clean)
    with monkeypatch.context() as patch:
        kinds = number_store_writes(patch)
        run_pipeline(jobs_config(clean, corpus=crashed))
    expected = store_bytes(clean)
    cases = [(k, False) for k in range(len(kinds))]
    cases += [(k, True) for k, kind in enumerate(kinds) if kind == "append"]
    differ = []
    for k, torn in cases:
        store = tmp_path / f"crash-{k}-{'torn' if torn else 'whole'}"
        shutil.copytree(base, store)
        with monkeypatch.context() as patch:
            number_store_writes(patch, k, torn)
            with pytest.raises(InjectedCrash):
                run_pipeline(jobs_config(store, corpus=crashed))
        run_pipeline(jobs_config(store, corpus=crashed))
        got = store_bytes(store)
        if got != expected:
            names = sorted(n for n in got.keys() | expected.keys() if got.get(n) != expected.get(n))
            differ.append(f"write {k} ({kinds[k]}, {'torn' if torn else 'whole'}): {names}")
    assert len(cases) >= 15
    return differ


def golden_on_an_empty_store(tmp_path):
    return [], FIXTURES / "jobs_corpus.jsonl"


def tail_after_the_head(tmp_path):
    head, tail = halves(tmp_path)
    return [head], tail


def three_subjects(tmp_path):
    return [], many_subjects_corpus(tmp_path, 3)


@pytest.mark.parametrize("inputs", [golden_on_an_empty_store, tail_after_the_head, three_subjects])
def test_rerun_after_a_crash_at_any_store_write_matches_an_uninterrupted_run(
    tmp_path, monkeypatch, inputs
):
    earlier, crashed = inputs(tmp_path)
    assert crash_sweep(tmp_path, monkeypatch, earlier, crashed) == []


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


@pytest.mark.xfail(
    strict=True,
    reason="OrganizerStore.doc_ids counts a document as annotated once any of its chunks "
    "is stored, so a rerun never stores the chunks a crash cut off after the first",
)
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


# ---------------------------------------------------------------------------
# Incremental annotation: only stored documents without chunks are annotated
# ---------------------------------------------------------------------------


def reference_run(config: PipelineConfig, monkeypatch) -> None:
    """Full re-annotation: every stored document in (run file, offset) order,
    each read back on its own."""

    def every_document(self, **kw):
        order = sorted(self._index, key=lambda d: (self._index[d]["file"], self._index[d]["offset"]))
        return [self.get(doc_id) for doc_id in order]

    with monkeypatch.context() as patch:
        patch.setattr(TextStore, "list", every_document)
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
    ingest = pipeline.ingest_corpus

    def ingest_then_crash(*args, **kwargs):
        ingest(*args, **kwargs)
        raise RuntimeError("injected crash")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "ingest_corpus", ingest_then_crash)
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
    assert "cards/log.jsonl" in pending and "store.json" in pending


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


def test_documents_without_chunks_are_annotated_again(tmp_path):
    memo = tmp_path / "memo.txt"
    memo.write_text("He agonizes over beige.", encoding="utf-8")
    config = jobs_config(tmp_path / "store", corpus=memo)
    assert run_pipeline(config).documents_annotated == 1
    rerun = run_pipeline(config)
    assert rerun.documents_annotated == 1
    assert rerun.chunks_skipped == 1


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


def test_first_run_writes_the_manifest(tmp_path):
    store = tmp_path / "store"
    run_pipeline(jobs_config(store))
    manifest = json.loads((store / "store.json").read_text(encoding="utf-8"))
    assert manifest == {
        "ontology_sha256": hashlib.sha256(
            hashlib.sha256((FIXTURES / "ocpd.json").read_bytes()).digest()
        ).hexdigest(),
        "window": "1w",
        "epsilon": "1d",
        "watermark": "2d",
    }


def test_store_without_a_manifest_adopts_one(tmp_path):
    store = tmp_path / "store"
    run_pipeline(jobs_config(store))
    written = (store / "store.json").read_bytes()
    (store / "store.json").unlink()
    summary = run_pipeline(jobs_config(store))
    assert summary.cards_committed == 1
    assert (store / "store.json").read_bytes() == written


def test_manifest_ignores_where_the_ontology_lives(tmp_path):
    store = tmp_path / "store"
    run_pipeline(jobs_config(store))
    moved = tmp_path / "elsewhere" / "renamed.json"
    moved.parent.mkdir()
    moved.write_bytes((FIXTURES / "ocpd.json").read_bytes())
    config = jobs_config(store)
    config.ontology_paths = [moved]
    assert run_pipeline(config).cards_committed == 1


def test_changed_ontology_exits_two_and_leaves_the_store(tmp_path, capsys):
    store = tmp_path / "store"
    corpus = FIXTURES / "jobs_corpus.jsonl"
    argv = ["run", "--corpus", str(corpus), "--store", str(store), "--now", PINNED]
    assert cli_main(argv + ["--ontology", str(FIXTURES / "ocpd.json")]) == 0
    before = store_bytes(store)
    changed = tmp_path / "ocpd.json"
    spec = json.loads((FIXTURES / "ocpd.json").read_text(encoding="utf-8"))
    spec["dictionary"] = spec["dictionary"][: len(spec["dictionary"]) // 2]
    changed.write_text(json.dumps(spec), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(argv + ["--ontology", str(changed)]) == 2
    assert "ontology_sha256" in capsys.readouterr().err
    assert store_bytes(store) == before


@pytest.mark.parametrize("name", ["window", "epsilon", "watermark"])
def test_changed_grouping_parameter_is_refused(tmp_path, name):
    store = tmp_path / "store"
    run_pipeline(jobs_config(store))
    before = store_bytes(store)
    config = jobs_config(store)
    setattr(config, name, getattr(config, name) + timedelta(days=1))
    with pytest.raises(PipelineError, match=name):
        run_pipeline(config)
    assert store_bytes(store) == before
