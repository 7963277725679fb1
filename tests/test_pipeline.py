from __future__ import annotations

import json
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
from notecards.clock import parse_instant
from notecards.pipeline import (
    PipelineConfig,
    PipelineError,
    Stores,
    drill_down,
    load_config,
    run_pipeline,
)

from conftest import FIXTURES

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
