"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets and tolerances are pinned here, not tuned elsewhere:
  1 golden card scores, exact integers, < 1 s
  2 frequency example enums, exact
  3 rule oracles, 1000 randomized instances each, zero mismatches, < 10 s
  4 conflict resolution, 200 randomized timelines, zero violations
  5 route enumeration vs DFS on all connected graphs up to 6 nodes, < 30 s
  6 traceability, zero dangling references
  7 pinned-clock determinism, byte-identical logs and exports
  8 idempotent re-ingest, store counts unchanged
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

from notecards.cards import (
    CardLedger,
    CardMaker,
    CardManager,
    new_card,
)
from notecards.graph import (
    CardGraph,
    GraphEdge,
    GraphNode,
    build_graph,
    export_graph,
    find_routes,
)
from notecards.notes import NoteStore
from notecards.ontology import Confidence, Intensity, parse_ontology
from notecards.pipeline import PipelineConfig, Stores, audit_card, run_pipeline
from notecards.refine import (
    CONFLICTED,
    apply_combine_rule,
    apply_majority_rule,
    apply_max_rule,
)

from conftest import FIXTURES, add_evidence, concept_of, fixture_refined_rows, make_note, utc

GOLDEN_SCORES = (4, 5, 2, 11, 0, 5, 0, 10)
NOW = utc(2011, 11, 13)
PINNED = "2011-11-13T00:00:00Z"


def fixture_config(store: Path, corpora: list[str], ontologies: list[str]) -> PipelineConfig:
    return PipelineConfig(
        ontology_paths=[FIXTURES / name for name in ontologies],
        corpus_paths=[FIXTURES / name for name in corpora],
        store_root=store,
        now_override=PINNED,
    )


# ---------------------------------------------------------------------------
# 1. Golden reproduction of the twenty-row evidence table
# ---------------------------------------------------------------------------


def test_acceptance_1_golden_card(tmp_path, ocpd_spec, jobs_rows):
    started = time.monotonic()
    maker = CardMaker(tmp_path / "maker")
    manager = CardManager(CardLedger(tmp_path / "cards"), maker)
    rows = fixture_refined_rows(jobs_rows)
    assert len(rows) == 20
    maker.update_premature_cards(rows, ocpd_spec, NOW)
    report = manager.admit(maker.open_candidates(), ocpd_spec, NOW)
    elapsed = time.monotonic() - started

    assert len(report.committed) == 1
    card = report.committed[0]
    assert card.score_vector() == GOLDEN_SCORES
    assert card.criteria_met == 6
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 PASS: golden card scores={card.score_vector()} "
        f"met={card.criteria_met} in {elapsed:.3f}s"
    )


# ---------------------------------------------------------------------------
# 2. Frequency worked example through the full pipeline
# ---------------------------------------------------------------------------


def test_acceptance_2_frequency_example(tmp_path):
    config = fixture_config(tmp_path / "store", ["alcohol_corpus.jsonl"], ["alcohol.json"])
    run_pipeline(config)
    notes = NoteStore(tmp_path / "store" / "notes").list(
        subject="a", action=("alcohol", "consume")
    )
    assert len(notes) == 1
    note = notes[0]
    assert note.intensity is Intensity.VERY_FREQUENT
    assert note.confidence is Confidence.HIGH
    print(
        f"ACCEPTANCE 2 PASS: 12 events/4 weeks -> intensity={note.intensity.value} "
        f"confidence={note.confidence.value}"
    )


# ---------------------------------------------------------------------------
# 3. Refinement rules vs independent oracles, 1000 instances each
# ---------------------------------------------------------------------------


def test_acceptance_3_rule_oracles():
    started = time.monotonic()
    rng = random.Random(2011_10_13)

    # max: exhaustive pairwise-comparison oracle
    for _ in range(1000):
        values = [rng.randint(-50, 50) for _ in range(rng.randint(1, 10))]
        expected = next(v for v in values if all(v >= w for w in values))
        assert apply_max_rule(values) == expected

    # combine: event-level summation oracle over disjoint periods
    week = timedelta(days=7)
    for _ in range(1000):
        periods = rng.randint(1, 4)
        events = [
            [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
            for _ in range(periods)
        ]
        notes = [
            make_note(
                subject="a",
                action=("alcohol", "consume"),
                attributes={"amount": float(sum(bucket))},
                start=utc(2020, 1, 2) + i * week,
                end=utc(2020, 1, 2) + i * week + timedelta(days=6),
                note_id=f"n-{i}",
            )
            for i, bucket in enumerate(events)
        ]
        ground_truth = float(sum(sum(bucket) for bucket in events))
        assert apply_combine_rule(notes, "amount", timedelta(days=30)).value == ground_truth

    # majority: frequency-count oracle
    categories = ["w", "x", "y", "z"]
    for _ in range(1000):
        n = rng.randint(1, 12)
        k = rng.randint(1, 4)
        values = [rng.choice(categories[:k]) for _ in range(n)]
        tally = {v: values.count(v) for v in set(values)}
        best = max(tally.values())
        winners = sorted(v for v, c in tally.items() if c == best)
        result = apply_majority_rule(values, "mark-conflicted")
        if len(winners) == 1:
            assert result == winners[0]
        else:
            assert result is CONFLICTED

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS: 3000 oracle instances, zero mismatches, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Expire-older conflict resolution over randomized timelines
# ---------------------------------------------------------------------------


def conflict_spec(concept_ids: list[str], exclusive_pairs: set[tuple[str, str]]):
    return parse_ontology(
        {
            "id": "timeline",
            "version": "1",
            "entity_classes": [
                {"id": f"e_{c}", "description": c, "attribute_schema": {}}
                for c in concept_ids
            ],
            "relationship_classes": [
                {"id": "shows", "description": "displays", "attribute_schema": {}}
            ],
            "dictionary": [],
            "note_templates": [
                {"template_id": f"t_{c}", "trigger": {"entity": f"e_{c}", "relationship": "shows"}}
                for c in concept_ids
            ],
            "concepts": [
                {
                    "concept_id": c,
                    "name": c,
                    "criteria": [
                        {
                            "index": 1,
                            "description": "presence",
                            "match_patterns": [
                                {"action_entity": f"e_{c}", "action_relationship": "shows"}
                            ],
                        }
                    ],
                    "threshold": 1,
                }
                for c in concept_ids
            ],
            "refinement_policies": [],
            "exclusion_rules": [
                {"concept_a": a, "concept_b": b, "resolution": "expire-older"}
                for a, b in sorted(exclusive_pairs)
            ],
        }
    )


def test_acceptance_4_no_committed_exclusive_overlap(tmp_path):
    rng = random.Random(30_14)
    concept_ids = ["c0", "c1", "c2", "c3"]
    subjects = ["s0", "s1", "s2"]
    violations = 0
    for trial in range(200):
        pairs = {
            tuple(sorted(pair))
            for pair in itertools.combinations(concept_ids, 2)
            if rng.random() < 0.5
        }
        spec = conflict_spec(concept_ids, pairs)
        ledger = CardLedger(tmp_path / f"t{trial}")
        manager = CardManager(ledger, CardMaker(ledger.root))
        generations: dict[tuple[str, str], int] = {}
        now = utc(2020, 1, 1)
        for _ in range(rng.randint(3, 10)):
            now = now + timedelta(days=rng.randint(1, 20))
            subject = rng.choice(subjects)
            concept = rng.choice(concept_ids)
            generation = generations.get((subject, concept), 0) + 1
            generations[(subject, concept)] = generation
            card = new_card(concept_of(spec, concept), subject, generation)
            card = add_evidence(card, 1, f"rn-{trial}-{generation}")
            card = replace(card, validity=(now, None))
            manager.admit([card], spec, now)

        committed = ledger.committed()
        rule_map = {tuple(sorted(p)): True for p in pairs}
        for a, b in itertools.combinations(committed, 2):
            if a.subject != b.subject:
                continue
            if tuple(sorted((a.concept_id, b.concept_id))) not in rule_map:
                continue
            a_end = a.validity[1]
            b_end = b.validity[1]
            overlap = (a_end is None or b.validity[0] < a_end) and (
                b_end is None or a.validity[0] < b_end
            )
            if overlap:
                violations += 1
        for expired in ledger.cards("expired"):
            detail = {}
            for event in expired.reasoning_trail:
                if event.kind == "expired":
                    detail = event.detail_map()
            winner = ledger.get(detail.get("outlived_by", ""))
            if winner is None:
                violations += 1
                continue
            key_expired = (expired.validity[0], expired.card_id)
            key_winner = (winner.validity[0], winner.card_id)
            if key_expired > key_winner:
                violations += 1
    assert violations == 0
    print("ACCEPTANCE 4 PASS: 200 randomized timelines, zero violations")


# ---------------------------------------------------------------------------
# 5. Route enumeration vs DFS on every connected graph up to 6 nodes
# ---------------------------------------------------------------------------


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(n)}) == 1


def _oracle_routes(n, edges, start, end, max_length):
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for neighbors in adjacency:
        neighbors.sort()
    found = []

    def explore(path, seen):
        last = path[-1]
        if last == end:
            found.append(list(path))
            return
        if len(path) - 1 >= max_length:
            return
        for nxt in adjacency[last]:
            if nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                explore(path, seen)
                seen.discard(nxt)
                path.pop()

    explore([start], {start})
    return sorted(
        ([f"N{i}" for i in path] for path in found), key=lambda p: (len(p), p)
    )


def test_acceptance_5_route_oracle_exhaustive():
    started = time.monotonic()
    checked = 0
    for n in range(1, 7):
        labels = [f"N{i}" for i in range(n)]
        nodes = tuple(GraphNode(l, "card", l) for l in labels)
        all_pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(all_pairs)):
            edges = [all_pairs[i] for i in range(len(all_pairs)) if mask >> i & 1]
            if not _connected(n, edges):
                continue
            graph = CardGraph(
                nodes=nodes,
                edges=tuple(
                    GraphEdge(f"N{a}", f"N{b}", "same-subject") for a, b in edges
                ),
            )
            start, end = "N0", f"N{n - 1}"
            mine = find_routes(graph, start, end, 6)
            assert mine == _oracle_routes(n, edges, 0, n - 1, 6)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 5 PASS: {checked} connected graphs <= 6 nodes, "
        f"zero mismatches, {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 6. Traceability from every committed card to source documents
# ---------------------------------------------------------------------------


def test_acceptance_6_traceability(tmp_path):
    config = fixture_config(
        tmp_path / "store",
        ["jobs_corpus.jsonl", "alcohol_corpus.jsonl"],
        ["ocpd.json", "alcohol.json"],
    )
    run_pipeline(config)
    stores = Stores(config)
    committed = stores.ledger.committed()
    assert len(committed) == 2  # rigidity profile and drinking pattern
    dangling = []
    for card in committed:
        dangling.extend(audit_card(card.card_id, stores))
    assert dangling == []
    print(
        f"ACCEPTANCE 6 PASS: {len(committed)} committed cards, "
        "full chain resolves with zero dangling references"
    )


# ---------------------------------------------------------------------------
# 7. Byte-identical reruns under a pinned clock
# ---------------------------------------------------------------------------


def _store_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_acceptance_7_determinism(tmp_path):
    exports = []
    logs = []
    stores_bytes = []
    for run in ("one", "two"):
        store = tmp_path / run
        config = fixture_config(
            store, ["jobs_corpus.jsonl", "alcohol_corpus.jsonl"], ["ocpd.json", "alcohol.json"]
        )
        summary = run_pipeline(config)
        stores = Stores(config)
        graph = build_graph(stores.ledger.cards())
        exports.append((export_graph(graph, "dot"), export_graph(graph, "json")))
        logs.append((store / "cards" / "log.jsonl").read_bytes())
        stores_bytes.append(_store_bytes(store))
        assert summary.wall_time_seconds == 0.0
    assert logs[0] == logs[1]
    assert exports[0] == exports[1]
    assert stores_bytes[0] == stores_bytes[1]
    print(
        "ACCEPTANCE 7 PASS: two pinned-clock runs, byte-identical card log, "
        "exports, and whole store"
    )


# ---------------------------------------------------------------------------
# 8. Idempotent re-ingest
# ---------------------------------------------------------------------------


def test_acceptance_8_idempotent_reingest(tmp_path):
    store = tmp_path / "store"
    config = fixture_config(
        store, ["jobs_corpus.jsonl", "alcohol_corpus.jsonl"], ["ocpd.json", "alcohol.json"]
    )
    run_pipeline(config)
    first = Stores(config)
    counts_before = (
        len(first.text),
        len(first.notes),
        len(first.refined),
        len(first.ledger.cards()),
        len(first.maker.premature_cards()),
    )
    run_pipeline(config)
    second = Stores(config)
    counts_after = (
        len(second.text),
        len(second.notes),
        len(second.refined),
        len(second.ledger.cards()),
        len(second.maker.premature_cards()),
    )
    assert counts_after == counts_before
    print(
        f"ACCEPTANCE 8 PASS: documents/notes/refined/cards counts unchanged "
        f"after re-ingest {counts_before}"
    )
