from __future__ import annotations

import json
import random
from dataclasses import replace
from datetime import timedelta

import pytest

from notecards.cards import (
    Card,
    CardError,
    CardLedger,
    CardMaker,
    CardManager,
    STATUS_COMMITTED,
    STATUS_EXPIRED,
    STATUS_PREMATURE,
    card_from_dict,
    card_to_dict,
    detect_conflicts,
    map_note_to_criteria,
    new_card,
)
from notecards.ontology import Intensity, parse_ontology

from conftest import add_evidence, assert_card_index_follows_the_log, concept_of
from conftest import fixture_refined_rows, make_note, passthrough, utc

GOLDEN_SCORES = (4, 5, 2, 11, 0, 5, 0, 10)
NOW = utc(2011, 11, 13)


def action_for(jobs_rows, o_code):
    row = next(r for r in jobs_rows if r["o_code"] == o_code)
    return (row["entity"], row["relationship"])


def refined_for(jobs_rows, o_code):
    note = make_note(
        subject="steve",
        action=action_for(jobs_rows, o_code),
        start=utc(2011, 10, 14),
        end=utc(2011, 10, 14),
        note_id=f"n-{o_code}",
    )
    return passthrough(note)


# ---------------------------------------------------------------------------
# Note-to-criteria mapping (the golden rows pin the pattern tables)
# ---------------------------------------------------------------------------


def test_row_o6_2_maps_to_three_criteria(ocpd_spec, jobs_rows):
    hits = map_note_to_criteria(refined_for(jobs_rows, "O6-2"), ocpd_spec)
    assert hits == [("301.4", 1), ("301.4", 2), ("301.4", 8)]


def test_row_o1_3_maps_to_two_criteria(ocpd_spec, jobs_rows):
    hits = map_note_to_criteria(refined_for(jobs_rows, "O1-3"), ocpd_spec)
    assert hits == [("301.4", 4), ("301.4", 8)]


def test_unmatched_note_maps_nowhere(ocpd_spec):
    stray = passthrough(make_note(subject="steve", action=("nothing", "matches")))
    assert map_note_to_criteria(stray, ocpd_spec) == []


def test_every_row_maps_exactly_as_recorded(ocpd_spec, jobs_rows):
    for row in jobs_rows:
        hits = map_note_to_criteria(refined_for(jobs_rows, row["o_code"]), ocpd_spec)
        assert hits == [("301.4", i) for i in row["criteria"]], row["o_code"]


# ---------------------------------------------------------------------------
# Premature accumulation
# ---------------------------------------------------------------------------


def test_full_fixture_reaches_threshold_with_six_met(tmp_path, ocpd_spec, jobs_rows):
    maker = CardMaker(tmp_path)
    newly = maker.update_premature_cards(fixture_refined_rows(jobs_rows), ocpd_spec, NOW)
    assert len(newly) == 1
    card = newly[0]
    assert card.criteria_met == 6
    assert card.score_vector() == GOLDEN_SCORES
    assert card.status == STATUS_PREMATURE
    assert card.validity[0] == NOW


def test_two_criteria_subset_stays_premature(tmp_path, ocpd_spec, jobs_rows):
    maker = CardMaker(tmp_path)
    subset = [refined_for(jobs_rows, code) for code in ("O7-1", "O7-2")]  # {4, 8} only
    newly = maker.update_premature_cards(subset, ocpd_spec, NOW)
    assert newly == []
    held = maker.premature_cards()
    assert len(held) == 1
    assert held[0].criteria_met == 2
    assert maker.open_candidates() == []


def test_empty_batch_no_change(tmp_path, ocpd_spec):
    maker = CardMaker(tmp_path)
    assert maker.update_premature_cards([], ocpd_spec, NOW) == []
    assert maker.premature_cards() == []


def test_threshold_announced_exactly_once(tmp_path, ocpd_spec, jobs_rows):
    maker = CardMaker(tmp_path)
    rows = fixture_refined_rows(jobs_rows)
    newly = maker.update_premature_cards(rows, ocpd_spec, NOW)
    assert len(newly) == 1
    again = maker.update_premature_cards(rows, ocpd_spec, NOW)
    assert again == []  # same evidence, no second announcement


def test_monotone_evidence(tmp_path, ocpd_spec, jobs_rows):
    maker = CardMaker(tmp_path)
    rng = random.Random(13)
    rows = fixture_refined_rows(jobs_rows)
    rng.shuffle(rows)
    previous = (0,) * 8
    for record in rows:
        maker.update_premature_cards([record], ocpd_spec, NOW)
        card = maker.premature_cards()[0]
        vector = card.score_vector()
        assert all(v >= p for v, p in zip(vector, previous))
        previous = vector


# ---------------------------------------------------------------------------
# Oracle equivalence: the full pattern scan and the per-note evidence fold
# ---------------------------------------------------------------------------


def full_scan_criteria(refined, spec) -> list[tuple[str, int]]:
    """The mapping as first written: every pattern of every concept."""
    note = refined.note
    return [
        (concept.concept_id, criterion.index)
        for concept in spec.concepts
        for criterion in concept.criteria
        if any(
            pattern.matches(note.action, note.intensity, note.attribute_map())
            for pattern in criterion.match_patterns
        )
    ]


class PerNoteMaker:
    """The accumulation as first written: one add_evidence per (note, criterion)."""

    def __init__(self):
        self.cards: dict[str, Card] = {}
        self.closed: set[str] = set()

    def update(self, notes, spec, now) -> list[Card]:
        announced = set()
        for refined in sorted(notes, key=lambda r: r.refined_id):
            for concept_id, criterion_index in full_scan_criteria(refined, spec):
                key = CardMaker.slot_key(refined.subject, concept_id)
                if key in self.closed:
                    continue
                card = self.cards.get(key) or new_card(
                    concept_of(spec, concept_id), refined.subject
                )
                before = card.criteria_met
                card = add_evidence(card, criterion_index, refined.refined_id)
                if before < card.threshold <= card.criteria_met:
                    card = replace(card, validity=(now, None))
                    announced.add(card.card_id)
                self.cards[key] = card
        return [self.cards[k] for k in sorted(self.cards) if self.cards[k].card_id in announced]


ACTIONS_E = ("e1", "e2", "e3")
ACTIONS_R = ("r1", "r2", "r3")


def random_pattern(rng) -> dict:
    pattern = {}
    if rng.random() < 0.6:
        pattern["action_entity"] = rng.choice(ACTIONS_E)
    if rng.random() < 0.6:
        pattern["action_relationship"] = rng.choice(ACTIONS_R)
    if rng.random() < 0.3 or not pattern:
        pattern["min_intensity"] = rng.choice(list(Intensity)).value
    if rng.random() < 0.2:
        pattern["conditions"] = [{"attribute": "count", "op": "ge", "value": 2}]
    return pattern


def random_spec(rng):
    concepts = []
    for c in range(rng.randint(1, 3)):
        criteria = [
            {
                "index": i,
                "description": f"criterion {i}",
                "match_patterns": [random_pattern(rng) for _ in range(rng.randint(1, 3))],
            }
            for i in range(1, rng.randint(2, 5) + 1)
        ]
        concepts.append(
            {
                "concept_id": f"c{c}",
                "name": f"c{c}",
                "criteria": criteria,
                "threshold": rng.randint(1, len(criteria)),
                "min_score_per_criterion": rng.randint(1, 2),
            }
        )
    return parse_ontology(
        {
            "id": "random",
            "version": "1",
            "entity_classes": [
                {"id": e, "description": e, "attribute_schema": {}} for e in ACTIONS_E
            ],
            "relationship_classes": [
                {"id": r, "description": r, "attribute_schema": {}} for r in ACTIONS_R
            ],
            "dictionary": [],
            "note_templates": [],
            "concepts": concepts,
            "refinement_policies": [],
            "exclusion_rules": [],
        }
    )


def random_refined(rng, k: int):
    note = make_note(
        subject=rng.choice(["ann", "bob", "cy"]),
        action=(rng.choice(ACTIONS_E), rng.choice(ACTIONS_R)),
        attributes={"count": float(rng.randint(0, 3))},
        intensity=rng.choice(list(Intensity)),
        note_id=f"n-{rng.randrange(10 ** 6):06d}-{k}",
    )
    return passthrough(note)


def test_indexed_mapping_equals_the_full_scan_on_ocpd(ocpd_spec):
    for entity in ocpd_spec.entity_classes:
        for relationship in ocpd_spec.relationship_classes:
            for intensity in Intensity:
                refined = passthrough(
                    make_note(action=(entity.id, relationship.id), intensity=intensity)
                )
                assert map_note_to_criteria(refined, ocpd_spec) == full_scan_criteria(
                    refined, ocpd_spec
                )


def test_batched_accumulation_equals_the_per_note_fold(tmp_path):
    rng = random.Random(23)
    for trial in range(150):
        spec = random_spec(rng)
        notes = [random_refined(rng, k) for k in range(rng.randint(0, 40))]
        for refined in notes:
            assert map_note_to_criteria(refined, spec) == full_scan_criteria(refined, spec)
        maker = CardMaker(tmp_path / str(trial))
        oracle = PerNoteMaker()
        cuts = sorted(rng.sample(range(len(notes) + 1), k=min(len(notes) + 1, rng.randint(0, 4))))
        for number, (lo, hi) in enumerate(zip([0] + cuts, cuts + [len(notes)])):
            # Close a few slots between batches, as a commit does.
            for _ in range(rng.randint(0, 2)):
                concept = rng.choice(spec.concepts)
                card = new_card(concept, rng.choice(["ann", "bob", "cy"]))
                maker.close_slot(card)
                oracle.cards.pop(CardMaker.slot_key(card.subject, card.concept_id), None)
                oracle.closed.add(CardMaker.slot_key(card.subject, card.concept_id))
            now = NOW + timedelta(days=number)
            newly = maker.update_premature_cards(notes[lo:hi], spec, now)
            expected = oracle.update(notes[lo:hi], spec, now)
            assert list(map(card_to_dict, newly)) == list(map(card_to_dict, expected))
            held = [oracle.cards[k] for k in sorted(oracle.cards)]
            assert list(map(card_to_dict, maker.premature_cards())) == list(
                map(card_to_dict, held)
            )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def test_score_card_golden(tmp_path, ocpd_spec, jobs_rows):
    maker = CardMaker(tmp_path)
    maker.update_premature_cards(fixture_refined_rows(jobs_rows), ocpd_spec, NOW)
    card = maker.premature_cards()[0]
    assert card.score_vector() == GOLDEN_SCORES
    assert card.criteria_met == 6


def test_score_card_empty(ocpd_spec):
    card = new_card(concept_of(ocpd_spec, "301.4"), "steve")
    assert card.score_vector() == (0,) * 8
    assert card.criteria_met == 0


def test_score_card_matches_recount_oracle(ocpd_spec):
    rng = random.Random(17)
    concept = concept_of(ocpd_spec, "301.4")
    for _ in range(200):
        card = new_card(concept, "steve")
        placed: dict[int, set[str]] = {}
        for _ in range(rng.randint(0, 25)):
            criterion = rng.randint(1, 8)
            evidence = f"rn-{rng.randint(0, 9)}"
            card = add_evidence(card, criterion, evidence)
            placed.setdefault(criterion, set()).add(evidence)
        # Brute-force recount straight from the evidence lists.
        expected = tuple(len(placed.get(i, ())) for i in range(1, 9))
        assert card.score_vector() == expected
        assert card.criteria_met == sum(1 for v in expected if v >= 1)
        first_seen: list[str] = []
        for _, ids in card.dimensions:
            for evidence_id in ids:
                if evidence_id not in first_seen:
                    first_seen.append(evidence_id)
        assert card.evidence_ids() == tuple(first_seen)


# ---------------------------------------------------------------------------
# Commit gate
# ---------------------------------------------------------------------------


def exclusive_pair_spec(resolution: str = "expire-older"):
    def concept(concept_id: str, entity: str):
        return {
            "concept_id": concept_id,
            "name": concept_id,
            "criteria": [
                {
                    "index": 1,
                    "description": "presence",
                    "match_patterns": [
                        {"action_entity": entity, "action_relationship": "shows"}
                    ],
                }
            ],
            "threshold": 1,
        }

    return parse_ontology(
        {
            "id": "pair",
            "version": "1",
            "entity_classes": [
                {"id": "anxiety", "description": "worry", "attribute_schema": {}},
                {"id": "upbeat", "description": "cheer", "attribute_schema": {}},
            ],
            "relationship_classes": [
                {"id": "shows", "description": "displays", "attribute_schema": {}}
            ],
            "dictionary": [],
            "note_templates": [
                {"template_id": "t_anx", "trigger": {"entity": "anxiety", "relationship": "shows"}},
                {"template_id": "t_up", "trigger": {"entity": "upbeat", "relationship": "shows"}},
            ],
            "concepts": [concept("300.02", "anxiety"), concept("296.00", "upbeat")],
            "refinement_policies": [],
            "exclusion_rules": [
                {"concept_a": "300.02", "concept_b": "296.00", "resolution": resolution}
            ],
        }
    )


def candidate(spec, concept_id: str, subject: str, start, evidence: str = "rn-x") -> Card:
    card = new_card(concept_of(spec, concept_id), subject)
    card = add_evidence(card, 1, evidence)
    from dataclasses import replace

    return replace(card, validity=(start, None))


def test_commit_fixture_card(tmp_path, ocpd_spec, jobs_rows):
    maker = CardMaker(tmp_path / "maker")
    manager = CardManager(CardLedger(tmp_path / "cards"), maker)
    maker.update_premature_cards(fixture_refined_rows(jobs_rows), ocpd_spec, NOW)
    report = manager.admit(maker.open_candidates(), ocpd_spec, NOW)
    assert len(report.committed) == 1
    card = report.committed[0]
    assert card.status == STATUS_COMMITTED
    assert card.validity == (NOW, None)
    assert card.criteria_met == 6
    # The maker slot is closed after commit.
    assert maker.premature_cards() == []


def test_commit_below_threshold_rejected(tmp_path, ocpd_spec):
    manager = CardManager(CardLedger(tmp_path / "cards"), CardMaker(tmp_path / "cards"))
    card = new_card(concept_of(ocpd_spec, "301.4"), "steve")
    with pytest.raises(CardError):
        manager.commit_card(card, NOW, ocpd_spec)


def test_commit_blocked_by_unresolved_flag_only_conflict(tmp_path):
    spec = exclusive_pair_spec("flag-only")
    manager = CardManager(CardLedger(tmp_path / "cards"), CardMaker(tmp_path / "cards"))
    first = manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    assert first.status == STATUS_COMMITTED
    blocked = candidate(spec, "296.00", "pm", NOW + timedelta(days=1))
    with pytest.raises(CardError):
        manager.commit_card(blocked, NOW + timedelta(days=1), spec)


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------


def test_single_conflict_detected(tmp_path):
    spec = exclusive_pair_spec()
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    committed = manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    incoming = candidate(spec, "296.00", "pm", NOW + timedelta(days=30))
    conflicts = detect_conflicts([incoming], ledger.committed(), spec)
    assert len(conflicts) == 1
    assert conflicts[0].rule_id == "excl:296.00|300.02"
    assert conflicts[0].card_b == committed.card_id


def test_no_rules_no_conflicts(tmp_path, ocpd_spec, jobs_rows):
    incoming = candidate(exclusive_pair_spec(), "296.00", "pm", NOW)
    assert detect_conflicts([incoming], [], ocpd_spec) == []


def test_pairwise_exclusive_candidates_match_pair_enumeration_oracle():
    # n mutually exclusive concepts for one subject: n(n-1)/2 conflicts.
    n = 5
    concepts = []
    entities = []
    templates = []
    rules = []
    for i in range(n):
        entities.append({"id": f"e{i}", "description": f"e{i}", "attribute_schema": {}})
        templates.append(
            {"template_id": f"t{i}", "trigger": {"entity": f"e{i}", "relationship": "shows"}}
        )
        concepts.append(
            {
                "concept_id": f"c{i}",
                "name": f"c{i}",
                "criteria": [
                    {
                        "index": 1,
                        "description": "presence",
                        "match_patterns": [
                            {"action_entity": f"e{i}", "action_relationship": "shows"}
                        ],
                    }
                ],
                "threshold": 1,
            }
        )
    for i in range(n):
        for j in range(i + 1, n):
            rules.append({"concept_a": f"c{i}", "concept_b": f"c{j}", "resolution": "expire-older"})
    spec = parse_ontology(
        {
            "id": "nway",
            "version": "1",
            "entity_classes": entities,
            "relationship_classes": [
                {"id": "shows", "description": "displays", "attribute_schema": {}}
            ],
            "dictionary": [],
            "note_templates": templates,
            "concepts": concepts,
            "refinement_policies": [],
            "exclusion_rules": rules,
        }
    )
    candidates = [candidate(spec, f"c{i}", "pm", NOW) for i in range(n)]
    conflicts = detect_conflicts(candidates, [], spec)
    # Oracle: brute-force enumeration of unordered candidate pairs.
    expected = {
        tuple(sorted((a.card_id, b.card_id)))
        for i, a in enumerate(candidates)
        for b in candidates[i + 1 :]
    }
    assert {tuple(sorted((c.card_a, c.card_b))) for c in conflicts} == expected
    assert len(conflicts) == n * (n - 1) // 2


def test_expire_older_keeps_the_newer_card(tmp_path):
    spec = exclusive_pair_spec()
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    old = manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    later = NOW + timedelta(days=90)
    report = manager.admit(
        [candidate(spec, "296.00", "pm", later)], spec, later
    )
    assert len(report.committed) == 1
    new = report.committed[0]
    assert new.concept_id == "296.00"
    stored_old = ledger.get(old.card_id)
    assert stored_old.status == STATUS_EXPIRED
    assert stored_old.validity == (NOW, later)
    kinds = [e.kind for e in stored_old.reasoning_trail]
    assert "conflict-detected" in kinds and "expired" in kinds
    assert any(e.kind == "conflict-detected" for e in new.reasoning_trail)


def test_flag_only_blocks_without_expiring(tmp_path):
    spec = exclusive_pair_spec("flag-only")
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    old = manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    report = manager.admit(
        [candidate(spec, "296.00", "pm", NOW + timedelta(days=1))],
        spec,
        NOW + timedelta(days=1),
    )
    assert report.committed == []
    assert len(report.blocked) == 1
    blocked = report.blocked[0]
    assert blocked.status == STATUS_PREMATURE
    assert any(e.kind == "flagged" for e in blocked.reasoning_trail)
    stored_old = ledger.get(old.card_id)
    assert stored_old.status == STATUS_COMMITTED  # nothing expired
    assert any(e.kind == "flagged" for e in stored_old.reasoning_trail)


def test_readmitting_a_flagged_candidate_appends_nothing(tmp_path):
    spec = exclusive_pair_spec("flag-only")
    later = NOW + timedelta(days=1)
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    old = manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    manager.admit([candidate(spec, "296.00", "pm", later)], spec, later)
    log = ledger.log_path.read_bytes()
    trail = ledger.get(old.card_id).reasoning_trail
    # A rerun reopens the stores; the blocked candidate comes back from maker.json.
    for _ in range(2):
        maker = CardMaker(tmp_path / "cards")
        rerun = CardManager(CardLedger(tmp_path / "cards"), maker)
        report = rerun.admit(maker.open_candidates(), spec, later)
        assert [c.concept_id for c in report.blocked] == ["296.00"]
        assert report.committed == []
    assert ledger.log_path.read_bytes() == log
    assert CardLedger(tmp_path / "cards").get(old.card_id).reasoning_trail == trail


def test_identical_start_tie_breaks_by_card_id(tmp_path):
    spec = exclusive_pair_spec()
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    a = candidate(spec, "296.00", "pm", NOW)  # card id 296.00@pm#g1
    b = candidate(spec, "300.02", "pm", NOW)  # card id 300.02@pm#g1
    manager.admit([a, b], spec, NOW)
    # Smaller card_id counts as older on a start tie, so it expires; the
    # decision is recorded on the expired card's trail.
    assert [c.card_id for c in ledger.cards(STATUS_EXPIRED)] == [a.card_id]
    assert [c.card_id for c in ledger.committed()] == [b.card_id]
    expired = ledger.get(a.card_id)
    assert any(e.kind == "expired" for e in expired.reasoning_trail)


def committed_setup(tmp_path, ocpd_spec, jobs_rows, codes):
    """The card that the notes of *codes* commit."""
    maker = CardMaker(tmp_path / "maker")
    manager = CardManager(CardLedger(tmp_path / "cards"), maker)
    maker.update_premature_cards([refined_for(jobs_rows, code) for code in codes], ocpd_spec, NOW)
    [card] = manager.admit(maker.open_candidates(), ocpd_spec, NOW).committed
    return card


FOUR_CRITERIA_CODES = ("O6-2", "O6-6", "O1-4", "O7-1")  # covers criteria 1,2,3,4,6,8


def test_a_card_record_with_the_retired_evidence_seq_key_still_loads(tmp_path, ocpd_spec, jobs_rows):
    card = committed_setup(tmp_path, ocpd_spec, jobs_rows, FOUR_CRITERIA_CODES)
    record = card_to_dict(card)
    assert card_from_dict({**record, "evidence_seq": 3}) == card
    assert "evidence_seq" not in record


# ---------------------------------------------------------------------------
# Ledger replay
# ---------------------------------------------------------------------------


def test_replaying_the_log_reconstructs_the_index(tmp_path):
    spec = exclusive_pair_spec()
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    manager.admit(
        [candidate(spec, "296.00", "pm", NOW + timedelta(days=5))],
        spec,
        NOW + timedelta(days=5),
    )
    # The expiry moved the older card's entry to its second snapshot.
    assert sorted(card.status for card in ledger.cards()) == [STATUS_COMMITTED, STATUS_EXPIRED]
    assert_card_index_follows_the_log(tmp_path)
    assert len(CardLedger(tmp_path / "cards").cards()) == 2


def test_log_holds_one_snapshot_per_state_change(tmp_path):
    spec = exclusive_pair_spec()
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    later = NOW + timedelta(days=5)
    manager.admit([candidate(spec, "296.00", "pm", later)], spec, later)
    records = [json.loads(line) for line in ledger.log_path.read_text("utf-8").splitlines()]
    # Commit, expiry of the older card, commit of the newer one.
    assert [(r["type"], r["card"]["status"]) for r in records] == [
        ("snapshot", STATUS_COMMITTED),
        ("snapshot", STATUS_EXPIRED),
        ("snapshot", STATUS_COMMITTED),
    ]
    expired = records[1]["card"]["reasoning_trail"]
    assert [e["kind"] for e in expired] == ["committed", "conflict-detected", "expired"]


def test_replay_skips_event_records_of_older_logs(tmp_path):
    spec = exclusive_pair_spec()
    ledger = CardLedger(tmp_path / "cards")
    manager = CardManager(ledger, CardMaker(tmp_path / "cards"))
    card = manager.commit_card(candidate(spec, "300.02", "pm", NOW), NOW, spec)
    lines = ledger.log_path.read_text("utf-8").splitlines()
    event = {"type": "event", "card_id": card.card_id, **card.reasoning_trail[-1].as_dict()}
    ledger.log_path.write_text("\n".join([json.dumps(event)] + lines) + "\n", "utf-8")
    assert CardLedger(tmp_path / "cards").cards() == [card]
