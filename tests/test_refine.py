from __future__ import annotations

import hashlib
import random
from datetime import timedelta

import pytest

from notecards.encoding import Log
from notecards.notes import NoteStore
from notecards.ontology import parse_ontology
from notecards.refine import (
    CONFLICTED,
    RefineConfigError,
    RefineError,
    RefinedNoteStore,
    apply_combine_rule,
    apply_majority_rule,
    apply_max_rule,
    refine_notes,
    validate_note,
)

from conftest import make_note, passthrough, utc

WINDOW = timedelta(days=7)
# 2020-01-02T00:00Z opens epoch week 2609; day offsets keep tests inside it.
W0 = utc(2020, 1, 2)


def policy_spec(rule: str, attribute: str = "amount", period: str | None = None,
                tie_policy: str | None = None):
    policy = {
        "entity_class": "alcohol",
        "relationship_class": "consume",
        "attribute": attribute,
        "rule": rule,
    }
    if period:
        policy["period"] = period
    if tie_policy:
        policy["tie_policy"] = tie_policy
    return parse_ontology(
        {
            "id": "p",
            "version": "1",
            "entity_classes": [
                {
                    "id": "alcohol",
                    "description": "drink",
                    "attribute_schema": {"amount": "count", "brand": "category"},
                }
            ],
            "relationship_classes": [
                {"id": "consume", "description": "drinking", "attribute_schema": {}}
            ],
            "dictionary": [],
            "note_templates": [
                {
                    "template_id": "t",
                    "trigger": {"entity": "alcohol", "relationship": "consume"},
                    "attribute_aggregations": {"amount": "max", "brand": "count"},
                }
            ],
            "concepts": [],
            "refinement_policies": [policy],
            "exclusion_rules": [],
        }
    )


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def max_oracle(values):
    """Exhaustive pairwise comparison: the element no other exceeds."""
    for candidate in values:
        if all(candidate >= other for other in values):
            return candidate
    raise AssertionError("unreachable on nonempty input")


def mode_oracle(values, tie_policy="mark-conflicted", times=None):
    """Frequency count by explicit tally."""
    tally = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    best = max(tally.values())
    winners = sorted((str(v), v) for v, c in tally.items() if c == best)
    if len(winners) == 1:
        return winners[0][1]
    if tie_policy == "mark-conflicted":
        return CONFLICTED
    earliest = {}
    for v, t in zip(values, times):
        if str(v) in {w[0] for w in winners} and t is not None:
            if v not in earliest or t < earliest[v]:
                earliest[v] = t
    return min(winners, key=lambda w: (earliest[w[1]].isoformat(), w[0]))[1]


def combine_oracle(events_per_period):
    """Sum event-level ground truth directly."""
    return float(sum(sum(events) for events in events_per_period))


# ---------------------------------------------------------------------------
# The three rules
# ---------------------------------------------------------------------------


def test_max_rule_basics():
    assert apply_max_rule([3, 5, 4]) == 5
    assert apply_max_rule([7]) == 7


def test_max_rule_errors():
    with pytest.raises(RefineError):
        apply_max_rule([])
    with pytest.raises(RefineError):
        apply_max_rule([1, 2], units=["beer", "pint"])
    apply_max_rule([1, 2], units=["beer", "beer"])  # same unit is fine


def test_max_rule_matches_oracle():
    rng = random.Random(3)
    for _ in range(300):
        values = [rng.randint(-20, 20) for _ in range(rng.randint(1, 10))]
        assert apply_max_rule(values) == max_oracle(values)


def test_majority_rule_basics():
    assert apply_majority_rule(["X", "X", "Y"]) == "X"
    assert apply_majority_rule(["X", "Y"]) is CONFLICTED


def test_majority_first_by_time():
    times = [utc(2020, 1, 3), utc(2020, 1, 1), utc(2020, 1, 2), utc(2020, 1, 4)]
    result = apply_majority_rule(["X", "Y", "X", "Y"], "first-by-time", times)
    assert result == "Y"  # Y's earliest support (Jan 1) is oldest


def test_majority_rule_matches_oracle():
    rng = random.Random(4)
    categories = ["a", "b", "c", "d"]
    for _ in range(300):
        n = rng.randint(1, 12)
        values = [rng.choice(categories[: rng.randint(1, 4)]) for _ in range(n)]
        times = [utc(2020, 1, 1) + timedelta(hours=rng.randrange(100)) for _ in range(n)]
        policy = rng.choice(["mark-conflicted", "first-by-time"])
        assert apply_majority_rule(values, policy, times) == mode_oracle(
            values, policy, times
        )


def weekly_notes(amounts, attribute="amount", start=W0):
    notes = []
    for i, amount in enumerate(amounts):
        notes.append(
            make_note(
                subject="a",
                action=("alcohol", "consume"),
                attributes={attribute: float(amount)},
                start=start + i * WINDOW,
                end=start + i * WINDOW + timedelta(days=6),
                provenance=(f"w{i}",),
            )
        )
    return notes


def test_combine_rule_sums_disjoint_weeks():
    result = apply_combine_rule(weekly_notes([4, 6, 5, 5]), "amount", timedelta(days=30))
    assert result.value == 20
    assert result.gap == timedelta(days=30) - 4 * timedelta(days=6)


def test_combine_rule_single_note_identity():
    result = apply_combine_rule(weekly_notes([7]), "amount", timedelta(days=30))
    assert result.value == 7


def test_combine_rule_rejects_overlap():
    notes = weekly_notes([4, 6])
    overlapping = [notes[0], notes[0]]
    with pytest.raises(RefineError):
        apply_combine_rule(overlapping, "amount", timedelta(days=30))


def test_combine_rule_matches_event_level_oracle():
    rng = random.Random(6)
    for _ in range(300):
        periods = rng.randint(1, 4)
        events_per_period = [
            [rng.randint(0, 9) for _ in range(rng.randint(1, 5))] for _ in range(periods)
        ]
        notes = weekly_notes([sum(events) for events in events_per_period])
        result = apply_combine_rule(notes, "amount", timedelta(days=30))
        assert result.value == combine_oracle(events_per_period)


# ---------------------------------------------------------------------------
# Validation gate
# ---------------------------------------------------------------------------


def test_validate_fresh_note_accepted():
    note = make_note()
    verdict = validate_note(note, processed_ids=set())
    assert verdict.accepted


def test_validate_duplicate_rejected():
    note = make_note()
    verdict = validate_note(note, processed_ids={note.note_id})
    assert not verdict.accepted
    assert verdict.reason == "duplicate"


def test_validate_unknown_schema_version_rejected():
    note = make_note(schema_version=99)
    verdict = validate_note(note, processed_ids=set())
    assert not verdict.accepted
    assert "schema_version" in verdict.reason


def test_validate_dangling_provenance_rejected():
    note = make_note(provenance=("ghost",))
    verdict = validate_note(note, processed_ids=set(), resolve_chunk=lambda cid: False)
    assert not verdict.accepted
    assert "ghost" in verdict.reason


# ---------------------------------------------------------------------------
# Batch refinement
# ---------------------------------------------------------------------------


def same_event_notes(amounts, place="party"):
    return [
        make_note(
            subject="a",
            action=("alcohol", "consume"),
            attributes={"amount": float(amount)},
            start=W0 + timedelta(days=1),
            end=W0 + timedelta(days=1),
            provenance=(f"e{i}",),
            place=place,
            note_id=f"n-amt-{amount}",
        )
        for i, amount in enumerate(amounts)
    ]


def test_same_event_amounts_resolve_by_max():
    spec = policy_spec("max")
    batch = same_event_notes([3, 5])
    refined = refine_notes(batch, spec, WINDOW)
    assert len(refined) == 1
    merged = refined[0]
    assert merged.note.attribute_map()["amount"] == 5.0
    assert not merged.passthrough
    assert len(merged.applied_rules) == 1
    application = merged.applied_rules[0]
    assert application.rule == "max"
    assert sorted(application.input_note_ids) == ["n-amt-3", "n-amt-5"]
    assert sorted(application.input_values) == [3.0, 5.0]
    assert application.output_value == 5.0


def test_conflict_free_batch_passes_through():
    spec = policy_spec("max")
    batch = [
        make_note(subject="a", action=("alcohol", "consume"),
                  attributes={"amount": 3.0}, start=W0, end=W0, note_id="n-1"),
        make_note(subject="b", action=("alcohol", "consume"),
                  attributes={"amount": 4.0}, start=W0, end=W0, note_id="n-2"),
    ]
    refined = refine_notes(batch, spec, WINDOW)
    assert len(refined) == 2
    assert all(r.passthrough for r in refined)
    assert {r.note.note_id for r in refined} == {"n-1", "n-2"}


def test_weekly_notes_combine_into_one_period_note():
    spec = policy_spec("combine", period="1m")
    batch = weekly_notes([4, 6, 5, 5])
    refined = refine_notes(batch, spec, WINDOW)
    assert len(refined) == 1
    merged = refined[0]
    assert merged.note.attribute_map()["amount"] == 20.0
    combine_apps = [a for a in merged.applied_rules if a.rule == "combine"]
    assert len(combine_apps) == 1
    assert len(combine_apps[0].input_note_ids) == 4
    # The merged envelope covers all four weeks.
    assert merged.note.time_range[0] == batch[0].time_range[0]
    assert merged.note.time_range[1] == batch[-1].time_range[1]


def test_majority_conflict_marks_conflicted():
    spec = policy_spec("majority", attribute="brand")
    batch = [
        make_note(subject="a", action=("alcohol", "consume"),
                  attributes={"brand": "stout"}, start=W0 + timedelta(days=1),
                  end=W0 + timedelta(days=1), place="party", note_id="n-s"),
        make_note(subject="a", action=("alcohol", "consume"),
                  attributes={"brand": "lager"}, start=W0 + timedelta(days=1),
                  end=W0 + timedelta(days=1), place="party", note_id="n-l"),
    ]
    refined = refine_notes(batch, spec, WINDOW)
    assert len(refined) == 1
    assert refined[0].note.attribute_map()["brand"] == "conflicted"
    assert refined[0].applied_rules[0].output_value == "conflicted"


def test_conflicting_field_without_policy_fails_fast():
    spec = policy_spec("max", attribute="amount")
    batch = [
        make_note(subject="a", action=("alcohol", "consume"),
                  attributes={"brand": "stout"}, start=W0 + timedelta(days=1),
                  end=W0 + timedelta(days=1), place="party", note_id="n-s"),
        make_note(subject="a", action=("alcohol", "consume"),
                  attributes={"brand": "lager"}, start=W0 + timedelta(days=1),
                  end=W0 + timedelta(days=1), place="party", note_id="n-l"),
    ]
    with pytest.raises(RefineConfigError):
        refine_notes(batch, spec, WINDOW)


def test_audit_completeness_nothing_silently_dropped():
    spec = policy_spec("max")
    batch = same_event_notes([3, 5, 4]) + [
        make_note(subject="z", action=("alcohol", "consume"),
                  attributes={"amount": 2.0}, start=W0, end=W0, note_id="n-z"),
    ]
    refined = refine_notes(batch, spec, WINDOW)
    accounted = sorted(
        note_id for record in refined for note_id in record.input_note_ids()
    )
    assert accounted == sorted(n.note_id for n in batch)


def test_batch_order_never_changes_output():
    rng = random.Random(8)
    spec = policy_spec("max")
    batch = same_event_notes([3, 5]) + weekly_notes([2, 9])[1:]
    baseline = refine_notes(batch, spec, WINDOW)
    for _ in range(6):
        shuffled = list(batch)
        rng.shuffle(shuffled)
        again = refine_notes(shuffled, spec, WINDOW)
        assert [r.refined_id for r in again] == [r.refined_id for r in baseline]


def test_refined_store_tracks_processed_ids(tmp_path):
    spec = policy_spec("max")
    batch = same_event_notes([3, 5])
    refined = refine_notes(batch, spec, WINDOW)
    store = RefinedNoteStore(tmp_path, NoteStore(tmp_path))
    assert store.add_all(refined) == 1
    assert store.processed_note_ids() == {"n-amt-3", "n-amt-5"}
    reloaded = RefinedNoteStore(tmp_path, NoteStore(tmp_path))
    assert reloaded.get(refined[0].refined_id) == refined[0]
    assert reloaded.read_all() == [refined[0]]


@pytest.mark.parametrize("digest", [True, False], ids=["vouched", "without-digest"])
def test_a_refined_store_opened_to_append_reads_no_refined_note_and_counts_every_line(
    tmp_path, digest
):
    committed = refine_notes(same_event_notes([3, 5]), policy_spec("max"), WINDOW)
    late = [make_note(subject="b", provenance=(f"late-{i}",), note_id=f"n-late-{i}")
            for i in range(2)]
    RefinedNoteStore(tmp_path, NoteStore(tmp_path)).add_all(committed)
    NoteStore(tmp_path).add_all(late)
    path = tmp_path / "refined.jsonl"
    data = path.read_bytes()
    log = Log(path, len(data), hashlib.sha256(data).hexdigest() if digest else None)
    store = RefinedNoteStore(tmp_path, NoteStore(tmp_path), log, append_only=True)
    assert len(store) == 1  # the committed line, counted, not indexed
    assert store.processed_note_ids() == set()
    appended = [passthrough(note) for note in late]
    assert store.add_all(appended + appended) == 2  # each id once in a batch
    assert store.add_all(appended) == 0  # and none it appended before
    assert len(store) == 3
    assert store.processed_note_ids() == {"n-late-0", "n-late-1"}
    for read in (lambda: store.get(committed[0].refined_id),
                 lambda: committed[0].refined_id in store, store.read_all):
        with pytest.raises(RuntimeError, match="opened to append only"):
            read()
    assert RefinedNoteStore(tmp_path, NoteStore(tmp_path)).read_all() == committed + appended
