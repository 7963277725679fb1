from __future__ import annotations

import random
from datetime import timedelta

import pytest

from notecards.annotate import annotate_document
from notecards.ingest import SourceMeta, make_document
from notecards.notes import (
    NoteStore,
    SynthesisConfig,
    confidence_for,
    intensity_for_rate,
    synthesize_notes,
)
from notecards.ontology import Confidence, Intensity, parse_ontology
from notecards.organize import assign_windows

from conftest import utc

CONFIG = SynthesisConfig()
HORIZON_START = utc(2011, 10, 13)  # epoch-aligned 28d bucket


def drinking_spec(min_events: int = 1, aggregations: dict | None = None):
    return parse_ontology(
        {
            "id": "drinking",
            "version": "1",
            "entity_classes": [
                {
                    "id": "alcohol",
                    "description": "any drink",
                    "attribute_schema": {"amount": "count"},
                }
            ],
            "relationship_classes": [
                {"id": "consume", "description": "drinking", "attribute_schema": {}}
            ],
            "dictionary": [
                {"surface_form": "beers", "canonical_id": "alcohol", "kind": "entity"},
                {"surface_form": "beer", "canonical_id": "alcohol", "kind": "entity"},
                {"surface_form": "booze up", "canonical_id": "consume", "kind": "relationship"},
            ],
            "note_templates": [
                {
                    "template_id": "t_drink",
                    "trigger": {"entity": "alcohol", "relationship": "consume"},
                    "attribute_aggregations": aggregations or {"amount": "max"},
                    "min_events": min_events,
                }
            ],
            "concepts": [],
            "refinement_policies": [],
            "exclusion_rules": [],
        }
    )


def event_chunks(spec, times, sources=None, text="They booze up on beer."):
    chunks = []
    for i, when in enumerate(times):
        source = sources[i] if sources else f"s{i}"
        meta = SourceMeta(
            source_uri=f"log://{source}", timestamp=when, subjects=("a",)
        )
        doc = make_document(f"{text}", meta, ingested_at=utc(2011, 11, 13))
        chunks.extend(annotate_document(doc, spec).chunks)
    return chunks


def released_groups(spec, times, sources=None, text="They booze up on beer."):
    chunks = event_chunks(spec, times, sources, text)
    return assign_windows(chunks, CONFIG.window_length)


# ---------------------------------------------------------------------------
# The worked frequency example
# ---------------------------------------------------------------------------


def test_three_per_week_for_a_month_is_very_frequent_high():
    spec = drinking_spec()
    times = [
        HORIZON_START + timedelta(days=7 * week + day, hours=20)
        for week in range(4)
        for day in (1, 3, 5)
    ]
    sources = [f"src{i % 4}" for i in range(12)]  # 4 distinct documents
    notes = synthesize_notes(released_groups(spec, times, sources), spec, CONFIG)
    assert len(notes) == 1
    note = notes[0]
    assert note.subject == "a"
    assert note.action == ("alcohol", "consume")
    assert note.intensity is Intensity.VERY_FREQUENT
    assert note.confidence is Confidence.HIGH
    assert note.time_range == (times[0], times[-1])
    assert len(note.provenance) == 12


def test_zero_events_no_note():
    spec = drinking_spec()
    assert synthesize_notes([], spec, CONFIG) == []


def test_single_event_is_rare_low():
    spec = drinking_spec()
    notes = synthesize_notes(
        released_groups(spec, [HORIZON_START + timedelta(days=1)]), spec, CONFIG
    )
    assert len(notes) == 1
    assert notes[0].intensity is Intensity.RARE
    assert notes[0].confidence is Confidence.LOW


def test_min_events_gate():
    spec = drinking_spec(min_events=3)
    notes = synthesize_notes(
        released_groups(
            spec,
            [HORIZON_START + timedelta(days=d) for d in (1, 3)],
        ),
        spec,
        CONFIG,
    )
    assert notes == []


# ---------------------------------------------------------------------------
# Buckets
# ---------------------------------------------------------------------------


def test_every_rate_lands_in_exactly_one_bucket():
    rng = random.Random(11)
    for _ in range(500):
        rate = rng.random() * rng.choice([0.5, 1, 3, 10])
        bucket = intensity_for_rate(rate)
        assert isinstance(bucket, Intensity)
    assert intensity_for_rate(0.0) is Intensity.RARE
    assert intensity_for_rate(0.999) is Intensity.RARE
    assert intensity_for_rate(1.0) is Intensity.OCCASIONAL
    assert intensity_for_rate(2.0) is Intensity.FREQUENT
    assert intensity_for_rate(3.0) is Intensity.VERY_FREQUENT


def test_intensity_monotone_in_event_count():
    spec = drinking_spec()
    previous = -1
    for count in range(1, 16):
        times = [
            HORIZON_START + timedelta(days=i * 40 // 24, hours=(i * 7) % 24)
            for i in range(count)
        ]
        times = [t for t in times if t < HORIZON_START + timedelta(days=27)]
        notes = synthesize_notes(released_groups(spec, times[:count]), spec, CONFIG)
        if not notes:
            continue
        rank = notes[0].intensity.rank
        assert rank >= previous
        previous = rank


def test_confidence_monotone_in_sources_at_fixed_agreement():
    previous = -1
    for sources in range(1, 5):
        rank = confidence_for(sources, 1.0).rank
        assert rank >= previous
        previous = rank
    # Disagreement caps confidence regardless of source count.
    assert confidence_for(5, 0.5) is Confidence.LOW


def test_note_ids_deterministic():
    spec = drinking_spec()
    times = [HORIZON_START + timedelta(days=d) for d in (1, 3, 5)]
    first = synthesize_notes(released_groups(spec, times), spec, CONFIG)
    second = synthesize_notes(released_groups(spec, times), spec, CONFIG)
    assert [n.note_id for n in first] == [n.note_id for n in second]


def test_separate_horizons_separate_notes():
    spec = drinking_spec()
    times = [
        HORIZON_START + timedelta(days=1),
        HORIZON_START + timedelta(days=29),  # next 28d bucket
    ]
    notes = synthesize_notes(released_groups(spec, times), spec, CONFIG)
    assert len(notes) == 2


# ---------------------------------------------------------------------------
# Attribute extraction and aggregation
# ---------------------------------------------------------------------------


def test_adjacent_quantity_feeds_aggregator():
    spec = drinking_spec(aggregations={"amount": "max"})
    groups = released_groups(
        spec,
        [HORIZON_START + timedelta(days=1), HORIZON_START + timedelta(days=2)],
        text="They booze up on 5 beers.",
    )
    notes = synthesize_notes(groups, spec, CONFIG)
    assert notes[0].attribute_map() == {"amount": 5.0}


def test_sum_and_mean_and_count_aggregators():
    times = [HORIZON_START + timedelta(days=d, hours=12) for d in (1, 2)]
    for aggregator, expected in (("sum", 8.0), ("mean", 4.0), ("count", 2.0)):
        spec = drinking_spec(aggregations={"amount": aggregator})
        chunks = []
        for when, quantity in zip(times, (3, 5)):
            meta = SourceMeta(
                source_uri=f"log://q{quantity}", timestamp=when, subjects=("a",)
            )
            doc = make_document(
                f"They booze up on {quantity} beers.", meta, ingested_at=utc(2011, 11, 13)
            )
            chunks.extend(annotate_document(doc, spec).chunks)
        notes = synthesize_notes(
            assign_windows(chunks, CONFIG.window_length), spec, CONFIG
        )
        assert notes[0].attribute_map() == {"amount": expected}, aggregator


def test_disagreement_lowers_confidence():
    # Same event reported with conflicting amounts from many sources.
    spec = drinking_spec(aggregations={"amount": "max"})
    chunks = []
    for i, quantity in enumerate((3, 5, 7, 9)):
        meta = SourceMeta(
            source_uri=f"log://w{i}",
            timestamp=HORIZON_START + timedelta(days=1 + i, hours=6),
            subjects=("a",),
        )
        doc = make_document(
            f"They booze up on {quantity} beers.", meta, ingested_at=utc(2011, 11, 13)
        )
        chunks.extend(annotate_document(doc, spec).chunks)
    notes = synthesize_notes(assign_windows(chunks, CONFIG.window_length), spec, CONFIG)
    # 4 sources but agreement 1/4: low confidence.
    assert notes[0].confidence is Confidence.LOW


def test_note_store_roundtrip_and_dedupe(tmp_path):
    spec = drinking_spec()
    times = [HORIZON_START + timedelta(days=d) for d in (1, 2)]
    notes = synthesize_notes(released_groups(spec, times), spec, CONFIG)
    store = NoteStore(tmp_path)
    assert store.add_all(notes) == 1
    assert store.add_all(notes) == 0  # append-only, keyed by note_id
    reloaded = NoteStore(tmp_path)
    assert reloaded.get(notes[0].note_id) == notes[0]
    assert reloaded.list(subject="a") == notes
    assert reloaded.list(subject="nobody") == []


def test_a_note_store_opened_to_append_reads_no_note_and_counts_every_line(tmp_path):
    spec = drinking_spec()
    first, second = (
        synthesize_notes(released_groups(spec, [HORIZON_START + timedelta(days=d)]), spec, CONFIG)
        for d in (1, 9)
    )
    NoteStore(tmp_path).add_all(first)
    store = NoteStore(tmp_path, append_only=True)
    assert len(store) == 1
    assert store.add_all(second + second) == 1  # each id once in a batch
    assert store.add_all(second) == 0  # and none it appended before
    assert len(store) == 2
    for read in (lambda: store.get(first[0].note_id), lambda: first[0].note_id in store,
                 lambda: store.list()):
        with pytest.raises(RuntimeError, match="opened to append only"):
            read()
    assert NoteStore(tmp_path).list() == first + second
