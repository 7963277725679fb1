from __future__ import annotations

import json
import random
from datetime import timedelta

import pytest

from notecards.durations import DurationError, format_duration, parse_duration
from notecards.ontology import (
    AttrCondition,
    Intensity,
    NotePattern,
    NoteTemplate,
    OntologyConstraintError,
    OntologyMergeError,
    OntologyParseError,
    OntologyReferenceError,
    load_ontology,
    merge_ontologies,
    parse_ontology,
    pattern_satisfiable_by,
    spec_to_dict,
    validate_ontology,
)

from conftest import concept_of

# ---------------------------------------------------------------------------
# Minimal spec builder
# ---------------------------------------------------------------------------


def mini_spec(**overrides) -> dict:
    base = {
        "id": "mini",
        "version": "1",
        "entity_classes": [
            {
                "id": "alcohol",
                "description": "Any drink",
                "attribute_schema": {"amount": "count", "brand": "category"},
            }
        ],
        "relationship_classes": [
            {"id": "consume", "description": "Drinking", "attribute_schema": {}}
        ],
        "dictionary": [
            {"surface_form": "beer", "canonical_id": "alcohol", "kind": "entity"},
            {"surface_form": "drink", "canonical_id": "consume", "kind": "relationship"},
        ],
        "note_templates": [
            {
                "template_id": "t1",
                "trigger": {"entity": "alcohol", "relationship": "consume"},
                "attribute_aggregations": {"amount": "sum"},
                "min_events": 1,
            }
        ],
        "concepts": [
            {
                "concept_id": "303.90",
                "name": "drinking pattern",
                "criteria": [
                    {
                        "index": 1,
                        "description": "drinks at all",
                        "match_patterns": [
                            {"action_entity": "alcohol", "action_relationship": "consume"}
                        ],
                    }
                ],
                "threshold": 1,
            }
        ],
        "refinement_policies": [],
        "exclusion_rules": [],
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# Durations
# ---------------------------------------------------------------------------


def test_duration_units():
    assert parse_duration("7d") == timedelta(days=7)
    assert parse_duration("2w") == timedelta(days=14)
    assert parse_duration("1m") == timedelta(days=30)  # exactly 30 days


def test_duration_round_trip():
    for text in ("1d", "13d", "2w", "3m"):
        assert format_duration(parse_duration(text)) == text


def test_duration_rejects_garbage():
    for bad in ("", "7", "d7", "7h", "-3d", "1.5d"):
        with pytest.raises(DurationError):
            parse_duration(bad)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_ocpd_fixture_loads(ocpd_spec):
    concept = concept_of(ocpd_spec, "301.4")
    assert concept is not None
    assert len(concept.criteria) == 8
    assert concept.threshold == 4
    assert concept.min_score_per_criterion == 1


def test_threshold_above_criteria_count_rejected():
    doc = mini_spec()
    doc["concepts"][0]["threshold"] = 9
    doc["concepts"][0]["criteria"] = [
        {
            "index": i,
            "description": f"criterion {i}",
            "match_patterns": [
                {"action_entity": "alcohol", "action_relationship": "consume"}
            ],
        }
        for i in range(1, 9)
    ]
    with pytest.raises(OntologyConstraintError):
        parse_ontology(doc)


def test_dangling_dictionary_reference_rejected():
    doc = mini_spec()
    doc["dictionary"].append(
        {"surface_form": "hooch", "canonical_id": "liqour", "kind": "entity"}
    )
    with pytest.raises(OntologyReferenceError):
        parse_ontology(doc)


def test_malformed_document_rejected():
    with pytest.raises(OntologyParseError):
        load_ontology("{not json")
    with pytest.raises(OntologyParseError):
        parse_ontology({"version": "1"})  # missing id


def test_noncontiguous_criterion_indices_rejected():
    doc = mini_spec()
    doc["concepts"][0]["criteria"][0]["index"] = 2
    with pytest.raises(OntologyConstraintError):
        parse_ontology(doc)


def test_combine_policy_requires_period():
    doc = mini_spec()
    doc["refinement_policies"] = [
        {
            "entity_class": "alcohol",
            "relationship_class": "consume",
            "attribute": "amount",
            "rule": "combine",
        }
    ]
    with pytest.raises(OntologyConstraintError):
        parse_ontology(doc)


def test_duplicate_policy_selector_rejected():
    doc = mini_spec()
    doc["refinement_policies"] = [
        {
            "entity_class": "alcohol",
            "relationship_class": "consume",
            "attribute": "amount",
            "rule": "max",
        },
        {
            "entity_class": "alcohol",
            "relationship_class": "consume",
            "attribute": "amount",
            "rule": "majority",
        },
    ]
    with pytest.raises(OntologyConstraintError):
        parse_ontology(doc)


def test_exclusion_rules_are_symmetric():
    doc = mini_spec()
    doc["concepts"].append(
        {
            "concept_id": "300.0",
            "name": "other",
            "criteria": [
                {
                    "index": 1,
                    "description": "x",
                    "match_patterns": [
                        {"action_entity": "alcohol", "action_relationship": "consume"}
                    ],
                }
            ],
            "threshold": 1,
        }
    )
    doc["exclusion_rules"] = [
        {"concept_a": "303.90", "concept_b": "300.0", "resolution": "expire-older"},
        {"concept_a": "300.0", "concept_b": "303.90", "resolution": "expire-older"},
    ]
    spec = parse_ontology(doc)
    # (a, b) and (b, a) collapse to one normalized rule.
    assert len(spec.exclusion_rules) == 1
    assert spec.exclusion_rules[0].pair == ("300.0", "303.90")


def test_self_exclusion_rejected():
    doc = mini_spec()
    doc["exclusion_rules"] = [
        {"concept_a": "303.90", "concept_b": "303.90", "resolution": "expire-older"}
    ]
    with pytest.raises(OntologyConstraintError):
        parse_ontology(doc)


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


def test_serialize_round_trip(ocpd_spec, alcohol_spec):
    for spec in (ocpd_spec, alcohol_spec, parse_ontology(mini_spec())):
        assert load_ontology(json.dumps(spec_to_dict(spec))) == spec


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_ocpd_fixture_validates_clean(ocpd_spec):
    report = validate_ontology(ocpd_spec)
    assert report.errors == []
    assert report.warnings == []


def test_unused_dictionary_entry_warns():
    doc = mini_spec()
    doc["entity_classes"].append(
        {"id": "tobacco", "description": "Smokes", "attribute_schema": {}}
    )
    doc["dictionary"].append(
        {"surface_form": "cigar", "canonical_id": "tobacco", "kind": "entity"}
    )
    report = validate_ontology(parse_ontology(doc))
    conciseness = [f for f in report.warnings if f.code == "conciseness"]
    assert len(conciseness) == 1
    assert "cigar" in conciseness[0].subject


def test_unsatisfiable_criterion_is_completeness_error():
    doc = mini_spec()
    doc["concepts"][0]["criteria"][0]["match_patterns"] = [
        {
            "action_entity": "alcohol",
            "action_relationship": "consume",
            "conditions": [
                {"attribute": "amount", "op": "ge", "value": 5},
                {"attribute": "amount", "op": "le", "value": 3},
            ],
        }
    ]
    report = validate_ontology(parse_ontology(doc))
    completeness = [f for f in report.errors if f.code == "completeness"]
    assert len(completeness) == 1


def test_untestable_dimensions_reported_not_checked(ocpd_spec):
    report = validate_ontology(ocpd_spec)
    codes = {f.code for f in report.findings if f.severity == "not-checked"}
    assert codes == {"cognitive-adequacy", "grounding"}


def test_empty_description_flagged():
    doc = mini_spec()
    doc["entity_classes"][0]["description"] = ""
    report = validate_ontology(parse_ontology(doc))
    assert any(f.code == "clarity" for f in report.warnings)


# ---------------------------------------------------------------------------
# Satisfiability: analytic check vs brute-force witness search
# ---------------------------------------------------------------------------


def brute_force_satisfiable(pattern: NotePattern, template: NoteTemplate) -> bool:
    """Independent oracle: enumerate candidate notes over a witness grid."""
    if pattern.action_entity is not None and pattern.action_entity != template.trigger_entity:
        return False
    if (
        pattern.action_relationship is not None
        and pattern.action_relationship != template.trigger_relationship
    ):
        return False
    produced = set(template.aggregations())
    attrs = sorted({c.attribute for c in pattern.conditions})
    if any(a not in produced for a in attrs):
        return False

    def witness_values(attribute: str) -> list:
        mentioned: list[float] = []
        extras: list = []
        for cond in pattern.conditions:
            if cond.attribute != attribute:
                continue
            if cond.op == "in":
                extras.extend(cond.value)
                mentioned.extend(v for v in cond.value if isinstance(v, (int, float)))
            elif isinstance(cond.value, (int, float)):
                mentioned.append(float(cond.value))
                extras.append(cond.value)
            else:
                extras.append(cond.value)
        mentioned = sorted(set(mentioned))
        grid: list = list(extras)
        grid.extend(mentioned)
        for a, b in zip(mentioned, mentioned[1:]):
            grid.append((a + b) / 2)
        if mentioned:
            grid.append(mentioned[0] - 1)
            grid.append(mentioned[-1] + 1)
        grid.append(0.0)
        return grid

    grids = [witness_values(a) for a in attrs]

    def assignments(i: int, current: dict):
        if i == len(attrs):
            yield dict(current)
            return
        for value in grids[i]:
            current[attrs[i]] = value
            yield from assignments(i + 1, current)

    action = (template.trigger_entity, template.trigger_relationship)
    for assignment in assignments(0, {}):
        if pattern.matches(action, Intensity.VERY_FREQUENT, assignment):
            return True
    return False


def test_satisfiability_matches_brute_force_oracle():
    rng = random.Random(20111013)
    template = NoteTemplate(
        template_id="t",
        trigger_entity="alcohol",
        trigger_relationship="consume",
        attribute_aggregations=(("amount", "sum"), ("brand", "max")),
    )
    ops = ["eq", "in", "lt", "le", "gt", "ge"]
    for _ in range(400):
        conditions = []
        for _ in range(rng.randint(0, 4)):
            attribute = rng.choice(["amount", "brand", "missing"])
            op = rng.choice(ops)
            if op == "in":
                value = tuple(
                    rng.sample(range(0, 7), k=rng.randint(1, 3))
                )
            else:
                value = rng.randint(0, 6)
            conditions.append(AttrCondition(attribute=attribute, op=op, value=value))
        pattern = NotePattern(
            action_entity="alcohol",
            action_relationship="consume",
            conditions=tuple(conditions),
        )
        assert pattern_satisfiable_by(pattern, template) == brute_force_satisfiable(
            pattern, template
        ), pattern


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def test_merge_disjoint_specs(ocpd_spec, alcohol_spec):
    merged = merge_ontologies(alcohol_spec, ocpd_spec)
    assert len(merged.concepts) == len(ocpd_spec.concepts) + len(alcohol_spec.concepts)
    assert len(merged.entity_classes) == len(ocpd_spec.entity_classes) + len(
        alcohol_spec.entity_classes
    )


def test_merge_idempotent(ocpd_spec, alcohol_spec):
    assert merge_ontologies(ocpd_spec, ocpd_spec) == ocpd_spec
    assert merge_ontologies(alcohol_spec, alcohol_spec) == alcohol_spec


def test_merge_commutative(ocpd_spec, alcohol_spec):
    ab = merge_ontologies(alcohol_spec, ocpd_spec)
    ba = merge_ontologies(ocpd_spec, alcohol_spec)
    assert ab == ba


def test_merge_conflicting_thresholds_rejected():
    a = parse_ontology(mini_spec())
    doc = mini_spec()
    doc["concepts"][0]["criteria"].append(
        {
            "index": 2,
            "description": "second",
            "match_patterns": [
                {"action_entity": "alcohol", "action_relationship": "consume"}
            ],
        }
    )
    doc["concepts"][0]["threshold"] = 2
    b = parse_ontology(doc)
    with pytest.raises(OntologyMergeError):
        merge_ontologies(a, b)
