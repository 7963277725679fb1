"""The declarative ontology that drives every pipeline stage.

An ontology file is one JSON document with top-level keys ``id``,
``version``, ``entity_classes``, ``relationship_classes``, ``dictionary``,
``note_templates``, ``concepts``, ``refinement_policies`` and
``exclusion_rules``. Ids are case-sensitive ASCII; durations use the
``<integer><d|w|m>`` syntax from :mod:`notecards.durations`.

The pattern language used by criteria is a closed predicate set: action
equality, minimum intensity, and attribute conditions limited to
equality (``eq``), category membership (``in``) and ordered comparison
(``lt``/``le``/``gt``/``ge``). There are no free-form expressions, which
keeps every downstream match auditable.

Specs are immutable after load and safe to share across threads; loading
and merging are single-threaded operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

from .durations import DurationError, parse_duration
from .encoding import PipelineError
from .notes import Confidence, Intensity  # the scales of a note, which patterns compare

VALUE_KINDS = ("count", "quantity-with-unit", "category", "text")
AGGREGATORS = ("sum", "max", "mean", "count")
PATTERN_OPS = ("eq", "in", "lt", "le", "gt", "ge")
RULES = ("max", "combine", "majority")
TIE_POLICIES = ("mark-conflicted", "first-by-time")
RESOLUTIONS = ("expire-older", "flag-only")
EXCLUSION_SCOPE = "same-subject-overlapping-validity"

# Entity class id that marks person mentions for subject resolution.
PERSON_CLASS_ID = "person"


class OntologyError(PipelineError):
    """Base for all ontology loading/merging failures."""


class OntologyParseError(OntologyError):
    """The document is not well-formed per the schema."""


class OntologyReferenceError(OntologyError):
    """An identifier does not resolve within the spec."""


class OntologyConstraintError(OntologyError):
    """A structural invariant is violated (e.g. threshold out of range)."""


class OntologyMergeError(OntologyError):
    """The same id carries different definitions in the two inputs."""


def normalize_surface(text: str) -> str:
    """Whitespace-collapsed, case-folded surface form."""
    return " ".join(text.split()).casefold()


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityClass:
    id: str
    description: str = ""
    attribute_schema: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RelationshipClass:
    id: str
    description: str = ""
    attribute_schema: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class DictionaryEntry:
    surface_form: str
    canonical_id: str
    kind: str  # "entity" | "relationship"


@dataclass(frozen=True)
class AttrCondition:
    attribute: str
    op: str  # one of PATTERN_OPS
    value: Any  # scalar for eq/ordered ops, tuple of scalars for "in"

    def accepts(self, actual: Any) -> bool:
        if actual is None:
            return False
        if self.op == "eq":
            return actual == self.value
        if self.op == "in":
            return actual in self.value
        try:
            a, b = float(actual), float(self.value)
        except (TypeError, ValueError):
            return False
        if self.op == "lt":
            return a < b
        if self.op == "le":
            return a <= b
        if self.op == "gt":
            return a > b
        return a >= b  # ge


@dataclass(frozen=True)
class NotePattern:
    """Conjunction of predicates over note fields; criteria OR their patterns."""

    action_entity: str | None = None
    action_relationship: str | None = None
    min_intensity: Intensity | None = None
    conditions: tuple[AttrCondition, ...] = ()

    def matches(
        self,
        action: tuple[str, str],
        intensity: Intensity,
        attributes: Mapping[str, Any],
    ) -> bool:
        if self.action_entity is not None and action[0] != self.action_entity:
            return False
        if self.action_relationship is not None and action[1] != self.action_relationship:
            return False
        if self.min_intensity is not None and intensity.rank < self.min_intensity.rank:
            return False
        return all(cond.accepts(attributes.get(cond.attribute)) for cond in self.conditions)


@dataclass(frozen=True)
class CriterionDef:
    index: int  # 1-based, contiguous within the concept
    description: str
    match_patterns: tuple[NotePattern, ...]


@dataclass(frozen=True)
class ConceptDef:
    concept_id: str
    name: str
    criteria: tuple[CriterionDef, ...]
    threshold: int
    min_score_per_criterion: int = 1


@dataclass(frozen=True)
class NoteTemplate:
    template_id: str
    trigger_entity: str
    trigger_relationship: str
    attribute_aggregations: tuple[tuple[str, str], ...] = ()
    min_events: int = 1

    @property
    def trigger(self) -> tuple[str, str]:
        return (self.trigger_entity, self.trigger_relationship)

    def aggregations(self) -> dict[str, str]:
        return dict(self.attribute_aggregations)


@dataclass(frozen=True)
class RefinementPolicy:
    entity_class: str
    relationship_class: str
    attribute: str
    rule: str  # one of RULES
    period: str | None = None  # duration text, required iff rule == "combine"
    tie_policy: str | None = None  # majority only, defaults to mark-conflicted

    @property
    def selector(self) -> tuple[str, str, str]:
        return (self.entity_class, self.relationship_class, self.attribute)


@dataclass(frozen=True)
class ExclusionRule:
    concept_a: str
    concept_b: str
    scope: str = EXCLUSION_SCOPE
    resolution: str = "expire-older"

    @property
    def pair(self) -> tuple[str, str]:
        return (self.concept_a, self.concept_b)

    @property
    def rule_id(self) -> str:
        return f"excl:{self.concept_a}|{self.concept_b}"


@dataclass(frozen=True)
class OntologySpec:
    id: str
    version: str
    entity_classes: tuple[EntityClass, ...] = ()
    relationship_classes: tuple[RelationshipClass, ...] = ()
    dictionary: tuple[DictionaryEntry, ...] = ()
    note_templates: tuple[NoteTemplate, ...] = ()
    concepts: tuple[ConceptDef, ...] = ()
    refinement_policies: tuple[RefinementPolicy, ...] = ()
    exclusion_rules: tuple[ExclusionRule, ...] = ()

    @cached_property
    def criteria_by_action(
        self,
    ) -> dict[tuple[str | None, str | None], list[tuple[int, str, CriterionDef]]]:
        """Each criterion, as (spec-order position, concept id, criterion), under
        the (entity, relationship) of each of its patterns; None is a wildcard."""
        index: dict[tuple[str | None, str | None], list[tuple[int, str, CriterionDef]]] = {}
        position = 0
        for concept in self.concepts:
            for criterion in concept.criteria:
                for pattern in criterion.match_patterns:
                    index.setdefault((pattern.action_entity, pattern.action_relationship), []).append(
                        (position, concept.concept_id, criterion)
                    )
                position += 1
        return index


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning" | "not-checked"
    code: str
    subject: str
    message: str

    def as_dict(self) -> dict[str, str]:
        return {
            "severity": self.severity,
            "code": self.code,
            "subject": self.subject,
            "message": self.message,
        }


@dataclass(frozen=True)
class ValidationReport:
    spec_id: str
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def ok(self) -> bool:
        return not self.errors and not self.warnings


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise OntologyParseError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _string(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise OntologyParseError(f"{context}: expected string, got {type(value).__name__}")
    return value

def _nonempty_id(value: Any, context: str) -> str:
    text = _string(value, context)
    if not text:
        raise OntologyConstraintError(f"{context}: id must be nonempty")
    if not text.isascii():
        raise OntologyConstraintError(f"{context}: ids are ASCII, got {text!r}")
    return text


def _attribute_schema(raw: Any, context: str) -> tuple[tuple[str, str], ...]:
    if raw is None:
        return ()
    if not isinstance(raw, Mapping):
        raise OntologyParseError(f"{context}: attribute_schema must be an object")
    schema = []
    for name, kind in raw.items():
        if kind not in VALUE_KINDS:
            raise OntologyConstraintError(
                f"{context}: attribute {name!r} has unknown value kind {kind!r}"
            )
        schema.append((_nonempty_id(name, context), kind))
    return tuple(sorted(schema))


def _parse_condition(raw: Mapping[str, Any], context: str) -> AttrCondition:
    attribute = _nonempty_id(_require(raw, "attribute", context), context)
    op = _require(raw, "op", context)
    if op not in PATTERN_OPS:
        raise OntologyConstraintError(f"{context}: unknown pattern op {op!r}")
    value = _require(raw, "value", context)
    if op == "in":
        if not isinstance(value, list) or not value:
            raise OntologyParseError(f"{context}: 'in' condition needs a nonempty list")
        value = tuple(value)
    return AttrCondition(attribute=attribute, op=op, value=value)


def _parse_pattern(raw: Mapping[str, Any], context: str) -> NotePattern:
    min_intensity = raw.get("min_intensity")
    if min_intensity is not None:
        try:
            min_intensity = Intensity(min_intensity)
        except ValueError:
            raise OntologyConstraintError(
                f"{context}: unknown intensity {min_intensity!r}"
            ) from None
    conditions = tuple(
        _parse_condition(c, context) for c in raw.get("conditions", ())
    )
    pattern = NotePattern(
        action_entity=raw.get("action_entity"),
        action_relationship=raw.get("action_relationship"),
        min_intensity=min_intensity,
        conditions=conditions,
    )
    if (
        pattern.action_entity is None
        and pattern.action_relationship is None
        and pattern.min_intensity is None
        and not conditions
    ):
        raise OntologyConstraintError(f"{context}: pattern has no predicates")
    return pattern


def parse_ontology(data: Mapping[str, Any]) -> OntologySpec:
    """Build a validated, canonically ordered spec from a parsed document."""
    if not isinstance(data, Mapping):
        raise OntologyParseError("ontology document must be a JSON object")
    spec_id = _nonempty_id(_require(data, "id", "ontology"), "ontology.id")
    version = _string(_require(data, "version", "ontology"), "ontology.version")

    entities = []
    for raw in data.get("entity_classes", ()):
        cid = _nonempty_id(_require(raw, "id", "entity_class"), "entity_class.id")
        entities.append(
            EntityClass(
                id=cid,
                description=_string(raw.get("description", ""), f"entity {cid}"),
                attribute_schema=_attribute_schema(raw.get("attribute_schema"), f"entity {cid}"),
            )
        )
    relationships = []
    for raw in data.get("relationship_classes", ()):
        cid = _nonempty_id(_require(raw, "id", "relationship_class"), "relationship_class.id")
        relationships.append(
            RelationshipClass(
                id=cid,
                description=_string(raw.get("description", ""), f"relationship {cid}"),
                attribute_schema=_attribute_schema(
                    raw.get("attribute_schema"), f"relationship {cid}"
                ),
            )
        )

    entity_ids = {e.id for e in entities}
    relationship_ids = {r.id for r in relationships}
    if len(entity_ids) != len(entities):
        raise OntologyConstraintError("duplicate entity class ids")
    if len(relationship_ids) != len(relationships):
        raise OntologyConstraintError("duplicate relationship class ids")

    dictionary = []
    seen_surfaces: set[tuple[str, str]] = set()
    for raw in data.get("dictionary", ()):
        surface = _string(_require(raw, "surface_form", "dictionary entry"), "surface_form")
        kind = _require(raw, "kind", f"dictionary entry {surface!r}")
        if kind not in ("entity", "relationship"):
            raise OntologyConstraintError(f"dictionary entry {surface!r}: bad kind {kind!r}")
        canonical = _nonempty_id(
            _require(raw, "canonical_id", f"dictionary entry {surface!r}"), "canonical_id"
        )
        normalized = normalize_surface(surface)
        if not normalized:
            raise OntologyConstraintError(
                f"dictionary entry {surface!r} is empty after normalization"
            )
        key = (normalized, kind)
        if key in seen_surfaces:
            raise OntologyConstraintError(
                f"duplicate dictionary surface {normalized!r} for kind {kind}"
            )
        seen_surfaces.add(key)
        pool = entity_ids if kind == "entity" else relationship_ids
        if canonical not in pool:
            raise OntologyReferenceError(
                f"dictionary entry {surface!r} references unknown {kind} class {canonical!r}"
            )
        dictionary.append(
            DictionaryEntry(surface_form=surface, canonical_id=canonical, kind=kind)
        )

    templates = []
    seen_templates: set[str] = set()
    for raw in data.get("note_templates", ()):
        tid = _nonempty_id(_require(raw, "template_id", "note_template"), "template_id")
        if tid in seen_templates:
            raise OntologyConstraintError(f"duplicate template id {tid!r}")
        seen_templates.add(tid)
        trigger = _require(raw, "trigger", f"template {tid}")
        ent = _nonempty_id(_require(trigger, "entity", f"template {tid}"), "trigger.entity")
        rel = _nonempty_id(
            _require(trigger, "relationship", f"template {tid}"), "trigger.relationship"
        )
        if ent not in entity_ids:
            raise OntologyReferenceError(f"template {tid}: unknown entity class {ent!r}")
        if rel not in relationship_ids:
            raise OntologyReferenceError(f"template {tid}: unknown relationship class {rel!r}")
        min_events = raw.get("min_events", 1)
        if not isinstance(min_events, int) or min_events < 1:
            raise OntologyConstraintError(f"template {tid}: min_events must be >= 1")
        known_attrs = dict(
            next(e for e in entities if e.id == ent).attribute_schema
            + next(r for r in relationships if r.id == rel).attribute_schema
        )
        aggregations = []
        for attr, agg in (raw.get("attribute_aggregations") or {}).items():
            if agg not in AGGREGATORS:
                raise OntologyConstraintError(f"template {tid}: unknown aggregator {agg!r}")
            if attr not in known_attrs:
                raise OntologyReferenceError(
                    f"template {tid}: attribute {attr!r} not in trigger class schemas"
                )
            aggregations.append((attr, agg))
        templates.append(
            NoteTemplate(
                template_id=tid,
                trigger_entity=ent,
                trigger_relationship=rel,
                attribute_aggregations=tuple(sorted(aggregations)),
                min_events=min_events,
            )
        )

    concepts = []
    seen_concepts: set[str] = set()
    for raw in data.get("concepts", ()):
        cid = _nonempty_id(_require(raw, "concept_id", "concept"), "concept_id")
        if cid in seen_concepts:
            raise OntologyConstraintError(f"duplicate concept id {cid!r}")
        seen_concepts.add(cid)
        name = _string(raw.get("name", ""), f"concept {cid}")
        criteria = []
        for craw in _require(raw, "criteria", f"concept {cid}"):
            index = _require(craw, "index", f"concept {cid} criterion")
            if not isinstance(index, int):
                raise OntologyParseError(f"concept {cid}: criterion index must be an integer")
            patterns = tuple(
                _parse_pattern(p, f"concept {cid} criterion {index}")
                for p in _require(craw, "match_patterns", f"concept {cid} criterion {index}")
            )
            if not patterns:
                raise OntologyConstraintError(
                    f"concept {cid} criterion {index}: match_patterns must be nonempty"
                )
            criteria.append(
                CriterionDef(
                    index=index,
                    description=_string(craw.get("description", ""), f"criterion {index}"),
                    match_patterns=patterns,
                )
            )
        criteria.sort(key=lambda c: c.index)
        if [c.index for c in criteria] != list(range(1, len(criteria) + 1)):
            raise OntologyConstraintError(
                f"concept {cid}: criterion indices must be contiguous from 1"
            )
        threshold = _require(raw, "threshold", f"concept {cid}")
        if not isinstance(threshold, int) or not 1 <= threshold <= len(criteria):
            raise OntologyConstraintError(
                f"concept {cid}: threshold {threshold!r} out of range 1..{len(criteria)}"
            )
        min_score = raw.get("min_score_per_criterion", 1)
        if not isinstance(min_score, int) or min_score < 1:
            raise OntologyConstraintError(f"concept {cid}: min_score_per_criterion must be >= 1")
        concepts.append(
            ConceptDef(
                concept_id=cid,
                name=name,
                criteria=tuple(criteria),
                threshold=threshold,
                min_score_per_criterion=min_score,
            )
        )

    policies = []
    seen_selectors: set[tuple[str, str, str]] = set()
    for raw in data.get("refinement_policies", ()):
        ent = _nonempty_id(_require(raw, "entity_class", "refinement_policy"), "entity_class")
        rel = _nonempty_id(
            _require(raw, "relationship_class", "refinement_policy"), "relationship_class"
        )
        attr = _nonempty_id(_require(raw, "attribute", "refinement_policy"), "attribute")
        context = f"policy ({ent}, {rel}, {attr})"
        if ent not in entity_ids:
            raise OntologyReferenceError(f"{context}: unknown entity class")
        if rel not in relationship_ids:
            raise OntologyReferenceError(f"{context}: unknown relationship class")
        known_attrs = dict(
            next(e for e in entities if e.id == ent).attribute_schema
            + next(r for r in relationships if r.id == rel).attribute_schema
        )
        if attr not in known_attrs:
            raise OntologyReferenceError(f"{context}: attribute not in class schemas")
        selector = (ent, rel, attr)
        if selector in seen_selectors:
            raise OntologyConstraintError(f"{context}: more than one rule for this selector")
        seen_selectors.add(selector)
        rule = _require(raw, "rule", context)
        if rule not in RULES:
            raise OntologyConstraintError(f"{context}: unknown rule {rule!r}")
        period = raw.get("period")
        if rule == "combine":
            if period is None:
                raise OntologyConstraintError(f"{context}: combine rule requires a period")
            try:
                parse_duration(period)
            except DurationError as exc:
                raise OntologyConstraintError(f"{context}: {exc}") from None
        elif period is not None:
            raise OntologyConstraintError(f"{context}: period is only valid for combine")
        tie_policy = raw.get("tie_policy")
        if rule == "majority":
            tie_policy = tie_policy or "mark-conflicted"
            if tie_policy not in TIE_POLICIES:
                raise OntologyConstraintError(f"{context}: unknown tie_policy {tie_policy!r}")
        elif tie_policy is not None:
            raise OntologyConstraintError(f"{context}: tie_policy is only valid for majority")
        policies.append(
            RefinementPolicy(
                entity_class=ent,
                relationship_class=rel,
                attribute=attr,
                rule=rule,
                period=period,
                tie_policy=tie_policy,
            )
        )

    exclusions: dict[tuple[str, str], ExclusionRule] = {}
    for raw in data.get("exclusion_rules", ()):
        a = _nonempty_id(_require(raw, "concept_a", "exclusion_rule"), "concept_a")
        b = _nonempty_id(_require(raw, "concept_b", "exclusion_rule"), "concept_b")
        if a == b:
            raise OntologyConstraintError(f"exclusion rule {a!r} excludes itself")
        for cid in (a, b):
            if cid not in seen_concepts:
                raise OntologyReferenceError(f"exclusion rule references unknown concept {cid!r}")
        scope = raw.get("scope", EXCLUSION_SCOPE)
        if scope != EXCLUSION_SCOPE:
            raise OntologyConstraintError(f"unknown exclusion scope {scope!r}")
        resolution = raw.get("resolution", "expire-older")
        if resolution not in RESOLUTIONS:
            raise OntologyConstraintError(f"unknown exclusion resolution {resolution!r}")
        # Rules are symmetric: (a, b) and (b, a) are one rule.
        a, b = sorted((a, b))
        rule = ExclusionRule(concept_a=a, concept_b=b, scope=scope, resolution=resolution)
        existing = exclusions.get((a, b))
        if existing is not None and existing != rule:
            raise OntologyConstraintError(
                f"exclusion rule ({a}, {b}) defined twice with different resolutions"
            )
        exclusions[(a, b)] = rule

    # Canonical ordering makes merge commutative and round-trips stable.
    return OntologySpec(
        id=spec_id,
        version=version,
        entity_classes=tuple(sorted(entities, key=lambda e: e.id)),
        relationship_classes=tuple(sorted(relationships, key=lambda r: r.id)),
        dictionary=tuple(
            sorted(dictionary, key=lambda d: (normalize_surface(d.surface_form), d.kind))
        ),
        note_templates=tuple(sorted(templates, key=lambda t: t.template_id)),
        concepts=tuple(sorted(concepts, key=lambda c: c.concept_id)),
        refinement_policies=tuple(sorted(policies, key=lambda p: p.selector)),
        exclusion_rules=tuple(sorted(exclusions.values(), key=lambda x: x.pair)),
    )


def load_ontology(source: str | Path) -> OntologySpec:
    """Load a spec from a JSON file path or a JSON string."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise OntologyParseError(f"cannot read ontology {source}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OntologyParseError(f"malformed ontology document: {exc}") from exc
    return parse_ontology(data)


# ---------------------------------------------------------------------------
# Serialization (round-trip identity with load_ontology)
# ---------------------------------------------------------------------------


def _pattern_dict(pattern: NotePattern) -> dict[str, Any]:
    return {
        "action_entity": pattern.action_entity,
        "action_relationship": pattern.action_relationship,
        "min_intensity": pattern.min_intensity.value if pattern.min_intensity else None,
        "conditions": [
            {
                "attribute": c.attribute,
                "op": c.op,
                "value": list(c.value) if c.op == "in" else c.value,
            }
            for c in pattern.conditions
        ],
    }


def spec_to_dict(spec: OntologySpec) -> dict[str, Any]:
    return {
        "id": spec.id,
        "version": spec.version,
        "entity_classes": [
            {"id": e.id, "description": e.description, "attribute_schema": dict(e.attribute_schema)}
            for e in spec.entity_classes
        ],
        "relationship_classes": [
            {"id": r.id, "description": r.description, "attribute_schema": dict(r.attribute_schema)}
            for r in spec.relationship_classes
        ],
        "dictionary": [
            {"surface_form": d.surface_form, "canonical_id": d.canonical_id, "kind": d.kind}
            for d in spec.dictionary
        ],
        "note_templates": [
            {
                "template_id": t.template_id,
                "trigger": {"entity": t.trigger_entity, "relationship": t.trigger_relationship},
                "attribute_aggregations": dict(t.attribute_aggregations),
                "min_events": t.min_events,
            }
            for t in spec.note_templates
        ],
        "concepts": [
            {
                "concept_id": c.concept_id,
                "name": c.name,
                "criteria": [
                    {
                        "index": cr.index,
                        "description": cr.description,
                        "match_patterns": [_pattern_dict(p) for p in cr.match_patterns],
                    }
                    for cr in c.criteria
                ],
                "threshold": c.threshold,
                "min_score_per_criterion": c.min_score_per_criterion,
            }
            for c in spec.concepts
        ],
        "refinement_policies": [
            {
                "entity_class": p.entity_class,
                "relationship_class": p.relationship_class,
                "attribute": p.attribute,
                "rule": p.rule,
                "period": p.period,
                "tie_policy": p.tie_policy,
            }
            for p in spec.refinement_policies
        ],
        "exclusion_rules": [
            {
                "concept_a": x.concept_a,
                "concept_b": x.concept_b,
                "scope": x.scope,
                "resolution": x.resolution,
            }
            for x in spec.exclusion_rules
        ],
    }


def serialize_ontology(spec: OntologySpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def _numeric(value: Any) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _conditions_satisfiable(conditions: Iterable[AttrCondition]) -> bool:
    """Check the conjunction of conditions on one attribute for consistency."""
    eq_values: list[Any] = []
    in_sets: list[tuple[Any, ...]] = []
    lower: tuple[float, bool] | None = None  # (bound, strict)
    upper: tuple[float, bool] | None = None
    for cond in conditions:
        if cond.op == "eq":
            eq_values.append(cond.value)
        elif cond.op == "in":
            in_sets.append(cond.value)
        else:
            bound = _numeric(cond.value)
            if bound is None:
                return False
            if cond.op in ("gt", "ge"):
                strict = cond.op == "gt"
                if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                    lower = (bound, strict)
            else:
                strict = cond.op == "lt"
                if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                    upper = (bound, strict)

    def in_bounds(value: Any) -> bool:
        num = _numeric(value)
        if lower is None and upper is None:
            return True
        if num is None:
            return False
        if lower is not None and (num < lower[0] or (lower[1] and num == lower[0])):
            return False
        if upper is not None and (num > upper[0] or (upper[1] and num == upper[0])):
            return False
        return True

    if eq_values:
        first = eq_values[0]
        if any(v != first for v in eq_values[1:]):
            return False
        if any(first not in s for s in in_sets):
            return False
        return in_bounds(first)
    if in_sets:
        candidates = [v for v in in_sets[0] if all(v in s for s in in_sets[1:])]
        return any(in_bounds(v) for v in candidates)
    if lower is not None and upper is not None:
        if lower[0] > upper[0]:
            return False
        if lower[0] == upper[0] and (lower[1] or upper[1]):
            return False
    return True


def pattern_satisfiable_by(pattern: NotePattern, template: NoteTemplate) -> bool:
    """Could *template* ever produce a note that *pattern* accepts?"""
    if pattern.action_entity is not None and pattern.action_entity != template.trigger_entity:
        return False
    if (
        pattern.action_relationship is not None
        and pattern.action_relationship != template.trigger_relationship
    ):
        return False
    # min_intensity is always reachable: enough events hit the top bucket.
    produced = set(template.aggregations())
    by_attr: dict[str, list[AttrCondition]] = {}
    for cond in pattern.conditions:
        if cond.attribute not in produced:
            return False
        by_attr.setdefault(cond.attribute, []).append(cond)
    return all(_conditions_satisfiable(conds) for conds in by_attr.values())


def validate_ontology(spec: OntologySpec) -> ValidationReport:
    """Structural checks only; findings are data, never exceptions.

    Checks: completeness (every criterion reachable by some
    template-producible note shape), conciseness (dictionary entries no
    template can consume), clarity (empty descriptions). Cognitive
    adequacy and grounding have no structural test and are reported as
    not-checked.
    """
    findings: list[Finding] = []

    for concept in spec.concepts:
        for criterion in concept.criteria:
            reachable = any(
                pattern_satisfiable_by(pattern, template)
                for pattern in criterion.match_patterns
                for template in spec.note_templates
            )
            if not reachable:
                findings.append(
                    Finding(
                        severity="error",
                        code="completeness",
                        subject=f"{concept.concept_id}#{criterion.index}",
                        message="criterion has no pattern satisfiable by any note template",
                    )
                )

    trigger_classes = {t.trigger_entity for t in spec.note_templates} | {
        t.trigger_relationship for t in spec.note_templates
    }
    for entry in spec.dictionary:
        if entry.canonical_id not in trigger_classes:
            findings.append(
                Finding(
                    severity="warning",
                    code="conciseness",
                    subject=f"{entry.kind}:{entry.surface_form}",
                    message=f"dictionary entry is never referenced by any template "
                    f"(class {entry.canonical_id})",
                )
            )

    for klass in (*spec.entity_classes, *spec.relationship_classes):
        if not klass.description:
            findings.append(
                Finding(
                    severity="warning",
                    code="clarity",
                    subject=klass.id,
                    message="class has an empty description",
                )
            )
    for concept in spec.concepts:
        for criterion in concept.criteria:
            if not criterion.description:
                findings.append(
                    Finding(
                        severity="warning",
                        code="clarity",
                        subject=f"{concept.concept_id}#{criterion.index}",
                        message="criterion has an empty description",
                    )
                )

    findings.append(
        Finding("not-checked", "cognitive-adequacy", spec.id, "no structural test exists")
    )
    findings.append(Finding("not-checked", "grounding", spec.id, "no structural test exists"))
    return ValidationReport(spec_id=spec.id, findings=tuple(findings))


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def _merge_by_key(a_items, b_items, key, what: str) -> list:
    merged = {key(item): item for item in a_items}
    for item in b_items:
        k = key(item)
        existing = merged.get(k)
        if existing is None:
            merged[k] = item
        elif existing != item:
            raise OntologyMergeError(f"{what} {k!r} carries different definitions")
    return [merged[k] for k in sorted(merged)]


def merge_ontologies(a: OntologySpec, b: OntologySpec) -> OntologySpec:
    """Union by id; identical duplicates collapse; conflicts raise."""
    merged = OntologySpec(
        id="+".join(sorted({a.id, b.id})),
        version="+".join(sorted({a.version, b.version})),
        entity_classes=tuple(
            _merge_by_key(a.entity_classes, b.entity_classes, lambda e: e.id, "entity class")
        ),
        relationship_classes=tuple(
            _merge_by_key(
                a.relationship_classes,
                b.relationship_classes,
                lambda r: r.id,
                "relationship class",
            )
        ),
        dictionary=tuple(
            _merge_by_key(
                a.dictionary,
                b.dictionary,
                lambda d: (normalize_surface(d.surface_form), d.kind),
                "dictionary entry",
            )
        ),
        note_templates=tuple(
            _merge_by_key(a.note_templates, b.note_templates, lambda t: t.template_id, "template")
        ),
        concepts=tuple(
            _merge_by_key(a.concepts, b.concepts, lambda c: c.concept_id, "concept")
        ),
        refinement_policies=tuple(
            _merge_by_key(
                a.refinement_policies,
                b.refinement_policies,
                lambda p: p.selector,
                "refinement policy",
            )
        ),
        exclusion_rules=tuple(
            _merge_by_key(a.exclusion_rules, b.exclusion_rules, lambda x: x.pair, "exclusion rule")
        ),
    )
    # Re-validate structurally by rebuilding through the parser.
    return parse_ontology(spec_to_dict(merged))


def merged_or_single(specs: list[OntologySpec]) -> OntologySpec:
    if not specs:
        raise OntologyConstraintError("at least one ontology is required")
    merged = specs[0]
    for other in specs[1:]:
        merged = merge_ontologies(merged, other)
    return merged
