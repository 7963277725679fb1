"""Note validation and reconciliation ahead of card assembly.

Three rules reconcile conflicting or fragmented notes, each at its own
scope: ``max`` within one event (same window, same place), ``majority``
within one window, and ``combine`` across windows into the policy period.
Every application is recorded in an audit trail on the refined note, and
nothing is silently dropped: the multiset of input note ids always equals
the multiset referenced across trails (passthrough notes reference
themselves by keeping their note_id).

Composition order for multi-attribute notes: same-event conflicts on
max- and combine-policy fields collapse by maximum first (the overlap
pre-resolution combine needs), same-window conflicts on majority fields
resolve by mode, then combine folds runs of notes into periods anchored
at each run's earliest note and sums. A conflicting field with no policy
is a configuration error and fails fast.

Partitions are formed per batch. Evidence that arrives in a later run
(late windows) is refined and stored; it reaches a card whose slot is
still open, and a committed or expired card takes no later evidence.

Each note is stored once. A passthrough refined note's log line names its
note by id, and the note is read back from the note log; a merged note
is stored nowhere else, so its refined line holds it whole. No refined
line stores the ``schema_version`` of :func:`refined_to_dict`, which no
reader reads; a merged line's note keeps its own, as every stored note
does. A line that holds one reads as before. The store indexes the log as
the other keyed logs are indexed: each line's id is its last
``"refined_id":"`` key, and the open decodes no line to find it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .clock import format_instant
from .durations import parse_duration
from .encoding import Log, append_jsonl, content_hash, read_jsonl_at, record_id, scan_ids
from .notes import Note, NoteStore, new_note, note_from_dict, note_to_dict, NOTE_SCHEMA_VERSION
from .ontology import OntologySpec, RefinementPolicy
from .organize import normalize_place, window_index


class Conflicted(Enum):
    """First-class tie marker that flows through to the card reasoner."""

    CONFLICTED = "conflicted"

    def __str__(self) -> str:  # serialized form inside attribute values
        return self.value


CONFLICTED = Conflicted.CONFLICTED


class RefineError(Exception):
    """Bad rule input: empty values, mixed units, overlapping ranges."""


class RefineConfigError(Exception):
    """A conflicting field has no policy; the ontology must decide."""


@dataclass(frozen=True)
class RuleApplication:
    rule: str  # "max" | "combine" | "majority" | rule used
    input_note_ids: tuple[str, ...]
    field: str
    input_values: tuple[Any, ...]
    output_value: Any

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "input_note_ids": list(self.input_note_ids),
            "field": self.field,
            "input_values": list(self.input_values),
            "output_value": self.output_value,
        }


@dataclass(frozen=True)
class RefinedNote:
    note: Note
    applied_rules: tuple[RuleApplication, ...]
    refined_id: str
    passthrough: bool

    @property
    def subject(self) -> str:
        return self.note.subject

    @property
    def action(self) -> tuple[str, str]:
        return self.note.action

    def input_note_ids(self) -> tuple[str, ...]:
        """Every source note this refined note accounts for: a merged note
        its rules' inputs, once each."""
        if self.passthrough:
            return (self.note.note_id,)
        return tuple(dict.fromkeys(i for a in self.applied_rules for i in a.input_note_ids))


@dataclass(frozen=True)
class NoteValidation:
    accepted: bool
    reason: str | None = None


# ---------------------------------------------------------------------------
# The three rules
# ---------------------------------------------------------------------------


def apply_max_rule(
    values: Sequence[float], units: Sequence[str] | None = None
) -> float:
    """Maximum of same-unit amounts; rejects empty input and mixed units."""
    if not values:
        raise RefineError("max rule needs at least one value")
    if units is not None:
        if len(units) != len(values):
            raise RefineError("units must align with values")
        if len(set(units)) > 1:
            raise RefineError(f"mixed units: {sorted(set(units))}")
    return max(values)


@dataclass(frozen=True)
class CombineResult:
    value: float
    covered: timedelta
    gap: timedelta  # uncovered part of the target period; allowed, but reported


def apply_combine_rule(
    notes: Sequence[Note], attribute: str, target_period: timedelta
) -> CombineResult:
    """Sum an attribute over pairwise-disjoint note periods."""
    if not notes:
        raise RefineError("combine rule needs at least one note")
    spans = []
    total = 0.0
    for note in notes:
        value = note.attribute_map().get(attribute)
        if value is None or isinstance(value, str):
            raise RefineError(f"note {note.note_id} lacks numeric attribute {attribute!r}")
        start, end = note.time_range
        if start is None or end is None:
            raise RefineError(f"note {note.note_id} is undated; combine needs time ranges")
        spans.append((start, end))
        total += float(value)
    spans.sort()
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        # Half-open ranges; zero-length ranges at the same instant do overlap
        # in the reporting sense only when both claim the same instant span.
        if s2 < e1 or (s1 == s2 and e1 == e2 and len(notes) > 1 and s1 == e1):
            raise RefineError(
                "overlapping time ranges; resolve overlap by max or majority first"
            )
    covered = sum(((e - s) for s, e in spans), timedelta(0))
    if covered > target_period:
        raise RefineError("union of note periods exceeds the target period")
    return CombineResult(value=total, covered=covered, gap=target_period - covered)


def apply_majority_rule(
    values: Sequence[Any],
    tie_policy: str = "mark-conflicted",
    times: Sequence[datetime | None] | None = None,
) -> Any:
    """Mode of categorical values; ties resolve per the policy."""
    if not values:
        raise RefineError("majority rule needs at least one value")
    counts: dict[Any, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    best = max(counts.values())
    winners = [v for v, c in counts.items() if c == best]
    if len(winners) == 1:
        return winners[0]
    if tie_policy == "mark-conflicted":
        return CONFLICTED
    if times is None or len(times) != len(values):
        raise RefineError("first-by-time tie policy needs a time per value")

    def earliest(value: Any) -> tuple:
        stamps = [
            format_instant(t)
            for v, t in zip(values, times)
            if v == value and t is not None
        ]
        return (min(stamps) if stamps else "~", str(value))

    return min(winners, key=earliest)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_note(
    note: Note,
    processed_ids: set[str],
    resolve_chunk=None,
) -> NoteValidation:
    """Format, novelty, and provenance gate; rejection is a value."""
    if note.schema_version != NOTE_SCHEMA_VERSION:
        return NoteValidation(False, f"unknown schema_version {note.schema_version}")
    if note.note_id in processed_ids:
        return NoteValidation(False, "duplicate")
    if not note.provenance:
        return NoteValidation(False, "empty provenance")
    if resolve_chunk is not None:
        for chunk_id in note.provenance:
            if not resolve_chunk(chunk_id):
                return NoteValidation(False, f"dangling provenance {chunk_id}")
    return NoteValidation(True)


# ---------------------------------------------------------------------------
# Batch refinement
# ---------------------------------------------------------------------------


def _window_key(note: Note, window_length: timedelta) -> int | None:
    start = note.time_range[0]
    return window_index(start, window_length) if start else None


def _merge_notes(notes: list[Note], resolved: dict[str, Any]) -> Note:
    """One note carrying the resolved attributes and merged envelope."""
    attrs: dict[str, Any] = {}
    for note in notes:
        for key, value in note.attributes:
            attrs.setdefault(key, value)
    attrs.update(resolved)
    starts = [n.time_range[0] for n in notes if n.time_range[0]]
    ends = [n.time_range[1] for n in notes if n.time_range[1]]
    places = {n.place for n in notes}
    return new_note(
        notes[0].subject,
        notes[0].action,
        ((k, str(v) if isinstance(v, Conflicted) else v) for k, v in attrs.items()),
        max((n.intensity for n in notes), key=lambda i: i.rank),
        min((n.confidence for n in notes), key=lambda c: c.rank),
        (min(starts) if starts else None, max(ends) if ends else None),
        {cid for n in notes for cid in n.provenance},
        places.pop() if len(places) == 1 else None,
    )


def _conflicting_attributes(notes: list[Note]) -> dict[str, list[Any]]:
    """Attributes whose values differ across the notes that carry them."""
    by_attr: dict[str, list[Any]] = {}
    for note in notes:
        for key, value in note.attributes:
            by_attr.setdefault(key, []).append(value)
    return {k: v for k, v in by_attr.items() if len(set(map(str, v))) > 1}


def _resolve_bucket(
    notes: list[Note],
    policies: dict[str, RefinementPolicy],
    stage: str,
) -> tuple[Note, list[RuleApplication]]:
    """Merge one scope bucket, applying per-attribute rules."""
    conflicts = _conflicting_attributes(notes)
    resolved: dict[str, Any] = {}
    trail: list[RuleApplication] = []
    note_ids = tuple(n.note_id for n in notes)
    for attr in sorted(conflicts):
        values = conflicts[attr]
        policy = policies.get(attr)
        if policy is None:
            raise RefineConfigError(
                f"field {attr!r} conflicts in {stage} scope but has no policy"
            )
        if policy.rule in ("max", "combine"):
            numeric = [float(v) for v in values]
            output: Any = apply_max_rule(numeric)
            rule = "max"
        else:
            times = [n.time_range[0] for n in notes for k, v in n.attributes if k == attr]
            output = apply_majority_rule(
                values, policy.tie_policy or "mark-conflicted", times
            )
            rule = "majority"
        resolved[attr] = output
        trail.append(
            RuleApplication(
                rule=rule,
                input_note_ids=note_ids,
                field=attr,
                input_values=tuple(values),
                output_value=str(output) if isinstance(output, Conflicted) else output,
            )
        )
    return _merge_notes(notes, resolved), trail


def refine_notes(
    batch: Sequence[Note],
    spec: OntologySpec,
    window_length: timedelta | None = None,
) -> list[RefinedNote]:
    """Reconcile a validated batch; order of the batch never matters."""
    window_length = window_length or timedelta(days=7)
    by_action: dict[tuple[str, tuple[str, str]], list[Note]] = {}
    for note in sorted(batch, key=lambda n: n.note_id):
        by_action.setdefault((note.subject, note.action), []).append(note)

    refined: list[RefinedNote] = []
    for (subject, action) in sorted(by_action):
        notes = by_action[(subject, action)]
        policies = spec.policies_by_action.get(action, {})
        combine_attrs = sorted(a for a, p in policies.items() if p.rule == "combine")
        if len(notes) == 1 and not combine_attrs:
            # Only combine changes a lone note; every other stage passes it as it is.
            refined.append(new_refined(notes[0], ()))
            continue
        trails: dict[str, list[RuleApplication]] = {}

        # Stage 1: same event (window, place) reconciliation.
        stage1: list[Note] = []
        buckets: dict[tuple, list[Note]] = {}
        for note in notes:
            key = (_window_key(note, window_length), normalize_place(note.place))
            buckets.setdefault(key, []).append(note)
        for key in sorted(buckets, key=str):
            members = buckets[key]
            if len(members) == 1 or not _conflicting_attributes(members):
                stage1.extend(members)
                continue
            merged, trail = _resolve_bucket(members, policies, "event")
            trails[merged.note_id] = trail
            stage1.append(merged)

        # Stage 2: same window across places, majority fields only.
        stage2: list[Note] = []
        buckets2: dict[Any, list[Note]] = {}
        for note in stage1:
            buckets2.setdefault(_window_key(note, window_length), []).append(note)
        for key in sorted(buckets2, key=str):
            members = buckets2[key]
            conflicts = _conflicting_attributes(members)
            majority_only = conflicts and all(
                policies.get(attr) is not None and policies[attr].rule == "majority"
                for attr in conflicts
            )
            if len(members) == 1 or not majority_only:
                stage2.extend(members)
                continue
            merged, trail = _resolve_bucket(members, policies, "window")
            inherited = [t for m in members for t in trails.pop(m.note_id, [])]
            trails[merged.note_id] = inherited + trail
            stage2.append(merged)

        # Stage 3: combine across windows into policy periods. Periods are
        # anchored at the earliest note of each run, not at the epoch, so a
        # month's worth of weekly notes folds into one note wherever the
        # weeks happen to fall.
        stage3: list[Note] = []
        if combine_attrs:
            period = parse_duration(policies[combine_attrs[0]].period or "30d")
            untouched: list[Note] = []
            combinable: list[Note] = []
            for note in stage2:
                has_combine = any(a in note.attribute_map() for a in combine_attrs)
                if not has_combine or note.time_range[0] is None:
                    untouched.append(note)
                else:
                    combinable.append(note)
            combinable.sort(key=lambda n: (n.time_range[0], n.note_id))
            runs: list[list[Note]] = []
            for note in combinable:
                if runs and note.time_range[0] < runs[-1][0].time_range[0] + period:
                    runs[-1].append(note)
                else:
                    runs.append([note])
            for members in runs:
                resolved: dict[str, Any] = {}
                trail: list[RuleApplication] = []
                for attr in combine_attrs:
                    carriers = [m for m in members if attr in m.attribute_map()]
                    if not carriers:
                        continue
                    attr_period = parse_duration(policies[attr].period or "30d")
                    outcome = apply_combine_rule(carriers, attr, attr_period)
                    resolved[attr] = outcome.value
                    trail.append(
                        RuleApplication(
                            rule="combine",
                            input_note_ids=tuple(m.note_id for m in carriers),
                            field=attr,
                            input_values=tuple(
                                m.attribute_map()[attr] for m in carriers
                            ),
                            output_value=outcome.value,
                        )
                    )
                merged = _merge_notes(members, resolved)
                inherited = [t for m in members for t in trails.pop(m.note_id, [])]
                trails[merged.note_id] = inherited + trail
                stage3.append(merged)
            stage3.extend(untouched)
        else:
            stage3 = stage2

        for note in stage3:
            refined.append(new_refined(note, tuple(trails.get(note.note_id, ()))))

    refined.sort(key=lambda r: (r.subject, r.action, r.refined_id))
    return refined


# ---------------------------------------------------------------------------
# Refined note store
# ---------------------------------------------------------------------------


def new_refined(note: Note, applied_rules: tuple[RuleApplication, ...]) -> RefinedNote:
    """The one way to make a refined note: its id is a hash over the fields
    :func:`refined_to_dict` stores but ``refined_id`` and ``schema_version``."""
    passthrough = not applied_rules
    fields = {
        "note": note_to_dict(note),
        "applied_rules": [a.as_dict() for a in applied_rules],
        "passthrough": passthrough,
    }
    return RefinedNote(note, applied_rules, "rn-" + content_hash(fields), passthrough)


def refined_to_dict(refined: RefinedNote) -> dict:
    return {
        "refined_id": refined.refined_id,
        "note": note_to_dict(refined.note),
        "applied_rules": [a.as_dict() for a in refined.applied_rules],
        "passthrough": refined.passthrough,
        "schema_version": NOTE_SCHEMA_VERSION,
    }


def refined_from_dict(raw: dict, note: Note | None = None) -> RefinedNote:
    """The refined note of a :func:`refined_to_dict` record, or of a stored
    passthrough line given its *note*."""
    return RefinedNote(
        note=note_from_dict(raw["note"]) if note is None else note,
        applied_rules=tuple(
            RuleApplication(
                rule=a["rule"],
                input_note_ids=tuple(a["input_note_ids"]),
                field=a["field"],
                input_values=tuple(a["input_values"]),
                output_value=a["output_value"],
            )
            for a in raw.get("applied_rules", ())
        ),
        refined_id=raw["refined_id"],
        passthrough=raw.get("passthrough", False),
    )


def _stored_line(refined: RefinedNote) -> dict:
    """The log line of a refined note, :func:`refined_to_dict` less its
    unread ``schema_version``. A passthrough line names its note, which the
    note log holds; a merged line holds its merged note, stored nowhere else."""
    if not refined.passthrough:
        line = refined_to_dict(refined)
        del line["schema_version"]
        return line
    return {
        "applied_rules": [],
        "note_id": refined.note.note_id,
        "passthrough": True,
        "refined_id": refined.refined_id,
    }


def _refined_id(raw: dict) -> str:
    """A refined line's id, without building it; a passthrough line that
    holds its note is of a format this store no longer reads."""
    if raw.get("passthrough", False) and "note" in raw:
        raise ValueError("a passthrough line that holds its note predates this store format; "
                         "build a new store")
    return record_id(raw, "refined_id")


# At each line break, the id of the refined line that follows, if one does:
# the last "refined_id" key in it, the top-level one, since no key sorted
# after refined_id holds an object.
_REFINED_ID = re.compile(r'\n(?:[^\n]*"refined_id":"([^"]*)"|)')


class DanglingNote(LookupError):
    """A passthrough refined line names a note that the note store does not hold.
    It stands in for the record of that line, so it carries the line's id."""

    def __init__(self, refined_id: str, note_id: str):
        super().__init__(f"refined {refined_id} -> missing note {note_id}")
        self.refined_id = refined_id
        self.note_id = note_id


class RefinedNoteStore:
    """Append-only refined-note log as committed (*log*; the whole file
    without one), indexed by refined_id at open; records are decoded from
    their lines on demand, a passthrough line's note from *notes*, the
    store of the note log. The open decodes no line the digest vouches for.

    Opened *append_only*, as ``run`` opens it, it reads no refined note:
    the open checks the log against its digest and indexes nothing, and
    get, membership and read_all raise. A log without a digest, or whose
    bytes differ from it, is decoded line by line in either mode, so a line
    in a format this store no longer reads exits as it does for a reader.
    ``run`` refines only notes of chunks released for the first time, so
    no refined note it appends is committed already.
    """

    def __init__(
        self, root: Path, notes: NoteStore, log: Log | None = None, append_only: bool = False
    ):
        self.root = Path(root)
        self._path = self.root / "refined.jsonl"
        self._notes = notes
        self._log = log or Log(self._path)
        self._lines: dict[str, int] | None = None  # refined_id -> the offset of its line
        self._appended: set[str] = set()  # the refined ids appended here, when append only
        self._processed: set[str] = set()  # the note ids the lines appended here account for
        if append_only:
            self._log.check(_refined_id)
        else:
            ids, offsets = self._log.index(partial(scan_ids, _REFINED_ID), _refined_id)
            self._lines = dict(zip(ids, offsets))

    def _index(self) -> dict[str, int]:
        if self._lines is None:
            raise RuntimeError(f"{self._path}: opened to append only, so it reads no refined note")
        return self._lines

    def __len__(self) -> int:
        return self._log.lines + len(self._appended) if self._lines is None else len(self._lines)

    def __contains__(self, refined_id: str) -> bool:
        return refined_id in self._index()

    @staticmethod
    def _record(
        note_of: Callable[[str], Note | None], raw: dict
    ) -> RefinedNote | DanglingNote:
        """The record of a line, a passthrough's note found by *note_of*."""
        if not raw.get("passthrough", False):
            return refined_from_dict(raw)
        note = note_of(record_id(raw, "note_id"))
        if note is None:
            return DanglingNote(raw["refined_id"], raw["note_id"])
        return refined_from_dict(raw, note)

    def get(self, refined_id: str) -> RefinedNote | None:
        """The refined note of *refined_id*, None if no line holds it; a
        passthrough line whose note is missing raises :class:`DanglingNote`."""
        offset = self._index().get(refined_id)
        if offset is None:
            return None
        [record] = read_jsonl_at(
            self._path, [(refined_id, offset)], "refined_id", partial(self._record, self._notes.get)
        )
        if isinstance(record, DanglingNote):
            raise record
        return record

    def processed_note_ids(self) -> set[str]:
        """Source note ids accounted for by the refinements appended here,
        which are all ``run`` refines; committed lines are not read for them."""
        return set(self._processed)

    def add_all(self, records: Iterable[RefinedNote]) -> int:
        """Append the records not stored yet, each id once; returns how many.
        Append only, it skips only the ids it appended before."""
        held = self._appended if self._lines is None else self._lines
        new = {r.refined_id: r for r in records if r.refined_id not in held}
        if not new:
            return 0
        offsets = append_jsonl(self._path, map(_stored_line, new.values()))
        if self._lines is None:
            self._appended.update(new)
        else:
            self._lines.update(zip(new, offsets))
        self._processed.update(*(record.input_note_ids() for record in new.values()))
        return len(new)

    def read_all(self) -> list[RefinedNote | DanglingNote]:
        """Every stored refined note, in log order, read in one pass over each
        log; a passthrough line whose note is missing gives its :class:`DanglingNote`."""
        lines = self._index().items()
        notes = {note.note_id: note for note in self._notes.list()}
        build = partial(self._record, notes.get)
        return list(read_jsonl_at(self._path, lines, "refined_id", build))
