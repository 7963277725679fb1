from __future__ import annotations

import json
import random
from dataclasses import replace
from datetime import timedelta

import pytest

from notecards import organize
from notecards.annotate import AnnotatedChunk, Annotation
from notecards.clock import format_instant
from notecards.encoding import StoreFormatError, append_jsonl
from notecards.organize import (
    ChunkGroup,
    OrganizerStore,
    assign_windows,
    dedupe_group,
    normalize_place,
    ready_for_release,
    window_bounds,
    window_index,
)

from conftest import utc

WEEK = timedelta(days=7)
DAY = timedelta(days=1)


def chunk(
    chunk_id: str,
    subject: str = "steve",
    time=None,
    place=None,
    signature: tuple[tuple[str, str], ...] = (("alcohol", "entity"), ("consume", "relationship")),
    doc_id: str | None = None,
    sentence_index: int = 0,
) -> AnnotatedChunk:
    annotations = tuple(
        Annotation(
            start=i * 10,
            end=i * 10 + 4,
            surface=canonical[:4],
            canonical_id=canonical,
            kind=kind,
            token_start=i,
            token_end=i + 1,
        )
        for i, (canonical, kind) in enumerate(signature)
    )
    return AnnotatedChunk(
        chunk_id=chunk_id,
        doc_id=doc_id or chunk_id.split("#")[0],
        sentence_index=sentence_index,
        annotations=annotations,
        subject=subject,
        time=time,
        place=place,
        provenance=(chunk_id,),
    )


# ---------------------------------------------------------------------------
# Window assignment
# ---------------------------------------------------------------------------


def test_same_epoch_week_groups_together():
    # 2020-01-02 starts epoch week 2609; the 6th is inside the same week.
    chunks = [
        chunk("d1#0", time=utc(2020, 1, 2, 12)),
        chunk("d2#0", time=utc(2020, 1, 6, 12)),
    ]
    groups = assign_windows(chunks, WEEK)
    assert len(groups) == 1
    assert len(groups[0].chunks) == 2


def test_empty_input_empty_output():
    assert assign_windows([], WEEK) == []


def test_boundary_instant_goes_to_later_window():
    index = window_index(utc(2020, 1, 2), WEEK)
    start, end = window_bounds(index, WEEK)
    boundary = chunk("d1#0", time=end)
    inside = chunk("d2#0", time=end - DAY)
    groups = assign_windows([boundary, inside], WEEK)
    assert len(groups) == 2
    assert groups[0].window == (start, end)
    assert groups[1].window == (end, end + WEEK)


def test_every_dated_chunk_in_exactly_one_group():
    rng = random.Random(99)
    chunks = [
        chunk(
            f"d{i}#0",
            subject=rng.choice(["a", "b"]),
            time=utc(2020, 1, 1) + timedelta(hours=rng.randrange(0, 24 * 90)),
            place=rng.choice([None, "bar", "office"]),
        )
        for i in range(60)
    ]
    groups = assign_windows(chunks, WEEK)
    seen = [c.chunk_id for g in groups for c in g.chunks]
    assert sorted(seen) == sorted(c.chunk_id for c in chunks)
    for group in groups:
        for member in group.chunks:
            assert member.subject == group.subject
            assert group.window is not None
            assert group.window[0] <= member.time < group.window[1]


def test_undated_chunks_form_catch_all_per_subject():
    chunks = [
        chunk("d1#0", subject="a"),
        chunk("d2#0", subject="a"),
        chunk("d3#0", subject="b"),
    ]
    groups = assign_windows(chunks, WEEK)
    assert len(groups) == 2
    assert all(g.window is None for g in groups)


def test_place_normalization():
    assert normalize_place("  The   Party ") == "the party"
    assert normalize_place(None) == "*"
    groups = assign_windows(
        [
            chunk("d1#0", time=utc(2020, 1, 2), place="The Party"),
            chunk("d2#0", time=utc(2020, 1, 2), place="the party"),
            chunk("d3#0", time=utc(2020, 1, 2), place="office"),
        ],
        WEEK,
    )
    assert len(groups) == 2


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------


def group_of(chunks) -> ChunkGroup:
    groups = assign_windows(chunks, WEEK)
    assert len(groups) == 1
    return groups[0]


def test_duplicates_within_epsilon_collapse():
    base = utc(2020, 1, 2, 12)
    group = group_of([chunk("d1#0", time=base), chunk("d2#0", time=base + timedelta(hours=1))])
    deduped = dedupe_group(group, timedelta(hours=24))
    assert len(deduped.chunks) == 1
    survivor = deduped.chunks[0]
    assert survivor.chunk_id == "d1#0"  # earliest survives
    assert sorted(survivor.provenance) == ["d1#0", "d2#0"]


def test_outside_epsilon_both_kept():
    base = utc(2020, 1, 2, 0)
    group = group_of([chunk("d1#0", time=base), chunk("d2#0", time=base + timedelta(hours=48))])
    deduped = dedupe_group(group, timedelta(hours=24))
    assert len(deduped.chunks) == 2


def test_different_annotations_both_kept():
    base = utc(2020, 1, 2, 12)
    group = group_of(
        [
            chunk("d1#0", time=base),
            chunk(
                "d2#0",
                time=base + timedelta(hours=1),
                signature=(("alcohol", "entity"),),
            ),
        ]
    )
    deduped = dedupe_group(group, timedelta(hours=24))
    assert len(deduped.chunks) == 2


def test_dedupe_idempotent_and_order_independent():
    rng = random.Random(5)
    base = utc(2020, 1, 2)
    signatures = [
        (("alcohol", "entity"), ("consume", "relationship")),
        (("alcohol", "entity"),),
    ]
    chunks = [
        chunk(
            f"d{i}#0",
            time=base + timedelta(hours=rng.randrange(0, 96)),
            signature=rng.choice(signatures),
        )
        for i in range(12)
    ]
    group = group_of(chunks)
    once = dedupe_group(group, timedelta(hours=24))
    twice = dedupe_group(once, timedelta(hours=24))
    assert [c.chunk_id for c in twice.chunks] == [c.chunk_id for c in once.chunks]
    for _ in range(5):
        shuffled = list(chunks)
        rng.shuffle(shuffled)
        regrouped = ChunkGroup(
            subject=group.subject,
            window=group.window,
            place_key=group.place_key,
            chunks=tuple(shuffled),
        )
        again = dedupe_group(regrouped, timedelta(hours=24))
        assert {c.chunk_id for c in again.chunks} == {c.chunk_id for c in once.chunks}


def pairwise_dedupe(group: ChunkGroup, epsilon: timedelta) -> ChunkGroup:
    """Deduplication as first written: every chunk against every survivor."""
    order = lambda c: (format_instant(c.time) if c.time else "", c.doc_id, c.sentence_index)  # noqa: E731
    survivors = []
    for candidate in sorted(group.chunks, key=order):
        for i, survivor in enumerate(survivors):
            if survivor.annotation_signature() != candidate.annotation_signature():
                continue
            if survivor.time is None or candidate.time is None:
                close_enough = survivor.time is None and candidate.time is None
            else:
                close_enough = abs(candidate.time - survivor.time) <= epsilon
            if close_enough:
                survivors[i] = replace(
                    survivor, provenance=survivor.provenance + candidate.provenance
                )
                break
        else:
            survivors.append(candidate)
    return replace(group, chunks=tuple(survivors))


def test_bucketed_dedupe_equals_the_pairwise_oracle():
    rng = random.Random(31)
    epsilon = timedelta(hours=24)
    base = utc(2020, 1, 2)
    # Offsets from base: exactly epsilon apart, just past it, and sub-second
    # stamps whose text sorts before the whole second they follow.
    offsets = [
        timedelta(0),
        epsilon,
        epsilon + timedelta(microseconds=1),
        2 * epsilon,
        2 * epsilon + timedelta(seconds=1),
        timedelta(seconds=5),
        timedelta(seconds=5, microseconds=500000),
        timedelta(hours=rng.randrange(1, 72)),
    ]
    signatures = [
        (("alcohol", "entity"), ("consume", "relationship")),
        (("consume", "relationship"), ("alcohol", "entity")),  # same multiset, other order
        (("alcohol", "entity"),),
        (("alcohol", "entity"), ("alcohol", "entity")),
        (),
    ]
    for trial in range(300):
        undated = rng.random() < 0.2
        chunks = []
        for i in range(rng.randint(0, 14)):
            if undated or rng.random() < 0.1:
                when = None
            else:
                when = base + rng.choice(offsets) + rng.choice([timedelta(0), epsilon])
            chunks.append(
                chunk(
                    f"d{rng.randrange(6)}-{i}#{rng.randrange(3)}",
                    time=when,
                    signature=rng.choice(signatures),
                    sentence_index=rng.randrange(3),
                )
            )
        rng.shuffle(chunks)
        group = ChunkGroup(subject="steve", window=None, place_key="*", chunks=tuple(chunks))
        assert dedupe_group(group, epsilon) == pairwise_dedupe(group, epsilon), trial


# ---------------------------------------------------------------------------
# Watermark release
# ---------------------------------------------------------------------------


def test_release_requires_watermark_to_pass():
    index = window_index(utc(2020, 1, 2), WEEK)
    start, end = window_bounds(index, WEEK)
    group = group_of([chunk("d1#0", time=start + DAY)])
    assert ready_for_release(group, now=end + timedelta(days=3), watermark=timedelta(days=2))
    assert not ready_for_release(group, now=end + DAY, watermark=timedelta(days=2))


def test_store_releases_once_and_flags_late_chunks(tmp_path):
    store = OrganizerStore(tmp_path, window_length=WEEK, epsilon=timedelta(hours=24))
    index = window_index(utc(2020, 1, 2), WEEK)
    start, end = window_bounds(index, WEEK)
    store.add_chunks([chunk("d1#0", time=start + DAY)])

    held = store.close_window(now=end + DAY)  # watermark (2d) not yet passed
    assert held == []

    released = store.close_window(now=end + timedelta(days=3))
    assert len(released) == 1
    assert not released[0].late

    # Same close again: nothing new.
    assert store.close_window(now=end + timedelta(days=3)) == []

    # A late chunk for the same key surfaces as a supplemental late group.
    store.add_chunks(
        [chunk("d9#0", time=start + 2 * DAY, signature=(("alcohol", "entity"),))]
    )
    late = store.close_window(now=end + timedelta(days=4))
    assert len(late) == 1
    assert late[0].late
    assert [c.chunk_id for c in late[0].chunks] == ["d9#0"]


def test_store_add_is_idempotent(tmp_path):
    store = OrganizerStore(tmp_path)
    first = store.add_chunks([chunk("d1#0", time=utc(2020, 1, 2))])
    second = store.add_chunks([chunk("d1#0", time=utc(2020, 1, 2))])
    assert (first, second) == (1, 0)
    assert len(store) == 1


def as_stored(held: AnnotatedChunk) -> AnnotatedChunk:
    """*held* as its line reads back: its annotations only as their signature."""
    return replace(held, annotations=None, signature=held.annotation_signature())


def test_store_reload_sees_same_chunks(tmp_path):
    store = OrganizerStore(tmp_path)
    store.add_chunks([chunk("d1#0", time=utc(2020, 1, 2))])
    fresh = OrganizerStore(tmp_path)
    assert fresh.get_chunk("d1#0") == as_stored(store.get_chunk("d1#0"))


def test_a_chunk_line_holds_what_its_id_and_annotation_do_not_say_and_reads_back(tmp_path):
    appended = [
        replace(chunk("doc#with#hash#12", time=utc(2020, 1, 2, 3, 4, 5), place="Paris",
                      doc_id="doc#with#hash", sentence_index=12), quantities=((1, 2.5),)),
        chunk("d2#0"),
    ]
    store = OrganizerStore(tmp_path)
    store.add_chunks(appended)
    lines = (tmp_path / "chunks.jsonl").read_text(encoding="ascii").splitlines()
    assert [sorted(json.loads(line)) for line in lines] == [
        ["chunk_id", "place", "quantities", "signature", "subject", "time"]
    ] * 2
    assert json.loads(lines[0])["chunk_id"] == "doc#with#hash#12"
    assert json.loads(lines[0])["signature"] == [["alcohol", "entity"], ["consume", "relationship"]]
    reopened = OrganizerStore(tmp_path)
    assert reopened.chunks() == [as_stored(c) for c in appended]
    assert [reopened.get_chunk(c.chunk_id) for c in appended] == [as_stored(c) for c in appended]
    assert reopened.chunks()[0].doc_id == "doc#with#hash"
    assert [c.annotation_signature() for c in reopened.chunks()] == [
        c.annotation_signature() for c in appended
    ]


def test_a_chunk_in_an_earlier_line_format_reads_as_it_holds(tmp_path):
    # Lines once held the annotations whole, and before that the document,
    # sentence, provenance and a schema version too.
    held = chunk("d1#3", time=utc(2020, 1, 2), sentence_index=3)
    whole = organize.chunk_to_dict(held)
    shorter = {k: v for k, v in whole.items()
               if k not in ("doc_id", "sentence_index", "provenance", "schema_version")}
    append_jsonl(tmp_path / "chunks.jsonl", [whole, {**shorter, "chunk_id": "d1#4"}])
    assert OrganizerStore(tmp_path).chunks() == [held, replace(held, chunk_id="d1#4",
                                                              sentence_index=4, provenance=("d1#4",))]


@pytest.mark.parametrize("bad", [
    chunk("d1#0", doc_id="d2"),  # names another document
    chunk("d1#0", sentence_index=1),  # names another sentence
    chunk("d1", doc_id="d1"),  # names no sentence
    chunk("d1#01", doc_id="d1", sentence_index=1),  # names the sentence in another form
    chunk("d1#-1", doc_id="d1", sentence_index=-1),  # a negative sentence, which no id names
    replace(chunk("d1#0"), provenance=("d1#0", "d2#0")),  # merged by dedupe
    replace(chunk("d1#0"), provenance=()),
], ids=["other-document", "other-sentence", "no-sentence", "padded-sentence",
        "negative-sentence", "merged", "none"])
def test_a_chunk_its_line_cannot_rebuild_is_refused_before_anything_is_appended(tmp_path, bad):
    store = OrganizerStore(tmp_path)
    store.add_chunks([chunk("d0#0")])
    before = (tmp_path / "chunks.jsonl").read_bytes()
    with pytest.raises(ValueError):
        store.add_chunks([chunk("d3#0"), bad])
    assert (tmp_path / "chunks.jsonl").read_bytes() == before
    assert len(store) == 1 and not store.has_chunk("d3#0")


@pytest.mark.parametrize("chunk_id", ["d1", "d1#", "d1#x", "d1#01", "d1#+1", "d1# 1"])
def test_a_stored_chunk_id_that_names_no_sentence_does_not_read(tmp_path, chunk_id):
    line = {**organize._stored_chunk(chunk("d1#0")), "chunk_id": chunk_id}
    append_jsonl(tmp_path / "chunks.jsonl", [line])
    with pytest.raises(StoreFormatError, match="does not name a document and sentence"):
        OrganizerStore(tmp_path)


def test_undated_groups_release_at_any_close(tmp_path):
    store = OrganizerStore(tmp_path)
    store.add_chunks([chunk("d1#0")])
    released = store.close_window(now=utc(2020, 1, 1))
    assert len(released) == 1
    assert released[0].window is None


def test_released_log_replays_every_release(tmp_path):
    store = OrganizerStore(tmp_path, window_length=WEEK, epsilon=timedelta(hours=24))
    index = window_index(utc(2020, 1, 2), WEEK)
    start, end = window_bounds(index, WEEK)
    store.add_chunks([chunk("d1#0", time=start + DAY), chunk("d2#0")])
    store.close_window(now=end + timedelta(days=3))
    store.add_chunks(
        [chunk("d9#0", time=start + 2 * DAY, signature=(("alcohol", "entity"),))]
    )
    late = store.close_window(now=end + timedelta(days=4))
    assert [c.chunk_id for c in late[0].chunks] == ["d9#0"]
    assert len((tmp_path / "released.jsonl").read_bytes().splitlines()) == 2

    reopened = OrganizerStore(tmp_path, window_length=WEEK, epsilon=timedelta(hours=24))
    assert reopened.close_window(now=end + timedelta(days=4)) == []


# ---------------------------------------------------------------------------
# Split arrivals: a key's chunks released over several closes
# ---------------------------------------------------------------------------

SPLIT_SIGNATURES = [
    (("alcohol", "entity"), ("consume", "relationship")),
    (("alcohol", "entity"),),
]


def release_in_batches(root, batches, epsilon) -> dict[str, list[AnnotatedChunk]]:
    """Add each batch and close after it; returns every chunk released, by key."""
    store = OrganizerStore(root, window_length=WEEK, epsilon=epsilon)
    released: dict[str, list[AnnotatedChunk]] = {}
    for batch in batches:
        store.add_chunks(batch)
        groups = store.close_window(now=utc(2020, 3, 1))
        for group in groups:
            released.setdefault(group.key, []).extend(group.chunks)
    return released


def random_batches(rng, chunks):
    shuffled = list(chunks)
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, len(shuffled)), k=min(rng.randint(1, 3), len(shuffled) - 1)))
    return [shuffled[i:j] for i, j in zip([0] + cuts, cuts + [len(shuffled)])]


def test_split_arrivals_never_release_two_duplicates_of_one_key(tmp_path):
    rng = random.Random(11)
    epsilon = timedelta(hours=24)
    base = utc(2020, 1, 2)
    for trial in range(150):
        chunks = [
            chunk(
                f"d{i}#0",
                time=None if rng.random() < 0.15 else base + timedelta(hours=rng.randrange(0, 120)),
                signature=rng.choice(SPLIT_SIGNATURES),
            )
            for i in range(rng.randint(2, 10))
        ]
        released = release_in_batches(tmp_path / str(trial), random_batches(rng, chunks), epsilon)
        for key, members in released.items():
            assert len({c.chunk_id for c in members}) == len(members), (trial, key)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if a.annotation_signature() != b.annotation_signature():
                        continue
                    if a.time is None or b.time is None:
                        assert (a.time is None) != (b.time is None), (trial, key)
                    else:
                        assert abs(a.time - b.time) > epsilon, (trial, key, a.chunk_id, b.chunk_id)


def test_split_arrivals_of_tight_clusters_release_the_one_run_count(tmp_path):
    # Each event is reported up to three times within 20 hours, and events of
    # one signature lie three days apart, so no dedupe can chain two of them.
    rng = random.Random(23)
    epsilon = timedelta(hours=24)
    base = utc(2020, 1, 2)
    for trial in range(100):
        chunks = []
        for event in range(rng.randint(1, 4)):
            signature = SPLIT_SIGNATURES[event % 2]
            center = base + timedelta(days=3 * (event // 2))
            for report in range(rng.randint(1, 3)):
                when = center + timedelta(hours=rng.randrange(0, 20))
                chunks.append(chunk(f"d{event}-{report}#0", time=when, signature=signature))
        one_run = release_in_batches(tmp_path / f"{trial}-one", [chunks], epsilon)
        split = release_in_batches(tmp_path / f"{trial}-split", random_batches(rng, chunks), epsilon)
        counts = {key: len(members) for key, members in one_run.items()}
        assert {key: len(members) for key, members in split.items()} == counts, trial


# ---------------------------------------------------------------------------
# Close regroups only the keys that hold an unreleased chunk
# ---------------------------------------------------------------------------


def full_regroup(store: OrganizerStore, now) -> list[ChunkGroup]:
    """Every stored chunk regrouped, every key released as far as its watermark
    allows; one line logs what it released."""
    released_now = []
    for group in assign_windows(store.chunks(), store.window_length):
        seen = set(store._released.get(group.key, ()))
        group = dedupe_group(group, store.epsilon, seen)
        if seen:
            fresh = tuple(c for c in group.chunks if c.chunk_id not in seen)
            if fresh:
                store._released[group.key] = sorted(seen | {c.chunk_id for c in fresh})
                released_now.append(replace(group, chunks=fresh, late=True))
        elif ready_for_release(group, now, store.watermark):
            store._released[group.key] = sorted(c.chunk_id for c in group.chunks)
            released_now.append(group)
    if released_now:
        record = {g.key: sorted(c.chunk_id for c in g.chunks) for g in released_now}
        append_jsonl(store._released_path, [record])
    return released_now


def test_close_releases_what_regrouping_every_chunk_releases(tmp_path):
    rng = random.Random(31)
    base = utc(2020, 1, 2)
    for trial in range(60):
        chunks = [
            chunk(
                f"d{i}#0",
                subject=rng.choice(["steve", "woz"]),
                time=None if rng.random() < 0.1 else base + timedelta(hours=rng.randrange(0, 600)),
                place=rng.choice([None, "the plant"]),
                signature=rng.choice(SPLIT_SIGNATURES),
            )
            for i in range(rng.randint(2, 16))
        ]
        roots = {"lean": tmp_path / f"{trial}-lean", "full": tmp_path / f"{trial}-full"}
        stores = {name: OrganizerStore(root, window_length=WEEK) for name, root in roots.items()}
        now = base
        for batch in random_batches(rng, chunks):
            now += timedelta(days=rng.randrange(0, 12))
            released = {}
            for name, store in stores.items():
                store.add_chunks(batch)
                groups = store.close_window(now) if name == "lean" else full_regroup(store, now)
                released[name] = groups
            assert released["lean"] == released["full"], trial
            if rng.random() < 0.5:  # reopen from the logs, as the next run does
                stores = {name: OrganizerStore(root, window_length=WEEK) for name, root in roots.items()}
        logs = [root / "released.jsonl" for root in roots.values()]
        assert [log.read_bytes() if log.exists() else None for log in logs].count(None) in (0, 2)
        assert len({log.read_bytes() for log in logs if log.exists()}) <= 1


def test_a_late_chunk_decodes_only_its_own_key(tmp_path, monkeypatch):
    index = window_index(utc(2020, 1, 2), WEEK)
    start, end = window_bounds(index, WEEK)
    store = OrganizerStore(tmp_path, window_length=WEEK)
    weeks = [chunk(f"d{week}-{i}#0", time=start + week * WEEK + i * 2 * DAY)
             for week in range(4) for i in range(3)]
    duplicate = chunk("dup#0", time=start + timedelta(hours=1))  # absorbed by d0-0
    store.add_chunks(weeks + [duplicate])
    store.close_window(end + 4 * WEEK)
    built = []
    chunk_from_dict = organize.chunk_from_dict

    def counted(raw):
        built.append(raw["chunk_id"])
        return chunk_from_dict(raw)

    monkeypatch.setattr(organize, "chunk_from_dict", counted)
    reopened = OrganizerStore(tmp_path, window_length=WEEK)
    assert built == ["dup#0"]  # the only chunk no released line names
    late = chunk("late#0", time=start + WEEK + DAY, signature=(("alcohol", "entity"),))
    reopened.add_chunks([late])
    built.clear()
    [group] = reopened.close_window(end + 4 * WEEK)
    assert (group.late, [c.chunk_id for c in group.chunks]) == (True, ["late#0"])
    # The late chunk's week, and the week the absorbed duplicate falls in.
    assert sorted(built) == ["d0-0#0", "d0-1#0", "d0-2#0", "d1-0#0", "d1-1#0", "d1-2#0"]
