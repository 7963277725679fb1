from __future__ import annotations

import random
from datetime import timedelta

from notecards.annotate import AnnotatedChunk, Annotation
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


def test_store_reload_sees_same_chunks(tmp_path):
    store = OrganizerStore(tmp_path)
    store.add_chunks([chunk("d1#0", time=utc(2020, 1, 2))])
    fresh = OrganizerStore(tmp_path)
    assert fresh.get_chunk("d1#0") == store.get_chunk("d1#0")


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
    store.log_released(store.close_window(now=end + timedelta(days=3)))
    store.add_chunks(
        [chunk("d9#0", time=start + 2 * DAY, signature=(("alcohol", "entity"),))]
    )
    late = store.close_window(now=end + timedelta(days=4))
    assert [c.chunk_id for c in late[0].chunks] == ["d9#0"]
    store.log_released(late)
    assert len((tmp_path / "released.jsonl").read_bytes().splitlines()) == 2

    reopened = OrganizerStore(tmp_path, window_length=WEEK, epsilon=timedelta(hours=24))
    assert reopened.close_window(now=end + timedelta(days=4)) == []


def test_released_state_is_in_memory_until_logged(tmp_path):
    store = OrganizerStore(tmp_path)
    store.add_chunks([chunk("d1#0")])
    assert len(store.close_window(now=utc(2020, 1, 1))) == 1
    assert not (tmp_path / "released.jsonl").exists()
    assert len(OrganizerStore(tmp_path).close_window(now=utc(2020, 1, 1))) == 1
