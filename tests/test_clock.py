from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

from notecards import clock
from notecards.clock import UTC, format_instant, parse_instant


def reference_format(instant: datetime) -> str:
    """format_instant without its cache, spelled out field by field."""
    u = instant.astimezone(UTC)
    text = f"{u.year:04d}-{u.month:02d}-{u.day:02d}T{u.hour:02d}:{u.minute:02d}:{u.second:02d}"
    return text + (f".{u.microsecond:06d}" if u.microsecond else "") + "Z"


def random_instant(rng: random.Random) -> datetime:
    """An aware instant, a third on whole seconds, in one of several offsets."""
    seconds = rng.randint(-30 * 10**9, 2 * 10**9)
    micro = 0 if rng.random() < 1 / 3 else rng.randint(1, 999_999)
    instant = datetime(1970, 1, 1, tzinfo=UTC) + timedelta(seconds=seconds, microseconds=micro)
    offset = timezone(timedelta(minutes=rng.choice([0, 330, -480, 765, -1439])))
    return instant.astimezone(offset)


def test_format_instant_equals_the_uncached_format_past_its_cache_bound():
    rng = random.Random(19)
    bound = clock._format_utc.cache_info().maxsize
    distinct = [random_instant(rng) for _ in range(3 * bound)]
    # Each instant again in other offsets, and in a random order, so most
    # calls hit an entry another spelling of the same instant put there.
    calls = distinct + [d.astimezone(timezone(timedelta(hours=rng.randint(-12, 12)))) for d in distinct]
    calls += rng.choices(distinct, k=4 * bound)
    rng.shuffle(calls)
    for instant in calls:
        assert format_instant(instant) == reference_format(instant)
    assert clock._format_utc.cache_info().currsize <= bound


def test_formatted_instants_parse_back_to_the_same_instant():
    rng = random.Random(5)
    instants = [random_instant(rng) for _ in range(500)]
    instants += [datetime(5, 3, 4, tzinfo=UTC), datetime(999, 12, 31, 23, 59, 59, 1, tzinfo=UTC)]
    for instant in instants:
        assert parse_instant(format_instant(instant)) == instant
