"""UTC instants and the pipeline clock.

Everything time-related in the stores flows through a :class:`Clock` so a
run can be pinned to a fixed "now" (the ``--now`` flag) and replayed
byte-identically. Instants serialize as RFC-3339 text in UTC.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone
from functools import lru_cache

UTC = timezone.utc


def parse_instant(text: str) -> datetime:
    """Parse an RFC-3339 timestamp; naive values are taken as UTC. Text that
    is not one, or names an instant whose UTC date is out of range, raises
    ``ValueError``."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(cleaned)
    except ValueError:
        raise ValueError(f"not an RFC-3339 instant: {text!r}") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=UTC)
    try:
        return parsed.astimezone(UTC)
    except OverflowError:
        raise ValueError(f"instant out of range in UTC: {text!r}") from None


def format_instant(instant: datetime) -> str:
    """Render an aware datetime as ``YYYY-MM-DDTHH:MM:SSZ`` (UTC)."""
    return _format_utc(instant if instant.tzinfo is UTC else instant.astimezone(UTC))


# A run formats a few instants over and over: every chunk and note of a
# window shares them. Keyed on UTC datetimes only, where equal means the
# same text; the bound caps an unpinned clock, whose every instant differs.
@lru_cache(maxsize=1024)
def _format_utc(instant: datetime) -> str:
    # isoformat, unlike strftime's %Y, pads years before 1000 to the four
    # digits parse_instant needs, and omits a zero microsecond.
    return instant.replace(tzinfo=None).isoformat() + "Z"


class Clock:
    """Source of "now". A fixed clock also reports zero elapsed time."""

    def __init__(self, fixed: datetime | None = None):
        self._fixed = fixed.astimezone(UTC) if fixed is not None else None
        self._started = time.monotonic()

    def now(self) -> datetime:
        if self._fixed is not None:
            return self._fixed
        return datetime.now(UTC)

    def elapsed(self) -> float:
        """Wall seconds since construction; 0.0 when pinned, by design."""
        if self._fixed is not None:
            return 0.0
        return time.monotonic() - self._started
