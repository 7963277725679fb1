"""Duration syntax shared by ontology files, config keys, and CLI flags.

A duration is ``<integer><unit>`` with unit ``d`` (days), ``w`` (weeks,
7 days) or ``m`` (months, exactly 30 days). No other units exist.
"""

from __future__ import annotations

import re
from datetime import timedelta

_DURATION_RE = re.compile(r"^(\d+)([dwm])$")

_UNIT_DAYS = {"d": 1, "w": 7, "m": 30}

# The grouping window, which notes also count their horizon in, when a config names none.
DEFAULT_WINDOW = timedelta(days=7)


class DurationError(ValueError):
    """Raised for text that is not a valid duration."""


def parse_duration(text: str) -> timedelta:
    """Parse ``"7d"``-style text into a timedelta. 1m == 30d exactly."""
    match = _DURATION_RE.match(text.strip())
    if not match:
        raise DurationError(f"invalid duration {text!r}; expected <integer><d|w|m>")
    value, unit = int(match.group(1)), match.group(2)
    return timedelta(days=value * _UNIT_DAYS[unit])


def format_duration(delta: timedelta) -> str:
    """Render a timedelta back to duration text (largest exact unit wins)."""
    seconds = int(delta.total_seconds())
    if seconds < 0 or seconds % 86400:
        raise DurationError(f"duration {delta!r} is not a whole number of days")
    days = seconds // 86400
    if days and days % 30 == 0:
        return f"{days // 30}m"
    if days and days % 7 == 0:
        return f"{days // 7}w"
    return f"{days}d"
