"""Canonical JSON encoding, content-derived identifiers, whole-file writes.

Every persisted record and every content-derived id goes through
:func:`canonical_json` so equal values always produce equal bytes,
which is what makes whole-store byte determinism achievable. Every file
a store rewrites whole goes through :func:`write_atomic`, so a crash
leaves either the old or the new version, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any

# Namespace for all name-based UUIDs minted by this package.
ID_NAMESPACE = uuid.NAMESPACE_DNS


def canonical_json(value: Any) -> str:
    """Stable, whitespace-free JSON with sorted keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_hash(value: Any, length: int = 16) -> str:
    """Short hex digest of the canonical JSON form of *value*."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]


def name_uuid(*parts: str) -> str:
    """Deterministic name-based UUID over the given parts."""
    return str(uuid.uuid5(ID_NAMESPACE, "\x1f".join(parts)))


def write_atomic(path: Path, text: str) -> None:
    """Replace *path* with *text* via a synced temp file in the same directory."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
