"""Outside-in spans around the calls into each notecards module.

The program is not edited: :func:`install` replaces the functions and
store methods that ``pipeline.run_pipeline`` and the ``notecards``
command call with wrappers that record a span (name, start, end, parent)
and a few counts. Spans stay in memory until :meth:`Tracer.write`.
A wrapped name that no longer exists raises at install time, and
:func:`unfired` names every wrapper that a workload should reach but did
not, so a rename cannot silently zero a layer.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import Counter
from pathlib import Path

from notecards import annotate, cards, cli, ingest, notes, organize, pipeline, refine


def _open_records(result, args) -> dict:
    stores = args[0]
    return {
        "pipeline.open_records": len(stores.text) + len(stores.organizer)
        + len(stores.notes) + len(stores.refined) + len(stores.ledger.cards())
        + len(stores.maker.premature_cards())
    }


def _one(key):
    return lambda result, args: {key: 1}


# (owner, attribute, span name or None for a count only, counts, track writes)
RUN_TARGETS = [
    (pipeline, "load_ontology", "ontology.load", None, False),
    (pipeline, "merged_or_single", "ontology.load", None, False),
    (pipeline.Stores, "__init__", "pipeline.open", _open_records, False),
    (pipeline, "ingest_corpus", "ingest.corpus",
     lambda r, a: {"ingest.docs_new": r.accepted - r.duplicates}, False),
    (ingest.TextStore, "list", "ingest.list",
     lambda r, a: {"ingest.docs_listed": len(r)}, False),
    (annotate.GazetteerMatcher, "__init__", "annotate.busy", None, False),
    (pipeline, "annotate_with_matcher", "annotate.busy",
     lambda r, a: {"annotate.docs": 1, "annotate.chunks": len(r.chunks)}, False),
    (organize.OrganizerStore, "add_chunks", "organize.add",
     lambda r, a: {"organize.chunks_new": r}, False),
    (organize.OrganizerStore, "close_window", "organize.close",
     lambda r, a: {"organize.groups_released": len(r)}, False),
    (organize, "assign_windows", None,
     lambda r, a: {"organize.groups_formed": len(r)}, False),
    (pipeline, "synthesize_notes", "notes.synth",
     lambda r, a: {"notes.synthesized": len(r)}, False),
    (notes.NoteStore, "add_all", "notes.store", None, False),
    (pipeline, "validate_note", "refine.validate", None, False),
    (refine.RefinedNoteStore, "processed_note_ids", "refine.store", None, False),
    (pipeline, "refine_notes", "refine.rules", None, False),
    (refine.RefinedNoteStore, "add_all", "refine.store",
     lambda r, a: {"refine.refined": r}, False),
    (cards.CardMaker, "update_premature_cards", "cards.accumulate", None, True),
    (cards.CardMaker, "open_candidates", "cards.admit", None, False),
    (cards.CardManager, "admit", "cards.admit",
     lambda r, a: {"cards.committed": len(r.committed)}, True),
    (cards.CardLedger, "write_index", "cards.index_write", _one("cards.index_writes"), False),
    (cards.CardMaker, "save", "cards.maker_save", _one("cards.maker_saves"), False),
]

CLI_TARGETS = [
    (cli, "main", "cli.self", None, False),
    (pipeline.Stores, "__init__", "pipeline.open", _open_records, False),
    (cli, "drill_down", "pipeline.drill", None, False),
    (cli, "audit_card", "pipeline.drill", None, False),
    (notes.NoteStore, "list", "notes.list", None, False),
    (cli, "query_cards", "graph.query", None, False),
    (cli, "build_graph", "graph.build", None, False),
    (cli, "export_graph", "graph.export", None, False),
    (cli, "find_routes", "graph.routes", None, False),
]


def target_name(owner, attribute: str) -> str:
    if isinstance(owner, types.ModuleType):
        return f"{owner.__name__}.{attribute}"
    return f"{owner.__module__}.{owner.__qualname__}.{attribute}"


class Tracer:
    """Span and count recorder for one process; single-threaded by design."""

    def __init__(self, wchar) -> None:
        self.wchar = wchar  # bytes this process has passed to write calls
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.fired: Counter = Counter()

    def wrap(self, owner, attribute: str, span: str | None, count, track_writes: bool) -> None:
        original = owner.__dict__.get(attribute)
        if not callable(original):
            raise SystemExit(f"trace: wrapped name {target_name(owner, attribute)} no longer exists")
        key = target_name(owner, attribute)
        tracer = self
        layer = span.split(".")[0] if span else ""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.fired[key] += 1
            if span is None:
                result = original(*args, **kwargs)
            else:
                index = len(tracer.spans)
                tracer.spans.append([span, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1])
                tracer.stack.append(index)
                written = tracer.wchar() if track_writes else 0
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer.stack.pop()
                    tracer.spans[index][1:3] = [start, end]
                if track_writes:
                    tracer.counts[f"{layer}.write_bytes"] += tracer.wchar() - written
            if count is not None:
                tracer.counts.update(count(result, args))
            return result

        setattr(owner, attribute, wrapper)

    def aggregate(self) -> dict:
        """Self seconds per span name, top-level seconds, counts and fired wrappers."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            if parent < 0:
                top += end - start
        return {"self_s": dict(self_s), "top_s": top, "counts": dict(self.counts),
                "fired": dict(self.fired)}

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def install(targets, wchar) -> Tracer:
    tracer = Tracer(wchar)
    for owner, attribute, span, count, track_writes in targets:
        tracer.wrap(owner, attribute, span, count, track_writes)
    return tracer


def unfired(targets, fired: Counter) -> list[str]:
    return [target_name(o, a) for o, a, *_ in targets if not fired.get(target_name(o, a))]
