"""Operator command line.

Commands: ``ontology validate``, ``ingest``, ``run``, ``notes list``,
``cards list``, ``card show``, ``export``, ``routes``, ``store check``,
``store stats``.
Exit status is 0 on success, 1 when validation findings exist, 2 on
operational errors. ``run`` and ``ingest`` take ``--now`` to pin the clock
for reproducible runs; the other store commands read up to the last commit.

Handlers import what they use: ``cards list``, ``export`` and ``routes``
load no stage module, and ``store stats`` only the chunk store's. ``run``,
``ingest``, ``card show``, ``store check`` and a reader given ``--config``
load the pipeline, and with it every stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from .cards import Card, CardError, CardLedger, CardMaker, audit_card, card_to_dict, drill_down
from .cards import LOGS, read_commit
from .clock import parse_instant
from .encoding import PipelineError, read_jsonl, record_id
from .graph import GraphError, GraphFilter, build_graph, export_graph, find_routes, query_cards

if TYPE_CHECKING:
    from .pipeline import PipelineConfig, Stores


def _json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="pipeline config file (JSON)")
    parser.add_argument("--store", type=Path, help="store root directory")


def _writer_flags(parser: argparse.ArgumentParser) -> None:
    _store_flags(parser)
    _json_flag(parser)
    parser.add_argument("--corpus", action="append", type=Path, default=[])
    parser.add_argument("--now", help="pin the clock to an RFC-3339 instant")
    parser.add_argument("--mask-key-file", type=Path, help="enable subject masking")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notecards",
        description="Ontology-driven notes-and-cards text mining pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ontology = sub.add_parser("ontology", help="ontology tools")
    ontology_sub = p_ontology.add_subparsers(dest="subcommand", required=True)
    p_validate = ontology_sub.add_parser("validate", help="validate ontology files")
    p_validate.add_argument("paths", nargs="+", type=Path)
    _json_flag(p_validate)

    p_ingest = sub.add_parser("ingest", help="ingest corpora into the text store")
    _writer_flags(p_ingest)

    p_run = sub.add_parser("run", help="run the full pipeline")
    p_run.add_argument("--ontology", action="append", type=Path, default=[])
    _writer_flags(p_run)

    p_notes = sub.add_parser("notes", help="note inspection")
    notes_sub = p_notes.add_subparsers(dest="subcommand", required=True)
    p_notes_list = notes_sub.add_parser("list", help="list synthesized notes")
    p_notes_list.add_argument("--subject")
    p_notes_list.add_argument("--entity")
    p_notes_list.add_argument("--relationship")
    _store_flags(p_notes_list)
    _json_flag(p_notes_list)

    p_cards = sub.add_parser("cards", help="card inspection")
    cards_sub = p_cards.add_subparsers(dest="subcommand", required=True)
    p_cards_list = cards_sub.add_parser("list", help="list cards")
    p_cards_list.add_argument("--status")
    p_cards_list.add_argument("--concept")
    p_cards_list.add_argument("--subject")
    p_cards_list.add_argument("--min-met", type=int)
    p_cards_list.add_argument("--max-met", type=int)
    _store_flags(p_cards_list)
    _json_flag(p_cards_list)

    p_card = sub.add_parser("card", help="single-card tools")
    card_sub = p_card.add_subparsers(dest="subcommand", required=True)
    p_card_show = card_sub.add_parser("show", help="drill down to source documents")
    p_card_show.add_argument("card_id")
    p_card_show.add_argument("--audit", action="store_true", help="verify the chain")
    _store_flags(p_card_show)
    _json_flag(p_card_show)

    p_export = sub.add_parser("export", help="export the card graph")
    p_export.add_argument("--format", choices=("dot", "json"), default="dot")
    p_export.add_argument("--out", type=Path, help="write to file instead of stdout")
    p_export.add_argument("--subject", action="append", default=[])
    p_export.add_argument("--concept", action="append", default=[])
    p_export.add_argument("--from", dest="valid_from", help="validity window start")
    p_export.add_argument("--to", dest="valid_to", help="validity window end")
    _store_flags(p_export)

    p_routes = sub.add_parser("routes", help="enumerate simple routes between nodes")
    p_routes.add_argument("start")
    p_routes.add_argument("end")
    p_routes.add_argument("--max", type=int, default=6, dest="max_length")
    _store_flags(p_routes)
    _json_flag(p_routes)

    p_store = sub.add_parser("store", help="store tools")
    store_sub = p_store.add_subparsers(dest="subcommand", required=True)
    p_store_check = store_sub.add_parser("check", help="decode the store, audit every card")
    _store_flags(p_store_check)
    _json_flag(p_store_check)
    p_store_stats = store_sub.add_parser("stats", help="count each log's records and bytes")
    _store_flags(p_store_stats)
    _json_flag(p_store_stats)

    return parser


def _instant(text: str, flag: str):
    """The instant a flag's value names; one it does not name exits 2, naming the flag."""
    try:
        return parse_instant(text)
    except ValueError as exc:
        raise PipelineError(f"{flag}: {exc}") from None


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    from .pipeline import PipelineConfig, load_config

    config = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "ontology", None):
        config.ontology_paths = list(args.ontology)
    if getattr(args, "corpus", None):
        config.corpus_paths = list(args.corpus)
    if args.store:
        config.store_root = args.store
    if getattr(args, "now", None):
        _instant(args.now, "--now")
        config.now_override = args.now
    if getattr(args, "mask_key_file", None):
        config.mask_key_file = args.mask_key_file
    return config


def _store_root(args: argparse.Namespace, config: PipelineConfig | None = None) -> Path:
    """The root of a read-only command, which must not create a missing one.
    ``--store`` without ``--config`` names it without building the pipeline's config."""
    if config is None and (args.config or not args.store):
        config = _build_config(args)
    root = Path(config.store_root if config else args.store)
    if not root.is_dir():
        raise PipelineError(f"store not found: {root}")
    return root


def _stores(args: argparse.Namespace) -> Stores:
    """Every store under a reader's root, opened with the pipeline's config."""
    from .pipeline import Stores

    config = _build_config(args)
    _store_root(args, config)
    return Stores(config)


def _all_cards(ledger: CardLedger, maker: CardMaker) -> list[Card]:
    """The ledger's cards, then the held cards the ledger does not hold yet."""
    cards = ledger.cards()
    in_ledger = {card.card_id for card in cards}
    return cards + [card for card in maker.premature_cards() if card.card_id not in in_ledger]


def _report_repaired(paths: list[Path]) -> None:
    for path in paths:
        print(f"repaired: cut {path} back to its committed length", file=sys.stderr)


def _error_report(path: str, code: str, exc: Exception) -> dict:
    finding = {"severity": "error", "code": code, "subject": path, "message": str(exc)}
    return {"path": path, "findings": [finding]}


def cmd_ontology_validate(args) -> int:
    from .ontology import OntologyError, load_ontology, merged_or_single, validate_ontology

    reports = []
    specs = []
    exit_code = 0
    for path in args.paths:
        if not Path(path).exists():
            raise PipelineError(f"ontology file not found: {path}")
        try:
            spec = load_ontology(Path(path))
        except OntologyError as exc:
            reports.append(_error_report(str(path), "load", exc))
            exit_code = 1
            continue
        specs.append(spec)
        report = validate_ontology(spec)
        reports.append({"path": str(path), "findings": [f.as_dict() for f in report.findings]})
        if not report.ok():
            exit_code = 1
    if len(specs) == len(args.paths) and len(specs) > 1:
        try:
            merged_or_single(specs)
        except OntologyError as exc:
            reports.append(_error_report("<merged>", "merge", exc))
            exit_code = 1
    if args.json:
        print(json.dumps({"reports": reports}, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(f"{report['path']}:")
            for finding in report["findings"]:
                print(
                    f"  {finding['severity']:<12} {finding['code']:<20} "
                    f"{finding['subject']}: {finding['message']}"
                )
    return exit_code


def cmd_ingest(args) -> int:
    from .ingest import TextStore, check_sources, ingest_corpus
    from .pipeline import StoreLock, cut_to_commit

    config = _build_config(args)
    if not config.corpus_paths:
        raise PipelineError("no corpus given (use --corpus or a config file)")
    clock = config.clock()
    root = Path(config.store_root)
    mask_key = config.mask_key()
    check_sources(config.corpus_paths, mask_key)  # before the lock makes the store
    with StoreLock(root):
        state, logs, repaired = cut_to_commit(root)
        maker = CardMaker(root / "cards", state, logs)
        summary = ingest_corpus(
            config.corpus_paths,
            TextStore(root / "documents", logs["documents/documents.jsonl"]),
            clock,
            mask_key=mask_key,
            mask_aliases=config.mask_aliases or None,
            consumed=maker.corpora,
        )
        maker.corpora.update(summary.consumed)
        # Commits the documents; annotated stays for the next run to move.
        maker.save()
    _report_repaired(repaired)
    counts = {"accepted": summary.accepted, "rejected": summary.rejected}
    if args.json:
        print(json.dumps(counts, indent=2, sort_keys=True))
    else:
        print(f"accepted={summary.accepted} rejected={summary.rejected}")
    return 0


def cmd_run(args) -> int:
    from .pipeline import run_pipeline

    config = _build_config(args)
    summary = run_pipeline(config)
    _report_repaired(summary.repaired)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    else:
        print(summary.format_text())
    return 0


def cmd_notes_list(args) -> int:
    from .notes import NoteStore, note_to_dict

    root = _store_root(args)
    store = NoteStore(root / "notes", read_commit(root)[1]["notes/notes.jsonl"])
    action = None
    if args.entity or args.relationship:
        if not (args.entity and args.relationship):
            raise PipelineError("--entity and --relationship go together")
        action = (args.entity, args.relationship)
    notes = store.list(subject=args.subject, action=action)
    if args.json:
        print(json.dumps([note_to_dict(n) for n in notes], indent=2, sort_keys=True))
    else:
        for note in notes:
            print(
                f"{note.note_id}  {note.subject}  {note.action[0]}/{note.action[1]}  "
                f"{note.intensity.value}  {note.confidence.value}"
            )
        print(f"({len(notes)} notes)")
    return 0


def cmd_cards_list(args) -> int:
    root = _store_root(args)
    state, logs = read_commit(root)  # one read: the held cards match the ledger
    ledger = CardLedger(root / "cards", logs["cards/log.jsonl"])
    cards = query_cards(
        _all_cards(ledger, CardMaker(root / "cards", state)), concept=args.concept,
        status=args.status, subject=args.subject, min_criteria_met=args.min_met,
        max_criteria_met=args.max_met,
    )
    if args.json:
        print(json.dumps([card_to_dict(c) for c in cards], indent=2, sort_keys=True))
    else:
        for card in cards:
            scores = ",".join(str(s) for s in card.score_vector())
            print(
                f"{card.card_id}  {card.status:<10} met={card.criteria_met}/"
                f"{card.threshold}  scores=({scores})"
            )
        print(f"({len(cards)} cards)")
    return 0


def cmd_card_show(args) -> int:
    stores = _stores(args)
    if args.audit:
        # Audit first: drill-down refuses the dangling references the audit reports.
        problems = audit_card(args.card_id, stores)
        if problems:
            if args.json:
                findings = {"card_id": args.card_id, "audit": {"dangling": problems}}
                print(json.dumps(findings, indent=2, sort_keys=True))
            else:
                print(f"card {args.card_id}  audit: {len(problems)} dangling")
                for problem in problems:
                    print(f"  {problem}")
            return 1
    payload = drill_down(args.card_id, stores)
    if args.audit:
        payload["audit"] = {"dangling": []}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        card = payload["card"]
        print(f"card {card['card_id']}  status={card['status']}")
        print(f"  validity: {card['validity'][0]} .. {card['validity'][1]}")
        for event in card["reasoning_trail"]:
            print(f"  event {event['kind']} at {event['timestamp']} {event['detail']}")
        for evidence in payload["evidence"]:
            refined = evidence["refined"]
            print(f"  refined {refined['refined_id']} passthrough={refined['passthrough']}")
            for note_entry in evidence["notes"]:
                note = note_entry["note"]
                action = "/".join(note["action"])
                print(f"    note {note['note_id']} {action} {note['intensity']}")
                for chunk_entry in note_entry["chunks"]:
                    chunk = chunk_entry["chunk"]
                    doc = chunk_entry["document"]
                    print(f"      chunk {chunk['chunk_id']} <- {doc['source_uri']}")
    return 0


def _graph_for(args):
    root = _store_root(args)
    time_range = None
    valid_from = getattr(args, "valid_from", None)
    valid_to = getattr(args, "valid_to", None)
    if valid_from and valid_to:
        time_range = (_instant(valid_from, "--from"), _instant(valid_to, "--to"))
        if time_range[0] > time_range[1]:
            raise PipelineError(f"--from {valid_from} is later than --to {valid_to}")
    elif valid_from or valid_to:
        raise PipelineError("--from and --to go together")
    card_filter = GraphFilter(
        subjects=frozenset(getattr(args, "subject", []) or []),
        concepts=frozenset(getattr(args, "concept", []) or []),
        time_range=time_range,
    )
    ledger = CardLedger(root / "cards", read_commit(root)[1]["cards/log.jsonl"])
    return build_graph(ledger.cards(), card_filter)


def cmd_export(args) -> int:
    graph = _graph_for(args)
    text = export_graph(graph, format=args.format)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PipelineError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_routes(args) -> int:
    graph = _graph_for(args)
    routes = find_routes(graph, args.start, args.end, args.max_length)
    if args.json:
        print(json.dumps({"routes": routes}, indent=2, sort_keys=True))
    else:
        for route in routes:
            print(" -> ".join(route))
        print(f"({len(routes)} routes)")
    return 0


# The logs that hold one line per id, with the key of that id.
_KEYED_LOGS = {"documents/documents.jsonl": "doc_id", "chunks/chunks.jsonl": "chunk_id",
               "notes/notes.jsonl": "note_id", "refined/refined.jsonl": "refined_id"}


def cmd_store_check(args) -> int:
    from .refine import DanglingNote

    stores = _stores(args)  # reads the id of every committed line and replays the ledger
    # Decode every committed line of a keyed log again, whole: each index keeps
    # only the later of two lines that hold one id.
    repeated = [
        f"{name}: {key} {ident} is held by {count} committed lines"
        for name, key in _KEYED_LOGS.items()
        for ident, count in Counter(
            read_jsonl(stores.root / name, stores.logs[name].end, build=partial(record_id, name=key))
        ).items()
        if count > 1
    ]
    # Build the record of every indexed line, every note line with the refined
    # lines; one that is not a record, or holds another id than its line was
    # read under, exits 2. A passthrough line whose note is missing dangles.
    documents = {doc.doc_id: doc for doc in stores.text.list()}
    problems = [str(r) for r in stores.refined.read_all() if isinstance(r, DanglingNote)]
    chunks = stores.organizer.chunks()
    cards = _all_cards(stores.ledger, stores.maker)
    problems += [problem for card in cards for problem in audit_card(card.card_id, stores)]
    problems += [
        f"chunk {chunk.chunk_id} -> missing document {chunk.doc_id}"
        for chunk in chunks if chunk.doc_id not in stores.text
    ]
    problems = list(dict.fromkeys(problems))  # a chunk's card reaches it too
    # A chunk line is a view of annotating its document with the store's own
    # ontology, which a store committed before it kept one does not have.
    stale = []
    if (stores.maker.manifest or {}).get("stored_ontology_sha256"):
        stale = [_stale_chunk(chunk, stores, documents[chunk.doc_id])
                 for chunk in chunks if chunk.doc_id in documents]
        stale = [finding for finding in stale if finding]
    index = stores.ledger.index_mismatches()
    report = {"cards": len(cards), "dangling": problems}
    counts = f"{len(cards)} cards, {len(problems)} dangling"
    if repeated:  # shown only when there are some
        report["repeated"] = repeated
        counts += f", {len(repeated)} repeated"
    if stale:  # likewise
        report["stale"] = stale
        counts += f", {len(stale)} stale"
    if index:  # likewise
        report["index"] = index
        counts += f", {len(index)} off the index"
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join([*repeated, *problems, *stale, *index, f"({counts})"]))
    return 1 if problems or repeated or stale or index else 0


def _stale_chunk(chunk, stores: Stores, document) -> str | None:
    """A finding when *chunk*'s line holds other than annotating its document again gives."""
    from .organize import stale_keys

    fresh = stores.annotate_again(chunk, document)
    if fresh is None:
        return f"chunk {chunk.chunk_id}: annotating document {chunk.doc_id} again gives no chunk"
    keys = stale_keys(chunk, fresh)
    if keys:
        return (f"chunk {chunk.chunk_id}: annotating document {chunk.doc_id} again "
                f"gives another {', '.join(keys)}")
    return None


def cmd_store_stats(args) -> int:
    from .organize import OrganizerStore

    root = _store_root(args)
    _, committed = read_commit(root)
    # The organizer's open reads and checks the two chunk logs; every other
    # log is checked here. Either read counts the log's lines.
    organizer = OrganizerStore(root / "chunks", chunks_log=committed["chunks/chunks.jsonl"],
                               released_log=committed["chunks/released.jsonl"])
    logs = {}
    for name, log in committed.items():
        if not name.startswith("chunks/"):
            log.check()
        path = root / name
        logs[name] = {"records": log.lines, "committed_bytes": log.end,
                      "disk_bytes": path.stat().st_size if path.exists() else 0}
    report = {"logs": logs, "unreleased_chunks": organizer.unreleased()}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        width = max(map(len, LOGS))
        for name, counts in logs.items():
            print(f"{name:<{width}}  records={counts['records']} "
                  f"committed={counts['committed_bytes']} on_disk={counts['disk_bytes']}")
        print(f"unreleased chunks: {report['unreleased_chunks']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        ("ontology", "validate"): cmd_ontology_validate,
        ("ingest", None): cmd_ingest,
        ("run", None): cmd_run,
        ("notes", "list"): cmd_notes_list,
        ("cards", "list"): cmd_cards_list,
        ("card", "show"): cmd_card_show,
        ("export", None): cmd_export,
        ("routes", None): cmd_routes,
        ("store", "check"): cmd_store_check,
        ("store", "stats"): cmd_store_stats,
    }
    handler = handlers[(args.command, getattr(args, "subcommand", None))]
    try:
        return handler(args)
    # The ontology and ingest errors are PipelineErrors; ValueError covers
    # DurationError and StoreFormatError.
    except (PipelineError, GraphError, CardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
