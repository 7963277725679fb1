"""Operator command line.

Commands: ``ontology validate``, ``ingest``, ``run``, ``notes list``,
``cards list``, ``card show``, ``export``, ``routes``. Exit status is 0
on success, 1 when validation findings exist, 2 on operational errors.
``run`` and ``ingest`` take ``--now`` to pin the clock for reproducible runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cards import Card, CardError, CardLedger, CardMaker, card_to_dict
from .clock import parse_instant
from .durations import DurationError
from .graph import GraphError, GraphFilter, build_graph, export_graph, find_routes, query_cards
from .ingest import IngestError, ingest_corpus
from .notes import NoteStore, note_to_dict
from .ontology import (
    OntologyError,
    load_ontology,
    merged_or_single,
    validate_ontology,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    Stores,
    StoreLock,
    audit_card,
    check_store_files,
    cut_torn_logs,
    drill_down,
    load_config,
    run_pipeline,
)


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

    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "ontology", None):
        config.ontology_paths = list(args.ontology)
    if getattr(args, "corpus", None):
        config.corpus_paths = list(args.corpus)
    if args.store:
        config.store_root = args.store
    if getattr(args, "now", None):
        config.now_override = args.now
    if getattr(args, "mask_key_file", None):
        config.mask_key_file = args.mask_key_file
    return config


def _store_root(config: PipelineConfig) -> Path:
    """The root of a read-only command, which must not create a missing one."""
    root = Path(config.store_root)
    if not root.is_dir():
        raise PipelineError(f"store not found: {root}")
    return root


def _checked_root(config: PipelineConfig) -> Path:
    """The root of a read-only command that opens only the stores it reads.

    Every store file is decoded first, so the command refuses a damaged
    store just as one that opens all of them through ``Stores`` does.
    """
    root = _store_root(config)
    check_store_files(root)
    return root


def _all_cards(ledger: CardLedger, maker: CardMaker) -> list[Card]:
    """The ledger's cards, then the held cards the ledger does not hold yet."""
    cards = ledger.cards()
    in_ledger = {card.card_id for card in cards}
    return cards + [card for card in maker.premature_cards() if card.card_id not in in_ledger]


def _report_repaired(paths: list[Path]) -> None:
    for path in paths:
        print(f"repaired: cut the torn last line off {path}", file=sys.stderr)


def cmd_ontology_validate(args) -> int:
    reports = []
    specs = []
    exit_code = 0
    for path in args.paths:
        if not Path(path).exists():
            raise PipelineError(f"ontology file not found: {path}")
        try:
            spec = load_ontology(Path(path))
        except OntologyError as exc:
            reports.append(
                {
                    "path": str(path),
                    "findings": [
                        {
                            "severity": "error",
                            "code": "load",
                            "subject": str(path),
                            "message": str(exc),
                        }
                    ],
                }
            )
            exit_code = 1
            continue
        specs.append(spec)
        report = validate_ontology(spec)
        reports.append(
            {"path": str(path), "findings": [f.as_dict() for f in report.findings]}
        )
        if not report.ok():
            exit_code = 1
    if len(specs) == len(args.paths) and len(specs) > 1:
        try:
            merged_or_single(specs)
        except OntologyError as exc:
            reports.append(
                {
                    "path": "<merged>",
                    "findings": [
                        {
                            "severity": "error",
                            "code": "merge",
                            "subject": "<merged>",
                            "message": str(exc),
                        }
                    ],
                }
            )
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
    config = _build_config(args)
    if not config.corpus_paths:
        raise PipelineError("no corpus given (use --corpus or a config file)")
    clock = config.clock()
    with StoreLock(config.store_root):
        repaired = cut_torn_logs(config.store_root)
        stores = Stores(config)
        summary = ingest_corpus(
            config.corpus_paths,
            stores.text,
            clock,
            mask_key=config.mask_key(),
            mask_aliases=config.mask_aliases or None,
        )
    _report_repaired(repaired)
    if args.json:
        print(
            json.dumps(
                {"accepted": summary.accepted, "rejected": summary.rejected},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"accepted={summary.accepted} rejected={summary.rejected}")
    return 0


def cmd_run(args) -> int:
    config = _build_config(args)
    summary = run_pipeline(config)
    _report_repaired(summary.repaired)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    else:
        print(summary.format_text())
    return 0


def cmd_notes_list(args) -> int:
    root = _checked_root(_build_config(args))
    action = None
    if args.entity or args.relationship:
        if not (args.entity and args.relationship):
            raise PipelineError("--entity and --relationship go together")
        action = (args.entity, args.relationship)
    notes = NoteStore(root / "notes").list(subject=args.subject, action=action)
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
    root = _checked_root(_build_config(args))
    cards = query_cards(
        _all_cards(CardLedger(root / "cards"), CardMaker(root / "cards")),
        concept=args.concept,
        status=args.status,
        subject=args.subject,
        min_criteria_met=args.min_met,
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
    config = _build_config(args)
    _store_root(config)
    stores = Stores(config)
    payload = drill_down(args.card_id, stores)
    if args.audit:
        problems = audit_card(args.card_id, stores)
        payload["audit"] = {"dangling": problems}
        if problems:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 1
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
                print(
                    f"    note {note['note_id']} {note['action'][0]}/{note['action'][1]} "
                    f"{note['intensity']}"
                )
                for chunk_entry in note_entry["chunks"]:
                    chunk = chunk_entry["chunk"]
                    doc = chunk_entry["document"]
                    print(
                        f"      chunk {chunk['chunk_id']} <- {doc['source_uri']}"
                    )
    return 0


def _graph_for(args, config: PipelineConfig):
    root = _checked_root(config)
    time_range = None
    valid_from = getattr(args, "valid_from", None)
    valid_to = getattr(args, "valid_to", None)
    if valid_from and valid_to:
        time_range = (parse_instant(valid_from), parse_instant(valid_to))
    elif valid_from or valid_to:
        raise PipelineError("--from and --to go together")
    card_filter = GraphFilter(
        subjects=frozenset(getattr(args, "subject", []) or []),
        concepts=frozenset(getattr(args, "concept", []) or []),
        time_range=time_range,
    )
    return build_graph(CardLedger(root / "cards").cards(), card_filter)


def cmd_export(args) -> int:
    config = _build_config(args)
    graph = _graph_for(args, config)
    text = export_graph(graph, format=args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_routes(args) -> int:
    config = _build_config(args)
    graph = _graph_for(args, config)
    routes = find_routes(graph, args.start, args.end, args.max_length)
    if args.json:
        print(json.dumps({"routes": routes}, indent=2, sort_keys=True))
    else:
        for route in routes:
            print(" -> ".join(route))
        print(f"({len(routes)} routes)")
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
    }
    handler = handlers[(args.command, getattr(args, "subcommand", None))]
    try:
        return handler(args)
    except (
        PipelineError,
        OntologyError,
        GraphError,
        CardError,
        IngestError,
        DurationError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
