"""Regenerate the shipped fixtures and verify them end to end.

Produces, under src/notecards/fixtures/:
  ocpd.json            compulsive-rigidity profile, 8 criteria, threshold 4
  alcohol.json         drinking-domain ontology with one 2-criterion concept
  jobs_rows.json       the 20 evidence rows with their expected criteria
  jobs_corpus.jsonl    one sentence per evidence row, single 28d horizon
  alcohol_corpus.jsonl 12 drinking events, 3 per week over 4 weeks
  jobs_config.json     pinned-clock pipeline config for the golden run

Run from the repo root: python tools/build_fixtures.py
The script asserts the golden dimension scores before writing anything.
"""

from __future__ import annotations

import json
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from notecards import cli
from notecards.annotate import GazetteerMatcher, tokenize
from notecards.clock import parse_instant
from notecards.ontology import parse_ontology, validate_ontology
from notecards.pipeline import PipelineConfig, Stores, run_pipeline

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "notecards" / "fixtures"

HORIZON_START = datetime(2011, 10, 13, tzinfo=timezone.utc)  # epoch-aligned 28d bucket
PINNED_NOW = "2011-11-13T00:00:00Z"

GOLDEN_SCORES = (4, 5, 2, 11, 0, 5, 0, 10)
GOLDEN_MET = 6

# One row per evidence item. Fields: o_code, entity id, entity surface,
# entity description, relationship id, relationship surface, relationship
# description, criteria hit, corpus sentence (None for the two actions that
# exist only so criteria 5 and 7 stay satisfiable).
ROWS = [
    ("O1-1", "upbringing_wound", "abandonment at birth",
     "An early-life rupture repeatedly cited as formative.",
     "drives_control_hunger", "drives a hunger for control",
     "Feeds a persistent need to dominate outcomes.",
     [6],
     "An old colleague traced how the abandonment at birth drives a hunger for control in him."),
    ("O1-2", "surroundings", "products and environments",
     "The made objects and spaces a person treats as their own.",
     "rules_absolutely", "rules absolutely over",
     "Exercises total, non-negotiable command.",
     [6],
     "He rules absolutely over products and environments as though they were his own limbs."),
    ("O1-3", "machine_openness", "expansion slots",
     "Pathways for outsiders to change a product.",
     "locks_away", "locks away",
     "Removes access so nobody else can touch it.",
     [4, 8],
     "He locks away expansion slots so owners can never alter the machine."),
    ("O1-4", "private_matter", "the pregnancy",
     "A pressing personal affair demanding a response.",
     "shuts_out", "shuts out",
     "Walls off a matter completely.",
     [3],
     "He shuts out the pregnancy entirely, as if the matter belonged to a stranger."),
    ("O1-5", "case_screws", "special case screws",
     "Fasteners only the vendor can open.",
     "forbids_opening", "forbids opening",
     "Prohibits others from looking inside.",
     [4, 6],
     "He forbids opening the computer at home, so special case screws go in."),
    ("O3-2", "class_corner", "corner desk",
     "A self-chosen spot apart from the group.",
     "withdraws_to", "withdraws to",
     "Pulls back into a private routine.",
     [8],
     "At school he withdraws to a corner desk and works through his own exercises."),
    ("O3-3a", "required_courses", "required courses",
     "Obligatory coursework set by others.",
     "abandons", "abandons",
     "Drops an obligation outright.",
     [8],
     "Bored stiff, he abandons required courses and audits only the ones he likes."),
    ("O3-3b", "badge_number", "badge number",
     "A rank marker inside the organization.",
     "fights_over", "fights over",
     "Contests a symbol of standing.",
     [1, 8],
     "He fights over the badge number, refusing two and then claiming zero."),
    ("O3-6", "taste_lessons", "lessons in taste",
     "Aesthetic instruction offered uninvited.",
     "owes_everyone", "owes everyone",
     "Casts himself as the appointed teacher.",
     [4],
     "She felt he owes everyone lessons in taste, delivered whether wanted or not."),
    ("O5-2", "psychedelic_sessions", "psychedelic sessions",
     "Drug-assisted introspection episodes.",
     "treasures", "treasures",
     "Holds something up as formative and essential.",
     [4],
     "He treasures psychedelic sessions as a door to the far side of his own mind."),
    ("O6-1", "projects", "every project",
     "Whatever undertaking is currently in hand.",
     "overdrives", "overdrives",
     "Pushes far past the point others would stop.",
     [2, 3],
     "He overdrives every project with an intensity that unsettles the room."),
    ("O6-2", "beige_shades", "shades of beige",
     "The universe of candidate case colors.",
     "agonizes_over", "agonizes over",
     "Evaluates endlessly without accepting.",
     [1, 2, 8],
     "He agonizes over two thousand shades of beige and approves none for the case."),
    ("O6-3", "home_furniture", "furniture",
     "Household furnishings considered for purchase.",
     "rejects_wholesale", "rejects wholesale",
     "Dismisses an entire category as beneath standard.",
     [1, 2, 4],
     "He rejects wholesale any furniture that falls short, leaving the rooms bare."),
    ("O6-4", "tradeoffs", "trade-offs",
     "Compromises between competing goods.",
     "refuses_flatly", "refuses flatly",
     "Declines without discussion.",
     [2, 6, 8],
     "He refuses flatly all trade-offs, however small the stakes."),
    ("O6-5", "mold_line", "mold line",
     "A cosmetic seam left by manufacturing.",
     "cannot_abide", "cannot abide",
     "Experiences a flaw as intolerable.",
     [2, 4],
     "He cannot abide a tiny mold line in the chassis and orders costly machinery to erase it."),
    ("O6-6", "factory_decor", "factory walls",
     "The visual finish of a production floor.",
     "dictates", "dictates",
     "Issues exact instructions down to the detail.",
     [1, 4, 6, 8],
     "He dictates white factory walls, particular robot colors, and fine chairs for the plant."),
    ("O7-1", "washing_routine", "regular showers",
     "Ordinary day-to-day hygiene practice.",
     "spurns", "spurns",
     "Rejects as unnecessary for himself.",
     [4, 8],
     "Sure his diet spares him odor, he spurns deodorant and regular showers."),
    ("O7-2", "fatherhood", "paternity",
     "Being someone's parent as a matter of fact.",
     "denies_flatly", "denies flatly",
     "Repudiates despite the evidence.",
     [4, 8],
     "He denies flatly the paternity that the test already confirmed."),
    ("O7-3", "own_story", "his own story",
     "The account he keeps of his own past.",
     "rewrites_inwardly", "rewrites inwardly",
     "Edits memory until it fits the preferred version.",
     [4],
     "Friends say he rewrites inwardly his own story until he believes every word."),
    ("O7-4", "judgment_scale", "middle ground",
     "The space between the extremes of judgment.",
     "admits_none", "admits no",
     "Allows no intermediate verdicts.",
     [4, 8],
     "He admits no middle ground; to him the work is either superb or worthless."),
    ("X5", "worn_possessions", "worn out possessions",
     "Used-up items without remaining value.",
     "hoards", "hoards",
     "Keeps regardless of usefulness.",
     [5], None),
    ("X7", "petty_expenses", "small expenses",
     "Minor day-to-day spending.",
     "pinches", "pinches",
     "Spends grudgingly on himself and others.",
     [7], None),
]

CRITERIA_DESCRIPTIONS = {
    1: "Preoccupation with details, order, and fine distinctions",
    2: "Perfectionism that blocks finishing or accepting work",
    3: "Own pursuits crowd out people and obligations",
    4: "Rigid, overdriven convictions about how things must be",
    5: "Inability to part with worn or worthless possessions",
    6: "Unwillingness to delegate or share control",
    7: "Miserly spending style toward self and others",
    8: "General rigidity and stubbornness",
}


def build_ocpd() -> dict:
    entity_classes = []
    relationship_classes = []
    dictionary = []
    templates = []
    for (_, ent, ent_surface, ent_desc, rel, rel_surface, rel_desc, _, _) in ROWS:
        entity_classes.append({"id": ent, "description": ent_desc, "attribute_schema": {}})
        relationship_classes.append({"id": rel, "description": rel_desc, "attribute_schema": {}})
        dictionary.append({"surface_form": ent_surface, "canonical_id": ent, "kind": "entity"})
        dictionary.append({"surface_form": rel_surface, "canonical_id": rel, "kind": "relationship"})
        templates.append(
            {
                "template_id": f"t_{ent}",
                "trigger": {"entity": ent, "relationship": rel},
                "attribute_aggregations": {},
                "min_events": 1,
            }
        )
    criteria = []
    for index in range(1, 9):
        patterns = [
            {"action_entity": ent, "action_relationship": rel}
            for (_, ent, _, _, rel, _, _, hit, _) in ROWS
            if index in hit
        ]
        criteria.append(
            {
                "index": index,
                "description": CRITERIA_DESCRIPTIONS[index],
                "match_patterns": patterns,
            }
        )
    return {
        "id": "ocpd-profile",
        "version": "1",
        "entity_classes": entity_classes,
        "relationship_classes": relationship_classes,
        "dictionary": dictionary,
        "note_templates": templates,
        "concepts": [
            {
                "concept_id": "301.4",
                "name": "compulsive rigidity profile",
                "criteria": criteria,
                "threshold": 4,
                "min_score_per_criterion": 1,
            }
        ],
        "refinement_policies": [],
        "exclusion_rules": [],
    }


def build_alcohol() -> dict:
    return {
        "id": "alcohol-domain",
        "version": "1",
        "entity_classes": [
            {
                "id": "alcohol",
                "description": "Alcoholic drink of any kind.",
                "attribute_schema": {"amount": "count"},
            }
        ],
        "relationship_classes": [
            {
                "id": "consume",
                "description": "Drinking it.",
                "attribute_schema": {},
            }
        ],
        "dictionary": [
            {"surface_form": "beer", "canonical_id": "alcohol", "kind": "entity"},
            {"surface_form": "beers", "canonical_id": "alcohol", "kind": "entity"},
            {"surface_form": "wine", "canonical_id": "alcohol", "kind": "entity"},
            {"surface_form": "whiskey", "canonical_id": "alcohol", "kind": "entity"},
            {"surface_form": "drink", "canonical_id": "consume", "kind": "relationship"},
            {"surface_form": "booze up", "canonical_id": "consume", "kind": "relationship"},
            {"surface_form": "bottom up", "canonical_id": "consume", "kind": "relationship"},
        ],
        "note_templates": [
            {
                "template_id": "t_drinking",
                "trigger": {"entity": "alcohol", "relationship": "consume"},
                "attribute_aggregations": {"amount": "max"},
                "min_events": 1,
            }
        ],
        "concepts": [
            {
                "concept_id": "303.90",
                "name": "persistent heavy drinking pattern",
                "criteria": [
                    {
                        "index": 1,
                        "description": "Recurring drinking events",
                        "match_patterns": [
                            {
                                "action_entity": "alcohol",
                                "action_relationship": "consume",
                                "min_intensity": "occasional",
                            }
                        ],
                    },
                    {
                        "index": 2,
                        "description": "High-frequency drinking",
                        "match_patterns": [
                            {
                                "action_entity": "alcohol",
                                "action_relationship": "consume",
                                "min_intensity": "frequent",
                            }
                        ],
                    },
                ],
                "threshold": 2,
                "min_score_per_criterion": 1,
            }
        ],
        "refinement_policies": [
            {
                "entity_class": "alcohol",
                "relationship_class": "consume",
                "attribute": "amount",
                "rule": "max",
            }
        ],
        "exclusion_rules": [],
    }


def build_jobs_corpus() -> list[dict]:
    content_rows = [row for row in ROWS if row[8] is not None]
    records = []
    for i, row in enumerate(content_rows):
        o_code, sentence = row[0], row[8]
        when = HORIZON_START + timedelta(days=1 + i, hours=9 + (i % 8))
        records.append(
            {
                "text": sentence,
                "source_uri": f"bio://jobs/ch{(i % 7) + 1:02d}",
                "timestamp": when.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "subjects": ["steve"],
            }
        )
    return records


ALCOHOL_SENTENCES = [
    "A had a drink of whiskey after work.",
    "Friends saw A booze up on beers at the party.",
    "A said he would bottom up tonight with cheap wine.",
]


def build_alcohol_corpus() -> list[dict]:
    records = []
    i = 0
    for week in range(4):
        for day in (1, 3, 5):
            when = HORIZON_START + timedelta(days=week * 7 + day, hours=20)
            records.append(
                {
                    "text": ALCOHOL_SENTENCES[i % 3],
                    "source_uri": f"log://team/s{(i % 4) + 1}",
                    "timestamp": when.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "subjects": ["a"],
                }
            )
            i += 1
    return records


def verify(ocpd: dict, jobs_records: list[dict], alcohol: dict, alcohol_records: list[dict]) -> None:
    spec = parse_ontology(ocpd)
    report = validate_ontology(spec)
    assert not report.errors, report.errors
    assert not report.warnings, report.warnings

    # Each sentence must produce exactly its own row's two annotations.
    matcher = GazetteerMatcher(spec)
    content_rows = [row for row in ROWS if row[8] is not None]
    for row, record in zip(content_rows, jobs_records):
        tokens = tokenize(record["text"])
        annotations = matcher.scan(record["text"], tokens)
        found = {(a.canonical_id, a.kind) for a in annotations}
        expected = {(row[1], "entity"), (row[4], "relationship")}
        assert found == expected, (row[0], found, expected)

    horizon = timedelta(days=28).total_seconds()
    buckets = {
        int(parse_instant(r["timestamp"]).timestamp() // horizon) for r in jobs_records
    }
    assert len(buckets) == 1, buckets
    buckets = {
        int(parse_instant(r["timestamp"]).timestamp() // horizon)
        for r in alcohol_records
    }
    assert len(buckets) == 1, buckets
    weeks = {
        int(parse_instant(r["timestamp"]).timestamp() // timedelta(days=7).total_seconds())
        for r in alcohol_records
    }
    assert len(weeks) == 4, weeks

    alcohol_spec = parse_ontology(alcohol)
    report = validate_ontology(alcohol_spec)
    assert not report.errors and not report.warnings, report.findings


def verify_end_to_end(tmp: Path) -> None:
    config = PipelineConfig(
        ontology_paths=[FIXTURES / "ocpd.json"],
        corpus_paths=[FIXTURES / "jobs_corpus.jsonl"],
        store_root=tmp / "store",
        now_override=PINNED_NOW,
    )
    summary = run_pipeline(config)
    stores = Stores(config)
    committed = stores.ledger.committed()
    assert len(committed) == 1, summary
    card = committed[0]
    assert card.score_vector() == GOLDEN_SCORES, card.score_vector()
    assert card.criteria_met == GOLDEN_MET
    status = cli.main(["store", "check", "--store", str(config.store_root)])
    assert status == 0, f"store check exited {status}"
    print(f"golden run ok: scores={card.score_vector()} met={card.criteria_met}")


def fixture_texts() -> dict[str, str]:
    """The text of every fixture file, by name under the fixtures directory."""
    rows_payload = [
        {"o_code": row[0], "entity": row[1], "relationship": row[4], "criteria": row[7]}
        for row in ROWS
        if row[8] is not None
    ]
    config = {
        "ontology": ["ocpd.json"],
        "corpus": ["jobs_corpus.jsonl"],
        "organize": {"window": "7d", "epsilon": "1d", "watermark": "2d"},
        "notes": {"horizon_windows": 4},
        "now": PINNED_NOW,
    }
    return {
        "ocpd.json": json.dumps(build_ocpd(), indent=2) + "\n",
        "alcohol.json": json.dumps(build_alcohol(), indent=2) + "\n",
        "jobs_rows.json": json.dumps(rows_payload, indent=2) + "\n",
        "jobs_corpus.jsonl": "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in build_jobs_corpus()
        ),
        "alcohol_corpus.jsonl": "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in build_alcohol_corpus()
        ),
        "jobs_config.json": json.dumps(config, indent=2) + "\n",
    }


def main() -> None:
    verify(build_ocpd(), build_jobs_corpus(), build_alcohol(), build_alcohol_corpus())
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, text in fixture_texts().items():
        (FIXTURES / name).write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        verify_end_to_end(Path(tmp))
    print("fixtures written to", FIXTURES)


if __name__ == "__main__":
    main()
