from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from datetime import timedelta

import pytest

from notecards.cards import Card, ReasoningEvent, make_card_id, new_card
from notecards.graph import (
    CardGraph,
    GraphEdge,
    GraphError,
    GraphFilter,
    GraphNode,
    build_graph,
    export_graph,
    find_routes,
    query_cards,
)
from notecards.ontology import parse_ontology

from conftest import add_evidence, concept_of, utc

NOW = utc(2011, 11, 13)


def simple_spec():
    return parse_ontology(
        {
            "id": "g",
            "version": "1",
            "entity_classes": [{"id": "e", "description": "e", "attribute_schema": {}}],
            "relationship_classes": [
                {"id": "r", "description": "r", "attribute_schema": {}}
            ],
            "dictionary": [],
            "note_templates": [
                {"template_id": "t", "trigger": {"entity": "e", "relationship": "r"}}
            ],
            "concepts": [
                {
                    "concept_id": f"c{i}",
                    "name": f"c{i}",
                    "criteria": [
                        {
                            "index": 1,
                            "description": "presence",
                            "match_patterns": [
                                {"action_entity": "e", "action_relationship": "r"}
                            ],
                        }
                    ],
                    "threshold": 1,
                }
                for i in range(3)
            ],
            "refinement_policies": [],
            "exclusion_rules": [],
        }
    )


def committed_card(spec, concept_id, subject, evidence=("rn-1",)):
    from dataclasses import replace

    card = new_card(concept_of(spec, concept_id), subject)
    for rid in evidence:
        card = add_evidence(card, 1, rid)
    return replace(card, status="committed", validity=(NOW, None))


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def test_single_card_graph():
    spec = simple_spec()
    graph = build_graph([committed_card(spec, "c0", "steve")])
    assert len(graph.nodes) == 2
    kinds = {n.kind for n in graph.nodes}
    assert kinds == {"card", "subject"}
    assert len(graph.edges) == 1
    assert graph.edges[0].edge_type == "same-subject"
    card_node = next(n for n in graph.nodes if n.kind == "card")
    assert card_node.label == "c0@steve"


def test_empty_store_empty_graph():
    graph = build_graph([])
    assert graph.nodes == ()
    assert graph.edges == ()


def test_shared_evidence_creates_edge():
    spec = simple_spec()
    a = committed_card(spec, "c0", "steve", evidence=("rn-1", "rn-2"))
    b = committed_card(spec, "c1", "steve", evidence=("rn-2",))
    graph = build_graph([a, b])
    types = {e.edge_type for e in graph.edges}
    assert "evidence-shared" in types
    shared = [e for e in graph.edges if e.edge_type == "evidence-shared"]
    assert len(shared) == 1


def test_filter_by_subject_and_concept():
    spec = simple_spec()
    cards = [
        committed_card(spec, "c0", "steve"),
        committed_card(spec, "c1", "woz"),
    ]
    only_woz = build_graph(cards, GraphFilter(subjects=frozenset({"woz"})))
    assert {n.node_id for n in only_woz.nodes if n.kind == "card"} == {"c1@woz#g1"}
    only_c0 = build_graph(cards, GraphFilter(concepts=frozenset({"c0"})))
    assert {n.node_id for n in only_c0.nodes if n.kind == "card"} == {"c0@steve#g1"}


def pairwise_graph(cards, card_filter: GraphFilter) -> CardGraph:
    """build_graph with its evidence-shared edges found by comparing every pair of cards."""
    bare = build_graph([replace(card, dimensions=()) for card in cards], card_filter)
    selected = sorted((c for c in cards if card_filter.admits(c)), key=lambda c: c.card_id)
    edges = set(bare.edges)
    for i, card in enumerate(selected):
        mine = {eid for _, ids in card.dimensions for eid in ids}
        for other in selected[i + 1 :]:
            if mine & {eid for _, ids in other.dimensions for eid in ids}:
                edges.add(GraphEdge(card.card_id, other.card_id, "evidence-shared"))
    return CardGraph(
        nodes=bare.nodes,
        edges=tuple(sorted(edges, key=lambda e: (e.source, e.target, e.edge_type))),
    )


def random_cards(rng: random.Random, n: int) -> list[Card]:
    """Cards over few subjects, concepts and refined ids, so that they overlap often."""
    ids = sorted(
        {
            make_card_id(f"c{rng.randrange(3)}", f"s{rng.randrange(4)}", rng.randint(1, 3))
            for _ in range(n)
        }
    )
    pool = [f"rn-{i}" for i in range(rng.randint(1, 12))]
    cards = []
    for card_id in ids:
        concept, rest = card_id.split("@")
        subject = rest.split("#")[0]
        dimensions = tuple(
            (index, tuple(rng.sample(pool, rng.randint(0, min(3, len(pool))))))
            for index in sorted(rng.sample(range(1, 4), rng.randint(0, 3)))
        )
        trail = tuple(
            ReasoningEvent(
                kind,
                NOW,
                ((key, rng.choice(ids + ["c9@nobody#g1"])),),
            )
            for kind, key in rng.sample(
                [("conflict-detected", "counterpart"), ("remake-completed", "successor"),
                 ("committed", "by")],
                rng.randint(0, 3),
            )
        )
        start = None if rng.random() < 0.2 else NOW + timedelta(days=rng.randrange(20))
        end = None if start is None or rng.random() < 0.5 else start + timedelta(days=rng.randint(1, 9))
        cards.append(
            Card(
                card_id=card_id,
                concept_id=concept,
                subject=subject,
                dimensions=dimensions,
                threshold=1,
                min_score_per_criterion=1,
                criteria_count=3,
                status="committed",
                validity=(start, end),
                reasoning_trail=trail,
            )
        )
    rng.shuffle(cards)
    return cards


def random_filter(rng: random.Random) -> GraphFilter:
    time_range = None
    if rng.random() < 0.3:
        lo = NOW + timedelta(days=rng.randrange(20))
        time_range = (lo, lo + timedelta(days=rng.randint(1, 9)))
    return GraphFilter(
        subjects=frozenset(f"s{i}" for i in range(4) if rng.random() < 0.3),
        concepts=frozenset(f"c{i}" for i in range(3) if rng.random() < 0.3),
        time_range=time_range,
    )


def test_graph_matches_pairwise_oracle_on_random_card_sets():
    rng = random.Random(7)
    shared = 0
    for _ in range(300):
        cards = random_cards(rng, rng.randint(0, 25))
        card_filter = random_filter(rng)
        graph = build_graph(cards, card_filter)
        expected = pairwise_graph(cards, card_filter)
        assert graph.nodes == expected.nodes
        assert graph.edges == expected.edges
        # Events other than conflict-detected, remake-completed among them, add no edge.
        assert {e.edge_type for e in graph.edges} <= {"same-subject", "conflict", "evidence-shared"}
        shared += any(e.edge_type == "evidence-shared" for e in graph.edges)
    assert shared > 100  # the sets do exercise evidence sharing


def test_build_reads_each_cards_evidence_once(monkeypatch):
    cards = random_cards(random.Random(3), 40)
    calls = []
    evidence_ids = Card.evidence_ids
    monkeypatch.setattr(
        Card, "evidence_ids", lambda card: calls.append(card.card_id) or evidence_ids(card)
    )
    build_graph(cards)
    assert len(cards) > 20
    assert len(calls) <= len(cards)


# ---------------------------------------------------------------------------
# Route enumeration
# ---------------------------------------------------------------------------


def graph_from_edges(nodes: list[str], edges: list[tuple[str, str]]) -> CardGraph:
    return CardGraph(
        nodes=tuple(GraphNode(n, "card", n) for n in sorted(nodes)),
        edges=tuple(GraphEdge(a, b, "same-subject") for a, b in sorted(edges)),
    )


def test_triangle_routes():
    graph = graph_from_edges(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    assert find_routes(graph, "A", "C", 3) == [["A", "C"], ["A", "B", "C"]]


def test_trivial_route_start_equals_end():
    graph = graph_from_edges(["A", "B"], [("A", "B")])
    assert find_routes(graph, "A", "A", 3) == [["A"]]


def test_disconnected_no_routes():
    graph = graph_from_edges(["A", "B", "C"], [("A", "B")])
    assert find_routes(graph, "A", "C", 5) == []


def test_unknown_node_rejected():
    graph = graph_from_edges(["A"], [])
    with pytest.raises(GraphError):
        find_routes(graph, "A", "Z", 3)


def test_max_length_bounds_paths():
    graph = graph_from_edges(
        ["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")]
    )
    short = find_routes(graph, "A", "D", 1)
    assert short == [["A", "D"]]
    longer = find_routes(graph, "A", "D", 3)
    assert longer == [["A", "D"], ["A", "B", "C", "D"]]


def dfs_oracle(nodes, edges, start, end, max_length):
    """Brute-force DFS enumeration over the undirected adjacency."""
    adjacency = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    found = []

    def explore(path):
        if path[-1] == end:
            found.append(list(path))
            return
        if len(path) - 1 >= max_length:
            return
        for nxt in sorted(adjacency[path[-1]]):
            if nxt not in path:
                path.append(nxt)
                explore(path)
                path.pop()

    explore([start])
    return sorted(found, key=lambda p: (len(p), p))


def test_routes_match_dfs_oracle_on_random_graphs():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(2, 7)
        nodes = [f"N{i}" for i in range(n)]
        all_pairs = list(itertools.combinations(nodes, 2))
        edges = [pair for pair in all_pairs if rng.random() < 0.5]
        graph = graph_from_edges(nodes, edges)
        start, end = rng.sample(nodes, 2)
        max_length = rng.randint(1, 6)
        assert find_routes(graph, start, end, max_length) == dfs_oracle(
            nodes, edges, start, end, max_length
        )


def test_paths_are_simple_and_bounded():
    graph = graph_from_edges(
        ["A", "B", "C", "D", "E"],
        [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E"), ("B", "D")],
    )
    for route in find_routes(graph, "A", "E", 4):
        assert len(set(route)) == len(route)
        assert len(route) - 1 <= 4


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_dot_export_single_edge():
    spec = simple_spec()
    graph = build_graph([committed_card(spec, "c0", "steve")])
    dot = export_graph(graph, "dot")
    assert dot.startswith("digraph cards {")
    assert dot.count("->") == 1
    assert '"c0@steve#g1" -> "subject:steve" [label="same-subject"];' in dot


def test_exports_are_byte_deterministic():
    spec = simple_spec()
    cards = [
        committed_card(spec, "c0", "steve", evidence=("rn-1", "rn-2")),
        committed_card(spec, "c1", "steve", evidence=("rn-2",)),
    ]
    assert export_graph(build_graph(cards), "dot") == export_graph(build_graph(cards), "dot")
    assert export_graph(build_graph(cards), "json") == export_graph(
        build_graph(cards), "json"
    )


def test_json_export_round_trips():
    spec = simple_spec()
    graph = build_graph(
        [
            committed_card(spec, "c0", "steve"),
            committed_card(spec, "c1", "woz"),
        ]
    )
    payload = json.loads(export_graph(graph, "json"))
    assert len(payload["nodes"]) == len(graph.nodes)
    assert len(payload["edges"]) == len(graph.edges)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def test_query_by_status_and_bounds():
    spec = simple_spec()
    committed = committed_card(spec, "c0", "steve")
    premature = new_card(concept_of(spec, "c1"), "steve")
    cards = [committed, premature]
    assert query_cards(cards, status="committed") == [committed]
    assert query_cards(cards, min_criteria_met=7) == []
    assert query_cards(cards) == sorted(cards, key=lambda c: c.card_id)
    assert query_cards(cards, subject="steve", concept="c0") == [committed]
