"""Card network: derived graph, route enumeration, exports.

Edges are always recomputed from card state, never stored, so the graph
cannot drift from the ledger. Node kinds are cards and subjects; edge
types are exactly same-subject, conflict and evidence-shared.
Route finding treats edges as undirected (routes on a map) and returns
simple paths ordered shortest first, then by node-id sequence.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from itertools import combinations
from typing import Iterable, Sequence

from .cards import Card

DEFAULT_MAX_ROUTE_LENGTH = 6  # enumeration budget for scenario walks


class GraphError(Exception):
    """Unknown node ids or malformed filters."""


@dataclass(frozen=True)
class GraphNode:
    node_id: str
    kind: str  # "card" | "subject"
    label: str


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    edge_type: str


@dataclass(frozen=True)
class CardGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def node_ids(self) -> set[str]:
        return {node.node_id for node in self.nodes}

    def neighbors(self) -> dict[str, list[str]]:
        adjacency: dict[str, list[str]] = {node.node_id: [] for node in self.nodes}
        for edge in self.edges:
            if edge.target not in adjacency[edge.source]:
                adjacency[edge.source].append(edge.target)
            if edge.source not in adjacency[edge.target]:
                adjacency[edge.target].append(edge.source)
        for neighbors in adjacency.values():
            neighbors.sort()
        return adjacency


@dataclass(frozen=True)
class GraphFilter:
    subjects: frozenset[str] = frozenset()
    concepts: frozenset[str] = frozenset()
    time_range: tuple[datetime, datetime] | None = None

    def admits(self, card: Card) -> bool:
        if self.subjects and card.subject not in self.subjects:
            return False
        if self.concepts and card.concept_id not in self.concepts:
            return False
        if self.time_range is not None:
            start, end = card.validity
            lo, hi = self.time_range
            if start is None:
                return False
            if start >= hi or (end is not None and end <= lo):
                return False
        return True


def subject_node_id(subject: str) -> str:
    return f"subject:{subject}"


def build_graph(cards: Sequence[Card], card_filter: GraphFilter | None = None) -> CardGraph:
    """Deterministic graph over the filtered card set; empty filter = all."""
    card_filter = card_filter or GraphFilter()
    selected = sorted(
        (card for card in cards if card_filter.admits(card)), key=lambda c: c.card_id
    )
    nodes: dict[str, GraphNode] = {}
    edges: set[GraphEdge] = set()
    for card in selected:
        nodes[card.card_id] = GraphNode(
            node_id=card.card_id,
            kind="card",
            label=f"{card.concept_id}@{card.subject}",
        )
        sid = subject_node_id(card.subject)
        nodes.setdefault(sid, GraphNode(node_id=sid, kind="subject", label=card.subject))
        edges.add(GraphEdge(card.card_id, sid, "same-subject"))

    selected_ids = {card.card_id for card in selected}
    for card in selected:
        for event in card.reasoning_trail:
            if event.kind == "conflict-detected":
                other = event.detail_map().get("counterpart")
                if other in selected_ids:
                    a, b = sorted((card.card_id, other))
                    edges.add(GraphEdge(a, b, "conflict"))

    # Cards holding each refined note, in card_id order, so every pair is (lower, higher).
    holders: dict[str, list[str]] = defaultdict(list)
    for card in selected:
        for evidence_id in card.evidence_ids():
            holders[evidence_id].append(card.card_id)
    for card_ids in holders.values():
        for a, b in combinations(card_ids, 2):
            edges.add(GraphEdge(a, b, "evidence-shared"))

    return CardGraph(
        nodes=tuple(sorted(nodes.values(), key=lambda n: n.node_id)),
        edges=tuple(sorted(edges, key=lambda e: (e.source, e.target, e.edge_type))),
    )


def find_routes(
    graph: CardGraph, start: str, end: str, max_length: int = DEFAULT_MAX_ROUTE_LENGTH
) -> list[list[str]]:
    """All simple paths from start to end with at most max_length edges."""
    ids = graph.node_ids()
    if start not in ids:
        raise GraphError(f"unknown node {start!r}")
    if end not in ids:
        raise GraphError(f"unknown node {end!r}")
    if max_length < 1:
        raise GraphError("max_length must be >= 1")
    adjacency = graph.neighbors()
    routes: list[list[str]] = []

    def walk(path: list[str]) -> None:
        node = path[-1]
        if node == end:
            routes.append(list(path))
            return
        if len(path) - 1 >= max_length:
            return
        for neighbor in adjacency[node]:
            if neighbor not in path:
                path.append(neighbor)
                walk(path)
                path.pop()

    walk([start])
    routes.sort(key=lambda p: (len(p), p))
    return routes


def export_graph(graph: CardGraph, format: str = "dot") -> str:
    """Byte-deterministic DOT or JSON rendering of a graph."""
    if format == "json":
        payload = {
            "nodes": [
                {"id": n.node_id, "kind": n.kind, "label": n.label} for n in graph.nodes
            ],
            "edges": [
                {"source": e.source, "target": e.target, "type": e.edge_type}
                for e in graph.edges
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if format != "dot":
        raise GraphError(f"unknown export format {format!r}")

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph cards {"]
    for node in graph.nodes:
        lines.append(
            f"  {quote(node.node_id)} [label={quote(node.label)} kind={quote(node.kind)}];"
        )
    for edge in graph.edges:
        lines.append(
            f"  {quote(edge.source)} -> {quote(edge.target)} [label={quote(edge.edge_type)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def query_cards(
    cards: Iterable[Card],
    concept: str | None = None,
    status: str | None = None,
    subject: str | None = None,
    min_criteria_met: int | None = None,
    max_criteria_met: int | None = None,
) -> list[Card]:
    """Predicate filtering with full evidence and reasoning trails."""
    out = []
    for card in sorted(cards, key=lambda c: c.card_id):
        if concept is not None and card.concept_id != concept:
            continue
        if status is not None and card.status != status:
            continue
        if subject is not None and card.subject != subject:
            continue
        met = card.criteria_met
        if min_criteria_met is not None and met < min_criteria_met:
            continue
        if max_criteria_met is not None and met > max_criteria_met:
            continue
        out.append(card)
    return out
