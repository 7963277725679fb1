from __future__ import annotations

import random
import re
import unicodedata

from notecards.annotate import (
    GazetteerMatcher,
    annotate_document,
    annotate_with_matcher,
    split_sentences,
    tokenize,
)
from notecards.ingest import SourceMeta, make_document
from notecards.ontology import parse_ontology

from conftest import utc

INGESTED = utc(2011, 11, 13)


def spec_with(dictionary: list[dict], extra_entities: list[str] = (), extra_rels: list[str] = ()):
    entity_ids = sorted(
        {d["canonical_id"] for d in dictionary if d["kind"] == "entity"}
        | set(extra_entities)
    )
    rel_ids = sorted(
        {d["canonical_id"] for d in dictionary if d["kind"] == "relationship"}
        | set(extra_rels)
    )
    return parse_ontology(
        {
            "id": "test",
            "version": "1",
            "entity_classes": [
                {"id": e, "description": e, "attribute_schema": {}} for e in entity_ids
            ],
            "relationship_classes": [
                {"id": r, "description": r, "attribute_schema": {}} for r in rel_ids
            ],
            "dictionary": dictionary,
            "note_templates": [],
            "concepts": [],
            "refinement_policies": [],
            "exclusion_rules": [],
        }
    )


def doc(text: str, subjects=("steve",), timestamp=None, place=None):
    meta = SourceMeta(
        source_uri="test://doc", timestamp=timestamp, place=place, subjects=tuple(subjects)
    )
    return make_document(text, meta, ingested_at=INGESTED)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_splits_trailing_punctuation():
    tokens = [(t.text, t.start, t.end) for t in tokenize("Bottom up!")]
    assert tokens == [("Bottom", 0, 6), ("up", 7, 9), ("!", 9, 10)]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_spans_under_double_space():
    tokens = [(t.text, t.start, t.end) for t in tokenize("a  b")]
    assert tokens == [("a", 0, 1), ("b", 3, 4)]


def test_tokenize_leading_punctuation_and_inner_hyphen():
    tokens = [t.text for t in tokenize('("trade-offs")')]
    assert tokens == ["(", '"', "trade-offs", '"', ")"]


def test_sentence_split_rules():
    text = "First one. Second one! Third? trailing"
    spans = split_sentences(text)
    assert [text[a:b].strip() for a, b in spans] == [
        "First one.",
        "Second one!",
        "Third?",
        "trailing",
    ]
    # Punctuation not followed by whitespace does not split.
    assert len(split_sentences("version 1.5 is out")) == 1


# ---------------------------------------------------------------------------
# Matching semantics
# ---------------------------------------------------------------------------


def test_exact_match_only_no_stemming():
    spec = spec_with(
        [
            {"surface_form": "booze up", "canonical_id": "consume", "kind": "relationship"},
            {"surface_form": "A", "canonical_id": "person", "kind": "entity"},
        ]
    )
    outcome = annotate_document(doc("A boozed up last night"), spec)
    annotations = outcome.chunks[0].annotations
    # "boozed up" is not "booze up"; only the person mention matches.
    assert [(a.canonical_id, a.kind) for a in annotations] == [("person", "entity")]


def test_longest_match_wins():
    spec = spec_with(
        [
            {"surface_form": "bottom up", "canonical_id": "consume", "kind": "relationship"},
            {"surface_form": "up", "canonical_id": "direction", "kind": "relationship"},
        ]
    )
    outcome = annotate_document(doc("A will bottom up tonight"), spec)
    annotations = outcome.chunks[0].annotations
    assert len(annotations) == 1
    assert annotations[0].canonical_id == "consume"
    assert annotations[0].surface == "bottom up"


def test_empty_dictionary_still_emits_chunks():
    spec = spec_with([], extra_entities=["person"])
    outcome = annotate_document(doc("Nothing matches here."), spec)
    assert len(outcome.chunks) == 1
    assert outcome.chunks[0].annotations == ()


def test_case_insensitive_match_preserves_surface():
    spec = spec_with(
        [{"surface_form": "beer", "canonical_id": "alcohol", "kind": "entity"}]
    )
    outcome = annotate_document(doc("BEER for everyone."), spec)
    annotation = outcome.chunks[0].annotations[0]
    assert annotation.surface == "BEER"
    assert annotation.canonical_id == "alcohol"


def test_surface_equals_document_slice_and_spans_sorted():
    spec = spec_with(
        [
            {"surface_form": "beer", "canonical_id": "alcohol", "kind": "entity"},
            {"surface_form": "drink", "canonical_id": "consume", "kind": "relationship"},
        ]
    )
    text = "They drink a beer. They drink more beer!"
    outcome = annotate_document(doc(text), spec)
    for chunk in outcome.chunks:
        starts = [a.start for a in chunk.annotations]
        assert starts == sorted(starts)
        for a in chunk.annotations:
            assert text[a.start : a.end] == a.surface


def test_determinism_byte_for_byte():
    spec = spec_with(
        [
            {"surface_form": "beer", "canonical_id": "alcohol", "kind": "entity"},
            {"surface_form": "booze up", "canonical_id": "consume", "kind": "relationship"},
        ]
    )
    document = doc("They booze up on beer. Then more beer.")
    first = annotate_document(document, spec)
    second = annotate_document(document, spec)
    assert first.chunks == second.chunks


# ---------------------------------------------------------------------------
# Subject resolution
# ---------------------------------------------------------------------------


def test_metadata_subject_takes_precedence():
    spec = spec_with(
        [{"surface_form": "woz", "canonical_id": "person", "kind": "entity"}]
    )
    outcome = annotate_document(doc("woz fixed it", subjects=("steve",)), spec)
    assert outcome.chunks[0].subject == "steve"


def test_single_person_entity_resolves_subject():
    spec = spec_with(
        [{"surface_form": "woz", "canonical_id": "person", "kind": "entity"}]
    )
    outcome = annotate_document(doc("woz fixed it", subjects=()), spec)
    assert outcome.chunks[0].subject == "woz"
    assert outcome.skipped == 0


def test_unresolvable_subject_skips_sentence():
    spec = spec_with(
        [
            {"surface_form": "woz", "canonical_id": "person", "kind": "entity"},
            {"surface_form": "steve", "canonical_id": "person", "kind": "entity"},
        ]
    )
    outcome = annotate_document(doc("woz met steve. nobody here.", subjects=()), spec)
    assert outcome.chunks == []
    assert outcome.skipped == 2  # two persons, then zero persons


def test_chunk_time_and_place_come_from_metadata():
    spec = spec_with(
        [{"surface_form": "beer", "canonical_id": "alcohol", "kind": "entity"}]
    )
    when = utc(2011, 10, 14, 9)
    outcome = annotate_document(doc("beer.", timestamp=when, place="the bar"), spec)
    chunk = outcome.chunks[0]
    assert chunk.time == when
    assert chunk.place == "the bar"
    assert chunk.chunk_id.endswith("#0")
    assert chunk.provenance == (chunk.chunk_id,)


# ---------------------------------------------------------------------------
# Oracle equivalence: brute-force candidate enumeration, same precedence
# ---------------------------------------------------------------------------


def brute_force_scan(text: str, spec) -> list[tuple[int, int, str, str]]:
    """Enumerate every candidate match, then select by (start, longest,
    entity-first) until no non-overlapping candidate remains."""
    matcher = GazetteerMatcher(spec)
    tokens = tokenize(text)
    candidates = []
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            hit = matcher.lookup(tuple(t.folded for t in tokens[i:j]))
            if hit is not None:
                canonical, kind = hit
                candidates.append((i, j, canonical, kind))
    chosen = []
    taken: set[int] = set()
    while True:
        viable = [
            c for c in candidates if not (set(range(c[0], c[1])) & taken)
        ]
        if not viable:
            break
        viable.sort(key=lambda c: (c[0], -(c[1] - c[0]), 0 if c[3] == "entity" else 1))
        best = viable[0]
        chosen.append(best)
        taken.update(range(best[0], best[1]))
        candidates.remove(best)
    return sorted(
        (tokens[i].start, tokens[j - 1].end, canonical, kind)
        for i, j, canonical, kind in chosen
    )


def test_matcher_equals_brute_force_oracle():
    # The stated oracle domain: sentences of <= 12 tokens, dictionaries of
    # <= 20 entries, same precedence rules on both sides.
    rng = random.Random(42)
    vocabulary = ["ale", "pale", "pale ale", "up", "bottom", "bottom up", "cask", "dry"]
    for _ in range(300):
        entries = []
        seen = set()
        for _ in range(rng.randint(1, 20)):
            surface = " ".join(
                rng.sample(vocabulary, k=rng.randint(1, 2))
            )
            kind = rng.choice(["entity", "relationship"])
            if (surface, kind) in seen:
                continue
            seen.add((surface, kind))
            entries.append(
                {
                    "surface_form": surface,
                    "canonical_id": f"c_{surface.replace(' ', '_')}_{kind[0]}",
                    "kind": kind,
                }
            )
        if not entries:
            continue
        spec = spec_with(entries)
        words = [rng.choice(vocabulary + ["zig", "zag"]) for _ in range(rng.randint(1, 12))]
        text = " ".join(words)
        matcher = GazetteerMatcher(spec)
        scanned = sorted(
            (a.start, a.end, a.canonical_id, a.kind)
            for a in matcher.scan(text, tokenize(text))
        )
        assert scanned == brute_force_scan(text, spec), (text, entries)


def test_maximality_and_non_overlap():
    rng = random.Random(7)
    entries = [
        {"surface_form": "pale ale", "canonical_id": "c1", "kind": "entity"},
        {"surface_form": "ale", "canonical_id": "c2", "kind": "entity"},
        {"surface_form": "bottom up", "canonical_id": "c3", "kind": "relationship"},
        {"surface_form": "up", "canonical_id": "c4", "kind": "relationship"},
    ]
    spec = spec_with(entries)
    matcher = GazetteerMatcher(spec)
    vocabulary = ["pale", "ale", "bottom", "up", "dry"]
    for _ in range(200):
        text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 10)))
        tokens = tokenize(text)
        annotations = matcher.scan(text, tokens)
        # Non-overlap.
        for a, b in zip(annotations, annotations[1:]):
            assert a.end <= b.start
        # Maximality: extending any match by one token never still matches
        # an entry starting at the same token.
        for a in annotations:
            extended = tuple(
                t.folded for t in tokens[a.token_start : a.token_end + 1]
            )
            if len(extended) == a.token_end + 1 - a.token_start:
                assert matcher.lookup(extended) is None


# ---------------------------------------------------------------------------
# Oracle equivalence: the per-character tokenizer
# ---------------------------------------------------------------------------


def char_loop_tokenize(text: str) -> list[tuple[str, int, int]]:
    """The tokenizer as first written: one character at a time."""
    is_punct = lambda char: unicodedata.category(char).startswith("P")  # noqa: E731
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        lo, hi = i, j
        while lo < hi and is_punct(text[lo]):
            tokens.append((text[lo], lo, lo + 1))
            lo += 1
        trailing = []
        while hi > lo and is_punct(text[hi - 1]):
            trailing.append((text[hi - 1], hi - 1, hi))
            hi -= 1
        if lo < hi:
            tokens.append((text[lo:hi], lo, hi))
        tokens.extend(reversed(trailing))
        i = j
    return tokens


def test_tokenize_equals_the_per_character_oracle():
    rng = random.Random(9)
    # Symbols are not punctuation, so they stay on a token's ends, and a
    # run with non-ASCII punctuation at an end leaves the fast path.
    words = ["ale", "Bottom", "trade-offs", "12.5", "café", "ÉTÉ", "x", "$5", "a+b=c", "x^2",
             "|x|", "~1", "€20", "5€"]
    punctuation = list(".,!?;:()\"'-¿«»…、。・‐〈〉")
    # ASCII, no-break, em and ideographic spaces, the file separator and NEL.
    spaces = [" ", "  ", "\t", "\n", " ", " ", "　", "\x1c", "\x85"]
    for _ in range(500):
        parts = []
        for _ in range(rng.randint(0, 8)):
            shape = rng.randrange(4)
            if shape == 0:  # punctuation only
                token = "".join(rng.choices(punctuation, k=rng.randint(1, 3)))
            else:
                token = rng.choice(words)
                if shape in (1, 3):
                    token = "".join(rng.choices(punctuation, k=rng.randint(1, 2))) + token
                if shape in (2, 3):
                    token += "".join(rng.choices(punctuation, k=rng.randint(1, 2)))
            parts.append(token)
            parts.append(rng.choice(spaces))
        if parts and rng.random() < 0.5:
            parts.pop()
        if rng.random() < 0.3:
            parts.insert(0, rng.choice(spaces))
        text = "".join(parts)
        expected = char_loop_tokenize(text)
        assert [(t.text, t.start, t.end) for t in tokenize(text)] == expected, repr(text)
        offset = rng.randint(1, 50)
        assert [(t.text, t.start, t.end) for t in tokenize(text, offset)] == [
            (token, start + offset, end + offset) for token, start, end in expected
        ], repr(text)


def char_loop_split_sentences(text: str) -> list[tuple[int, int]]:
    """The sentence splitter as first written: one character at a time."""
    spans = []
    start = 0
    for i, char in enumerate(text):
        if char in ".!?" and (i + 1 == len(text) or text[i + 1].isspace()):
            spans.append((start, i + 1))
            start = i + 1
    if start < len(text):
        spans.append((start, len(text)))
    return [(a, b) for a, b in spans if text[a:b].strip()]


def test_split_sentences_equals_the_per_character_oracle():
    rng = random.Random(10)
    words = ["He", "ale", "12.5", "v1.5", "e.g.", "café", "x"]
    terminators = [".", "!", "?", "...", "?!", "!!"]
    # ASCII, no-break, ideographic and em spaces, the file separator and NEL.
    spaces = [" ", "  ", "\t", "\n", "\u00a0", "\u3000", "\u2003", "\x1c", "\x85"]
    for _ in range(2000):
        parts = []
        for _ in range(rng.randint(0, 10)):
            shape = rng.random()
            if shape < 0.5:
                parts.append(rng.choice(words))
            elif shape < 0.8:
                parts.append(rng.choice(terminators))
            else:
                parts.append(rng.choice(spaces))
            if rng.random() < 0.6:
                parts.append(rng.choice(spaces))
        text = "".join(parts)
        assert split_sentences(text) == char_loop_split_sentences(text), repr(text)


def test_quantities_are_the_tokens_the_number_pattern_matches():
    # Only a token whose first character is decimal can be a quantity; other
    # scripts' decimal digits count, superscripts and fractions do not.
    rng = random.Random(11)
    pieces = ["12", "12.5", "1.5.2", ".5", "x2", "2x", "٣", "٣.٥", "५०", "３", "²", "½", "1,000", "-3"]
    matcher = GazetteerMatcher(spec_with([]))
    for _ in range(300):
        text = " ".join(rng.choices(pieces, k=rng.randint(1, 8))) + "."
        [chunk] = annotate_with_matcher(doc(text), matcher).chunks
        tokens = tokenize(text)
        expected = tuple(
            (index, float(token.text))
            for index, token in enumerate(tokens)
            if re.fullmatch(r"\d+(\.\d+)?", token.text)
        )
        assert chunk.quantities == expected, text
