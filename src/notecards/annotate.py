"""Deterministic gazetteer annotation.

Replaces a trained annotator with exact dictionary matching behind a small
functional surface: identical (document, ontology) inputs always produce
identical annotation lists. Morphological variants must be listed
explicitly in the dictionary; negation is not modeled (a negated sentence
annotates like an affirmative one), and only the first metadata subject is
resolved per sentence.

Matching is case-insensitive, greedy longest-match, left-to-right over
contiguous token sequences; matched spans never overlap. When an entity
and a relationship entry tie on the same span, the entity wins.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property, lru_cache
from typing import NamedTuple

from .clock import format_instant
from .ingest import Document
from .ontology import PERSON_CLASS_ID, OntologySpec

# What annotate_with_matcher gives for a (document, ontology) pair. A store
# pins the version that wrote its chunks, which it reads back by annotating
# again: raise it with any change to this module that changes that output.
ANNOTATOR_VERSION = 1

_NUMBER_RE = re.compile(r"^\d+(\.\d+)?$")
# A maximal run of non-whitespace; ``\s`` is exactly ``str.isspace``.
_RUN_RE = re.compile(r"\S+")


class Token(NamedTuple):
    text: str
    start: int
    end: int  # half-open char offsets into the original text

    @property
    def folded(self) -> str:
        return self.text.casefold()


@dataclass(frozen=True)
class Annotation:
    start: int
    end: int  # half-open char span
    surface: str
    canonical_id: str
    kind: str  # "entity" | "relationship"
    token_start: int = 0  # token indices within the sentence
    token_end: int = 0


@dataclass(frozen=True)
class AnnotatedChunk:
    chunk_id: str
    doc_id: str
    sentence_index: int
    # None when read from a chunk line, which holds only their signature.
    annotations: tuple[Annotation, ...] | None
    subject: str
    time: datetime | None
    place: str | None
    quantities: tuple[tuple[int, float], ...] = ()  # (token index, value)
    provenance: tuple[str, ...] = ()
    signature: tuple[tuple[str, str], ...] | None = None  # set when annotations is None

    @cached_property
    def stamp(self) -> str:
        """The time as stored text, "" when undated; chunks sort by it."""
        return format_instant(self.time) if self.time else ""

    def annotation_signature(self) -> tuple[tuple[str, str], ...]:
        """Sorted multiset of (canonical_id, kind) pairs, used by dedup."""
        if self.annotations is None:
            return self.signature
        return tuple(sorted((a.canonical_id, a.kind) for a in self.annotations))


@dataclass
class AnnotateOutcome:
    chunks: list[AnnotatedChunk]
    skipped: int = 0  # sentences dropped for lack of a resolvable subject


@lru_cache(maxsize=4096)  # a corpus uses few distinct characters
def _is_punct(char: str) -> bool:
    return unicodedata.category(char).startswith("P")


def tokenize(text: str, offset: int = 0) -> list[Token]:
    """Whitespace tokens with leading/trailing punctuation split off.

    Case is preserved in the token text; spans index into the original
    string shifted by *offset* (the text's own start in a larger string),
    so collapsed whitespace never shifts them.
    """
    tokens: list[Token] = []
    for run in _RUN_RE.finditer(text):
        lo, hi = run.span()
        while lo < hi and _is_punct(text[lo]):
            tokens.append(Token(text[lo], lo + offset, lo + offset + 1))
            lo += 1
        trailing: list[Token] = []
        while hi > lo and _is_punct(text[hi - 1]):
            trailing.append(Token(text[hi - 1], hi - 1 + offset, hi + offset))
            hi -= 1
        if lo < hi:
            tokens.append(Token(text[lo:hi], lo + offset, hi + offset))
        tokens.extend(reversed(trailing))
    return tokens


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Half-open sentence spans, split on . ! ? followed by space or end."""
    spans = []
    start = 0
    for i, char in enumerate(text):
        if char in ".!?" and (i + 1 == len(text) or text[i + 1].isspace()):
            spans.append((start, i + 1))
            start = i + 1
    if start < len(text):
        spans.append((start, len(text)))
    return [(a, b) for a, b in spans if text[a:b].strip()]


class GazetteerMatcher:
    """Token-sequence dictionary with longest-match scanning.

    Besides the keys it holds every key prefix, so a scan walks forward
    from each start position only while the tokens so far can still
    become a key, and folds each token once.
    """

    def __init__(self, spec: OntologySpec):
        self._entries: dict[tuple[str, ...], dict[str, str]] = {}
        self._prefixes: set[tuple[str, ...]] = set()
        for entry in spec.dictionary:
            key = tuple(t.folded for t in tokenize(entry.surface_form))
            if not key:
                continue
            self._entries.setdefault(key, {})[entry.kind] = entry.canonical_id
            self._prefixes.update(key[:n] for n in range(1, len(key) + 1))

    def lookup(self, key: tuple[str, ...]) -> tuple[str, str] | None:
        """Resolve a folded token sequence to (canonical_id, kind)."""
        kinds = self._entries.get(key)
        if not kinds:
            return None
        if "entity" in kinds:  # fixed tie precedence: entity over relationship
            return kinds["entity"], "entity"
        return kinds["relationship"], "relationship"

    def scan(self, text: str, tokens: list[Token]) -> list[Annotation]:
        folded = [t.text.casefold() for t in tokens]
        prefixes, entries = self._prefixes, self._entries
        annotations = []
        i, n = 0, len(tokens)
        while i < n:
            key: tuple[str, ...] = ()
            match = key
            for j in range(i, n):
                key += (folded[j],)
                if key not in prefixes:
                    break
                if key in entries:
                    match = key
            if not match:
                i += 1
                continue
            length = len(match)
            canonical_id, kind = self.lookup(match)
            start, end = tokens[i].start, tokens[i + length - 1].end
            annotations.append(
                Annotation(
                    start=start,
                    end=end,
                    surface=text[start:end],
                    canonical_id=canonical_id,
                    kind=kind,
                    token_start=i,
                    token_end=i + length,
                )
            )
            i += length
        return annotations


def _resolve_subject(doc: Document, annotations: list[Annotation]) -> str | None:
    if doc.meta.subjects:
        return doc.meta.subjects[0]
    persons = {a.surface for a in annotations if a.canonical_id == PERSON_CLASS_ID}
    if len(persons) == 1:
        return persons.pop()
    return None


def annotate_document(doc: Document, spec: OntologySpec) -> AnnotateOutcome:
    """Tag one document sentence by sentence; skips are counted, not raised."""
    matcher = GazetteerMatcher(spec)
    return annotate_with_matcher(doc, matcher)


def annotate_with_matcher(doc: Document, matcher: GazetteerMatcher) -> AnnotateOutcome:
    outcome = AnnotateOutcome(chunks=[])
    for sentence_index, (start, end) in enumerate(split_sentences(doc.text)):
        tokens = tokenize(doc.text[start:end], start)
        annotations = matcher.scan(doc.text, tokens)
        subject = _resolve_subject(doc, annotations)
        if subject is None:
            outcome.skipped += 1
            continue
        quantities = tuple(
            (idx, float(tok.text))
            for idx, tok in enumerate(tokens)
            if _NUMBER_RE.match(tok.text)
        )
        chunk_id = f"{doc.doc_id}#{sentence_index}"
        outcome.chunks.append(
            AnnotatedChunk(
                chunk_id=chunk_id,
                doc_id=doc.doc_id,
                sentence_index=sentence_index,
                annotations=tuple(annotations),
                subject=subject,
                time=doc.meta.timestamp,
                place=doc.meta.place,
                quantities=quantities,
                provenance=(chunk_id,),
            )
        )
    return outcome
