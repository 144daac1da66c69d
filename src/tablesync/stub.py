"""Deterministic offline backend: rule-driven responses for every prompt kind.

The stub reads each prompt through the template that filled it
(`prompts.slots_of`), simulates that stage on the slot values, and answers with
a pure function of the request and the rule set, so whole runs are reproducible
without any model access. A template may be reworded as long as its $slot
names stay and no slot value contains the literal that follows it.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Collection

from . import prompts
from .alignment import greedy_key_matches
from .dataset import read_entries
from .errors import ConfigError, NoTableFound
from .gateway import CompletionRequest
from .metrics import COMPARISON_KEYS, token_compare
from .tables import (
    DEFAULT_PIVOT,
    KnowledgeGraph,
    TableRow,
    Value,
    extract_candidates,
    flatten_kg,
    language_code,
    normalize_key,
    parse_kg,
    parse_table,
    serialize_kg,
    serialize_table,
    table_to_flat_kg,
)

LexiconPairs = tuple[tuple[str, str], ...]


class StubRuleSet(Value):
    """Rules driving the stub: phrase lexicons per (source, target) language pair.
    No phrase is empty: `from_dir` splits each stripped line at a tab."""

    __slots__ = ("lexicons",)  # (source, target) language pair -> LexiconPairs
    _defaults = {"lexicons": {}}

    @staticmethod
    def from_dir(path: str | Path, pairs: Collection[tuple[str, str]] | None = None) -> StubRuleSet:
        """Load `<src>-<tgt>.tsv` lexicon files (tab-separated phrase pairs):
        all of them, or only those whose (src, tgt) is in pairs.

        An unreadable file, or a line that is not two nonempty phrases
        separated by a tab, is a ConfigError naming the file and line. A file
        that is not loaded is not read.
        """
        lexicons: dict[tuple[str, str], LexiconPairs] = {}
        for file in sorted(Path(path).glob("*-*.tsv")):
            src, tgt = file.stem.split("-", 1)
            if pairs is not None and (src, tgt) not in pairs:
                continue
            lexicons[(src, tgt)] = tuple(read_entries(file, "lexicon", "\t", ConfigError))
        return StubRuleSet(lexicons=lexicons)

    def lexicon(self, src: str, tgt: str) -> LexiconPairs:
        """Entries in the order given; empty when the pair is unknown."""
        return self.lexicons.get((src, tgt), ())


def _is_word(ch: str) -> bool:
    """A Unicode letter, digit or underscore: exactly `re`'s \\w for str."""
    return ch.isalnum() or ch == "_"


@lru_cache(maxsize=64)
def _lexicon_matcher(pairs: LexiconPairs) -> tuple[dict[str, tuple[int, ...]], dict[str, str]]:
    """Each source's first character mapped to the distinct source lengths
    starting with it, longest first, and the first target listed for each
    source. Built in one pass over the pairs."""
    targets: dict[str, str] = {}
    lengths: dict[str, set[int]] = {}
    for src, tgt in pairs:
        if src not in targets:
            targets[src] = tgt
            lengths.setdefault(src[0], set()).add(len(src))
    return {ch: tuple(sorted(sizes, reverse=True)) for ch, sizes in lengths.items()}, targets


def _swap(text: str, lengths: dict[str, tuple[int, ...]], targets: dict[str, str]) -> str:
    pieces: list[str] = []
    copied = i = 0  # text[:copied] is in pieces; i is the scan position
    n = len(text)
    boundary = True  # no word character precedes position i
    while i < n:
        ch = text[i]
        if boundary:
            for size in lengths.get(ch, ()):
                end = i + size
                if end <= n and text[i:end] in targets and (end == n or not _is_word(text[end])):
                    pieces += (text[copied:i], targets[text[i:end]])
                    # Resume after the phrase, reading the boundary from its
                    # last original character: replaced text is never rescanned.
                    copied, i = end, end - 1
                    ch = text[i]
                    break
        boundary = not _is_word(ch)
        i += 1
    if not pieces:
        return text
    pieces.append(text[copied:])
    return "".join(pieces)


def translate_cells(rows, pairs: LexiconPairs) -> tuple[TableRow, ...]:
    """Phrase substitution over keys and values in one left-to-right pass.

    At each position not preceded by a word character, the longest source
    phrase there that is not followed by a word character wins, and is
    replaced by the first target listed for it. Replaced text is never
    rescanned, so there is no chained substitution (A->B, B->C turns A into
    B). A phrase embedded in a longer word (Ville in Villeneuve) is left
    alone. A word character is a Unicode letter, digit or underscore.
    """
    if not pairs:
        return tuple(rows)
    lengths, targets = _lexicon_matcher(pairs)
    return tuple(TableRow(_swap(r.key, lengths, targets), _swap(r.value, lengths, targets)) for r in rows)


def merge_graphs(a: KnowledgeGraph, b: KnowledgeGraph) -> KnowledgeGraph:
    """Path union of two graphs. Graph b wins leaf conflicts; sibling keys that
    normalize identically are merged under the first-seen spelling."""

    def merge_maps(map_a: dict, map_b: dict) -> dict:
        out: dict = {}
        spelling: dict[str, str] = {}

        def put(key: str, value, prefer: bool) -> None:
            norm = normalize_key(key)
            if norm in spelling:
                kept = spelling[norm]
                existing = out[kept]
                if isinstance(existing, dict) and isinstance(value, dict):
                    out[kept] = merge_maps(existing, value)
                elif prefer:
                    out[kept] = value
            else:
                spelling[norm] = key
                out[key] = value

        for key, value in map_a.items():
            put(key, value, prefer=False)
        for key, value in map_b.items():
            put(key, value, prefer=True)
        return out

    return KnowledgeGraph(merge_maps(a.root, b.root))


class StubBackend:
    """Pure offline completion backend: response = f(request, rules)."""

    def __init__(self, rules: StubRuleSet) -> None:
        self.rules = rules
        # (template, simulation); the first template that reads the prompt
        # answers it. Each simulation takes its template's slots as keyword arguments.
        self._readers = (
            (prompts.TRANSLATE_TO_PIVOT, self._translate),
            (prompts.TABLE_TO_KG, self._table_to_kg),
            (prompts.MERGE_KGS, self._merge),
            (prompts.KG_TO_TABLE, self._kg_to_table),
            (prompts.TRANSLATE_FROM_PIVOT, self._translate),
            (prompts.ALIGN, self._align),
            (prompts.ALIGN_UPDATE, self._align_update),
            (prompts.DIRECT, self._direct),
            (prompts.DIRECT_DECOMPOSE, self._decompose),
            (prompts.EVALUATE, self._evaluate),
        )

    def complete(self, request: CompletionRequest, attempt: int) -> str:
        for name, simulate in self._readers:
            slots = prompts.slots_of(name, request.prompt)
            if slots is not None:
                return simulate(**slots)
        raise NoTableFound(f"stub cannot recognize prompt (tag={request.tag!r})")

    # stage simulations

    def _translate(self, source_language: str, target_language: str, table: str, **_) -> str:
        lexicon = self.rules.lexicon(language_code(source_language), language_code(target_language))
        return serialize_table(translate_cells(parse_table(table), lexicon))

    def _table_to_kg(self, table: str, **_) -> str:
        return serialize_kg(table_to_flat_kg(parse_table(table)))

    def _merge(self, graph_a: str, graph_b: str) -> str:
        return serialize_kg(merge_graphs(parse_kg(graph_a), parse_kg(graph_b)))

    def _kg_to_table(self, graph: str, **_) -> str:
        return serialize_table(flatten_kg(parse_kg(graph)))

    def _align(self, table_a: str, table_g: str, **_) -> str:
        rows_a, rows_g = parse_table(table_a), parse_table(table_g)
        matches = greedy_key_matches([r.key for r in rows_a], [r.key for r in rows_g])
        return serialize_table(TableRow(a, g) for a, g in matches)

    def _align_update(self, table_a: str, table_b: str, alignments: str, **_) -> str:
        rows_a, rows_b = parse_table(table_a), parse_table(table_b)
        if alignments == prompts.SELF_ALIGN_INSTRUCTION:
            keys_a, keys_b = [r.key for r in rows_a], [r.key for r in rows_b]
            pairs = [([a], [b]) for a, b in greedy_key_matches(keys_a, keys_b)]
        else:  # pipeline.format_alignment_slot: left keys, right keys spelled from table B, ...
            sides = next(extract_candidates(alignments, "["))
            pairs = zip(sides[::2], sides[1::2])
        value_b = {normalize_key(r.key): r.value for r in rows_b}
        replacement: dict[str, str] = {}
        covered_b: set[str] = set()
        for left_keys, right_keys in pairs:
            covered_b.update(map(normalize_key, right_keys))
            for left in left_keys:
                replacement[normalize_key(left)] = value_b[normalize_key(right_keys[0])]
        updated = [
            TableRow(r.key, replacement.get(normalize_key(r.key), r.value)) for r in rows_a
        ]
        updated.extend(r for r in rows_b if normalize_key(r.key) not in covered_b)
        return serialize_table(updated)

    def _direct(self, table_a: str, **_) -> str:
        # Conservative single-prompt behavior: keep the source table as-is.
        return serialize_table(parse_table(table_a))

    def _decompose(self, language_a: str, language_b: str, table_a: str, table_b: str, **_) -> str:
        lang_a, lang_b = language_code(language_a), language_code(language_b)
        rows_a = translate_cells(parse_table(table_a), self.rules.lexicon(lang_a, DEFAULT_PIVOT))
        rows_b = translate_cells(parse_table(table_b), self.rules.lexicon(lang_b, DEFAULT_PIVOT))
        merged: list[TableRow] = []
        by_norm: dict[str, int] = {}
        for row in rows_a:
            by_norm[normalize_key(row.key)] = len(merged)
            merged.append(row)
        for row in rows_b:
            norm = normalize_key(row.key)
            if norm in by_norm:  # reference value wins on shared keys
                merged[by_norm[norm]] = TableRow(merged[by_norm[norm]].key, row.value)
            else:
                merged.append(row)
        return serialize_table(translate_cells(merged, self.rules.lexicon(DEFAULT_PIVOT, lang_a)))

    def _evaluate(self, table_1: str, table_2: str, **_) -> str:
        # Row i of each table is one aligned pair; the answer is keyed by the gold row's key.
        answer: dict[str, dict[str, list[str]]] = {}
        for candidate, gold in zip(parse_table(table_1), parse_table(table_2)):
            c = token_compare(candidate, gold)
            answer[gold.key] = dict(zip(COMPARISON_KEYS, map(list, (c.sct, c.scd, c.t1u, c.t2u))))
        # No indent: with one, json.dumps falls back to its pure-Python encoder.
        return json.dumps(answer, ensure_ascii=False)
