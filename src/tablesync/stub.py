"""Deterministic offline backend: rule-driven responses for every prompt kind.

The stub reads each prompt through the template that filled it
(`prompts.slots_of`), simulates that stage on the slot values, and answers with
a pure function of the request and the rule set, so whole runs are reproducible
without any model access. A template may be reworded as long as its $slot
names stay and no slot value contains the literal that follows it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from . import prompts
from .alignment import greedy_key_matches
from .errors import ConfigError, NoTableFound
from .gateway import CompletionRequest
from .metrics import COMPARISON_KEYS, token_compare
from .tables import (
    KnowledgeGraph,
    TableRow,
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


@dataclass(frozen=True)
class StubRuleSet:
    """Rules driving the stub: phrase lexicons per language pair, canned
    responses matched by prompt substring, and optional merge fault injection.
    """

    lexicons: dict[tuple[str, str], LexiconPairs] = field(default_factory=dict)
    canned_responses: tuple[tuple[str, str], ...] = ()
    merge_drop_keys: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for pair, entries in self.lexicons.items():
            for src, tgt in entries:
                if not src or not tgt:
                    raise ValueError(f"empty lexicon entry in {pair}: {(src, tgt)!r}")
        object.__setattr__(
            self,
            "merge_drop_keys",
            frozenset(normalize_key(k) for k in self.merge_drop_keys),
        )

    @staticmethod
    def from_dir(path: str | Path, **kwargs) -> StubRuleSet:
        """Load `<src>-<tgt>.tsv` lexicon files (tab-separated phrase pairs).

        An unreadable file, or a line that is not two nonempty phrases
        separated by a tab, is a ConfigError naming the file and line.
        """
        lexicons: dict[tuple[str, str], LexiconPairs] = {}
        for file in sorted(Path(path).glob("*-*.tsv")):
            src, tgt = file.stem.split("-", 1)
            try:
                lines = file.read_text("utf-8").splitlines()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read lexicon {file}: {exc}") from exc
            entries: list[tuple[str, str]] = []
            for number, line in enumerate(lines, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                left, _, right = (part.strip() for part in line.partition("\t"))
                if not left or not right:
                    raise ConfigError(f"{file}:{number}: expected 'source<TAB>target', got {line!r}")
                entries.append((left, right))
            lexicons[(src, tgt)] = tuple(entries)
        return StubRuleSet(lexicons=lexicons, **kwargs)

    def lexicon(self, src: str, tgt: str) -> LexiconPairs:
        """Longest-source-first entries; empty when the pair is unknown."""
        entries = self.lexicons.get((src, tgt), ())
        return tuple(sorted(entries, key=lambda e: (-len(e[0]), e[0])))


@lru_cache(maxsize=64)
def _lexicon_matcher(pairs: LexiconPairs) -> tuple[re.Pattern[str], dict[str, str]]:
    """One compiled alternation of all sources, in the given order, and the
    first target listed for each source."""
    targets: dict[str, str] = {}
    for src, tgt in pairs:
        targets.setdefault(src, tgt)
    alternation = "|".join(map(re.escape, targets))
    return re.compile(rf"(?<!\w)(?:{alternation})(?!\w)"), targets


def translate_cells(rows, pairs: LexiconPairs) -> tuple[TableRow, ...]:
    """Phrase substitution over keys and values in one left-to-right pass.

    At each position the longest source phrase that matches at word
    boundaries wins (pairs come longest source first, as from
    StubRuleSet.lexicon), and is replaced by the first target listed for it.
    Replaced text is never rescanned, so there is no chained substitution
    (A->B, B->C turns A into B). A phrase embedded in a longer word (Ville in
    Villeneuve) is left alone.
    """
    if not pairs:
        return tuple(rows)
    pattern, targets = _lexicon_matcher(pairs)

    def swap(text: str) -> str:
        return pattern.sub(lambda match: targets[match.group()], text)

    return tuple(TableRow(swap(r.key), swap(r.value)) for r in rows)


def merge_graphs(
    a: KnowledgeGraph,
    b: KnowledgeGraph,
    drop_keys: frozenset[str] = frozenset(),
) -> KnowledgeGraph:
    """Path union of two graphs. Graph b wins leaf conflicts; sibling keys that
    normalize identically are merged under the first-seen spelling. Keys in
    drop_keys are silently omitted (fault injection for stage attribution)."""

    def merge_maps(map_a: dict, map_b: dict) -> dict:
        out: dict = {}
        spelling: dict[str, str] = {}

        def put(key: str, value, prefer: bool) -> None:
            norm = normalize_key(key)
            if norm in drop_keys:
                return
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


def _lang_code(name: str) -> str | None:
    try:
        return language_code(name.strip())
    except ValueError:
        return None


class StubBackend:
    """Pure offline completion backend: response = f(request, rules)."""

    def __init__(self, rules: StubRuleSet) -> None:
        self.rules = rules

    def complete(self, request: CompletionRequest, attempt: int) -> str:
        prompt = request.prompt
        for pattern, response in self.rules.canned_responses:
            if pattern in prompt:
                return response
        # Each simulation takes its template's slots as keyword arguments.
        for name, simulate in (
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
        ):
            slots = prompts.slots_of(name, prompt)
            if slots is not None:
                return simulate(**slots)
        raise NoTableFound(f"stub cannot recognize prompt (tag={request.tag!r})")

    # stage simulations

    def _swap_rows(self, rows, src: str | None, tgt: str | None):
        if src is None or tgt is None or src == tgt:
            return tuple(rows)
        return translate_cells(rows, self.rules.lexicon(src, tgt))

    def _translate(self, source_language: str, target_language: str, table: str, **_) -> str:
        rows = parse_table(table)
        return serialize_table(self._swap_rows(rows, _lang_code(source_language), _lang_code(target_language)))

    def _table_to_kg(self, table: str, **_) -> str:
        return serialize_kg(table_to_flat_kg(parse_table(table)))

    def _merge(self, graph_a: str, graph_b: str) -> str:
        merged = merge_graphs(parse_kg(graph_a), parse_kg(graph_b), self.rules.merge_drop_keys)
        return serialize_kg(merged)

    def _kg_to_table(self, graph: str, **_) -> str:
        return serialize_table(flatten_kg(parse_kg(graph)))

    def _align(self, table_a: str, table_g: str, **_) -> str:
        rows_a, rows_g = parse_table(table_a), parse_table(table_g)
        matches = greedy_key_matches([r.key for r in rows_a], [r.key for r in rows_g])
        return serialize_table(TableRow(a, g) for a, g in matches)

    def _parse_alignment_slot(self, alignments: str) -> list[tuple[list[str], list[str]]] | None:
        """Pairs from the filled alignments slot; None when the slot holds the
        self-align instruction instead of a list."""
        candidate = next(extract_candidates(alignments, "["), None)
        if not isinstance(candidate, list):
            return None
        sides: list[list[str]] = []
        for element in candidate:
            if not isinstance(element, list) or not all(isinstance(k, str) for k in element):
                return None
            sides.append(element)
        if len(sides) % 2:
            return None
        return [(sides[i], sides[i + 1]) for i in range(0, len(sides), 2)]

    def _align_update(self, table_a: str, table_b: str, alignments: str, **_) -> str:
        rows_a, rows_b = parse_table(table_a), parse_table(table_b)
        pairs = self._parse_alignment_slot(alignments)
        if pairs is None:
            pairs = [([a], [b]) for a, b in greedy_key_matches(
                [r.key for r in rows_a], [r.key for r in rows_b]
            )]
        value_b = {normalize_key(r.key): r.value for r in rows_b}
        replacement: dict[str, str] = {}
        covered_b: set[str] = set()
        for left_keys, right_keys in pairs:
            for right in right_keys:
                covered_b.add(normalize_key(right))
            source_value = next(
                (value_b[normalize_key(r)] for r in right_keys if normalize_key(r) in value_b),
                None,
            )
            if source_value is None:
                continue
            for left in left_keys:
                replacement[normalize_key(left)] = source_value
        updated = [
            TableRow(r.key, replacement.get(normalize_key(r.key), r.value)) for r in rows_a
        ]
        updated.extend(r for r in rows_b if normalize_key(r.key) not in covered_b)
        return serialize_table(updated)

    def _direct(self, table_a: str, **_) -> str:
        # Conservative single-prompt behavior: keep the source table as-is.
        return serialize_table(parse_table(table_a))

    def _decompose(self, language_a: str, language_b: str, table_a: str, table_b: str, **_) -> str:
        rows_a, rows_b = parse_table(table_a), parse_table(table_b)
        lang_a, lang_b = _lang_code(language_a), _lang_code(language_b)
        pivot = "en"
        rows_a = self._swap_rows(rows_a, lang_a, pivot)
        rows_b = self._swap_rows(rows_b, lang_b, pivot)
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
        return serialize_table(self._swap_rows(merged, pivot, lang_a))

    def _evaluate(self, table_1: str, table_2: str, **_) -> str:
        rows_1, rows_2 = parse_table(table_1), parse_table(table_2)
        comparison = token_compare(
            rows_1[0] if rows_1 else None,
            rows_2[0] if rows_2 else None,
        )
        doc = dict(
            zip(COMPARISON_KEYS, (comparison.sct, comparison.scd, comparison.t1u, comparison.t2u))
        )
        # No indent: with one, json.dumps falls back to its pure-Python encoder.
        return json.dumps({k: list(v) for k, v in doc.items()}, ensure_ascii=False)
