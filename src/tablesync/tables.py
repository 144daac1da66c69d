"""Core data model: entity tables, knowledge graphs, and their prompt wire formats."""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    EmptyKey,
    InvalidValue,
    MalformedRow,
    NoGraphFound,
    NoTableFound,
)

# ISO-639-1-style registry.
LANGUAGE_NAMES: dict[str, str] = {
    "af": "Afrikaans",
    "ar": "Arabic",
    "ceb": "Cebuano",
    "de": "German",
    "en": "English",
    "es": "Spanish",
    "fr": "French",
    "hi": "Hindi",
    "ko": "Korean",
    "nl": "Dutch",
    "ru": "Russian",
    "sv": "Swedish",
    "tr": "Turkish",
    "zh": "Chinese",
}

DEFAULT_PIVOT = "en"

_TERMINAL_PUNCT = ".,:;!?。、：؛؟"
_WS_RUN = re.compile(r"\s+")


def language_name(code: str) -> str:
    try:
        return LANGUAGE_NAMES[code]
    except KeyError:
        raise ValueError(f"unregistered language code: {code!r}") from None


def language_code(name: str) -> str:
    """Inverse lookup of language_name; exact English-name match."""
    for code, known in LANGUAGE_NAMES.items():
        if known == name:
            return code
    raise ValueError(f"unknown language name: {name!r}")


def normalize_key(text: str) -> str:
    """Canonical key form: NFC, trimmed, whitespace collapsed, lowercased,
    terminal punctuation stripped. Idempotent.

    A key consisting solely of punctuation keeps its (lowercased) text so the
    result is never empty for nonempty input.
    """
    out = unicodedata.normalize("NFC", text)
    out = _WS_RUN.sub(" ", out).strip().lower()
    if not out:
        raise EmptyKey(f"key normalizes to nothing: {text!r}")
    stripped = out.rstrip(_TERMINAL_PUNCT).rstrip()
    return stripped if stripped else out


@dataclass(frozen=True)
class TableRow:
    """One key-value row. Keys are stored trimmed; values verbatim."""

    key: str
    value: str

    def __post_init__(self) -> None:
        trimmed = self.key.strip()
        if not trimmed:
            raise EmptyKey("row key is empty")
        object.__setattr__(self, "key", trimmed)

    def as_pair(self) -> tuple[str, str]:
        return (self.key, self.value)


@dataclass(frozen=True)
class InfoTable:
    """An entity-centric key-value table tied to a language and category.

    Duplicate keys are preserved in order.
    """

    entity: str
    language: str
    category: str
    rows: tuple[TableRow, ...]
    revision_tag: str | None = None

    def __post_init__(self) -> None:
        if self.language not in LANGUAGE_NAMES:
            raise ValueError(f"unregistered language code: {self.language!r}")
        if not self.category.strip():
            raise ValueError("category is empty")
        object.__setattr__(self, "rows", tuple(self.rows))

    def keys(self) -> tuple[str, ...]:
        return tuple(row.key for row in self.rows)

    @cached_property
    def _row_index(self) -> dict[str, TableRow]:
        """Normalized key -> first row with that key, built once per table."""
        index: dict[str, TableRow] = {}
        for row in self.rows:
            index.setdefault(normalize_key(row.key), row)
        return index

    def normalized_keys(self) -> frozenset[str]:
        return frozenset(self._row_index)

    def row_for(self, norm_key: str) -> TableRow | None:
        """First row whose normalized key matches."""
        return self._row_index.get(norm_key)

    def with_rows(self, rows) -> InfoTable:
        return InfoTable(self.entity, self.language, self.category, tuple(rows), self.revision_tag)


# A knowledge-graph value is text, a list of values, or a nested map.
KGValue = str | list["KGValue"] | dict[str, "KGValue"]


def _check_kg_value(value, path: str) -> None:
    if isinstance(value, str):
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_kg_value(item, f"{path}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str) or not key.strip():
                raise InvalidValue(f"empty or non-text key under {path!r}")
            _check_kg_value(item, f"{path}.{key}")
        return
    raise InvalidValue(f"unsupported value of type {type(value).__name__} at {path!r}")


@dataclass(frozen=True)
class KnowledgeGraph:
    """Nested attribute tree: text leaves, lists, and maps. Treat as immutable."""

    root: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.root, dict):
            raise InvalidValue("graph root must be a map")
        _check_kg_value(self.root, "$")

    @property
    def is_empty(self) -> bool:
        return not self.root

    def leaves(self) -> tuple[str, ...]:
        """All text leaves in depth-first order."""
        out: list[str] = []

        def walk(value) -> None:
            if isinstance(value, str):
                out.append(value)
            elif isinstance(value, list):
                for item in value:
                    walk(item)
            else:
                for item in value.values():
                    walk(item)

        walk(self.root)
        return tuple(out)


@dataclass(frozen=True)
class SyncInstance:
    """A (source, reference, gold) triple over one entity.

    Source is outdated and shares its language with gold; the reference is
    current but in a different language.
    """

    source: InfoTable
    reference: InfoTable
    gold: InfoTable

    def __post_init__(self) -> None:
        if self.source.language != self.gold.language:
            raise ValueError("source and gold must share a language")
        if self.source.language == self.reference.language:
            raise ValueError("source and reference must differ in language")
        if not (self.source.entity == self.reference.entity == self.gold.entity):
            raise ValueError("all three tables must describe the same entity")
        if not (self.source.category == self.reference.category == self.gold.category):
            raise ValueError("all three tables must share a category")


# ---------------------------------------------------------------------------
# Wire formats. Tables travel as a list of ["key","value"] pairs, graphs as a
# nested map. Model output may surround the payload with chatter; extraction
# takes the first balanced candidate that validates.
# ---------------------------------------------------------------------------

_ESCAPES = {"'": "'", '"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
# Deepest list/map nesting a candidate may have; deeper candidates are skipped,
# so model output cannot exhaust the parser's recursion.
MAX_NESTING = 100

# A scalar also takes the whitespace after it.
_WS = re.compile(r"[ \t\r\n]*")
_SCALAR = re.compile(
    r'(?:"([^"\\]*(?:\\.[^"\\]*)*)"'  # group 1: body of a "string"
    r"|'([^'\\]*(?:\\.[^'\\]*)*)'"  # group 2: body of a 'string'
    r"""|([^,\]}:"' \t\r\n][^,\]}: \t\r\n]*))[ \t\r\n]*""",  # group 3: bare token
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class _Unbalanced(Exception):
    """Internal: candidate did not parse as a balanced value."""


class _TooDeep(Exception):
    """Internal: candidate nests deeper than MAX_NESTING."""


def _unescape(match: re.Match) -> str:
    char = match[1]
    return _ESCAPES.get(char, "\\" + char)  # unknown escape kept verbatim


def _scalar(text: str, i: int) -> tuple[str, int]:
    """Read the quoted string or bare token at i; return it and the index past
    the whitespace that follows."""
    match = _SCALAR.match(text, i)
    if match is None:
        raise _Unbalanced("no string or token")
    value = match[match.lastindex]
    if match.lastindex < 3 and "\\" in value:
        value = _ESCAPE.sub(_unescape, value)
    return value, match.end()


def _container(text: str, i: int, depth: int, dead: set, trail: list) -> tuple[object, int]:
    """Read the list or map that opens at text[i]; return it and the index past
    the whitespace that follows.

    An item position is where an item or the closer may start; it is kept as
    p in a list and as ~p in a map. What follows an item position depends only
    on the text, the position and the container kind, so one in dead fails at
    once. Each open container's item positions stay on trail until it closes.
    """
    if depth > MAX_NESTING:
        raise _TooDeep
    is_map = text[i] == "{"
    closer = "}" if is_map else "]"
    items: list | dict = {} if is_map else []
    mark = len(trail)
    i = _WS.match(text, i + 1).end()
    while True:
        state = ~i if is_map else i
        if state in dead:
            raise _Unbalanced("an earlier candidate failed here")
        trail.append(state)
        char = text[i : i + 1]
        if char == closer:
            break
        if is_map:
            key, i = _scalar(text, i)  # a key is never a container: {[a: b} has key "[a"
            if text[i : i + 1] != ":":
                raise _Unbalanced("missing ':' in map")
            i = _WS.match(text, i + 1).end()
            char = text[i : i + 1]
        if char == "[" or char == "{":
            value, i = _container(text, i, depth + 1, dead, trail)
        else:
            value, i = _scalar(text, i)
        if is_map:
            items[key] = value
        else:
            items.append(value)
        char = text[i : i + 1]
        if char == closer:
            break
        if char != ",":
            raise _Unbalanced(f"expected ',' or {closer!r}")
        i = _WS.match(text, i + 1).end()  # a trailing comma is tolerated
    del trail[mark:]
    return items, _WS.match(text, i + 1).end()


def _mark_dead(text: str, trail: list, dead: set) -> None:
    """Mark the item positions of a failed candidate dead.

    A bare token read at one of them ends at the same place from each later
    character that can start an item of that kind, so those positions are dead
    too; openers inside one long token then do not each re-read it.
    """
    dead.update(trail)
    for state in trail:
        is_map = state < 0
        start = ~state if is_map else state
        not_bare = "\"'" if is_map else "\"'[{"
        match = None if text[start : start + 1] in not_bare else _SCALAR.match(text, start)
        if match is not None:
            dead.update(~p if is_map else p for p in range(start + 1, match.end(3)) if text[p] not in not_bare)


def _json_map(pairs: list) -> dict:
    """A decoded JSON map. A repeated key is refused: the value it replaces
    could nest deeper than the grammar reads, and would not be seen."""
    value = dict(pairs)
    if len(value) != len(pairs):
        raise ValueError("repeated key")
    return value


# The plain-JSON fast path (_json_candidate), and the escapes that JSON decodes
# but the grammar keeps verbatim.
_JSON = json.JSONDecoder(object_pairs_hook=_json_map)
_JSON_ONLY_ESCAPE = re.compile(r"\\[/bfu]")


def _reads_alike(value, depth: int = 1) -> bool:
    """Whether a decoded JSON container holds only text scalars and nests at
    most MAX_NESTING deep, so the wire grammar reads it as the same value."""
    if depth > MAX_NESTING:
        return False
    for item in value.values() if isinstance(value, dict) else value:
        if type(item) is not str and not (type(item) in (list, dict) and _reads_alike(item, depth + 1)):
            return False
    return True


def _json_candidate(text: str, i: int):
    """The JSON value that opens at text[i] when the grammar reads the same
    value there, else None. A value holding an escape that JSON decodes and
    the grammar keeps verbatim (a backslash before / b f or u) is refused."""
    try:
        value, end = _JSON.raw_decode(text, i)
    except (ValueError, RecursionError):
        return None
    if _JSON_ONLY_ESCAPE.search(text, i, end) or not _reads_alike(value):
        return None
    return value


def extract_candidates(text: str, opener: str):
    """Yield every balanced value parsed from each occurrence of opener, left to right.

    The first candidate is decoded once as JSON, in C, and kept when the
    grammar reads the same value; otherwise, and for every later candidate,
    the grammar parses it. The item positions of a failed candidate are
    remembered for the rest of the call, so a later candidate that reaches
    one stops there: rejecting unbalanced text is linear in its length. A
    failure at the nesting cap is not remembered, as it depends on the depth
    where the candidate began, so text nested deeper than MAX_NESTING costs
    O(len(text) * MAX_NESTING).
    """
    dead: set = set()
    i = text.find(opener)
    if i >= 0:
        value = _json_candidate(text, i)
        if value is not None:
            # A parsed candidate marks nothing dead, so the scan goes on as after a grammar parse.
            yield value
            i = text.find(opener, i + 1)
    while i >= 0:
        trail: list = []
        try:
            value, _ = _container(text, i, 1, dead, trail)
        except _Unbalanced:
            _mark_dead(text, trail, dead)
        except _TooDeep:
            pass
        else:
            yield value
        i = text.find(opener, i + 1)


def _rows_from_candidate(candidate: list) -> tuple[TableRow, ...]:
    rows: list[TableRow] = []
    for element in candidate:
        if not isinstance(element, list) or len(element) != 2:
            raise MalformedRow(f"element is not a 2-list: {element!r}")
        key, value = element
        if not isinstance(key, str) or not isinstance(value, str):
            raise MalformedRow(f"element is not a pair of text: {element!r}")
        rows.append(TableRow(key, value))
    return tuple(rows)


def parse_table(text: str) -> tuple[TableRow, ...]:
    """Extract the first balanced list of ["key","value"] pairs from text.

    Surrounding chatter is ignored. Raises NoTableFound when no balanced list
    exists, MalformedRow when balanced lists exist but none is a pair list.
    """
    malformed: MalformedRow | None = None
    for candidate in extract_candidates(text, "["):
        try:
            return _rows_from_candidate(candidate)
        except (MalformedRow, EmptyKey) as exc:
            if malformed is None:
                malformed = exc if isinstance(exc, MalformedRow) else MalformedRow(str(exc))
    if malformed is not None:
        raise malformed
    raise NoTableFound("no balanced list-of-pairs candidate")


def parse_kg(text: str) -> KnowledgeGraph:
    """Extract the first balanced nested map from text; same discipline as parse_table."""
    invalid: InvalidValue | None = None
    for candidate in extract_candidates(text, "{"):
        try:
            return KnowledgeGraph(candidate)
        except InvalidValue as exc:
            if invalid is None:
                invalid = exc
    if invalid is not None:
        raise invalid
    raise NoGraphFound("no balanced nested-map candidate")


def escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("'", "\\'")


def serialize_table(rows) -> str:
    """Emit the list-of-pairs schema with backslash-escaped quotes.

    Accepts an InfoTable or an iterable of TableRow; parse_table round-trips it.
    """
    if isinstance(rows, InfoTable):
        rows = rows.rows
    rows = tuple(rows)
    if not rows:
        return "[]"
    lines = ",\n".join(f'    ["{escape_text(r.key)}","{escape_text(r.value)}"]' for r in rows)
    return f"[\n{lines}\n]"


def _write_kg_value(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, str):
        return f'"{escape_text(value)}"'
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(isinstance(item, str) for item in value):
            return "[" + ", ".join(f'"{escape_text(item)}"' for item in value) + "]"
        inner = ",\n".join(pad + "  " + _write_kg_value(item, indent + 1) for item in value)
        return f"[\n{inner}\n{pad}]"
    if not value:
        return "{}"
    inner = ",\n".join(
        f'{pad}  "{escape_text(key)}": {_write_kg_value(item, indent + 1)}'
        for key, item in value.items()
    )
    return f"{{\n{inner}\n{pad}}}"


def serialize_kg(kg: KnowledgeGraph) -> str:
    """Emit the nested-map document; parse_kg round-trips it."""
    return _write_kg_value(kg.root, 0)


def flatten_kg(kg: KnowledgeGraph) -> tuple[TableRow, ...]:
    """Deterministic flattening: nested maps join path segments with " - ",
    scalar lists join values with ", "."""
    rows: list[TableRow] = []

    def walk(path: list[str], value) -> None:
        if isinstance(value, str):
            rows.append(TableRow(" - ".join(path), value))
            return
        if isinstance(value, list):
            if all(isinstance(item, str) for item in value):
                rows.append(TableRow(" - ".join(path), ", ".join(value)))
                return
            for i, item in enumerate(value):
                walk(path + [f"#{i}"], item)
            return
        for key, item in value.items():
            walk(path + [key], item)

    for key, value in kg.root.items():
        walk([key], value)
    return tuple(rows)


def table_to_flat_kg(rows) -> KnowledgeGraph:
    """Lossless flat graph of a row list; duplicate keys become list leaves."""
    if isinstance(rows, InfoTable):
        rows = rows.rows
    root: dict = {}
    for row in rows:
        if row.key in root:
            existing = root[row.key]
            if isinstance(existing, list):
                existing.append(row.value)
            else:
                root[row.key] = [existing, row.value]
        else:
            root[row.key] = row.value
    return KnowledgeGraph(root)
