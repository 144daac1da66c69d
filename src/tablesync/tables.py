"""Core data model: entity tables, knowledge graphs, and their prompt wire formats."""

from __future__ import annotations

import json
import re
import unicodedata
from functools import cached_property, lru_cache
from operator import attrgetter

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

# Distinct keys whose normalized form (and, in alignment, whose matching
# features) are kept for the life of the process.
KEY_FEATURES_CACHED = 2048
_TERMINAL_PUNCT = ".,:;!?。、：؛؟"
_WS_RUN = re.compile(r"\s+")


def language_name(code: str) -> str:
    """The name prompts give a registered code: an `InfoTable.language`, which
    the table checks, or the pivot, which `cli.resolve_config` checks."""
    return LANGUAGE_NAMES[code]


def language_code(name: str) -> str | None:
    """Inverse lookup of language_name on the stripped name; None when unregistered."""
    name = name.strip()
    return next((code for code, known in LANGUAGE_NAMES.items() if known == name), None)


@lru_cache(maxsize=KEY_FEATURES_CACHED)
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


set_field = object.__setattr__


class Value:
    """Base of the immutable value types, built with no generated code. A
    subclass lists its fields in `__slots__`, in constructor order (a slot
    named "_..." is not a field; "__dict__" holds cached properties), and the
    defaults of some in `_defaults`. Values of one type with equal fields are
    equal, hash alike and print alike; assigning an attribute raises. A
    subclass with checks has its own `__init__`, which calls `Value.__init__`
    after them; `TableRow`, built per parsed row, sets its fields itself."""

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values: object, **named: object) -> None:
        given = dict(self._defaults, **dict(zip(self._fields, values)), **named)  # a field given twice raises
        if len(values) > len(self._fields) or given.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(self._fields)}")
        for name in self._fields:
            set_field(self, name, given[name])

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


class TableRow(Value):
    """One key-value row. Keys are stored trimmed; values verbatim."""

    __slots__ = ("key", "value")

    def __init__(self, key: str, value: str) -> None:
        key = key.strip()
        if not key:
            raise EmptyKey("row key is empty")
        set_field(self, "key", key)  # not Value.__init__: a quarter of the time, per parsed row
        set_field(self, "value", value)

    def as_pair(self) -> tuple[str, str]:
        return (self.key, self.value)


class InfoTable(Value):
    """An entity-centric key-value table tied to a language and category.

    Duplicate keys are preserved in order.
    """

    __slots__ = ("entity", "language", "category", "rows", "revision_tag", "__dict__")

    def __init__(
        self, entity: str, language: str, category: str, rows: tuple[TableRow, ...], revision_tag: str | None = None
    ) -> None:
        if language not in LANGUAGE_NAMES:
            raise ValueError(f"unregistered language code: {language!r}")
        if not category.strip():
            raise ValueError("category is empty")
        Value.__init__(self, entity, language, category, tuple(rows), revision_tag)

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


class KnowledgeGraph(Value):
    """Nested attribute tree: text leaves, lists, and maps. Treat as immutable."""

    __slots__ = ("root",)

    def __init__(self, root: dict) -> None:
        if not isinstance(root, dict):
            raise InvalidValue("graph root must be a map")
        _check_kg_value(root, "$")
        Value.__init__(self, root)

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


class SyncInstance(Value):
    """A (source, reference, gold) triple over one entity.

    Source is outdated and shares its language with gold; the reference is
    current but in a different language. All three share entity and category:
    `dataset.load_instance` builds them from one manifest and checks that.
    """

    __slots__ = ("source", "reference", "gold")  # InfoTables


# ---------------------------------------------------------------------------
# Wire formats. Tables travel as a list of ["key","value"] pairs, graphs as a
# nested map. Model output may surround the payload with chatter; extraction
# takes the first balanced candidate that validates.
# ---------------------------------------------------------------------------

_ESCAPES = {"'": "'", '"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "t": "\t", "r": "\r"}
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
# JSON's \uXXXX escape, a surrogate pair or one that is not a surrogate (group 1);
# else a backslash and the character it escapes (group 2).
_ESCAPE = re.compile(
    r"\\(u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}|u(?![dD][89a-fA-F])[0-9a-fA-F]{4})|\\(.)", re.DOTALL
)


class _Unbalanced(Exception):
    """Internal: candidate did not parse as a balanced value."""


class _TooDeep(Exception):
    """Internal: candidate nests deeper than MAX_NESTING."""


def _unescape(match: re.Match) -> str:
    """An escape as JSON reads it; a lone surrogate, a malformed \\u or an unknown escape verbatim."""
    return json.loads(f'"{match[0]}"') if match[1] else _ESCAPES.get(match[2], match[0])


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


# The plain-JSON fast path (_json_candidate), and the escapes it leaves to the
# grammar: JSON decodes a lone surrogate escape to a character no writer takes.
_JSON = json.JSONDecoder(object_pairs_hook=_json_map)
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


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
    value there, else None. A value holding a surrogate escape is refused: the
    grammar joins a pair as JSON does, but keeps a lone one verbatim."""
    try:
        value, end = _JSON.raw_decode(text, i)
    except (ValueError, RecursionError):
        return None
    if _SURROGATE_ESCAPE.search(text, i, end) or not _reads_alike(value):
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
        try:
            rows.append(TableRow(key, value))
        except EmptyKey:
            raise MalformedRow("row key is empty") from None
    return tuple(rows)


def _first_valid(text: str, opener: str, build, not_found: Exception):
    """build(candidate) for the first candidate that builds; else the first
    MalformedRow or InvalidValue it raised; else not_found. An empty candidate
    counts only when its opener is the only one in text: beside others it is
    a fragment of a cut or nested answer ("[[]", "{a {}"), not the answer.
    The openers are counted once, at the first empty candidate."""
    error: Exception | None = None
    lone: bool | None = None
    for candidate in extract_candidates(text, opener):
        if not candidate:
            if lone is None:
                lone = text.count(opener) == 1
            if not lone:
                continue
        try:
            return build(candidate)
        except (MalformedRow, InvalidValue) as exc:
            if error is None:
                error = exc
    raise error if error is not None else not_found


def parse_table(text: str) -> tuple[TableRow, ...]:
    """Extract the first balanced list of ["key","value"] pairs from text.

    Surrounding chatter is ignored. Raises NoTableFound when no balanced list
    exists, MalformedRow when balanced lists exist but none is a pair list.
    """
    return _first_valid(text, "[", _rows_from_candidate, NoTableFound("no balanced list-of-pairs candidate"))


def parse_kg(text: str) -> KnowledgeGraph:
    """Extract the first balanced nested map from text; same discipline as parse_table."""
    return _first_valid(text, "{", KnowledgeGraph, NoGraphFound("no balanced nested-map candidate"))


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
