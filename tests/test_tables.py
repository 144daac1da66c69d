import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync.errors import (
    EmptyKey,
    InvalidValue,
    MalformedRow,
    NoGraphFound,
    NoTableFound,
    TableSyncError,
)
from tablesync import tables
from tablesync.tables import (
    MAX_NESTING,
    KnowledgeGraph,
    SyncInstance,
    TableRow,
    extract_candidates,
    flatten_kg,
    normalize_key,
    parse_kg,
    parse_table,
    serialize_kg,
    serialize_table,
    table_to_flat_kg,
)

# strategies for round-trip properties

text_value = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=30,
)
key_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip())

rows_strategy = st.lists(
    st.tuples(key_text, text_value).map(lambda kv: TableRow(*kv)), max_size=8
)


def kg_value(depth: int):
    if depth == 0:
        return text_value
    sub = kg_value(depth - 1)
    return st.one_of(
        text_value,
        st.lists(sub, max_size=3),
        st.dictionaries(key_text, sub, max_size=3),
    )


kg_strategy = st.dictionaries(key_text, kg_value(3), max_size=4).map(KnowledgeGraph)

# Model output as the parsers may meet it: any text, text made mostly of
# wire-format punctuation, runs of openers deeper than the nesting cap, pieces
# of the wire formats in any order, and truncated output whose bare tokens
# hold openers.
wire_punctuation = st.text(alphabet="[]{}\"',:\\ \nab1", max_size=200)
deep_openers = st.builds(
    lambda opener, n, tail: opener * n + tail,
    st.sampled_from(["[", "{", '{"a":', '["k", ', "[{"]),
    st.integers(min_value=MAX_NESTING - 2, max_value=2 * MAX_NESTING + 50),
    wire_punctuation,
)
wire_pieces = st.lists(
    st.sampled_from(
        ["[", "]", "{", "}", ",", ":", " ", "\n", '"a"', "'b'", '"x\\"y"', '"\\q"', "\\",
         '"', "'", "tok", '"k":', '["k","v"]', "a[b", "k:v{", "{{"]
    ),
    max_size=150,
).map("".join)
truncated_tokens = st.builds(
    lambda shape, k, tail: shape[0] + shape[1] * k + tail,
    st.sampled_from([("[", "a[b,"), ("{", "k:v{,"), ("[", "a["), ("{", "{"), ('{"k":', "v{")]),
    st.integers(min_value=1, max_value=60),
    st.sampled_from(["", "]", "}", ":v}", '"', "a"]),
)
model_text = st.one_of(st.text(max_size=200), wire_punctuation, deep_openers, wire_pieces, truncated_tokens)

# JSON as a model may write it, for the plain-JSON fast path: strings with
# escapes JSON decodes (\u00e9, \/, \b) or refuses (\q), raw control
# characters, numbers and literals among the scalars, duplicate map keys, and
# nesting around the cap.
json_string = st.lists(
    st.sampled_from(
        ["a", "é", "/", "'", "[", "{", "]", "}", ":", ",", " ", '\\"', "\\\\", "\\/", "\\u00e9",
         "\\n", "\\t", "\\b", "\\f", "\\q", "\x01", "\n", "\t"]
    ),
    max_size=6,
).map(lambda parts: '"' + "".join(parts) + '"')
json_scalar = st.one_of(
    json_string,
    st.text(max_size=6).map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.text(max_size=6).map(json.dumps),
    st.one_of(st.integers(), st.floats(), st.booleans(), st.none()).map(json.dumps),
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(st.tuples(st.sampled_from(['"k"', '"v"', '"é"', '"\\u00e9"']), inner), max_size=4).map(
            lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
        ),
    ),
    max_leaves=12,
)
json_nested = st.builds(
    lambda shape, depth, inner: shape[0] * depth + inner + shape[1] * depth,
    st.sampled_from([("[", "]"), ('{"a": ', "}")]),
    st.integers(min_value=MAX_NESTING - 3, max_value=MAX_NESTING + 1),
    json_value,
)
chatter = st.one_of(st.sampled_from(["", "Here it is:\n", "x [ y ", "Sure {", "]"]), st.text(max_size=8))
# One payload in four nests around the cap; the reference parses such text slowly.
json_first = st.integers(0, 3).flatmap(lambda n: json_nested if n == 0 else json_value)
json_text = st.builds(lambda *parts: "".join(parts), chatter, json_first, chatter, json_value, chatter)


# The recursive-descent parser that extract_candidates replaced, kept verbatim
# (its entry point renamed) as the reference the new parser must equal.
_ESCAPES = {"'": "'", '"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


class _Unbalanced(Exception):
    """Internal: candidate did not parse as a balanced value."""


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i] in " \t\r\n":
        i += 1
    return i


def _parse_string(text: str, i: int) -> tuple[str, int]:
    quote = text[i]
    i += 1
    out: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
            else:
                out.append(ch + nxt)  # unknown escape kept verbatim
            i += 2
            continue
        if ch == quote:
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise _Unbalanced("unterminated string")


def _parse_bare(text: str, i: int) -> tuple[str, int]:
    start = i
    n = len(text)
    while i < n and text[i] not in ",]}: \t\r\n":
        i += 1
    if i == start:
        raise _Unbalanced("empty token")
    return text[start:i], i


def _parse_value(text: str, i: int, depth: int) -> tuple[object, int]:
    i = _skip_ws(text, i)
    if i >= len(text):
        raise _Unbalanced("end of input")
    ch = text[i]
    if ch in "\"'":
        return _parse_string(text, i)
    if ch == "[":
        return _parse_list(text, i, depth + 1)
    if ch == "{":
        return _parse_map(text, i, depth + 1)
    return _parse_bare(text, i)


def _parse_list(text: str, i: int, depth: int = 1) -> tuple[list, int]:
    if depth > MAX_NESTING:
        raise _Unbalanced("nesting too deep")
    items: list = []
    i = _skip_ws(text, i + 1)
    if i < len(text) and text[i] == "]":
        return items, i + 1
    while True:
        value, i = _parse_value(text, i, depth)
        items.append(value)
        i = _skip_ws(text, i)
        if i >= len(text):
            raise _Unbalanced("unterminated list")
        if text[i] == ",":
            i = _skip_ws(text, i + 1)
            if i < len(text) and text[i] == "]":  # trailing comma tolerated
                return items, i + 1
            continue
        if text[i] == "]":
            return items, i + 1
        raise _Unbalanced(f"unexpected {text[i]!r} in list")


def _parse_map(text: str, i: int, depth: int = 1) -> tuple[dict, int]:
    if depth > MAX_NESTING:
        raise _Unbalanced("nesting too deep")
    items: dict = {}
    i = _skip_ws(text, i + 1)
    if i < len(text) and text[i] == "}":
        return items, i + 1
    while True:
        i = _skip_ws(text, i)
        if i >= len(text):
            raise _Unbalanced("unterminated map")
        if text[i] in "\"'":
            key, i = _parse_string(text, i)
        else:
            key, i = _parse_bare(text, i)
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != ":":
            raise _Unbalanced("missing ':' in map")
        value, i = _parse_value(text, i + 1, depth)
        items[key] = value
        i = _skip_ws(text, i)
        if i >= len(text):
            raise _Unbalanced("unterminated map")
        if text[i] == ",":
            i = _skip_ws(text, i + 1)
            if i < len(text) and text[i] == "}":
                return items, i + 1
            continue
        if text[i] == "}":
            return items, i + 1
        raise _Unbalanced(f"unexpected {text[i]!r} in map")


def reference_extract_candidates(text: str, opener: str):
    """Yield every balanced value parsed from each occurrence of opener, left to right."""
    parser = _parse_list if opener == "[" else _parse_map
    for i, ch in enumerate(text):
        if ch != opener:
            continue
        try:
            value, _ = parser(text, i)
        except _Unbalanced:
            continue
        yield value


def assert_same_candidates(text: str) -> None:
    for opener in "[{":
        assert list(extract_candidates(text, opener)) == list(reference_extract_candidates(text, opener))


class TestParseTable:
    def test_plain_pair_list(self):
        rows = parse_table('[["Name","Albert Einstein"],["Birth date","March 14, 1879"]]')
        assert [r.as_pair() for r in rows] == [
            ("Name", "Albert Einstein"),
            ("Birth date", "March 14, 1879"),
        ]

    def test_empty_list(self):
        assert parse_table("[]") == ()

    def test_chatter_and_escaped_apostrophe(self):
        rows = parse_table("Here is the table: [[\"k\",\"O\\'Neil\"]] hope this helps")
        assert [r.as_pair() for r in rows] == [("k", "O'Neil")]

    def test_takes_first_valid_candidate_not_largest(self):
        text = '[["a","1"]] and later [["b","1"],["c","2"]]'
        assert [r.key for r in parse_table(text)] == ["a"]

    def test_skips_invalid_candidate_before_valid_one(self):
        assert [r.key for r in parse_table('[1,2,3] then [["x","y"]]')] == ["x"]

    def test_no_candidate(self):
        with pytest.raises(NoTableFound):
            parse_table("there is no table here")

    def test_unbalanced_only(self):
        with pytest.raises(NoTableFound):
            parse_table('[["a","b"')

    def test_malformed_row(self):
        with pytest.raises(MalformedRow):
            parse_table('[["only-key"]]')

    def test_single_quoted_strings(self):
        rows = parse_table("[['k','v']]")
        assert rows[0].as_pair() == ("k", "v")

    @given(rows_strategy)
    @settings(max_examples=200)
    def test_round_trip(self, rows):
        assert parse_table(serialize_table(rows)) == tuple(rows)

    @given(rows_strategy, st.text(max_size=15), st.text(max_size=15))
    @settings(max_examples=100)
    def test_round_trip_with_chatter(self, rows, prefix, suffix):
        # Chatter containing brackets may legitimately win the first-candidate
        # scan, so restrict it here.
        clean_prefix = prefix.replace("[", "(").replace("{", "(")
        text = clean_prefix + serialize_table(rows) + suffix
        assert parse_table(text) == tuple(rows)


class TestSerializeTable:
    def test_empty(self):
        assert serialize_table([]) == "[]"

    def test_escapes_apostrophe(self):
        out = serialize_table([TableRow("k", "O'Neil")])
        assert "O\\'Neil" in out

    def test_schema_shape(self):
        out = serialize_table([TableRow("key", "value")])
        assert out == '[\n    ["key","value"]\n]'


class TestParseKg:
    def test_nested_example(self):
        text = """
        {
          "Person": {"Name": "Karla Camila Cabello Estrabao", "Born": "March 3, 1997"},
          "Occupation": {"Primary": "Singer", "Additional": ["Songwriter", "Actress"]}
        }
        """
        kg = parse_kg(text)
        assert kg.root["Person"]["Name"] == "Karla Camila Cabello Estrabao"
        assert kg.root["Occupation"]["Additional"] == ["Songwriter", "Actress"]

    def test_empty_map(self):
        assert parse_kg("{}").root == {}

    def test_bare_tokens_kept_as_text(self):
        kg = parse_kg('{"age": 24, "active": true}')
        assert kg.root == {"age": "24", "active": "true"}

    def test_no_graph(self):
        with pytest.raises(NoGraphFound):
            parse_kg("[1, 2]")

    def test_empty_key_rejected(self):
        with pytest.raises(InvalidValue):
            parse_kg('{"": "x"}')

    @given(kg_strategy)
    @settings(max_examples=200)
    def test_round_trip(self, kg):
        assert parse_kg(serialize_kg(kg)) == kg


class TestNesting:
    def test_deep_list_is_no_table(self):
        with pytest.raises(NoTableFound):
            parse_table("[" * 600)

    def test_deep_map_is_no_graph(self):
        with pytest.raises(NoGraphFound):
            parse_kg('{"a":' * 600)

    def test_nesting_up_to_the_cap_parses(self):
        text = '{"a":' * (MAX_NESTING - 1) + '{"a": "x"}' + "}" * (MAX_NESTING - 1)
        kg = parse_kg(text)
        node, depth = kg.root, 1
        while isinstance(node["a"], dict):
            node, depth = node["a"], depth + 1
        assert depth == MAX_NESTING and node == {"a": "x"}

    def test_table_inside_too_deep_wrapper_found(self):
        wrapper = MAX_NESTING + 20
        assert parse_table("[" * wrapper + '["k","v"]' + "]" * wrapper) == (TableRow("k", "v"),)

    @given(model_text)
    @settings(max_examples=200, deadline=None)
    def test_parsers_return_or_raise_typed(self, text):
        for parse in (parse_table, parse_kg):
            try:
                parse(text)
            except TableSyncError:
                pass


class TestExtractCandidates:
    def test_candidates_come_in_opener_order(self):
        assert list(extract_candidates("[1] x [2] y [3]", "[")) == [["1"], ["2"], ["3"]]

    def test_nested_candidate_follows_its_container(self):
        assert list(extract_candidates("[[a],{k:[b]}]", "[")) == [
            [["a"], {"k": ["b"]}], ["a"], ["b"],
        ]

    def test_candidate_may_start_inside_a_string_of_a_failed_one(self):
        assert list(extract_candidates('[a, "[b, c]"', "[")) == [["b", "c"]]

    def test_candidate_may_start_inside_a_failed_token(self):
        # The first candidate fails at the ':' after its value token "x{k"; the
        # map that opens inside that token is balanced.
        assert list(extract_candidates("{a: x{k:v}", "{")) == [{"k": "v"}]

    def test_dead_positions_are_kept_per_container_kind(self):
        # The failed map's key token "a[1" covers the list's item "1"; that
        # position is dead for maps only.
        assert list(extract_candidates("[{a[1]", "[")) == [["1"]]

    def test_map_key_is_never_a_container(self):
        assert list(extract_candidates("{[a: b}", "{")) == [{"[a": "b"}]

    def test_string_escapes(self):
        text = r"""['a\"b', "c\'d", "\\", "\n\t\r", "\q"]"""
        assert list(extract_candidates(text, "[")) == [['a"b', "c'd", "\\", "\n\t\r", "\\q"]]

    @given(model_text)
    @settings(max_examples=500, deadline=None)
    def test_equals_reference_parser(self, text):
        assert_same_candidates(text)

    @given(json_text)
    @settings(max_examples=200, deadline=None)
    def test_plain_json_equals_reference_parser(self, text):
        assert_same_candidates(text)

    @pytest.mark.parametrize("text", [
        '[["k","v"],["a","b"]]',
        'Sure: {"k": ["v", {"w": "x"}]} and [["k","v"]] {"z": "y"}',
        '[["k", 1]] [["k","v"]]',
        '{"a": "\\u00e9"} {"b": "c"}',
        "[" * 2000,
        "[" + "a[" * 2000 + "]",
        '{"a":' * 2000,
    ], ids=["table", "chatter", "number", "escape", "openers", "tokens", "keys"])
    def test_json_decoder_runs_at_most_once_per_call(self, monkeypatch, text):
        decoded = []
        decoder = tables._JSON

        class Counting:
            def raw_decode(self, text, i):
                decoded.append(i)
                return decoder.raw_decode(text, i)

        monkeypatch.setattr(tables, "_JSON", Counting())
        for opener in "[{":
            decoded.clear()
            list(extract_candidates(text, opener))
            assert len(decoded) <= 1

    def test_plain_json_skips_the_grammar(self, monkeypatch):
        def grammar(*args):
            raise AssertionError("the grammar parsed a plain JSON payload")

        monkeypatch.setattr(tables, "_container", grammar)
        text = 'Answer: [["name", "Ada"], ["born", "1815, London"]] done'
        assert next(extract_candidates(text, "[")) == [["name", "Ada"], ["born", "1815, London"]]

    @pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
    def test_equals_reference_parser_around_the_cap(self, depth):
        for text in [
            "[" * depth + "]" * depth,
            "[" * depth + '"x"' + "]" * depth,
            '{"a":' * depth + '"x"' + "}" * depth,
            '{"a":' * (depth - 1) + "{}" + "}" * (depth - 1),
            '["k",' * depth + '"v"' + "]" * depth,
            "[{" * (depth // 2) + "}]" * (depth // 2),
            "x[" + "[" * depth + "]" * depth + "]",
            "[" * depth,
            '{"a":' * depth,
            "[" * depth + "]" * (depth - 1),
            # a repeated key replaces a value nested one level deeper than the map
            "[" * (depth - 1) + '{"k": [], "k": "v"}' + "]" * (depth - 1),
        ]:
            assert_same_candidates(text)

    @pytest.mark.parametrize("parse, error, head, piece, k", [
        (parse_table, NoTableFound, "[", "a[b,", 8192),
        (parse_kg, NoGraphFound, "{", "k:v{,", 6554),
        (parse_table, NoTableFound, "[", "a[", 16384),
        (parse_kg, NoGraphFound, "{", "{", 32767),
    ])
    def test_truncated_32kb_rejected_in_linear_time(self, parse, error, head, piece, k):
        text = head + piece * k
        start = time.perf_counter()
        with pytest.raises(error):
            parse(text)
        assert time.perf_counter() - start < 1.0


class TestNormalizeKey:
    def test_trim_collapse_lower_strip(self):
        assert normalize_key(" Birth  date:") == "birth date"

    def test_fixpoint(self):
        assert normalize_key("birth date") == "birth date"

    def test_empty_raises(self):
        with pytest.raises(EmptyKey):
            normalize_key("")
        with pytest.raises(EmptyKey):
            normalize_key("   ")

    def test_punctuation_only_key_survives(self):
        assert normalize_key(":::") == ":::"

    @given(key_text)
    @settings(max_examples=300)
    def test_idempotent(self, key):
        once = normalize_key(key)
        assert normalize_key(once) == once

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=15))
    def test_nonempty_for_alphanumeric(self, key):
        assert normalize_key(key)


class TestModelTypes:
    def test_row_trims_key(self):
        assert TableRow("  k  ", "v").key == "k"

    def test_row_rejects_empty_key(self):
        with pytest.raises(EmptyKey):
            TableRow("  ", "v")

    def test_table_rejects_unknown_language(self, mk_table):
        with pytest.raises(ValueError):
            mk_table([("a", "b")], lang="xx")

    def test_duplicate_keys_preserved_and_flagged(self, mk_table):
        table = mk_table([("Genre", "Pop"), ("genre:", "Rock")])
        assert table.keys() == ("Genre", "genre:")

    def test_row_for_returns_first_of_alike_keys(self, mk_table):
        table = mk_table([("Genre", "Pop"), ("genre:", "Rock"), ("Label", "X")])
        assert table.row_for("genre") == TableRow("Genre", "Pop")
        assert table.row_for("Genre") is None
        assert table.normalized_keys() == {"genre", "label"}

    def test_sync_instance_language_constraints(self, mk_table):
        source = mk_table([("a", "1")], lang="de")
        reference = mk_table([("a", "1")], lang="en")
        gold = mk_table([("a", "1")], lang="de")
        SyncInstance(source, reference, gold)
        with pytest.raises(ValueError):
            SyncInstance(source, source, gold)
        with pytest.raises(ValueError):
            SyncInstance(source, reference, mk_table([("a", "1")], lang="en"))

    def test_kg_leaves_verbatim(self):
        kg = KnowledgeGraph({"a": ["x", "y"], "b": {"c": "z"}})
        assert kg.leaves() == ("x", "y", "z")


class TestFlatten:
    def test_paths_and_lists(self):
        kg = KnowledgeGraph(
            {"Person": {"Name": "Ada", "Tags": ["x", "y"]}, "Plain": "v"}
        )
        assert [r.as_pair() for r in flatten_kg(kg)] == [
            ("Person - Name", "Ada"),
            ("Person - Tags", "x, y"),
            ("Plain", "v"),
        ]

    def test_flat_kg_duplicate_keys_become_lists(self):
        kg = table_to_flat_kg([TableRow("k", "a"), TableRow("k", "b")])
        assert kg.root == {"k": ["a", "b"]}
        assert [r.as_pair() for r in flatten_kg(kg)] == [("k", "a, b")]
