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
from tablesync.tables import (
    MAX_NESTING,
    KnowledgeGraph,
    SyncInstance,
    TableRow,
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
# wire-format punctuation, and runs of openers deeper than the nesting cap.
wire_punctuation = st.text(alphabet="[]{}\"',:\\ \nab1", max_size=200)
deep_openers = st.builds(
    lambda opener, n, tail: opener * n + tail,
    st.sampled_from(["[", "{", '{"a":', '["k", ', "[{"]),
    st.integers(min_value=MAX_NESTING - 2, max_value=2 * MAX_NESTING + 50),
    wire_punctuation,
)
model_text = st.one_of(st.text(max_size=200), wire_punctuation, deep_openers)


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
        assert parse_kg("{}").is_empty

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
