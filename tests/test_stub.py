import re

from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync.stub import StubRuleSet, translate_cells
from tablesync.tables import TableRow


def per_entry_reference(rows, pairs):
    """Substitution as one re.sub per lexicon entry, longest source first:
    the matcher's semantics wherever no replacement can feed another."""

    def swap(text: str) -> str:
        for src, tgt in pairs:
            text = re.sub(rf"(?<!\w){re.escape(src)}(?!\w)", lambda _: tgt, text)
        return text

    return tuple(TableRow(swap(r.key), swap(r.value)) for r in rows)


def lexicon(entries):
    return StubRuleSet(lexicons={("xx", "yy"): tuple(entries)}).lexicon("xx", "yy")


def swap_one(text: str, entries) -> str:
    return translate_cells((TableRow("k", text),), lexicon(entries))[0].value


class TestTranslateCells:
    def test_replaced_text_is_not_rescanned(self):
        rows = translate_cells((TableRow("A", "A B"),), lexicon([("A", "B"), ("B", "C")]))
        assert rows == (TableRow("B", "B C"),)

    def test_leftmost_longest_source_wins(self):
        entries = [("New", "Nuevo"), ("New York", "Nueva York"), ("York City", "Ciudad")]
        assert swap_one("New York City", entries) == "Nueva York City"
        assert swap_one("York City", entries) == "Ciudad"
        assert swap_one("New Jersey", entries) == "Nuevo Jersey"

    def test_phrase_inside_longer_word_left_alone(self):
        entries = [("Ville", "City")]
        assert swap_one("Villeneuve", entries) == "Villeneuve"
        assert swap_one("Ville de Villeneuve", entries) == "City de Villeneuve"

    def test_first_listed_target_wins(self):
        assert swap_one("Land", [("Land", "Country"), ("Land", "State")]) == "Country"

    def test_empty_lexicon_leaves_rows_unchanged(self):
        rows = (TableRow("Name", "Ada"), TableRow("Land", ""))
        assert translate_cells(rows, ()) == rows

    @given(st.data())
    @settings(max_examples=200)
    def test_equals_per_entry_substitution_without_shared_words(self, data):
        word = st.text("abcé_1", min_size=1, max_size=4)
        words = data.draw(st.lists(word, min_size=2, max_size=16, unique=True))
        cut = data.draw(st.integers(1, len(words) - 1))
        source_words, target_words = words[:cut], words[cut:]
        # Sources are disjoint runs of source words; targets use only target words.
        sources, start = [], 0
        while start < len(source_words):
            length = data.draw(st.integers(1, 3))
            sources.append(" ".join(source_words[start : start + length]))
            start += length
        phrase = st.lists(st.sampled_from(target_words), min_size=1, max_size=3).map(" ".join)
        pairs = lexicon((src, data.draw(phrase)) for src in sources)
        token = st.sampled_from(words + ["zz", "a", "é1"])
        separator = st.sampled_from([" ", ", ", "-", "/", "(", ")", ""])
        cell = st.lists(st.tuples(token, separator), max_size=8).map(
            lambda parts: "".join(t + s for t, s in parts)
        )
        rows = data.draw(st.lists(st.tuples(cell.filter(str.strip), cell), max_size=5))
        rows = tuple(TableRow(k, v) for k, v in rows)
        assert translate_cells(rows, pairs) == per_entry_reference(rows, pairs)
