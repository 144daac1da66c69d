import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync import prompts
from tablesync.errors import NoTableFound
from tablesync.gateway import CompletionRequest
from tablesync.stub import StubBackend, StubRuleSet, translate_cells
from tablesync.tables import TableRow, serialize_table

TEMPLATES = sorted(
    entry.name.removesuffix(".txt")
    for entry in resources.files("tablesync.prompts").iterdir()
    if entry.name.endswith(".txt")
)


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


def pieces(name: str) -> tuple[list[str], list[str]]:
    """A template's literals (one more than its slots) and slot names."""
    parts = re.split(r"\$(\w+)", prompts.template_text(name))
    return parts[0::2], parts[1::2]


def evaluate_prompt(left: TableRow, right: TableRow) -> str:
    return prompts.fill(
        prompts.EVALUATE,
        language="English",
        table_1=serialize_table([left]),
        table_2=serialize_table([right]),
    )


def stub_answer(prompt: str) -> str:
    return StubBackend(StubRuleSet()).complete(CompletionRequest(prompt, "stub-model"), 0)


class TestSlotsOf:
    @given(st.data())
    @settings(max_examples=300)
    def test_inverts_fill_and_no_other_template_reads_the_prompt(self, data):
        name = data.draw(st.sampled_from(TEMPLATES))
        literals, names = pieces(name)
        # Values mix short texts with the template's own literals.
        piece = st.one_of(st.text("aT :\n[]{}\"'1G,.é", max_size=10), st.sampled_from(literals))
        slots = {}
        for slot in dict.fromkeys(names):
            # A slot value must not hold the literal after it before its own end;
            # the last slot runs to the final literal and is exempt.
            after = [literals[i + 1] for i, n in enumerate(names[:-1]) if n == slot]
            value = st.lists(piece, max_size=4).map("".join).filter(
                lambda v: all((v + a).find(a) == len(v) for a in after)
            )
            slots[slot] = data.draw(value)
        prompt = prompts.fill(name, **slots)
        assert prompts.slots_of(name, prompt) == slots
        assert [t for t in TEMPLATES if prompts.slots_of(t, prompt) is not None] == [name]

    def test_prompt_no_filling_produces_is_none(self):
        prompt = prompts.fill(
            prompts.DIRECT, category="City", language_a="German", language_b="English",
            table_a="[]", table_b="[]",
        )
        assert prompts.slots_of(prompts.DIRECT, prompt)["language_a"] == "German"
        # a repeated slot holding two different texts
        head, _, tail = prompt.rpartition("German")
        assert prompts.slots_of(prompts.DIRECT, head + "French" + tail) is None
        # the literal after table_1 overlaps the final literal, leaving table_2 no room
        prompt = prompts.fill(prompts.EVALUATE, language="English", table_1="[]", table_2="")
        assert prompts.slots_of(prompts.EVALUATE, prompt)["table_2"] == ""
        assert prompts.slots_of(prompts.EVALUATE, prompt.replace("Table 2:\n\n", "Table 2:\n")) is None


class TestStubRecognition:
    @pytest.mark.parametrize(
        "prompt",
        [
            "Please summarize this article.",
            # an evaluate prompt cut off before its second table
            evaluate_prompt(TableRow("Born", "1990"), TableRow("Born", "1991")).split("Table 2:")[0],
            # a template filling with trailing text
            evaluate_prompt(TableRow("Born", "1990"), TableRow("Born", "1991")) + "Thanks!",
        ],
        ids=["no-template", "truncated", "trailing-text"],
    )
    def test_prompt_filling_no_template_is_no_table_found(self, prompt):
        with pytest.raises(NoTableFound):
            stub_answer(prompt)

    def test_reworded_template_gets_the_same_answer(self, monkeypatch):
        left, right = TableRow("Born", "12 May 1990"), TableRow("Born", "12 May 1991")
        expected = stub_answer(evaluate_prompt(left, right))
        original = prompts.template_text
        reworded = original(prompts.EVALUATE).replace("Table 1:", "First table:").replace(
            "Table 2:", "Second table:"
        )
        assert "Table 1:" not in reworded
        # slots_of caches the split by template text, so a changed text is split afresh.
        monkeypatch.setattr(
            prompts, "template_text", lambda name: reworded if name == prompts.EVALUATE else original(name)
        )
        prompt = evaluate_prompt(left, right)
        assert "First table:" in prompt
        assert stub_answer(prompt) == expected
