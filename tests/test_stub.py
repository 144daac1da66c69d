import re
import sys
from functools import lru_cache
from importlib import resources
from string import Template

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync import prompts
from tablesync.alignment import Alignment, greedy_key_matches
from tablesync.errors import ConfigError, NoTableFound
from tablesync.gateway import CompletionRequest
from tablesync.pipeline import format_alignment_slot
from tablesync.stub import LexiconPairs, StubBackend, StubRuleSet, _is_word, translate_cells
from tablesync.tables import (
    InfoTable,
    TableRow,
    extract_candidates,
    language_name,
    normalize_key,
    parse_table,
    serialize_table,
)

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


@lru_cache(maxsize=64)
def _lexicon_matcher(pairs: LexiconPairs) -> tuple[re.Pattern[str], dict[str, str]]:
    """One compiled alternation of all sources, in the given order, and the
    first target listed for each source."""
    targets: dict[str, str] = {}
    for src, tgt in pairs:
        targets.setdefault(src, tgt)
    alternation = "|".join(map(re.escape, targets))
    return re.compile(rf"(?<!\w)(?:{alternation})(?!\w)"), targets


def regex_reference(rows, pairs):
    """translate_cells through one compiled `re` alternation per lexicon:
    the regex matcher, kept as the reference for the first-character scan."""
    if not pairs:
        return tuple(rows)
    pattern, targets = _lexicon_matcher(pairs)

    def swap(text: str) -> str:
        return pattern.sub(lambda match: targets[match.group()], text)

    return tuple(TableRow(swap(r.key), swap(r.value)) for r in rows)


def lexicon(entries):
    return StubRuleSet(lexicons={("xx", "yy"): tuple(entries)}).lexicon("xx", "yy")


def longest_first(pairs):
    """The order both references assume; the sort is stable, so a repeated
    source keeps its listed targets in order."""
    return tuple(sorted(pairs, key=lambda e: (-len(e[0]), e[0])))


def swap_one(text: str, entries) -> str:
    return translate_cells((TableRow("k", text),), lexicon(entries))[0].value


class TestFromDir:
    def test_byte_order_mark_is_not_part_of_the_first_phrase(self, tmp_path):
        (tmp_path / "de-en.tsv").write_text("\ufeffEinwohner\tPopulation\nLand\tCountry\n", "utf-8")
        pairs = StubRuleSet.from_dir(tmp_path).lexicon("de", "en")
        assert pairs == (("Einwohner", "Population"), ("Land", "Country"))
        assert swap_one("Einwohner", pairs) == "Population"

    @pytest.mark.parametrize("line", ["Land\t", "\tCountry"], ids=["no-target", "no-source"])
    def test_empty_phrase_names_file_and_line(self, tmp_path, line):
        (tmp_path / "de-en.tsv").write_text(f"# de to en\n\nEinwohner\tPopulation\n{line}\n", "utf-8")
        with pytest.raises(ConfigError, match=r"de-en\.tsv:4: malformed lexicon line"):
            StubRuleSet.from_dir(tmp_path)


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
        assert translate_cells(rows, pairs) == per_entry_reference(rows, longest_first(pairs))

    @given(st.data())
    @settings(max_examples=300)
    def test_equals_regex_alternation(self, data):
        # Letters (two non-ASCII), digits (one Arabic-Indic), underscore, space, punctuation.
        text = st.text("aZéß1٣_ -.,", min_size=1, max_size=4)
        sources = data.draw(st.lists(text, min_size=1, max_size=6))
        # Prefixes of drawn sources, then drawn sources again with another target.
        for src in data.draw(st.lists(st.sampled_from(sources), max_size=3)):
            sources.append(src[: data.draw(st.integers(1, len(src)))])
        sources += data.draw(st.lists(st.sampled_from(sources), max_size=3))
        # A target may be another source; none is blank, so keys stay nonempty.
        target = st.one_of(text, st.sampled_from(sources)).filter(str.strip)
        pairs = lexicon((src, data.draw(target)) for src in sources)
        cell = st.lists(st.one_of(st.sampled_from(sources), text), max_size=6).map("".join)
        rows = data.draw(st.lists(st.tuples(cell.filter(str.strip), cell), max_size=4))
        rows = tuple(TableRow(k, v) for k, v in rows)
        assert translate_cells(rows, pairs) == regex_reference(rows, longest_first(pairs))

    @given(st.data())
    @settings(max_examples=200)
    def test_entry_order_does_not_matter(self, data):
        text = st.text("aZé1_ -.", min_size=1, max_size=4)
        sources = data.draw(st.lists(text, min_size=1, max_size=6))
        for src in data.draw(st.lists(st.sampled_from(sources), max_size=3)):
            sources.append(src[: data.draw(st.integers(1, len(src)))])
        sources += data.draw(st.lists(st.sampled_from(sources), max_size=3))
        pairs = lexicon((src, data.draw(text.filter(str.strip))) for src in sources)
        # Shuffle the entries, but entries that share a source keep their listed order.
        listed: dict[str, list[tuple[str, str]]] = {}
        for entry in pairs:
            listed.setdefault(entry[0], []).append(entry)
        shuffled = tuple(listed[src].pop(0) for src, _ in data.draw(st.permutations(pairs)))
        cell = st.lists(st.one_of(st.sampled_from(sources), text), max_size=6).map("".join)
        rows = data.draw(st.lists(st.tuples(cell.filter(str.strip), cell), max_size=4))
        rows = tuple(TableRow(k, v) for k, v in rows)
        expected = regex_reference(rows, longest_first(pairs))
        assert translate_cells(rows, shuffled) == translate_cells(rows, pairs) == expected

    def test_word_character_is_re_word(self):
        word = re.compile(r"\w")
        chars = map(chr, range(sys.maxunicode + 1))
        assert [ch for ch in chars if _is_word(ch) != (word.match(ch) is not None)] == []

    def test_large_lexicon_compiles_no_regex(self, monkeypatch):
        pairs = lexicon((f"w{i}", f"v{i}") for i in range(20_000))

        def refuse(*args, **kwargs):
            raise AssertionError("regex compiled on the lexicon path")

        # re.sub and the other module-level functions compile through re._compile.
        # The patch is undone before the test returns: pytest's own reporting
        # (junitxml, for one) calls re.sub after the test body.
        with monkeypatch.context() as patched:
            patched.setattr(re, "compile", refuse)
            patched.setattr(re, "_compile", refuse)
            rows = translate_cells((TableRow("w7", "w19999, w0 w12x (w3)"),), pairs)
        assert rows == (TableRow("v7", "v19999, v0 w12x (v3)"),)


def pieces(name: str) -> tuple[list[str], list[str]]:
    """A template's literals (one more than its slots) and slot names."""
    parts = re.split(r"\$(\w+)", prompts.template_text(name))
    return parts[0::2], parts[1::2]


def evaluate_prompt(left: TableRow, right: TableRow) -> str:
    return prompts.fill(
        prompts.EVALUATE,
        entity="Musterstadt",
        language="English",
        table_1=serialize_table([left]),
        table_2=serialize_table([right]),
    )


def stub_answer(prompt: str) -> str:
    return StubBackend(StubRuleSet()).complete(CompletionRequest(prompt, "stub-model"), 0)


class TestFill:
    @given(st.data())
    @settings(max_examples=200)
    def test_equals_template_substitute(self, data):
        name = data.draw(st.sampled_from(TEMPLATES))
        _, names = pieces(name)
        # Values full of what Template itself would read as placeholders.
        piece = st.sampled_from(["$", "$$", "${x}", "$table_a", "{", "}", "{}", "a", " ", "\n", "é"])
        value = st.lists(piece, max_size=6).map("".join)
        slots = {slot: data.draw(value) for slot in names}
        slots.update(data.draw(st.dictionaries(st.sampled_from(["unused", "x", "graph_z"]), value)))
        assert prompts.fill(name, **slots) == Template(prompts.template_text(name)).substitute(**slots)

    def test_missing_slot_is_key_error(self):
        with pytest.raises(KeyError, match="table_2"):
            prompts.fill(prompts.EVALUATE, entity="Musterstadt", language="English", table_1="[]")

    def test_lone_dollar_is_value_error(self, monkeypatch):
        text = "costs $ 5: $table"
        monkeypatch.setattr(prompts, "template_text", lambda name: text)
        with pytest.raises(ValueError):
            Template(text).substitute(table="t")
        with pytest.raises(ValueError):
            prompts.fill("any", table="t")


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
        prompt = prompts.fill(prompts.EVALUATE, entity="Musterstadt", language="English", table_1="[]", table_2="")
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

    def test_template_reworded_after_the_stub_is_built_is_still_read(self, monkeypatch):
        left, right = TableRow("Born", "12 May 1990"), TableRow("Born", "12 May 1991")
        stub = StubBackend(StubRuleSet())
        expected = stub.complete(CompletionRequest(evaluate_prompt(left, right), "stub-model"), 0)
        original = prompts.template_text
        reworded = "Compare these tables.\n\n" + original(prompts.EVALUATE)
        monkeypatch.setattr(
            prompts, "template_text", lambda name: reworded if name == prompts.EVALUATE else original(name)
        )
        prompt = evaluate_prompt(left, right)
        assert prompt.startswith("Compare these tables.")
        assert stub.complete(CompletionRequest(prompt, "stub-model"), 0) == expected


def slot_checking_align_update(table_a: str, table_b: str, alignments: str, **_) -> str:
    """The stub's align_update answer when it re-checked the alignments slot:
    its former `_parse_alignment_slot` and value loop, kept as the reference."""

    def _parse_alignment_slot(alignments: str) -> list[tuple[list[str], list[str]]] | None:
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

    rows_a, rows_b = parse_table(table_a), parse_table(table_b)
    pairs = _parse_alignment_slot(alignments)
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


class TestAlignUpdate:
    @given(st.data())
    @settings(max_examples=300)
    def test_reads_the_slot_the_pipeline_writes(self, data):
        # Keys full of what the slot's list syntax escapes or splits on, with
        # non-ASCII letters and spellings that differ only in case.
        piece = st.sampled_from(["'", '"', "\\", ",", "[", "]", " ", "a", "A", "b", "é", "É", "ß"])
        key = st.lists(piece, min_size=1, max_size=4).map("".join).filter(str.strip)
        value = st.lists(piece, max_size=3).map("".join)
        left_keys = data.draw(st.lists(key, min_size=1, max_size=5))
        right_key = st.one_of(key, st.sampled_from(left_keys).map(str.swapcase).filter(str.strip))
        right_keys = data.draw(st.lists(right_key, min_size=1, max_size=5))
        source = InfoTable("E", "de", "City", [TableRow(k, data.draw(value)) for k in left_keys])
        reference = InfoTable("E", "en", "City", [TableRow(k, data.draw(value)) for k in right_keys])
        left, right = sorted(source.normalized_keys()), sorted(reference.normalized_keys())
        edges = data.draw(st.sets(st.tuples(st.sampled_from(left), st.sampled_from(right)), max_size=6))
        slot = format_alignment_slot(Alignment.build(left, right, edges), source, reference)
        for alignments in (slot, prompts.SELF_ALIGN_INSTRUCTION):
            # Filled as Pipeline.update_table fills it.
            prompt = prompts.fill(
                prompts.ALIGN_UPDATE,
                language_a=language_name(source.language),
                language_b=language_name(reference.language),
                category=source.category,
                table_a=serialize_table(source),
                table_b=serialize_table(reference),
                alignments=alignments,
            )
            expected = slot_checking_align_update(**prompts.slots_of(prompts.ALIGN_UPDATE, prompt))
            assert stub_answer(prompt) == expected
