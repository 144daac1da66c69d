"""The value types are plain classes on `tables.Value`. These properties hold
each against its definition as a frozen dataclass, kept here as the reference:
equality and inequality, hash, repr, construction by position and by name,
and refusal to assign or delete an attribute."""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tablesync import alignment, gateway, metrics, tables
from tablesync.errors import EmptyKey, InvalidValue, OverlappingFacts


class Reference:
    """The frozen dataclasses the value types replaced, fields and checks verbatim."""

    @dataclass(frozen=True)
    class TableRow:
        key: str
        value: str

        def __post_init__(self) -> None:
            trimmed = self.key.strip()
            if not trimmed:
                raise EmptyKey("row key is empty")
            object.__setattr__(self, "key", trimmed)

    @dataclass(frozen=True)
    class InfoTable:
        entity: str
        language: str
        category: str
        rows: tuple
        revision_tag: str | None = None

        def __post_init__(self) -> None:
            if self.language not in tables.LANGUAGE_NAMES:
                raise ValueError(f"unregistered language code: {self.language!r}")
            if not self.category.strip():
                raise ValueError("category is empty")
            object.__setattr__(self, "rows", tuple(self.rows))

    @dataclass(frozen=True)
    class Alignment:
        left_universe: frozenset
        right_universe: frozenset
        edges: frozenset

    @dataclass(frozen=True)
    class AtomicComparison:
        sct: tuple = ()
        scd: tuple = ()
        t1u: tuple = ()
        t2u: tuple = ()

        def __post_init__(self) -> None:
            groups = (set(self.sct), set(self.scd), set(self.t1u), set(self.t2u))
            union = set().union(*groups)
            if len(union) != sum(len(g) for g in groups):
                shared = min(fact for fact in union if sum(fact in g for g in groups) > 1)
                raise OverlappingFacts(f"comparison fact lists must be disjoint; {shared!r} is in two")

    @dataclass(frozen=True)
    class CompletionRequest:
        prompt: str
        model_id: str
        temperature: float = gateway.DEFAULT_PIPELINE_TEMPERATURE
        max_tokens: int = gateway.DEFAULT_MAX_TOKENS
        tag: str = ""

        def __post_init__(self) -> None:
            if not self.prompt:
                raise ValueError("prompt is empty")
            if not 0.0 <= self.temperature <= 1.0:
                raise ValueError(f"temperature out of range: {self.temperature}")
            if self.max_tokens <= 0:
                raise ValueError("max_tokens must be positive")

    @dataclass(frozen=True)
    class UpdateReport:
        updated: Fraction
        added_pct: Fraction
        added_rows: int
        missed_gold: int
        deleted_input: int
        gold_len: int
        input_len: int
        output_len: int
        un_input: int
        un_output: int


# The reference classes print under their own names, as the value types do.
for _cls in vars(Reference).values():
    if isinstance(_cls, type):
        _cls.__qualname__ = _cls.__name__

# Few distinct texts, so that drawn values are often equal.
TEXT = st.text("ab ", max_size=2)
KEY = st.text("ab ", min_size=1, max_size=2).filter(str.strip)
ROWS = st.lists(st.tuples(KEY, TEXT), max_size=2)
KEYS = st.frozensets(st.sampled_from("abc"), max_size=2)


@st.composite
def facts(draw):
    """Four disjoint fact tuples."""
    pool = draw(st.lists(st.sampled_from("wxyz"), unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(pool)), min_size=3, max_size=3)))
    bounds = [0, *cuts, len(pool)]
    return [tuple(pool[bounds[i] : bounds[i + 1]]) for i in range(4)]


# Each type: (value type, its reference, strategy of constructor (args, kwargs)).
CASES = {
    "TableRow": (tables.TableRow, Reference.TableRow, st.tuples(st.tuples(KEY, TEXT), st.just({}))),
    "InfoTable": (
        tables.InfoTable,
        Reference.InfoTable,
        st.tuples(
            st.tuples(TEXT, st.sampled_from(["en", "de"]), st.sampled_from(["C", "D"]), ROWS),
            st.fixed_dictionaries({}, optional={"revision_tag": st.none() | TEXT}),
        ),
    ),
    "Alignment": (alignment.Alignment, Reference.Alignment, st.tuples(st.tuples(KEYS, KEYS, KEYS), st.just({}))),
    "AtomicComparison": (metrics.AtomicComparison, Reference.AtomicComparison, st.tuples(facts(), st.just({}))),
    "CompletionRequest": (
        gateway.CompletionRequest,
        Reference.CompletionRequest,
        st.tuples(
            st.tuples(st.sampled_from(["p", "q"]), st.sampled_from(["m", "n"])),
            st.fixed_dictionaries(
                {},
                optional={
                    "temperature": st.sampled_from([0.0, 0.5]),
                    "max_tokens": st.sampled_from([1, 2048]),
                    "tag": TEXT,
                },
            ),
        ),
    ),
    "UpdateReport": (
        metrics.UpdateReport,
        Reference.UpdateReport,
        st.tuples(
            st.tuples(
                *[st.sampled_from([Fraction(0), Fraction(1, 3)])] * 2, *[st.integers(0, 1)] * 8
            ),
            st.just({}),
        ),
    ),
}


def build(kind: str, cls: type, drawn, *, by_name: bool = False):
    """An instance of cls from drawn (args, kwargs); table rows become cls's own row type."""
    args, kwargs = drawn
    args = list(args)
    if kind == "InfoTable":
        row = tables.TableRow if cls is tables.InfoTable else Reference.TableRow
        args[3] = [row(k, v) for k, v in args[3]]
    if by_name:
        names = [f.name for f in fields(CASES[kind][1])]
        return cls(**dict(zip(names, args)), **kwargs)
    return cls(*args, **kwargs)


@pytest.mark.parametrize("kind", list(CASES))
def test_value_types_behave_as_their_frozen_dataclasses(kind):
    new_cls, ref_cls, drawn_values = CASES[kind]

    @given(drawn_values, drawn_values)
    def check(a, b):
        new_a, new_b = build(kind, new_cls, a), build(kind, new_cls, b)
        ref_a, ref_b = build(kind, ref_cls, a), build(kind, ref_cls, b)
        assert (new_a == new_b, new_a != new_b) == (ref_a == ref_b, ref_a != ref_b)
        assert hash(new_a) == hash(ref_a)
        assert repr(new_a) == repr(ref_a)
        assert build(kind, new_cls, a, by_name=True) == new_a
        assert new_a != ref_a and new_a != tuple(getattr(new_a, f.name) for f in fields(ref_cls))
        for f in fields(ref_cls):
            assert repr(getattr(new_a, f.name)) == repr(getattr(ref_a, f.name))
            with pytest.raises(AttributeError):
                setattr(new_a, f.name, getattr(new_b, f.name))
            with pytest.raises(AttributeError):
                delattr(new_a, f.name)

    check()


def test_checks_and_unhashable_types_match():
    with pytest.raises(EmptyKey):
        tables.TableRow(" ", "v")
    with pytest.raises(OverlappingFacts):
        metrics.AtomicComparison(("x",), ("x",))
    with pytest.raises(ValueError, match="unregistered language code"):
        tables.InfoTable("E", "xx", "C", ())
    with pytest.raises(ValueError, match="category is empty"):
        tables.InfoTable("E", "en", " ", ())
    with pytest.raises(InvalidValue, match="root must be a map"):
        tables.KnowledgeGraph(["b"])
    with pytest.raises(InvalidValue, match="empty or non-text key"):
        tables.KnowledgeGraph({" ": "b"})
    assert metrics.RowScore(1, 2, 3) != alignment.AlignmentScore(1, 2, 3)  # equal fields, other type
    with pytest.raises(TypeError):
        hash(tables.KnowledgeGraph({"a": "b"}))
    with pytest.raises(TypeError):
        tables.SyncInstance(None, None)  # a field left out
    with pytest.raises(TypeError):
        metrics.RowScore(1, 2, 3, precision=1)  # a field given twice


def test_cached_properties_are_computed_once():
    table = tables.InfoTable("E", "en", "C", (tables.TableRow("K.", "v"),))
    assert table.row_for("k") is table.row_for("k") and table._row_index is table._row_index
    aligned = alignment.Alignment.build({"a", "b"}, {"c"}, {("a", "c"), ("b", "c")})
    assert aligned.by_right is aligned.by_right and aligned.pairs is aligned.pairs
    assert aligned.by_right == {"c": ("a", "b")} and aligned.pairs == ((("a", "b"), ("c",)),)
