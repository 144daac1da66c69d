import json
import re
from fractions import Fraction
from string import Template

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync import metrics, prompts
from tablesync.alignment import Alignment, align_deterministic
from tablesync.errors import ComparisonFailed, OverlappingFacts, ReplayMiss, TableSyncError
from tablesync.gateway import DEFAULT_EVAL_TEMPERATURE, CompletionRequest, Gateway, ReplayBackend, Transcript
from tablesync.metrics import (
    COMPARISON_KEYS,
    EVAL_BATCH_ROWS,
    PERFECT_ROW,
    ZERO_ROW,
    AtomicComparison,
    InstanceEvaluation,
    UpdateReport,
    build_report,
    compare_rows,
    evaluate_instance,
    partition_alignments,
    score_row,
    token_compare,
)
from tablesync.stub import StubBackend, StubRuleSet
from tablesync.tables import InfoTable, TableRow, language_name, parse_kg, parse_table, serialize_table

INPUT_KEYS = ("ir1", "ir2", "ir3", "ir4")
GOLD_KEYS = ("gr1", "gr2", "gr3", "gr4", "gr5", "gr6", "gr7", "gr8")
OUTPUT_KEYS = ("or1", "or2", "or3", "or4", "or5", "or6")


@pytest.fixture()
def worked_example():
    """The alignment-diagram fixture: 4 input, 8 gold, 6 output keys."""
    ig = Alignment.build(INPUT_KEYS, GOLD_KEYS, [("ir1", "gr1"), ("ir2", "gr2"), ("ir3", "gr3")])
    og = Alignment.build(
        OUTPUT_KEYS, GOLD_KEYS, [("or1", "gr1"), ("or2", "gr2"), ("or3", "gr4"), ("or5", "gr7")]
    )
    return ig, og


class TestScoreRow:
    def test_hand_computed(self):
        c = AtomicComparison(("a", "b", "c"), ("d",), ("e",), ("f", "g"))
        score = score_row(c)
        assert score.precision == Fraction(3, 5)
        assert score.recall == Fraction(1, 2)
        assert score.f1 == Fraction(6, 11)

    def test_all_consistent(self):
        score = score_row(AtomicComparison(("a", "b"), (), (), ()))
        assert score == PERFECT_ROW

    def test_no_consistent_facts(self):
        score = score_row(AtomicComparison((), ("a",), ("b",), ("c",)))
        assert score.precision == 0 and score.recall == 0 and score.f1 == 0

    def test_vacuous_ratios_are_one(self):
        score = score_row(AtomicComparison((), (), (), ("x",)))
        assert score.precision == Fraction(1)
        assert score.recall == Fraction(0)

    counts = st.tuples(*[st.integers(min_value=0, max_value=8)] * 4)

    @staticmethod
    def _comparison(sct, scd, t1u, t2u):
        return AtomicComparison(
            tuple(f"s{i}" for i in range(sct)),
            tuple(f"c{i}" for i in range(scd)),
            tuple(f"l{i}" for i in range(t1u)),
            tuple(f"r{i}" for i in range(t2u)),
        )

    @given(counts)
    def test_adding_consistent_fact_never_hurts(self, quad):
        sct, scd, t1u, t2u = quad
        base = score_row(self._comparison(sct, scd, t1u, t2u))
        grown = score_row(self._comparison(sct + 1, scd, t1u, t2u))
        assert grown.precision >= base.precision
        assert grown.recall >= base.recall
        assert grown.f1 >= base.f1

    @given(counts)
    def test_adding_contradiction_hurts_both(self, quad):
        sct, scd, t1u, t2u = quad
        base = score_row(self._comparison(sct + 1, scd, t1u, t2u))
        worse = score_row(self._comparison(sct + 1, scd + 1, t1u, t2u))
        assert worse.precision < base.precision
        assert worse.recall < base.recall

    def test_disjointness_enforced(self):
        with pytest.raises(OverlappingFacts):
            AtomicComparison(("a",), ("a",), (), ())


class TestTokenCompare:
    def test_identical_rows_all_consistent(self):
        c = token_compare(TableRow("Country", "Germany"), TableRow("Country", "Germany"))
        assert c.sct and not (c.scd or c.t1u or c.t2u)

    def test_superset_value_yields_t2u(self):
        c = token_compare(
            TableRow("Country", "Germany"), TableRow("Country", "Germany, United States")
        )
        assert len(c.sct) == 1 and len(c.t2u) == 1
        assert not c.scd and not c.t1u

    def test_disjoint_values_yield_contradiction(self):
        c = token_compare(TableRow("Population", "210000"), TableRow("Population", "230000"))
        assert len(c.scd) == 1 and not c.sct

    def test_fact_written_as_consistent_and_contradictory_is_a_typed_error(self):
        # "k: a <> c" is the consistent item "a <> c" and the contradiction a <> c.
        with pytest.raises(OverlappingFacts, match="'k: a <> c' is in two"):
            token_compare(TableRow("k", "a <> c, a"), TableRow("k", "a <> c, c"))
        assert issubclass(OverlappingFacts, TableSyncError)


def gold_rows(request) -> tuple[TableRow, ...]:
    """Table 2 of an evaluate prompt: the gold rows of its aligned pairs."""
    return parse_table(prompts.slots_of(prompts.EVALUATE, request.prompt)["table_2"])


class Judge(StubBackend):
    """Stub whose evaluate answers pass through `edit(answer map, attempt)`
    first; it keeps the evaluate prompts it is sent."""

    def __init__(self, edit):
        super().__init__(StubRuleSet())
        self.edit = edit
        self.evaluate_prompts = []

    @property
    def evaluate_calls(self) -> int:
        return len(self.evaluate_prompts)

    def complete(self, request, attempt):
        response = super().complete(request, attempt)
        if request.tag != "evaluate":
            return response
        self.evaluate_prompts.append(request.prompt)
        edited = self.edit(json.loads(response), attempt)
        return edited if isinstance(edited, str) else json.dumps(edited, ensure_ascii=False)


PAIRS = [
    (TableRow("Country", "Germany"), TableRow("Country", "Germany, United States")),
    (TableRow("Population", "210000"), TableRow("Population", "230000")),
    (TableRow("Mayor", "Hans Alt"), TableRow("Mayor", "Hans Alt")),
]


class TestCompareRows:
    def compare(self, backend):
        return compare_rows(PAIRS, "m", Gateway(backend), entity="Musterstadt", language="en")

    def test_stub_comparator_through_gateway(self, stub_gateway):
        assert compare_rows(PAIRS, "stub-model", stub_gateway, entity="Musterstadt", language="en") == [
            token_compare(*pair) for pair in PAIRS
        ]

    def test_prompt_names_the_entity(self):
        judge = Judge(lambda answer, attempt: answer)
        self.compare(judge)
        (prompt,) = judge.evaluate_prompts
        assert prompts.slots_of(prompts.EVALUATE, prompt)["entity"] == "Musterstadt"
        assert "Here are the test tables about Musterstadt, provided in language English:\n\nTable 1:\n" in prompt

    def test_answer_with_no_map_is_reprompted_then_flags_every_row(self):
        judge = Judge(lambda answer, attempt: "no structured output here")
        assert self.compare(judge) == [None, None, None]
        assert judge.evaluate_calls == 2  # the first attempt and its one reprompt

    def test_reprompt_answer_is_used(self):
        judge = Judge(lambda answer, attempt: answer if attempt else "Sorry, no table.")
        assert self.compare(judge) == [token_compare(*pair) for pair in PAIRS]
        assert judge.evaluate_calls == 2

    def test_missing_entry_flags_only_its_row(self):
        judge = Judge(lambda answer, attempt: {k: v for k, v in answer.items() if k != "Population"})
        assert self.compare(judge) == [token_compare(*PAIRS[0]), None, token_compare(*PAIRS[2])]
        assert judge.evaluate_calls == 1

    @pytest.mark.parametrize(
        "entry",
        [
            {"similar_consistent": ["k: a"], "table1_unique": ["k: a"]},  # overlapping lists
            {"similar_consistent": [["nested"]]},  # non-text facts
            ["not", "a", "map"],
        ],
        ids=["overlapping", "non-text", "not-a-map"],
    )
    def test_malformed_entry_flags_only_its_row(self, entry):
        judge = Judge(lambda answer, attempt: answer | {"Country": entry})
        assert self.compare(judge) == [None, *(token_compare(*pair) for pair in PAIRS[1:])]
        assert judge.evaluate_calls == 1

    def test_answer_keys_match_by_normalized_key(self):
        judge = Judge(lambda answer, attempt: {k.upper() + ".": v for k, v in answer.items()})
        assert self.compare(judge) == [token_compare(*pair) for pair in PAIRS]

    def test_backend_error_propagates(self):
        class MissingBackend:
            def complete(self, request, attempt):
                raise ReplayMiss("no recorded response")

        with pytest.raises(ReplayMiss):
            compare_rows(PAIRS, "m", Gateway(MissingBackend()), entity="Musterstadt", language="en")

    def test_programming_error_propagates(self, stub_gateway, monkeypatch):
        def broken(text):
            raise TypeError("bug in the parser")

        monkeypatch.setattr(metrics, "parse_kg", broken)
        with pytest.raises(TypeError, match="bug in the parser"):
            compare_rows(PAIRS, "m", stub_gateway, entity="Musterstadt", language="en")


class TestPartition:
    def test_worked_example_groups(self, worked_example):
        partition = partition_alignments(*worked_example)
        assert partition.tri == {("ir1", "gr1", "or1"), ("ir2", "gr2", "or2")}
        assert partition.bi_input_gold == {("ir3", "gr3")}
        assert partition.bi_gold_output == {("gr4", "or3"), ("gr7", "or5")}
        assert partition.un_input == {"ir4"}
        assert partition.un_gold == {"gr5", "gr6", "gr8"}
        assert partition.un_output == {"or4", "or6"}

    def test_coverage_identities(self, worked_example):
        partition = partition_alignments(*worked_example)
        assert partition.gold_len == len(GOLD_KEYS)
        assert partition.input_len == len(INPUT_KEYS)
        assert partition.output_len == len(OUTPUT_KEYS)

    def test_empty_alignments_everything_unaligned(self):
        ig = Alignment.build(INPUT_KEYS, GOLD_KEYS, [])
        og = Alignment.build(OUTPUT_KEYS, GOLD_KEYS, [])
        partition = partition_alignments(ig, og)
        assert partition.un_gold == set(GOLD_KEYS)
        assert partition.un_input == set(INPUT_KEYS)
        assert partition.un_output == set(OUTPUT_KEYS)
        assert not partition.tri

    def test_identical_full_alignments_all_tri(self):
        keys = ("a", "b", "c")
        ig = Alignment.build(keys, keys, [(k, k) for k in keys])
        og = Alignment.build(keys, keys, [(k, k) for k in keys])
        partition = partition_alignments(ig, og)
        assert len(partition.tri) == 3
        assert not partition.un_gold


class TestBuildReport:
    def test_worked_example_with_all_ones_f1(self, worked_example):
        partition = partition_alignments(*worked_example)
        ones_ig = {g: PERFECT_ROW for _, g, _ in partition.tri}
        ones_ig |= {g: PERFECT_ROW for _, g in partition.bi_input_gold}
        ones_og = {g: PERFECT_ROW for _, g, _ in partition.tri}
        ones_og |= {g: PERFECT_ROW for g, _ in partition.bi_gold_output}
        report = build_report(partition, ones_ig, ones_og)
        assert report.missed_frac == Fraction(3, 8)
        assert report.deleted_frac == Fraction(1, 8)
        assert report.added_frac == Fraction(2, 8)
        assert report.un_input_frac == Fraction(1, 4)
        assert report.un_output_frac == Fraction(2, 6)
        assert report.updated == 0  # tri F1 sums cancel at all-ones
        assert report.added_pct == Fraction(100) * Fraction(2, 8)

    def test_perfect_output_no_structural_errors(self):
        keys = ("a", "b")
        ig = Alignment.build(keys, keys, [(k, k) for k in keys])
        partition = partition_alignments(ig, ig)
        scores = {k: PERFECT_ROW for k in keys}
        report = build_report(partition, scores, scores)
        assert report.missed_gold == 0
        assert report.deleted_input == 0
        assert report.added_rows == 0
        assert report.updated == 0

    def test_updated_reflects_one_fixed_row(self):
        keys = ("a", "b")
        ig = Alignment.build(keys, keys, [(k, k) for k in keys])
        partition = partition_alignments(ig, ig)
        before = {"a": score_row(AtomicComparison((), ("x",), (), ())), "b": PERFECT_ROW}
        after = {"a": PERFECT_ROW, "b": PERFECT_ROW}
        report = build_report(partition, before, after)
        # one row went from F1 0 to 1 among 2 gold keys -> +50 percent points
        assert report.updated == Fraction(100, 2)


class ModelSpoiledEvaluator(StubBackend):
    """Stub whose evaluate answers from model "spoiled" call every row pair
    contradictory, so its report's scores differ from the other models'."""

    def complete(self, request, attempt):
        if request.tag == "evaluate" and request.model_id == "spoiled":
            return json.dumps({row.key: {"similar_contradictory": ["spoiled"]} for row in gold_rows(request)})
        return super().complete(request, attempt)


class TestEnsemble:
    @pytest.fixture()
    def tables(self, mk_table):
        # Lower-cased keys: no candidate row equals its gold row, so every
        # pair goes to the judge, and the stub still judges the spellings alike.
        source = mk_table([("name", "X"), ("population", "1")], lang="en")
        gold = mk_table([("Name", "X"), ("Population", "2"), ("Area", "3")], lang="en")
        output = gold.with_rows([TableRow(row.key.lower(), row.value) for row in gold.rows])
        return source, output, gold

    def evaluate(self, tables, models):
        gateway = Gateway(ModelSpoiledEvaluator(StubRuleSet()))
        return evaluate_instance(*tables, gateway=gateway, evaluator_models=models)

    def test_single_report_identity(self, tables):
        evaluation = self.evaluate(tables, ["m"])
        assert evaluation.ensemble == evaluation.per_model["m"]

    def test_mean_of_two(self, tables):
        evaluation = self.evaluate(tables, ["m", "spoiled"])
        a, b = evaluation.per_model["m"], evaluation.per_model["spoiled"]
        assert (a.updated, a.added_pct) == (Fraction(100, 3), Fraction(100, 3))
        assert (b.updated, b.added_pct) == (0, 0)
        merged = evaluation.ensemble
        assert merged.updated == (a.updated + b.updated) / 2
        assert merged.added_pct == (a.added_pct + b.added_pct) / 2
        assert merged == with_scores(a, updated=merged.updated, added_pct=merged.added_pct)


class TestEvaluateInstance:
    def test_three_stub_evaluators_average_equals_each(self, mk_table, stub_gateway):
        source = mk_table([("Name", "X"), ("Population", "1")], lang="en")
        gold = mk_table([("Name", "X"), ("Population", "2")], lang="en")
        output = mk_table([("Name", "X"), ("Population", "2")], lang="en")
        evaluation = evaluate_instance(
            source, output, gold, gateway=stub_gateway, evaluator_models=["a", "b", "c"]
        )
        reports = list(evaluation.per_model.values())
        assert all(r.updated == reports[0].updated for r in reports)
        assert evaluation.ensemble.updated == reports[0].updated
        assert evaluation.ensemble.updated == Fraction(100, 2)

    def test_table_sizes_are_key_counts_under_many_to_one(self, mk_table, stub_gateway):
        # "Area" and "Area km" both align to gold "area": one gold key, two source keys.
        source = mk_table([("Area", "1"), ("Area km", "1"), ("Pop", "2"), ("Mayor", "X")], lang="en")
        gold = mk_table([("Area", "1"), ("area", "1"), ("Pop", "3")], lang="en")
        report = evaluate_instance(source, source, gold, gateway=stub_gateway, evaluator_models=["m"]).ensemble
        assert (report.input_len, report.un_input, report.un_input_frac) == (4, 1, Fraction(1, 4))
        assert (report.output_len, report.un_output, report.un_output_frac) == (4, 1, Fraction(1, 4))


class TestRowPairsComparedOnce:
    @pytest.fixture()
    def unchanged(self, mk_table):
        source = mk_table([("Name", "X"), ("Population", "1")], lang="en")
        gold = mk_table([("Name", "X"), ("Population", "2"), ("Area", "3")], lang="en")
        return source, source, gold

    @staticmethod
    def spoiling_judge():
        seen = []

        def spoil_first_entry(answer, attempt):
            """The first answer calls its first row pair contradictory."""
            seen.append(attempt)
            if len(seen) == 1:
                answer[next(iter(answer))] = {"similar_contradictory": ["spoiled"]}
            return answer

        return Judge(spoil_first_entry)

    def test_unchanged_output_updates_nothing(self, unchanged):
        source, output, gold = unchanged
        judge = self.spoiling_judge()
        evaluation = evaluate_instance(source, output, gold, gateway=Gateway(judge), evaluator_models=["m"])
        assert evaluation.ensemble.updated == 0
        assert not evaluation.flagged
        assert judge.evaluate_calls == 1  # both distinct row pairs in one chunk

    def test_record_then_replay_scores_alike(self, unchanged, tmp_path):
        source, output, gold = unchanged
        transcript = Transcript(tmp_path / "t.jsonl")
        with Gateway(self.spoiling_judge(), transcript=transcript) as recording:
            recorded = evaluate_instance(source, output, gold, gateway=recording, evaluator_models=["m"])
        replaying = Gateway(ReplayBackend(transcript))
        replayed = evaluate_instance(source, output, gold, gateway=replaying, evaluator_models=["m"])
        assert replayed.per_model == recorded.per_model
        assert replayed.flagged == recorded.flagged

    def test_chunks_close_at_the_size_cap_and_before_a_held_gold_key(self, mk_table):
        gold = mk_table([(f"k{i:02}", "a") for i in range(20)], lang="en")
        source = gold.with_rows([TableRow(row.key, "b") for row in gold.rows])  # every row differs
        output = source.with_rows([*source.rows[:19], TableRow("k19", "c")])
        sizes = []
        judge = Judge(lambda answer, attempt: sizes.append(len(answer)) or answer)
        evaluation = evaluate_instance(source, output, gold, gateway=Gateway(judge), evaluator_models=["m"])
        # k00..k15, then k16..k19, then the output's k19, whose gold row the second chunk holds.
        assert sizes == [EVAL_BATCH_ROWS, 4, 1]
        assert not evaluation.flagged

    def test_failed_pair_compared_once_and_flagged_per_side(self, mk_table):
        judge = Judge(lambda answer, attempt: "no structured output")
        table = mk_table([("name", "X")], lang="en")  # differs from gold's "Name", so it is judged
        gold = mk_table([("Name", "X")], lang="en")
        evaluation = evaluate_instance(table, table, gold, gateway=Gateway(judge), evaluator_models=["m"])
        assert evaluation.flagged == (("m", "name"), ("m", "name"))
        assert judge.evaluate_calls == 2  # the first attempt and its one reprompt


# The one-row comparison that batching replaced, kept verbatim as the
# reference: one evaluate call per distinct (model, candidate row, gold row),
# identical rows included, answered by the one-row stub comparator below.
# It fills its own copy of the evaluate template as that comparison knew it.

REFERENCE_EVALUATE = """Your task involves analyzing two sets of key-value pair tables. Row i of Table 1 is aligned with row i of Table 2, and each aligned row pair is compared on its own. Begin by translating the tables to English. Then, extract all pertinent fine-grained details from each row. Then, delve into the semantic content, disregarding minor differences due to formatting, grammar, and language nuances.

Within an aligned row pair, information may fall into two categories:

'Similar Information': Information common to both rows

- 'Consistent Information': Both rows contain identical data with possible differences in format.
- 'Contradictory Information': The rows present conflicting data with clear difference in meaning.

Note: While analyzing the information, especially for similar information from two rows, solely focus on the semantic content, disregarding any minor differences due to formatting, grammar, and linguistic variations. While comparing numerical information, allow a reasonable error percentage that you consider acceptable before presenting information as inconsistent. Allow the same error margin for other types of information such as coordinates. Be lenient in grouping information as 'Consistent' when slight differences still refer to the overall same data.

'Unique Information': Information exclusive to one row of the pair.

Your comparison of each row pair should result in four types of information:

- Similar and consistent information: similar_consistent
- Similar and contradictory information: similar_contradictory
- Table 1 unique information: table1_unique
- Table 2 unique information: table2_unique

Here are the test tables provided in language $language:

Table 1:
$table_1

Table 2:
$table_2

Note: While comparing information, solely focus on the semantic content, disregarding formatting, grammar, and language nuances.

Provide the result as one json object that maps each key of Table 2 to an object with the four keys similar_consistent, similar_contradictory, table1_unique and table2_unique, each holding a list of atomic fact strings about that row pair.
"""
# The reference prompt's slots, read back by matching the literals around them.
REFERENCE_SLOTS = re.compile(re.sub(r"\\\$(\w+)", r"(?P<\1>.*?)", re.escape(REFERENCE_EVALUATE)), re.DOTALL)


def reference_facts_from(value: object) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,) if value else ()
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return tuple(value)
    raise ComparisonFailed(f"category holds non-text facts: {value!r}")


def reference_compare_rows(left_row, right_row, model_id, gateway, *, language="en"):
    prompt = Template(REFERENCE_EVALUATE).substitute(
        language=language_name(language),
        table_1=serialize_table([left_row]),
        table_2=serialize_table([right_row]),
    )
    request = CompletionRequest(
        prompt=prompt,
        model_id=model_id,
        temperature=DEFAULT_EVAL_TEMPERATURE,
        tag="evaluate",
    )

    def parse(response: str) -> AtomicComparison:
        try:
            doc = parse_kg(response).root
            return AtomicComparison(*(reference_facts_from(doc.get(name)) for name in COMPARISON_KEYS))
        except (TableSyncError, ValueError) as exc:  # no graph, or fact lists that overlap
            raise ComparisonFailed(f"unparseable comparison output: {exc}") from exc

    comparison, _ = gateway.complete_parsed(request, parse)
    return comparison


class ReferenceStub:
    def complete(self, request, attempt):
        slots = REFERENCE_SLOTS.fullmatch(request.prompt)
        rows_1, rows_2 = parse_table(slots["table_1"]), parse_table(slots["table_2"])
        comparison = token_compare(
            rows_1[0] if rows_1 else None,
            rows_2[0] if rows_2 else None,
        )
        doc = dict(
            zip(COMPARISON_KEYS, (comparison.sct, comparison.scd, comparison.t1u, comparison.t2u))
        )
        # No indent: with one, json.dumps falls back to its pure-Python encoder.
        return json.dumps({k: list(v) for k, v in doc.items()}, ensure_ascii=False)


def with_scores(report: UpdateReport, *, updated: Fraction, added_pct: Fraction) -> UpdateReport:
    """report with its two scores set to the ones given and its counts kept."""
    counts = ("added_rows", "missed_gold", "deleted_input", "gold_len", "input_len", "output_len", "un_input", "un_output")
    return UpdateReport(updated, added_pct, *(getattr(report, name) for name in counts))


def reference_evaluate_instance(source, output, gold, *, gateway, evaluator_models):
    ig = align_deterministic(source, gold)
    og = align_deterministic(output, gold)
    partition = partition_alignments(ig, og)

    ig_pairs = {g: s for s, g, _ in partition.tri} | {g: s for s, g in partition.bi_input_gold}
    og_pairs = {g: o for _, g, o in partition.tri} | {g: o for g, o in partition.bi_gold_output}
    sides = [
        [
            (gold_key, candidate.row_for(cand_key), gold.row_for(gold_key))
            for gold_key, cand_key in sorted(pairs.items())
        ]
        for pairs, candidate in ((ig_pairs, source), (og_pairs, output))
    ]
    plan = list(
        dict.fromkeys(
            (model_id, candidate_row, gold_row)
            for model_id in evaluator_models
            for side in sides
            for _, candidate_row, gold_row in side
        )
    )

    def scored(comparison):  # None: comparison failed
        model_id, candidate_row, gold_row = comparison
        try:
            comparison = reference_compare_rows(candidate_row, gold_row, model_id, gateway, language=gold.language)
            return score_row(comparison)
        except ComparisonFailed:
            return None

    scores = dict(zip(plan, gateway.map(scored, plan)))
    flagged = []

    def side_scores(model_id, side):
        result = {}
        for gold_key, candidate_row, gold_row in side:
            score = scores[model_id, candidate_row, gold_row]
            if score is None:
                flagged.append((model_id, gold_key))
            result[gold_key] = ZERO_ROW if score is None else score
        return result

    per_model = {
        model_id: build_report(partition, *(side_scores(model_id, side) for side in sides))
        for model_id in evaluator_models
    }
    reports = list(per_model.values())
    if reports:
        n = len(reports)
        ensemble = with_scores(
            reports[0],
            updated=sum((r.updated for r in reports), Fraction(0)) / n,
            added_pct=sum((r.added_pct for r in reports), Fraction(0)) / n,
        )
    else:
        ensemble = build_report(partition, {}, {})
    return InstanceEvaluation(per_model, ensemble, tuple(flagged))


# Keys differ in case or terminal punctuation, values hold quotes,
# backslashes and the fact separators. No "<>", which the stub's
# contradiction facts are written with.
KEY_STEMS = st.text("abcdé", min_size=1, max_size=3)
VALUES = st.text("ab1 ,;\"'\\", max_size=8)


@st.composite
def spelled(draw, stem: str) -> str:
    """The stem as a table may spell it: in another case or with terminal punctuation."""
    return draw(st.sampled_from([stem, stem.upper(), stem.title() + ".", stem + ":"]))


@st.composite
def instance_tables(draw):
    """Source, output and gold tables over one key pool: the output keeps,
    changes, drops or adds source rows; gold agrees with either or neither."""
    stems = draw(st.lists(KEY_STEMS, max_size=EVAL_BATCH_ROWS + 8, unique=True))
    source, output, gold = [], [], []
    for stem in stems:
        old = draw(VALUES)
        new = draw(st.one_of(st.just(old), VALUES))
        if draw(st.booleans()):
            source.append((draw(spelled(stem)), old))
        if draw(st.integers(0, 3)):
            output.append((draw(spelled(stem)), draw(st.sampled_from([old, new]))))
        if draw(st.integers(0, 3)):
            gold.append((draw(spelled(stem)), draw(st.sampled_from([old, new]))))
    return [
        InfoTable("Entity", "en", "City", tuple(TableRow(k, v) for k, v in rows))
        for rows in (source, output, gold)
    ]


class TestBatchedEqualsOneRowReference:
    @given(
        instance_tables(),
        st.sampled_from([["m"], ["m", "n"]]),
        st.sampled_from([str, str.upper, lambda key: key + "."]),
    )
    @settings(max_examples=200)
    def test_equals_reference(self, tables, models, respell):
        # The judge may echo a gold key in another case or with terminal punctuation.
        judge = Judge(lambda answer, attempt: {respell(k): v for k, v in answer.items()})
        batched = evaluate_instance(*tables, gateway=Gateway(judge), evaluator_models=models)
        reference = reference_evaluate_instance(*tables, gateway=Gateway(ReferenceStub()), evaluator_models=models)
        assert batched == reference
        assert not batched.flagged


class IdenticalPairSpoiler(Judge):
    """Judge that answers garbage to every evaluate prompt holding a candidate
    row equal to its gold row, and keeps those prompts apart."""

    def __init__(self):
        super().__init__(lambda answer, attempt: answer)
        self.spoiled = []

    def complete(self, request, attempt):
        if request.tag == "evaluate":
            slots = prompts.slots_of(prompts.EVALUATE, request.prompt)
            if any(map(TableRow.__eq__, parse_table(slots["table_1"]), parse_table(slots["table_2"]))):
                self.spoiled.append(request.prompt)
                return "Sorry, I cannot produce that table right now."
        return super().complete(request, attempt)


class TestIdenticalRowsSkipped:
    """A candidate row equal to its gold row scores PERFECT_ROW unjudged."""

    @given(instance_tables(), st.sampled_from([["m"], ["m", "n"]]))
    @settings(max_examples=100)
    def test_judge_never_sees_an_identical_pair(self, tables, models):
        judge = IdenticalPairSpoiler()
        evaluation = evaluate_instance(*tables, gateway=Gateway(judge), evaluator_models=models)
        assert judge.spoiled == []
        assert not evaluation.flagged

    def test_instance_with_only_identical_rows_sends_no_prompt(self, mk_table):
        table = mk_table([("Name", "X"), ("Population", "1")], lang="en")
        judge = IdenticalPairSpoiler()
        evaluation = evaluate_instance(table, table, table, gateway=Gateway(judge), evaluator_models=["m", "n"])
        assert judge.spoiled == [] and judge.evaluate_calls == 0
        assert not evaluation.flagged
        assert evaluation.ensemble.updated == 0 and evaluation.ensemble.added_pct == 0
