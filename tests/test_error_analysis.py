import pytest

from tablesync.alignment import Alignment
from tablesync.error_analysis import (
    ErrorAnalyzer,
    ErrorCounts,
    classify_errors,
    ledger_jsonable,
    ledger_traces,
    render_ledger,
)
from tablesync.errors import ConfigError, TableSyncError
from tablesync.gateway import Gateway
from tablesync.metrics import AtomicComparison, token_compare
from tablesync.pipeline import Pipeline, Strategy, traces_jsonable
from tablesync.stub import StubBackend, StubRuleSet, translate_cells
from tablesync.tables import DEFAULT_PIVOT, KnowledgeGraph, SyncInstance, TableRow, normalize_key, parse_kg, serialize_kg
from conftest import FaultBackend


class TestErrorCounts:
    def test_total_is_sum(self):
        counts = ErrorCounts(1, 2, 3, 4)
        assert counts.total == 10

    def test_arithmetic(self):
        a = ErrorCounts(2, 1, 0, 0)
        b = ErrorCounts(1, 1, 0, 0)
        assert (a - b) + b == a


class TestClassify:
    def test_identical_tables_no_errors(self, mk_table):
        table = mk_table([("a", "1"), ("b", "2")])
        counts = ErrorAnalyzer(StubRuleSet(), pivot=DEFAULT_PIVOT).classify(table, table)
        assert counts == ErrorCounts()

    def test_extra_gold_row_is_missing(self, mk_table):
        candidate = mk_table([("a", "1")])
        gold = mk_table([("a", "1"), ("b", "2")])
        assert ErrorAnalyzer(StubRuleSet(), pivot=DEFAULT_PIVOT).classify(candidate, gold) == ErrorCounts(missing=1)

    def test_stale_value_token_is_partial(self, mk_table):
        candidate = mk_table([("a", "x, old")])
        gold = mk_table([("a", "x, new")])
        counts = ErrorAnalyzer(StubRuleSet(), pivot=DEFAULT_PIVOT).classify(candidate, gold)
        assert counts == ErrorCounts(outdated_partial=1)

    def test_fact_in_two_lists_is_a_typed_error(self, mk_table):
        # "a <> c" is both a consistent item and the contradiction a <> c.
        candidate = mk_table([("k", "a <> c, a")])
        gold = mk_table([("k", "a <> c, c")])
        with pytest.raises(TableSyncError, match="'k: a <> c' is in two"):
            ErrorAnalyzer(StubRuleSet(), pivot=DEFAULT_PIVOT).classify(candidate, gold)

    def test_fully_contradicting_value_is_full(self, mk_table):
        candidate = mk_table([("a", "old")])
        gold = mk_table([("a", "new")])
        assert ErrorAnalyzer(StubRuleSet(), pivot=DEFAULT_PIVOT).classify(candidate, gold) == ErrorCounts(outdated_full=1)

    def test_redundant_rows_with_overlapping_facts(self, mk_table):
        # two candidate rows carry the same fact for one gold key
        candidate = mk_table([("Full name", "Ada Lovelace"), ("Name", "Ada Lovelace")])
        gold = mk_table([("Name", "Ada Lovelace")])
        alignment = Alignment.build(
            ["full name", "name"], ["name"], [("full name", "name"), ("name", "name")]
        )
        comparisons = {
            ("full name", "name"): token_compare(candidate.rows[0], gold.rows[0]),
            ("name", "name"): token_compare(candidate.rows[1], gold.rows[0]),
        }
        counts = classify_errors(alignment, comparisons)
        assert counts.redundant == 1
        assert counts.missing == 0

    def test_distinct_facts_on_same_gold_key_not_redundant(self):
        alignment = Alignment.build(
            ["a", "b"], ["g"], [("a", "g"), ("b", "g")]
        )
        comparisons = {
            ("a", "g"): AtomicComparison(sct=("g: one",)),
            ("b", "g"): AtomicComparison(sct=("g: two",)),
        }
        counts = classify_errors(alignment, comparisons)
        assert counts.redundant == 0


    @staticmethod
    def classify_on_one_gold_key(*comparisons: AtomicComparison) -> ErrorCounts:
        keys = [f"c{i}" for i in range(len(comparisons))]
        alignment = Alignment.build(keys, ["g"], [(key, "g") for key in keys])
        return classify_errors(alignment, {(key, "g"): c for key, c in zip(keys, comparisons)})

    def test_overlap_of_exactly_half_the_smaller_set_is_redundant(self):
        # {one, two} and {one, three}: one shared fact of two, at REDUNDANCY_OVERLAP itself.
        counts = self.classify_on_one_gold_key(
            AtomicComparison(sct=("g: one", "g: two")), AtomicComparison(sct=("g: one", "g: three"))
        )
        assert counts == ErrorCounts(redundant=1)

    def test_overlap_is_measured_against_the_smaller_set(self):
        # One shared fact: all of the smaller set, a third of the larger.
        counts = self.classify_on_one_gold_key(
            AtomicComparison(sct=("g: one",)), AtomicComparison(sct=("g: one", "g: two", "g: three"))
        )
        assert counts == ErrorCounts(redundant=1)

    def test_best_f1_of_exactly_one_half_is_partial(self):
        # One consistent fact, one unique to each side: precision = recall = F1 = 1/2.
        counts = self.classify_on_one_gold_key(
            AtomicComparison(sct=("g: one",), t1u=("g: two",), t2u=("g: three",))
        )
        assert counts == ErrorCounts(outdated_partial=1)


@pytest.fixture()
def run_and_ledger(rules, mk_table):
    def runner(instance: SyncInstance, run_rules: StubRuleSet, faults=None, pivot=DEFAULT_PIVOT):
        pipe = Pipeline(Gateway(FaultBackend(run_rules, faults)), "stub-model", pivot=pivot)
        result = pipe.run(instance, Strategy.HIERARCHICAL)
        analyzer = ErrorAnalyzer(run_rules, pivot=pivot)
        return result, analyzer.stagewise_ledger(instance, {t.stage: t.output_artifact for t in result.traces})

    return runner


class TestLedger:
    def test_lossless_run_all_deltas_zero(self, instances, rules, run_and_ledger):
        instance = instances[0]
        _, ledger = run_and_ledger(instance, rules)
        assert [e.stage for e in ledger] == [
            "in_reference",
            "translate_en",
            "kg_construction",
            "merge",
            "table_conversion",
            "back_translate",
        ]
        for entry in ledger:
            assert entry.delta == ErrorCounts()

    def test_telescoping_to_final_classification(self, instances, rules, run_and_ledger):
        for instance in instances[:4]:
            result, ledger = run_and_ledger(instance, rules)
            final = ErrorAnalyzer(rules, pivot=DEFAULT_PIVOT).classify(result.output, instance.gold)
            assert ledger[-1].cumulative == final

    @pytest.mark.parametrize("side", ["source", "reference"])
    def test_telescoping_with_the_pivot_in_a_table_language(self, instances, rules, run_and_ledger, side):
        # Each column is compared with gold in its artifact's language, whichever the pivot.
        for instance in instances:
            pivot = getattr(instance, side).language
            result, ledger = run_and_ledger(instance, rules, pivot=pivot)
            assert ledger[-1].cumulative == ErrorAnalyzer(rules, pivot=pivot).classify(result.output, instance.gold)
            for earlier, later in zip(ledger, ledger[1:]):
                assert later.cumulative == earlier.cumulative + later.delta

    def test_missing_stage_named(self, instances, rules):
        pipe = Pipeline(Gateway(StubBackend(rules)), "stub-model")
        result = pipe.run(instances[0], Strategy.DIRECT)
        with pytest.raises(ConfigError, match="translate_reference, table_to_kg_reference"):
            ledger_traces(traces_jsonable(result.traces))

    def test_cumulative_equals_previous_plus_delta(self, instances, rules, run_and_ledger):
        _, ledger = run_and_ledger(instances[0], rules)
        for earlier, later in zip(ledger, ledger[1:]):
            assert later.cumulative == earlier.cumulative + later.delta

    def test_merge_drop_adds_missing_at_merge_column(self, instances, rules, run_and_ledger):
        instance = instances[0]
        # drop one reference-only path from the merge stage's answer
        reference_only = sorted(instance.gold.normalized_keys() - instance.source.normalized_keys())
        # the merged graph is in the pivot language: map the key through the lexicon
        gold_row = instance.gold.row_for(reference_only[0])
        pivot_key = translate_cells(
            (TableRow(gold_row.key, ""),), rules.lexicon(instance.gold.language, "en")
        )[0].key
        dropped = normalize_key(pivot_key)

        def drop(request, attempt, answer):
            graph = parse_kg(answer)
            return serialize_kg(KnowledgeGraph({k: v for k, v in graph.root.items() if normalize_key(k) != dropped}))

        _, ledger = run_and_ledger(instance, rules, {"merge": drop})
        by_stage = {e.stage: e for e in ledger}
        assert by_stage["merge"].delta.missing == 1
        assert by_stage["kg_construction"].delta.missing == 0
        assert ledger[-1].cumulative.missing == 1

    def test_reference_column_is_lower_bound(self, instances, rules, run_and_ledger):
        for instance in instances:
            _, ledger = run_and_ledger(instance, rules)
            baseline = ledger[0].cumulative.missing
            assert all(e.cumulative.missing >= baseline for e in ledger)

    def test_render_and_jsonable(self, instances, rules, run_and_ledger):
        _, ledger = run_and_ledger(instances[0], rules)
        text = render_ledger(ledger)
        assert "Missing" in text and "in_reference" in text
        doc = ledger_jsonable(ledger)
        assert len(doc["stages"]) == 6
        assert doc["stages"][0]["stage"] == "in_reference"
