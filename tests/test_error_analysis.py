import pytest

from tablesync.alignment import Alignment
from tablesync.error_analysis import (
    ErrorAnalyzer,
    ErrorCounts,
    classify_errors,
    ledger_jsonable,
    render_ledger,
)
from tablesync.errors import ConfigError
from tablesync.gateway import Gateway
from tablesync.metrics import AtomicComparison, token_compare
from tablesync.pipeline import Pipeline, Strategy
from tablesync.stub import StubBackend, StubRuleSet
from tablesync.tables import SyncInstance


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
        counts = ErrorAnalyzer().classify(table, table)
        assert counts == ErrorCounts()

    def test_extra_gold_row_is_missing(self, mk_table):
        candidate = mk_table([("a", "1")])
        gold = mk_table([("a", "1"), ("b", "2")])
        assert ErrorAnalyzer().classify(candidate, gold) == ErrorCounts(missing=1)

    def test_stale_value_token_is_partial(self, mk_table):
        candidate = mk_table([("a", "x, old")])
        gold = mk_table([("a", "x, new")])
        counts = ErrorAnalyzer().classify(candidate, gold)
        assert counts == ErrorCounts(outdated_partial=1)

    def test_fully_contradicting_value_is_full(self, mk_table):
        candidate = mk_table([("a", "old")])
        gold = mk_table([("a", "new")])
        assert ErrorAnalyzer().classify(candidate, gold) == ErrorCounts(outdated_full=1)

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


@pytest.fixture()
def run_and_ledger(rules, mk_table):
    def runner(instance: SyncInstance, run_rules: StubRuleSet):
        pipe = Pipeline(Gateway(StubBackend(run_rules)), "stub-model")
        result = pipe.run(instance, Strategy.HIERARCHICAL)
        analyzer = ErrorAnalyzer(run_rules)
        return result, analyzer.stagewise_ledger(instance, result.traces)

    return runner


class TestLedger:
    def test_lossless_run_all_deltas_zero(self, instances, rules, run_and_ledger):
        instance = instances[0]
        _, ledger = run_and_ledger(instance, rules)
        assert [e.stage for e in ledger.entries] == [
            "in_reference",
            "translate_en",
            "kg_construction",
            "merge",
            "table_conversion",
            "back_translate",
        ]
        for entry in ledger.entries:
            assert entry.delta == ErrorCounts()

    def test_telescoping_to_final_classification(self, instances, rules, run_and_ledger):
        for instance in instances[:4]:
            result, ledger = run_and_ledger(instance, rules)
            final = ErrorAnalyzer(rules).classify(result.output, instance.gold)
            assert ledger.final == final

    def test_missing_stage_named(self, instances, rules):
        pipe = Pipeline(Gateway(StubBackend(rules)), "stub-model")
        result = pipe.run(instances[0], Strategy.DIRECT)
        with pytest.raises(ConfigError, match="translate_reference, table_to_kg_reference"):
            ErrorAnalyzer(rules).stagewise_ledger(instances[0], result.traces)

    def test_cumulative_equals_previous_plus_delta(self, instances, rules, run_and_ledger):
        _, ledger = run_and_ledger(instances[0], rules)
        for earlier, later in zip(ledger.entries, ledger.entries[1:]):
            assert later.cumulative == earlier.cumulative + later.delta

    def test_merge_drop_adds_missing_at_merge_column(self, instances, rules, run_and_ledger):
        instance = instances[0]
        # drop one reference-only path during the merge stage
        reference_only = sorted(
            instance.gold.normalized_keys()
            - {k for k in instance.source.normalized_keys()}
        )
        dropping = StubRuleSet(
            lexicons=rules.lexicons, merge_drop_keys=frozenset({reference_only[0]})
        )
        # the drop key is in the pivot language: map it through the lexicon
        from tablesync.stub import translate_cells
        from tablesync.tables import TableRow, normalize_key

        gold_row = instance.gold.row_for(reference_only[0])
        pivot_key = translate_cells(
            (TableRow(gold_row.key, ""),), rules.lexicon(instance.gold.language, "en")
        )[0].key
        dropping = StubRuleSet(
            lexicons=rules.lexicons, merge_drop_keys=frozenset({normalize_key(pivot_key)})
        )
        _, ledger = run_and_ledger(instance, dropping)
        by_stage = {e.stage: e for e in ledger.entries}
        assert by_stage["merge"].delta.missing == 1
        assert by_stage["kg_construction"].delta.missing == 0
        assert ledger.final.missing == 1

    def test_reference_column_is_lower_bound(self, instances, rules, run_and_ledger):
        for instance in instances:
            _, ledger = run_and_ledger(instance, rules)
            baseline = ledger.entries[0].cumulative.missing
            assert all(e.cumulative.missing >= baseline for e in ledger.entries)

    def test_render_and_jsonable(self, instances, rules, run_and_ledger):
        _, ledger = run_and_ledger(instances[0], rules)
        text = render_ledger(ledger)
        assert "Missing" in text and "in_reference" in text
        doc = ledger_jsonable(ledger)
        assert len(doc["stages"]) == 6
        assert doc["stages"][0]["stage"] == "in_reference"
