from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tablesync.alignment import Alignment
from tablesync import metrics
from tablesync.errors import ComparisonFailed, ReplayMiss, StructuralMismatch, UniverseMismatch
from tablesync.gateway import Gateway, ReplayBackend, Transcript
from tablesync.metrics import (
    AtomicComparison,
    PERFECT_ROW,
    build_report,
    compare_rows,
    ensemble_scores,
    evaluate_instance,
    partition_alignments,
    score_row,
    token_compare,
)
from tablesync.stub import StubBackend, StubRuleSet
from tablesync.tables import TableRow

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
        with pytest.raises(ValueError):
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

    def test_missing_side_is_unique(self):
        c = token_compare(None, TableRow("k", "a, b"))
        assert len(c.t2u) == 2 and not (c.sct or c.scd or c.t1u)


class TestCompareRows:
    def test_stub_comparator_through_gateway(self, stub_gateway):
        c = compare_rows(
            TableRow("Country", "Germany"),
            TableRow("Country", "Germany, United States"),
            "stub-model",
            stub_gateway,
        )
        assert len(c.sct) == 1 and len(c.t2u) == 1

    def test_unparseable_output_fails_after_retry(self):
        rules = StubRuleSet(
            canned_responses=(("four types of information", "no structured output here"),)
        )
        gateway = Gateway(StubBackend(rules))
        with pytest.raises(ComparisonFailed):
            compare_rows(TableRow("k", "a"), TableRow("k", "a"), "m", gateway)

    def test_overlapping_fact_lists_fail_after_retry(self):
        overlapping = '{"similar_consistent": ["k: a"], "table1_unique": ["k: a"]}'
        rules = StubRuleSet(canned_responses=(("four types of information", overlapping),))
        with pytest.raises(ComparisonFailed):
            compare_rows(TableRow("k", "a"), TableRow("k", "a"), "m", Gateway(StubBackend(rules)))

    def test_backend_error_propagates(self):
        class MissingBackend:
            def complete(self, request, attempt):
                raise ReplayMiss("no recorded response")

        with pytest.raises(ReplayMiss):
            compare_rows(TableRow("k", "a"), TableRow("k", "a"), "m", Gateway(MissingBackend()))

    def test_programming_error_propagates(self, stub_gateway, monkeypatch):
        def broken(text):
            raise TypeError("bug in the parser")

        monkeypatch.setattr(metrics, "parse_kg", broken)
        with pytest.raises(TypeError):
            compare_rows(TableRow("k", "a"), TableRow("k", "a"), "m", stub_gateway)


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

    def test_universe_mismatch(self):
        ig = Alignment.build(INPUT_KEYS, GOLD_KEYS, [])
        og = Alignment.build(OUTPUT_KEYS, GOLD_KEYS[:4], [])
        with pytest.raises(UniverseMismatch):
            partition_alignments(ig, og)


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


class TestEnsemble:
    def test_single_report_identity(self, worked_example):
        partition = partition_alignments(*worked_example)
        report = build_report(partition, {}, {})
        assert ensemble_scores([report]) == report

    def test_mean_of_two(self, worked_example):
        partition = partition_alignments(*worked_example)
        a = build_report(partition, {}, {g: PERFECT_ROW for g, _ in partition.bi_gold_output})
        b = build_report(partition, {}, {})
        merged = ensemble_scores([a, b])
        assert merged.added_pct == (a.added_pct + b.added_pct) / 2

    def test_structural_disagreement_is_hard_error(self, worked_example):
        partition = partition_alignments(*worked_example)
        report = build_report(partition, {}, {})
        ig = Alignment.build(("x",), ("y",), [])
        og = Alignment.build(("z",), ("y",), [])
        other = build_report(partition_alignments(ig, og), {}, {})
        with pytest.raises(StructuralMismatch):
            ensemble_scores([report, other])


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


class CountingEvaluator(StubBackend):
    """Stub that counts evaluate calls. With spoil_first it is nondeterministic:
    its first evaluate answer calls the row pair contradictory."""

    def __init__(self, rules, spoil_first=False):
        super().__init__(rules)
        self.spoil_first = spoil_first
        self.evaluate_calls = 0

    def complete(self, request, attempt):
        if request.tag == "evaluate":
            self.evaluate_calls += 1
            if self.spoil_first and self.evaluate_calls == 1:
                return '{"similar_contradictory": ["spoiled"]}'
        return super().complete(request, attempt)


class TestRowPairsComparedOnce:
    @pytest.fixture()
    def unchanged(self, mk_table):
        source = mk_table([("Name", "X"), ("Population", "1")], lang="en")
        gold = mk_table([("Name", "X"), ("Population", "2"), ("Area", "3")], lang="en")
        return source, source, gold

    def test_unchanged_output_updates_nothing(self, unchanged):
        source, output, gold = unchanged
        backend = CountingEvaluator(StubRuleSet(), spoil_first=True)
        evaluation = evaluate_instance(
            source, output, gold, gateway=Gateway(backend), evaluator_models=["m"]
        )
        assert evaluation.ensemble.updated == 0
        assert backend.evaluate_calls == 2  # one per distinct row pair

    def test_record_then_replay_scores_alike(self, unchanged, tmp_path):
        source, output, gold = unchanged
        transcript = Transcript(tmp_path / "t.jsonl")
        with Gateway(CountingEvaluator(StubRuleSet(), spoil_first=True), transcript=transcript) as recording:
            recorded = evaluate_instance(source, output, gold, gateway=recording, evaluator_models=["m"])
        replaying = Gateway(ReplayBackend(transcript))
        replayed = evaluate_instance(source, output, gold, gateway=replaying, evaluator_models=["m"])
        assert replayed.per_model == recorded.per_model
        assert replayed.flagged == recorded.flagged

    def test_failed_pair_compared_once_and_flagged_per_side(self, mk_table):
        rules = StubRuleSet(canned_responses=(("four types of information", "no structured output"),))
        backend = CountingEvaluator(rules)
        table = mk_table([("Name", "X")], lang="en")
        evaluation = evaluate_instance(
            table, table, table, gateway=Gateway(backend), evaluator_models=["m"]
        )
        assert evaluation.flagged == (("m", "name"), ("m", "name"))
        assert backend.evaluate_calls == 2  # the first attempt and its one reprompt
