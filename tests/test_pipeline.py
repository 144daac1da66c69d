import pytest

from tablesync.errors import BackendUnavailable, InvalidValue, StageFailed
from tablesync.gateway import RETRY_ATTEMPT_OFFSET, Gateway, Transcript
from tablesync.pipeline import (
    Pipeline,
    Strategy,
    format_alignment_slot,
    traces_jsonable,
)
from tablesync.error_analysis import LEDGER_COLUMNS, ledger_traces
from tablesync.stub import StubBackend, StubRuleSet, merge_graphs
from tablesync.tables import KnowledgeGraph, SyncInstance, table_to_flat_kg
from tablesync.alignment import Alignment
from conftest import FaultBackend


@pytest.fixture()
def de_en_rules():
    return StubRuleSet(
        lexicons={
            ("de", "en"): (
                ("Geburtsdatum", "Birth date"),
                ("Deutschland", "Germany"),
                ("Land", "Country"),
            ),
            ("en", "de"): (
                ("Birth date", "Geburtsdatum"),
                ("Germany", "Deutschland"),
                ("Country", "Land"),
            ),
        }
    )


@pytest.fixture()
def de_instance(mk_table):
    source = mk_table(
        [("Name", "Max"), ("Land", "Deutschland")], lang="de", category="Person"
    )
    reference = mk_table(
        [("Name", "Max"), ("Country", "Germany"), ("Birth date", "1 May 1990")],
        lang="en",
        category="Person",
    )
    gold = mk_table(
        [("Name", "Max"), ("Land", "Deutschland"), ("Geburtsdatum", "1 May 1990")],
        lang="de",
        category="Person",
    )
    return SyncInstance(source, reference, gold)


def pipeline_for(rules) -> Pipeline:
    return Pipeline(Gateway(StubBackend(rules)), "stub-model")


def faulty_pipeline(faults) -> Pipeline:
    return Pipeline(Gateway(FaultBackend(StubRuleSet(), faults)), "stub-model")


class TestStages:
    def test_translate_identity_when_already_target(self, mk_table, de_en_rules):
        pipe = pipeline_for(de_en_rules)
        table = mk_table([("Name", "X")], lang="en")
        result, trace = pipe.translate_table(table, "en", stage="translate_source")
        assert result is table
        assert trace.prompt is None
        assert "skipped" in trace.diagnostics[0]

    def test_translate_via_lexicon(self, mk_table, de_en_rules):
        pipe = pipeline_for(de_en_rules)
        table = mk_table([("Land", "Deutschland")], lang="de")
        result, trace = pipe.translate_table(table, "en", stage="translate_source")
        assert [r.as_pair() for r in result.rows] == [("Country", "Germany")]
        assert result.language == "en"
        assert trace.response is not None

    def test_round_trip_under_inverse_lexicons(self, mk_table, de_en_rules):
        pipe = pipeline_for(de_en_rules)
        table = mk_table([("Country", "Germany"), ("Birth date", "x")], lang="en")
        there, _ = pipe.translate_table(table, "de", stage="translate_source")
        back, _ = pipe.translate_table(there, "en", stage="translate_source")
        assert back.rows == table.rows

    def test_row_drop_is_diagnostic_not_error(self, mk_table):
        pipe = faulty_pipeline({"translate_source": '[["Name","X"]]'})
        table = mk_table([("Name", "X"), ("Other", "Y")], lang="de")
        result, trace = pipe.translate_table(table, "en", stage="translate_source")
        assert len(result.rows) == 1
        assert any("row count changed" in d for d in trace.diagnostics)

    def test_table_to_kg_covers_values(self, mk_table, de_en_rules):
        pipe = pipeline_for(de_en_rules)
        table = mk_table([("Name", "Albert Einstein"), ("Birth date", "14 March 1879")])
        kg, trace = pipe.table_to_kg(table, stage="table_to_kg_source")
        leaves = kg.leaves()
        assert "Albert Einstein" in leaves and "14 March 1879" in leaves
        assert not trace.diagnostics

    def test_table_to_kg_empty(self, mk_table, de_en_rules):
        pipe = pipeline_for(de_en_rules)
        kg, _ = pipe.table_to_kg(mk_table([]), stage="table_to_kg_source")
        assert kg.root == {}

    def test_merge_prefers_reference_on_conflict(self, de_en_rules, mk_table):
        pipe = pipeline_for(de_en_rules)
        a = KnowledgeGraph({"Country": "Germany"})
        b = KnowledgeGraph({"Country": "Germany, United States"})
        merged, _ = pipe.merge_kgs(a, b)
        assert merged.root["Country"] == "Germany, United States"

    def test_kg_to_table_flattens(self, mk_table, de_en_rules):
        pipe = pipeline_for(de_en_rules)
        kg = KnowledgeGraph({"Person": {"Name": "Ada"}, "Tags": ["a", "b"]})
        exemplar = mk_table([("Name", "Ada")])
        table, _ = pipe.kg_to_table(kg, exemplar, table_to_flat_kg(exemplar.rows))
        assert [r.as_pair() for r in table.rows] == [
            ("Person - Name", "Ada"),
            ("Tags", "a, b"),
        ]


class TestMergeRules:
    def test_idempotent(self):
        g = KnowledgeGraph({"a": "1", "b": {"c": "2"}})
        assert merge_graphs(g, g) == g

    def test_disjoint_union(self):
        a = KnowledgeGraph({"a": "1"})
        b = KnowledgeGraph({"b": "2"})
        assert merge_graphs(a, b).root == {"a": "1", "b": "2"}

    def test_normalized_sibling_dedup_keeps_first_spelling(self):
        a = KnowledgeGraph({"Country": "x"})
        b = KnowledgeGraph({"country:": "y"})
        merged = merge_graphs(a, b)
        assert merged.root == {"Country": "y"}


class TestRun:
    def test_hierarchical_stage_order(self, de_instance, de_en_rules):
        result = pipeline_for(de_en_rules).run(de_instance, Strategy.HIERARCHICAL)
        assert [t.stage for t in result.traces] == [
            "translate_source",
            "translate_reference",
            "table_to_kg_source",
            "table_to_kg_reference",
            "merge",
            "kg_to_table",
            "back_translate",
        ]

    def test_hierarchical_output_matches_gold_rowset(self, de_instance, de_en_rules):
        result = pipeline_for(de_en_rules).run(de_instance, Strategy.HIERARCHICAL)
        assert result.output.language == "de"
        assert {r.as_pair() for r in result.output.rows} == {
            r.as_pair() for r in de_instance.gold.rows
        }

    def test_noop_sync_when_reference_adds_nothing(self, mk_table, de_en_rules):
        source = mk_table([("Name", "Max"), ("Land", "Deutschland")], lang="de")
        reference = mk_table([("Name", "Max"), ("Country", "Germany")], lang="en")
        gold = source
        instance = SyncInstance(source, reference, gold)
        result = pipeline_for(de_en_rules).run(instance, Strategy.HIERARCHICAL)
        assert {r.as_pair() for r in result.output.rows} == {r.as_pair() for r in source.rows}

    def test_two_prompt_strategy_has_exactly_two_stages(self, de_instance, de_en_rules):
        result = pipeline_for(de_en_rules).run(de_instance, Strategy.ALIGN_UPDATE_TWO)
        assert [t.stage for t in result.traces] == ["align", "update"]

    def test_joint_strategy_single_stage(self, de_instance, de_en_rules):
        result = pipeline_for(de_en_rules).run(de_instance, Strategy.ALIGN_UPDATE_JOINT)
        assert [t.stage for t in result.traces] == ["align_update"]

    def test_direct_strategy_single_stage(self, de_instance, de_en_rules):
        result = pipeline_for(de_en_rules).run(de_instance, Strategy.DIRECT)
        assert [t.stage for t in result.traces] == ["direct"]
        assert result.output.language == "de"

    def test_stub_run_is_pure(self, de_instance, de_en_rules):
        first = pipeline_for(de_en_rules).run(de_instance, Strategy.HIERARCHICAL)
        second = pipeline_for(de_en_rules).run(de_instance, Strategy.HIERARCHICAL)
        assert first.output == second.output
        assert [t.response for t in first.traces] == [t.response for t in second.traces]

    def test_gold_canary_never_reaches_prompts(self, mk_table, de_en_rules):
        canary = "CANARY-9f2d71"
        source = mk_table([("Name", "Max")], lang="de")
        reference = mk_table([("Name", "Max")], lang="en")
        gold = mk_table([("Name", "Max"), ("Secret", canary)], lang="de")
        instance = SyncInstance(source, reference, gold)
        pipe = pipeline_for(de_en_rules)
        for strategy in Strategy:
            result = pipe.run(instance, strategy)
            for trace in result.traces:
                assert trace.prompt is None or canary not in trace.prompt

    def test_stage_failure_preserves_partial_traces(self, de_instance):
        # Merge responses are unparseable; earlier stages must be retained.
        with pytest.raises(StageFailed) as excinfo:
            faulty_pipeline({"merge": "not a graph"}).run(de_instance, Strategy.HIERARCHICAL)
        assert excinfo.value.stage == "merge"
        stages = [t.stage for t in excinfo.value.traces]
        assert "translate_source" in stages and "merge" not in stages

    def test_parse_retry_uses_distinct_digest(self, de_instance, de_en_rules, tmp_path):
        transcript = Transcript(tmp_path / "t.jsonl")
        backend = FaultBackend(StubRuleSet(), {"translate_source": "chatter with no table"})
        gateway = Gateway(backend, transcript=transcript)
        with gateway, pytest.raises(StageFailed):
            Pipeline(gateway, "stub-model").run(de_instance, Strategy.HIERARCHICAL)
        assert len(transcript.responses()) == 2  # original attempt plus one reprompt


class TestStageAttribution:
    def test_backend_error_names_its_stage(self, de_instance, de_en_rules):
        backend = FaultBackend(de_en_rules, {"merge": BackendUnavailable("HTTP 503")})
        with pytest.raises(StageFailed) as excinfo:
            Pipeline(Gateway(backend), "stub-model").run(de_instance, Strategy.HIERARCHICAL)
        assert excinfo.value.stage == "merge"
        assert [t.stage for t in excinfo.value.traces][-1] == "table_to_kg_reference"
        assert backend.calls.count(("merge", 0)) == 1  # a backend error is not reprompted
        assert ("merge", RETRY_ATTEMPT_OFFSET) not in backend.calls

    def test_invalid_graph_reprompted_once(self, de_instance, de_en_rules):
        backend = FaultBackend(de_en_rules, {"merge": '{"": "empty key"}'})
        with pytest.raises(StageFailed) as excinfo:
            Pipeline(Gateway(backend), "stub-model").run(de_instance, Strategy.HIERARCHICAL)
        assert excinfo.value.stage == "merge"
        assert isinstance(excinfo.value.cause, InvalidValue)
        assert [call for call in backend.calls if call[0] == "merge"] == [
            ("merge", 0),
            ("merge", RETRY_ATTEMPT_OFFSET),
        ]

    def test_cut_merge_answer_with_an_empty_inner_map_is_reprompted(self, de_instance, de_en_rules):
        def cut_first(request, attempt, answer):
            return "x {a {}" if attempt == 0 else answer

        backend = FaultBackend(de_en_rules, {"merge": cut_first})
        result = Pipeline(Gateway(backend), "stub-model").run(de_instance, Strategy.HIERARCHICAL)
        assert [call for call in backend.calls if call[0] == "merge"] == [
            ("merge", 0),
            ("merge", RETRY_ATTEMPT_OFFSET),
        ]
        clean = Pipeline(Gateway(StubBackend(de_en_rules)), "stub-model").run(de_instance, Strategy.HIERARCHICAL)
        assert result.output == clean.output

    def test_align_backend_error_names_align(self, de_instance, de_en_rules):
        backend = FaultBackend(de_en_rules, {"align": BackendUnavailable("HTTP 503")})
        with pytest.raises(StageFailed) as excinfo:
            Pipeline(Gateway(backend), "stub-model").run(de_instance, Strategy.ALIGN_UPDATE_TWO)
        assert excinfo.value.stage == "align"


class TestTraceSerialization:
    def test_round_trip(self, de_instance, de_en_rules):
        # The ledger reads back the output of each stage it scores, and the pivot.
        result = pipeline_for(de_en_rules).run(de_instance, Strategy.HIERARCHICAL)
        pivot, outputs = ledger_traces(traces_jsonable(result.traces))
        assert pivot == "en"
        assert sorted(outputs) == sorted(stage for _, stage in LEDGER_COLUMNS)
        assert outputs == {t.stage: t.output_artifact for t in result.traces if t.stage in outputs}
        assert isinstance(outputs["merge"], KnowledgeGraph) and outputs["back_translate"] == result.output

    @pytest.mark.parametrize("kind", ["none", "text", "bogus", "pair", "alignment"])
    def test_unknown_artifact_kind_rejected(self, de_instance, de_en_rules, kind):
        docs = traces_jsonable(pipeline_for(de_en_rules).run(de_instance, Strategy.HIERARCHICAL).traces)
        (merge,) = (doc for doc in docs if doc["stage"] == "merge")
        merge["output"] = {"kind": kind, "text": "x"}
        with pytest.raises(ValueError, match=kind):
            ledger_traces(docs)


class TestAlignmentSlot:
    def test_interleaved_format(self, mk_table):
        left = mk_table([("Land", "x")], lang="de")
        right = mk_table([("Country", "y")], lang="en")
        alignment = Alignment.build(["land"], ["country"], [("land", "country")])
        slot = format_alignment_slot(alignment, left, right)
        assert slot == "[\n    ['Land'],['Country'],\n]"

    def test_empty(self, mk_table):
        alignment = Alignment.build([], [], [])
        assert format_alignment_slot(alignment, mk_table([]), mk_table([])) == "[]"
