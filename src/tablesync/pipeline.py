"""Synchronization strategies assembled from prompt stages with strict parsing."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

from . import prompts
from .alignment import Alignment, align_llm, alignment_from_doc, alignment_to_doc
from .errors import StageFailed, TableSyncError
from .gateway import CompletionRequest, Gateway
from .tables import (
    DEFAULT_PIVOT,
    InfoTable,
    KnowledgeGraph,
    TableRow,
    escape_text,
    language_name,
    parse_kg,
    parse_table,
    serialize_kg,
    serialize_table,
)


class Strategy(Enum):
    DIRECT = "direct"
    ALIGN_UPDATE_JOINT = "joint"
    ALIGN_UPDATE_TWO = "two"
    DIRECT_DECOMPOSE = "decompose"
    HIERARCHICAL = "hierarchical"


@dataclass(frozen=True)
class StageTrace:
    """What one stage consumed and produced, for replay and error attribution."""

    stage: str
    input_artifact: object
    prompt: str | None
    response: str | None
    output_artifact: object
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class SyncResult:
    output: InfoTable
    traces: tuple[StageTrace, ...]


class Pipeline:
    """Runs a strategy over one instance; never reads the gold table."""

    def __init__(self, gateway: Gateway, model_id: str, *, pivot: str = DEFAULT_PIVOT) -> None:
        self.gateway = gateway
        self.model_id = model_id
        self.pivot = pivot

    # stage operations

    def _completed(self, prompt: str, tag: str, parse):
        """One completion of stage tag; any failure is StageFailed(tag)."""
        request = CompletionRequest(prompt=prompt, model_id=self.model_id, tag=tag)
        try:
            return self.gateway.complete_parsed(request, parse)
        except TableSyncError as exc:
            raise StageFailed(tag, exc) from exc

    def translate_table(
        self,
        table: InfoTable,
        target: str,
        *,
        example: tuple[InfoTable, InfoTable] | None = None,
        stage: str = "translate",
    ) -> tuple[InfoTable, StageTrace]:
        """Translate a table, or pass it through untouched when already in target.

        With an example pair the reverse-translation template is used, echoing
        the forward pairs as the few-shot mapping.
        """
        if table.language == target:
            trace = StageTrace(stage, table, None, None, table, ("skipped: already in target language",))
            return table, trace
        template, slots = prompts.TRANSLATE_TO_PIVOT, {}
        if example is not None:
            original, translated = example
            template = prompts.TRANSLATE_FROM_PIVOT
            slots = dict(
                example_original=serialize_table(original), example_translated=serialize_table(translated)
            )
        prompt = prompts.fill(
            template,
            source_language=language_name(table.language),
            target_language=language_name(target),
            category=table.category,
            table=serialize_table(table),
            **slots,
        )
        rows, response = self._completed(prompt, stage, parse_table)
        diagnostics = []
        if len(rows) != len(table.rows):
            diagnostics.append(f"row count changed: {len(table.rows)} -> {len(rows)}")
        result = InfoTable(table.entity, target, table.category, rows, table.revision_tag)
        return result, StageTrace(stage, table, prompt, response, result, tuple(diagnostics))

    def table_to_kg(self, table: InfoTable, *, stage: str = "table_to_kg") -> tuple[KnowledgeGraph, StageTrace]:
        prompt = prompts.fill(
            prompts.TABLE_TO_KG, category=table.category, table=serialize_table(table)
        )
        kg, response = self._completed(prompt, stage, parse_kg)
        diagnostics = []
        leaves = kg.leaves()
        for row in table.rows:
            if row.value and row.value not in leaves and not any(row.value in leaf for leaf in leaves):
                diagnostics.append(f"value not covered by graph leaves: {row.value!r}")
        return kg, StageTrace(stage, table, prompt, response, kg, tuple(diagnostics))

    def merge_kgs(
        self, source_kg: KnowledgeGraph, reference_kg: KnowledgeGraph
    ) -> tuple[KnowledgeGraph, StageTrace]:
        prompt = prompts.fill(
            prompts.MERGE_KGS,
            graph_a=serialize_kg(source_kg),
            graph_b=serialize_kg(reference_kg),
        )
        merged, response = self._completed(prompt, "merge", parse_kg)
        trace = StageTrace("merge", (source_kg, reference_kg), prompt, response, merged)
        return merged, trace

    def kg_to_table(
        self,
        kg: KnowledgeGraph,
        exemplar: InfoTable,
        exemplar_kg: KnowledgeGraph,
    ) -> tuple[InfoTable, StageTrace]:
        prompt = prompts.fill(
            prompts.KG_TO_TABLE,
            example_graph=serialize_kg(exemplar_kg),
            example_table=serialize_table(exemplar),
            graph=serialize_kg(kg),
        )
        rows, response = self._completed(prompt, "kg_to_table", parse_table)
        result = exemplar.with_rows(rows)
        return result, StageTrace("kg_to_table", kg, prompt, response, result)

    def align_tables(self, source: InfoTable, reference: InfoTable) -> tuple[Alignment, StageTrace]:
        """LLM key alignment of source against reference. align_llm builds and
        reprompts its own request, so its failures become StageFailed here."""
        diagnostics: list[str] = []
        try:
            alignment = align_llm(source, reference, self.model_id, self.gateway, diagnostics=diagnostics)
        except TableSyncError as exc:
            raise StageFailed("align", exc) from exc
        return alignment, StageTrace("align", (source, reference), None, None, alignment, tuple(diagnostics))

    def update_table(
        self, source: InfoTable, reference: InfoTable, template: str, stage: str, **slots: str
    ) -> tuple[InfoTable, StageTrace]:
        """Update source from reference with one prompt of template.

        Fills the slots every update template shares (both languages, the
        category, both tables); further slots are passed through.
        """
        prompt = prompts.fill(
            template,
            language_a=language_name(source.language),
            language_b=language_name(reference.language),
            category=source.category,
            table_a=serialize_table(source),
            table_b=serialize_table(reference),
            **slots,
        )
        rows, response = self._completed(prompt, stage, parse_table)
        output = source.with_rows(rows)
        return output, StageTrace(stage, (source, reference), prompt, response, output)

    # strategies

    def run(self, instance, strategy: Strategy) -> SyncResult:
        """Produce the output table for an instance; gold stays untouched.

        Independent stages run at once through `Gateway.map`. Their traces
        are kept in recipe order, and a failure is attributed to the first
        failing stage in that order, with the traces of the stages before it.
        """
        source, reference = instance.source, instance.reference
        traces: list[StageTrace] = []

        def staged(result: tuple[object, StageTrace] | StageFailed):
            if isinstance(result, StageFailed):
                raise result
            value, trace = result
            traces.append(trace)
            return value

        def together(*stages):
            return [staged(result) for result in self.gateway.map(_settled, stages)]

        try:
            if strategy is Strategy.HIERARCHICAL:
                source_pivot, reference_pivot = together(
                    partial(self.translate_table, source, self.pivot, stage="translate_source"),
                    partial(self.translate_table, reference, self.pivot, stage="translate_reference"),
                )
                kg_source, kg_reference = together(
                    partial(self.table_to_kg, source_pivot, stage="table_to_kg_source"),
                    partial(self.table_to_kg, reference_pivot, stage="table_to_kg_reference"),
                )
                merged = staged(self.merge_kgs(kg_source, kg_reference))
                table_pivot = staged(self.kg_to_table(merged, source_pivot, kg_source))
                output = staged(self.translate_table(
                    table_pivot, source.language, example=(source_pivot, source), stage="back_translate"
                ))
            elif strategy is Strategy.DIRECT:
                output = staged(self.update_table(source, reference, prompts.DIRECT, "direct"))
            elif strategy is Strategy.DIRECT_DECOMPOSE:
                output = staged(
                    self.update_table(source, reference, prompts.DIRECT_DECOMPOSE, "direct_decompose")
                )
            elif strategy is Strategy.ALIGN_UPDATE_JOINT:
                output = staged(self.update_table(
                    source, reference, prompts.ALIGN_UPDATE, "align_update",
                    alignments=prompts.SELF_ALIGN_INSTRUCTION,
                ))
            else:  # Strategy.ALIGN_UPDATE_TWO
                alignment = staged(self.align_tables(source, reference))
                slot = format_alignment_slot(alignment, source, reference)
                output = staged(
                    self.update_table(source, reference, prompts.ALIGN_UPDATE, "update", alignments=slot)
                )
        except StageFailed as exc:
            raise StageFailed(exc.stage, exc.cause, tuple(traces)) from exc
        return SyncResult(output, tuple(traces))


def _settled(stage):
    """The stage's result, or the StageFailed it raised."""
    try:
        return stage()
    except StageFailed as exc:
        return exc


def artifact_jsonable(artifact: object) -> dict:
    if isinstance(artifact, InfoTable):
        return {
            "kind": "table",
            "entity": artifact.entity,
            "language": artifact.language,
            "category": artifact.category,
            "revision_tag": artifact.revision_tag,
            "rows": [list(row.as_pair()) for row in artifact.rows],
        }
    if isinstance(artifact, KnowledgeGraph):
        return {"kind": "kg", "root": artifact.root}
    if isinstance(artifact, Alignment):
        return {"kind": "alignment", **alignment_to_doc(artifact)}
    if isinstance(artifact, tuple):
        return {"kind": "pair", "items": [artifact_jsonable(item) for item in artifact]}
    raise TypeError(f"not a stage artifact: {type(artifact).__name__}")


def artifact_from_jsonable(doc: dict) -> object:
    kind = doc["kind"]
    if kind == "table":
        return InfoTable(
            doc["entity"],
            doc["language"],
            doc["category"],
            tuple(TableRow(k, v) for k, v in doc["rows"]),
            doc.get("revision_tag"),
        )
    if kind == "kg":
        return KnowledgeGraph(doc["root"])
    if kind == "alignment":
        return alignment_from_doc(doc)
    if kind == "pair":
        return tuple(artifact_from_jsonable(item) for item in doc["items"])
    raise ValueError(f"unknown artifact kind: {kind!r}")


def traces_jsonable(traces) -> list[dict]:
    return [
        {
            "stage": trace.stage,
            "input": artifact_jsonable(trace.input_artifact),
            "prompt": trace.prompt,
            "response": trace.response,
            "output": artifact_jsonable(trace.output_artifact),
            "diagnostics": list(trace.diagnostics),
        }
        for trace in traces
    ]


def traces_from_jsonable(docs: list[dict]) -> tuple[StageTrace, ...]:
    return tuple(
        StageTrace(
            doc["stage"],
            artifact_from_jsonable(doc["input"]),
            doc.get("prompt"),
            doc.get("response"),
            artifact_from_jsonable(doc["output"]),
            tuple(doc.get("diagnostics", ())),
        )
        for doc in docs
    )


def format_alignment_slot(alignment: Alignment, left: InfoTable, right: InfoTable) -> str:
    """Render an alignment in the update prompt's interleaved list format,
    echoing the tables' original key spellings."""

    def originals(table: InfoTable, norm_keys) -> list[str]:
        return [row.key if (row := table.row_for(k)) else k for k in norm_keys]

    lines: list[str] = []
    for left_group, right_group in alignment.pairs:
        left_keys = ",".join(f"'{escape_text(k)}'" for k in originals(left, left_group))
        right_keys = ",".join(f"'{escape_text(k)}'" for k in originals(right, right_group))
        lines.append(f"    [{left_keys}],[{right_keys}],")
    if not lines:
        return "[]"
    return "[\n" + "\n".join(lines) + "\n]"
