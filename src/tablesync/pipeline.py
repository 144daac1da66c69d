"""Synchronization strategies assembled from prompt stages with strict parsing."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import prompts
from .alignment import Alignment, align_llm
from .errors import StageFailed, TableSyncError
from .gateway import CompletionRequest, Gateway
from .tables import (
    DEFAULT_PIVOT,
    InfoTable,
    KnowledgeGraph,
    escape_text,
    language_name,
    parse_kg,
    parse_table,
    serialize_kg,
    serialize_table,
    table_to_flat_kg,
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

    def __init__(
        self,
        gateway: Gateway,
        model_id: str,
        *,
        pivot: str = DEFAULT_PIVOT,
        temperature: float = 0.0,
    ) -> None:
        self.gateway = gateway
        self.model_id = model_id
        self.pivot = pivot
        self.temperature = temperature

    # stage operations

    def _completed(self, prompt: str, tag: str, parse):
        """One completion of stage tag; any failure is StageFailed(tag)."""
        request = CompletionRequest(
            prompt=prompt, model_id=self.model_id, temperature=self.temperature, tag=tag
        )
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
        if example is None:
            prompt = prompts.fill(
                prompts.TRANSLATE_TO_PIVOT,
                source_language=language_name(table.language),
                target_language=language_name(target),
                category=table.category,
                table=serialize_table(table),
            )
        else:
            original, translated = example
            prompt = prompts.fill(
                prompts.TRANSLATE_FROM_PIVOT,
                source_language=language_name(table.language),
                target_language=language_name(target),
                category=table.category,
                example_original=serialize_table(original),
                example_translated=serialize_table(translated),
                table=serialize_table(table),
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
        self, source_kg: KnowledgeGraph, reference_kg: KnowledgeGraph, *, stage: str = "merge"
    ) -> tuple[KnowledgeGraph, StageTrace]:
        prompt = prompts.fill(
            prompts.MERGE_KGS,
            graph_a=serialize_kg(source_kg),
            graph_b=serialize_kg(reference_kg),
        )
        merged, response = self._completed(prompt, stage, parse_kg)
        trace = StageTrace(stage, (source_kg, reference_kg), prompt, response, merged)
        return merged, trace

    def kg_to_table(
        self,
        kg: KnowledgeGraph,
        exemplar: InfoTable,
        exemplar_kg: KnowledgeGraph | None = None,
        *,
        stage: str = "kg_to_table",
    ) -> tuple[InfoTable, StageTrace]:
        if exemplar_kg is None:
            exemplar_kg = table_to_flat_kg(exemplar)
        prompt = prompts.fill(
            prompts.KG_TO_TABLE,
            example_graph=serialize_kg(exemplar_kg),
            example_table=serialize_table(exemplar),
            graph=serialize_kg(kg),
        )
        rows, response = self._completed(prompt, stage, parse_table)
        result = exemplar.with_rows(rows)
        return result, StageTrace(stage, kg, prompt, response, result)

    # strategies

    def run(self, instance, strategy: Strategy) -> SyncResult:
        """Produce the output table for an instance; gold stays untouched."""
        source: InfoTable = instance.source
        reference: InfoTable = instance.reference
        traces: list[StageTrace] = []
        try:
            if strategy is Strategy.HIERARCHICAL:
                output = self._run_hierarchical(source, reference, traces)
            elif strategy is Strategy.DIRECT:
                output = self._run_single_prompt(source, reference, traces, prompts.DIRECT, "direct")
            elif strategy is Strategy.DIRECT_DECOMPOSE:
                output = self._run_single_prompt(
                    source, reference, traces, prompts.DIRECT_DECOMPOSE, "direct_decompose"
                )
            elif strategy is Strategy.ALIGN_UPDATE_JOINT:
                output = self._run_align_update(source, reference, traces, joint=True)
            elif strategy is Strategy.ALIGN_UPDATE_TWO:
                output = self._run_align_update(source, reference, traces, joint=False)
            else:  # pragma: no cover - exhaustive enum
                raise ValueError(f"unknown strategy: {strategy}")
        except StageFailed as exc:
            raise StageFailed(exc.stage, exc.cause, tuple(traces)) from exc
        return SyncResult(output, tuple(traces))

    def _run_hierarchical(self, source: InfoTable, reference: InfoTable, traces: list[StageTrace]) -> InfoTable:
        source_en, trace = self.translate_table(source, self.pivot, stage="translate_source")
        traces.append(trace)
        reference_en, trace = self.translate_table(reference, self.pivot, stage="translate_reference")
        traces.append(trace)

        kg_source, trace = self.table_to_kg(source_en, stage="table_to_kg_source")
        traces.append(trace)
        kg_reference, trace = self.table_to_kg(reference_en, stage="table_to_kg_reference")
        traces.append(trace)

        merged, trace = self.merge_kgs(kg_source, kg_reference, stage="merge")
        traces.append(trace)

        table_en, trace = self.kg_to_table(merged, source_en, kg_source, stage="kg_to_table")
        traces.append(trace)

        output, trace = self.translate_table(
            table_en, source.language, example=(source_en, source), stage="back_translate"
        )
        traces.append(trace)
        return output

    def _run_single_prompt(
        self, source: InfoTable, reference: InfoTable, traces: list[StageTrace], template: str, stage: str
    ) -> InfoTable:
        prompt = prompts.fill(
            template,
            language_a=language_name(source.language),
            language_b=language_name(reference.language),
            category=source.category,
            table_a=serialize_table(source),
            table_b=serialize_table(reference),
        )
        rows, response = self._completed(prompt, stage, parse_table)
        output = source.with_rows(rows)
        traces.append(StageTrace(stage, (source, reference), prompt, response, output))
        return output

    def _run_align_update(
        self, source: InfoTable, reference: InfoTable, traces: list[StageTrace], *, joint: bool
    ) -> InfoTable:
        if joint:
            alignments_text = prompts.SELF_ALIGN_INSTRUCTION
        else:
            diagnostics: list[str] = []
            try:
                alignment = align_llm(
                    source, reference, self.model_id, self.gateway, diagnostics=diagnostics
                )
            except TableSyncError as exc:
                raise StageFailed("align", exc) from exc
            traces.append(
                StageTrace("align", (source, reference), None, None, alignment, tuple(diagnostics))
            )
            alignments_text = format_alignment_slot(alignment, source, reference)
        prompt = prompts.fill(
            prompts.ALIGN_UPDATE,
            language_a=language_name(source.language),
            language_b=language_name(reference.language),
            category=source.category,
            table_a=serialize_table(source),
            table_b=serialize_table(reference),
            alignments=alignments_text,
        )
        stage = "align_update" if joint else "update"
        rows, response = self._completed(prompt, stage, parse_table)
        output = source.with_rows(rows)
        traces.append(StageTrace(stage, (source, reference), prompt, response, output))
        return output


def artifact_jsonable(artifact: object) -> dict:
    from .alignment import alignment_to_doc

    if artifact is None:
        return {"kind": "none"}
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
    return {"kind": "text", "text": str(artifact)}


def artifact_from_jsonable(doc: dict) -> object:
    from .alignment import alignment_from_doc
    from .tables import TableRow

    kind = doc["kind"]
    if kind == "none":
        return None
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
    return doc.get("text", "")


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
        return [table.original_key(k) or k for k in norm_keys]

    lines: list[str] = []
    for pair in alignment.pairs:
        left_keys = ",".join(f"'{escape_text(k)}'" for k in originals(left, pair.left))
        right_keys = ",".join(f"'{escape_text(k)}'" for k in originals(right, pair.right))
        lines.append(f"    [{left_keys}],[{right_keys}],")
    if not lines:
        return "[]"
    return "[\n" + "\n".join(lines) + "\n]"
