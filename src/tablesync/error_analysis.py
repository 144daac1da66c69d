"""Residual-error taxonomy against gold and stage-wise attribution ledger."""

from __future__ import annotations

from operator import add, sub
from typing import Mapping

from .alignment import Alignment, align_deterministic
from .errors import ConfigError
from .metrics import AtomicComparison, score_row, token_compare
from .stub import StubRuleSet, translate_cells
from .tables import InfoTable, KnowledgeGraph, SyncInstance, Value, flatten_kg
from .pipeline import artifact_from_jsonable

REDUNDANCY_OVERLAP = 0.5

# Ledger columns after the "in_reference" baseline, in pipeline order: (ledger
# label, hierarchical trace stage whose output artifact the column scores).
LEDGER_COLUMNS = (
    ("translate_en", "translate_reference"),
    ("kg_construction", "table_to_kg_reference"),
    ("merge", "merge"),
    ("table_conversion", "kg_to_table"),
    ("back_translate", "back_translate"),
)


def ledger_traces(docs: list[dict]) -> tuple[str, dict[str, object]]:
    """The pivot (the language the reference was translated into) and the output of each stage
    a ledger column scores, from a hierarchical run's trace records; no other record or input is read."""
    stages = [stage for _, stage in LEDGER_COLUMNS]
    outputs = {doc["stage"]: artifact_from_jsonable(doc["output"]) for doc in docs if doc["stage"] in stages}
    missing = [stage for stage in stages if stage not in outputs]
    if missing:
        raise ConfigError(f"traces lack the hierarchical stage(s) {', '.join(missing)}")
    if not isinstance(outputs["translate_reference"], InfoTable):
        raise ConfigError("the translate_reference output is not a table")
    return outputs["translate_reference"].language, outputs


class ErrorCounts(Value):
    """The four residual-error classes; total is their sum."""

    __slots__ = ("missing", "outdated_full", "outdated_partial", "redundant")
    _defaults = dict.fromkeys(__slots__, 0)

    @property
    def total(self) -> int:
        return self.missing + self.outdated_full + self.outdated_partial + self.redundant

    def __add__(self, other: ErrorCounts) -> ErrorCounts:
        return ErrorCounts(*map(add, self._values(self), other._values(other)))

    def __sub__(self, other: ErrorCounts) -> ErrorCounts:
        return ErrorCounts(*map(sub, self._values(self), other._values(other)))


class LedgerEntry(Value):
    __slots__ = ("stage", "cumulative", "delta")  # the stage's label and two ErrorCounts


def _sct_overlap(a: AtomicComparison, b: AtomicComparison) -> float:
    facts_a, facts_b = set(a.sct), set(b.sct)
    if not facts_a or not facts_b:
        return 0.0
    return len(facts_a & facts_b) / min(len(facts_a), len(facts_b))


def classify_errors(
    alignment: Alignment,
    comparisons: Mapping[tuple[str, str], AtomicComparison],
) -> ErrorCounts:
    """Classify the candidate's residual errors against gold.

    Unaligned gold keys are missing; aligned rows score outdated (full at
    F1 == 0, partial below 1); extra candidate rows whose consistent facts
    overlap an earlier row on the same gold key count as redundant.
    """
    missing = outdated_full = outdated_partial = redundant = 0
    for gold_key in sorted(alignment.right_universe):
        cand_keys = alignment.by_right.get(gold_key, ())
        if not cand_keys:
            missing += 1
            continue
        rows = [comparisons[(cand_key, gold_key)] for cand_key in cand_keys]
        best = max(score_row(comparison).f1 for comparison in rows)
        if best == 0:
            outdated_full += 1
        elif best < 1:
            outdated_partial += 1
        for i in range(1, len(rows)):
            if any(_sct_overlap(rows[i], rows[j]) >= REDUNDANCY_OVERLAP for j in range(i)):
                redundant += 1
    return ErrorCounts(missing, outdated_full, outdated_partial, redundant)


class ErrorAnalyzer:
    """Deterministic error classification and stage attribution.

    Alignment uses the deterministic aligner and row comparison the token
    comparator, so the ledger isolates pipeline errors from scorer noise.
    Stage artifacts that are not in the comparison language are normalized via
    the rule-set lexicons, never via a model.
    """

    def __init__(self, rules: StubRuleSet, *, pivot: str) -> None:
        self.rules = rules
        self.pivot = pivot

    def _to_pivot(self, table: InfoTable) -> InfoTable:
        rows = translate_cells(table.rows, self.rules.lexicon(table.language, self.pivot))
        return InfoTable(table.entity, self.pivot, table.category, rows, table.revision_tag)

    def classify(self, candidate: InfoTable, gold: InfoTable) -> ErrorCounts:
        """Align candidate to gold, compare each aligned pair, classify."""
        alignment = align_deterministic(candidate, gold)
        comparisons: dict[tuple[str, str], AtomicComparison] = {}
        for cand_key, gold_key in alignment.edges:
            comparisons[(cand_key, gold_key)] = token_compare(
                candidate.row_for(cand_key), gold.row_for(gold_key)
            )
        return classify_errors(alignment, comparisons)

    def stagewise_ledger(self, instance: SyncInstance, outputs: Mapping[str, object]) -> tuple[LedgerEntry, ...]:
        """Error compounding across the hierarchical stages, from the output of
        each: one entry per column, whose cumulative counts are the previous
        entry's plus its delta (the first entry's delta is zero).

        The reference column is the deterministic-translation view of the
        reference table (the lower bound). Every other column classifies its
        stage's output artifact in that artifact's language: against the pivot
        view of gold when it is in the pivot, against gold otherwise. A graph
        artifact is flattened deterministically into a pivot-language table.
        """
        gold = instance.gold
        columns = [("in_reference", self._to_pivot(instance.reference))]
        for label, stage in LEDGER_COLUMNS:
            artifact = outputs[stage]
            if isinstance(artifact, KnowledgeGraph):
                artifact = InfoTable(gold.entity, self.pivot, gold.category, flatten_kg(artifact))
            columns.append((label, artifact))
        gold_pivot = self._to_pivot(gold)

        counts = [self.classify(table, gold_pivot if table.language == self.pivot else gold) for _, table in columns]
        deltas = [ErrorCounts()] + [later - earlier for earlier, later in zip(counts, counts[1:])]
        return tuple(LedgerEntry(label, count, delta) for (label, _), count, delta in zip(columns, counts, deltas))


def ledger_jsonable(ledger: tuple[LedgerEntry, ...]) -> dict:
    def counts(c: ErrorCounts) -> dict:
        return {**dict(zip(c._fields, c._values(c))), "total": c.total}

    return {
        "stages": [
            {"stage": e.stage, "cumulative": counts(e.cumulative), "delta": counts(e.delta)}
            for e in ledger
        ]
    }


def render_ledger(ledger: tuple[LedgerEntry, ...]) -> str:
    """Fixed-width text table: one row per error class, one column per stage."""
    labels = ("Missing", "Outdated (Full)", "Outdated (Partial)", "Redundant", "Total")
    fields = (*ErrorCounts._fields, "total")
    header = ["Error Types"] + [e.stage for e in ledger]
    rows = [header]
    for label, name in zip(labels, fields):
        cells = [label]
        for i, entry in enumerate(ledger):
            value = getattr(entry.cumulative, name)
            delta = getattr(entry.delta, name)
            cells.append(f"{value} ({delta:+d})" if i and delta else str(value))
        rows.append(cells)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)
