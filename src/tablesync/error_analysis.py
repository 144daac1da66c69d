"""Residual-error taxonomy against gold and stage-wise attribution ledger."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .alignment import Alignment, align_deterministic
from .errors import ConfigError
from .metrics import AtomicComparison, score_row, token_compare
from .stub import StubRuleSet, translate_cells
from .tables import DEFAULT_PIVOT, InfoTable, KnowledgeGraph, SyncInstance, flatten_kg
from .pipeline import StageTrace

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


@dataclass(frozen=True)
class ErrorCounts:
    """The four residual-error classes; total is their sum."""

    missing: int = 0
    outdated_full: int = 0
    outdated_partial: int = 0
    redundant: int = 0

    @property
    def total(self) -> int:
        return self.missing + self.outdated_full + self.outdated_partial + self.redundant

    def __add__(self, other: ErrorCounts) -> ErrorCounts:
        return ErrorCounts(
            self.missing + other.missing,
            self.outdated_full + other.outdated_full,
            self.outdated_partial + other.outdated_partial,
            self.redundant + other.redundant,
        )

    def __sub__(self, other: ErrorCounts) -> ErrorCounts:
        return ErrorCounts(
            self.missing - other.missing,
            self.outdated_full - other.outdated_full,
            self.outdated_partial - other.outdated_partial,
            self.redundant - other.redundant,
        )


@dataclass(frozen=True)
class LedgerEntry:
    stage: str
    cumulative: ErrorCounts
    delta: ErrorCounts


@dataclass(frozen=True)
class StageErrorLedger:
    """Cumulative and per-stage error counts; entry k satisfies
    cumulative[k] == cumulative[k-1] + delta[k]."""

    entries: tuple[LedgerEntry, ...]

    @property
    def final(self) -> ErrorCounts:
        return self.entries[-1].cumulative


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
    by_gold: dict[str, list[str]] = {}
    for cand_key, gold_key in alignment.edges():
        by_gold.setdefault(gold_key, []).append(cand_key)

    missing = outdated_full = outdated_partial = redundant = 0
    for gold_key in sorted(alignment.right_universe):
        cand_keys = sorted(by_gold.get(gold_key, ()))
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

    def __init__(self, rules: StubRuleSet | None = None, *, pivot: str = DEFAULT_PIVOT) -> None:
        self.rules = rules or StubRuleSet()
        self.pivot = pivot

    def _to_pivot(self, table: InfoTable) -> InfoTable:
        if table.language == self.pivot:
            return table
        rows = translate_cells(table.rows, self.rules.lexicon(table.language, self.pivot))
        return InfoTable(table.entity, self.pivot, table.category, rows, table.revision_tag)

    def classify(self, candidate: InfoTable, gold: InfoTable) -> ErrorCounts:
        """Align candidate to gold, compare each aligned pair, classify."""
        alignment = align_deterministic(candidate, gold)
        comparisons: dict[tuple[str, str], AtomicComparison] = {}
        for cand_key, gold_key in alignment.edges():
            comparisons[(cand_key, gold_key)] = token_compare(
                candidate.row_for(cand_key), gold.row_for(gold_key)
            )
        return classify_errors(alignment, comparisons)

    def stagewise_ledger(self, instance: SyncInstance, traces: tuple[StageTrace, ...]) -> StageErrorLedger:
        """Error compounding across the hierarchical stages.

        The reference column is the deterministic-translation view of the
        reference table (the lower bound); intermediate columns classify each
        stage's materialized artifact in the pivot language, with graph
        artifacts flattened deterministically; the final column classifies the
        back-translated output directly against gold.
        """
        by_stage = {trace.stage: trace for trace in traces}
        missing = [stage for _, stage in LEDGER_COLUMNS if stage not in by_stage]
        if missing:
            raise ConfigError(f"traces lack the hierarchical stage(s) {', '.join(missing)}")
        gold_pivot = self._to_pivot(instance.gold)

        def table_of(stage: str, language: str) -> InfoTable:
            artifact = by_stage[stage].output_artifact
            if isinstance(artifact, KnowledgeGraph):
                rows = flatten_kg(artifact)
            elif isinstance(artifact, InfoTable):
                rows = artifact.rows
            else:
                raise ConfigError(f"stage {stage!r} trace holds a {type(artifact).__name__}, not a table or graph")
            return InfoTable(instance.gold.entity, language, instance.gold.category, rows)

        columns: list[tuple[str, InfoTable, InfoTable]] = [
            ("in_reference", self._to_pivot(instance.reference), gold_pivot)
        ]
        for label, stage in LEDGER_COLUMNS[:-1]:
            columns.append((label, table_of(stage, self.pivot), gold_pivot))
        label, stage = LEDGER_COLUMNS[-1]
        final = table_of(stage, instance.gold.language)
        columns.append((label, final, instance.gold))

        entries: list[LedgerEntry] = []
        previous: ErrorCounts | None = None
        for stage, candidate, gold in columns:
            counts = self.classify(candidate, gold)
            delta = counts - previous if previous is not None else ErrorCounts()
            entries.append(LedgerEntry(stage, counts, delta))
            previous = counts
        return StageErrorLedger(tuple(entries))


def ledger_jsonable(ledger: StageErrorLedger) -> dict:
    def counts(c: ErrorCounts) -> dict:
        return {
            "missing": c.missing,
            "outdated_full": c.outdated_full,
            "outdated_partial": c.outdated_partial,
            "redundant": c.redundant,
            "total": c.total,
        }

    return {
        "stages": [
            {"stage": e.stage, "cumulative": counts(e.cumulative), "delta": counts(e.delta)}
            for e in ledger.entries
        ]
    }


def render_ledger(ledger: StageErrorLedger) -> str:
    """Fixed-width text table: one row per error class, one column per stage."""
    labels = ("Missing", "Outdated (Full)", "Outdated (Partial)", "Redundant", "Total")
    fields = ("missing", "outdated_full", "outdated_partial", "redundant", "total")
    header = ["Error Types"] + [e.stage for e in ledger.entries]
    rows = [header]
    for label, name in zip(labels, fields):
        cells = [label]
        for i, entry in enumerate(ledger.entries):
            value = getattr(entry.cumulative, name)
            delta = getattr(entry.delta, name)
            cells.append(f"{value} ({delta:+d})" if i and delta else str(value))
        rows.append(cells)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)
