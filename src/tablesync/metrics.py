"""Evaluation stack: alignment partition, atomic-fact comparison, update reports.

Scores are kept as exact rationals so report fractions reproduce the worked
metric identities with zero tolerance; render as float only at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from . import prompts
from .alignment import Alignment, align_deterministic
from .errors import ComparisonFailed, TableSyncError, UniverseMismatch
from .gateway import DEFAULT_EVAL_TEMPERATURE, CompletionRequest, Gateway
from .tables import InfoTable, TableRow, language_name, parse_kg, serialize_table

COMPARISON_KEYS = ("similar_consistent", "similar_contradictory", "table1_unique", "table2_unique")


@dataclass(frozen=True)
class AtomicComparison:
    """Fact lists for one aligned row pair: consistent, contradictory, unique-left, unique-right."""

    sct: tuple[str, ...] = ()
    scd: tuple[str, ...] = ()
    t1u: tuple[str, ...] = ()
    t2u: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        groups = (set(self.sct), set(self.scd), set(self.t1u), set(self.t2u))
        total = sum(len(g) for g in groups)
        if len(set().union(*groups)) != total:
            raise ValueError("comparison fact lists must be disjoint")


@dataclass(frozen=True)
class RowScore:
    precision: Fraction
    recall: Fraction
    f1: Fraction


def score_row(c: AtomicComparison) -> RowScore:
    """Precision/recall/F1 from fact cardinalities.

    A ratio with zero denominator counts as 1 (vacuously correct); the F1 of
    (0, 0) is 0.
    """
    sct, scd, t1u, t2u = len(c.sct), len(c.scd), len(c.t1u), len(c.t2u)
    precision = Fraction(sct, sct + scd + t1u) if sct + scd + t1u else Fraction(1)
    recall = Fraction(sct, sct + scd + t2u) if sct + scd + t2u else Fraction(1)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
    return RowScore(precision, recall, f1)


PERFECT_ROW = RowScore(Fraction(1), Fraction(1), Fraction(1))
ZERO_ROW = RowScore(Fraction(0), Fraction(0), Fraction(0))


def _fact_items(value: str) -> list[str]:
    """Ordered unique atomic items of a cell value, split on commas/semicolons."""
    parts = [part.strip() for chunk in value.split(";") for part in chunk.split(",")]
    seen: dict[str, str] = {}
    for part in parts:
        if part and part.casefold() not in seen:
            seen[part.casefold()] = part
    return list(seen.values())


def token_compare(left: TableRow | None, right: TableRow | None) -> AtomicComparison:
    """Deterministic value-token comparator used by the offline stub.

    Items shared by both values are consistent facts; leftover items are paired
    positionally as contradictions, and unpaired leftovers are unique to their
    side. Item matching is case-insensitive. Fact texts anchor on the right
    (gold-side) key so rows aligned to the same key yield comparable facts.
    """
    left_items = _fact_items(left.value) if left is not None else []
    right_items = _fact_items(right.value) if right is not None else []
    left_fold = {item.casefold() for item in left_items}
    right_fold = {item.casefold() for item in right_items}
    key = right.key if right is not None else (left.key if left is not None else "")

    sct = [f"{key}: {item}" for item in left_items if item.casefold() in right_fold]
    rest_left = [item for item in left_items if item.casefold() not in right_fold]
    rest_right = [item for item in right_items if item.casefold() not in left_fold]
    paired = min(len(rest_left), len(rest_right))
    scd = [f"{key}: {rest_left[i]} <> {rest_right[i]}" for i in range(paired)]
    t1u = [f"{key}: {item}" for item in rest_left[paired:]]
    t2u = [f"{key}: {item}" for item in rest_right[paired:]]
    return AtomicComparison(tuple(sct), tuple(scd), tuple(t1u), tuple(t2u))


def _facts_from(value: object) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,) if value else ()
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return tuple(value)
    raise ComparisonFailed(f"category holds non-text facts: {value!r}")


def compare_rows(
    left_row: TableRow,
    right_row: TableRow,
    model_id: str,
    gateway: Gateway,
    *,
    language: str = "en",
) -> AtomicComparison:
    """LLM comparison of one aligned row pair into the four fact categories.

    Output that does not parse, even after one reprompt, is ComparisonFailed;
    backend errors propagate.
    """
    prompt = prompts.fill(
        prompts.EVALUATE,
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
            return AtomicComparison(*(_facts_from(doc.get(name)) for name in COMPARISON_KEYS))
        except (TableSyncError, ValueError) as exc:  # no graph, or fact lists that overlap
            raise ComparisonFailed(f"unparseable comparison output: {exc}") from exc

    comparison, _ = gateway.complete_parsed(request, parse)
    return comparison


@dataclass(frozen=True)
class AlignmentPartition:
    """Gold-anchored decomposition over (source, output, gold) alignments.

    Each gold key lands in exactly one of: tri (aligned in both), bi_input_gold
    (source only), bi_gold_output (output only), or un_gold. Partner keys in
    tuples are the lexicographically smallest aligned key of a multi-alignment.
    """

    tri: frozenset[tuple[str, str, str]]
    bi_input_gold: frozenset[tuple[str, str]]
    bi_gold_output: frozenset[tuple[str, str]]
    un_input: frozenset[str]
    un_output: frozenset[str]
    un_gold: frozenset[str]

    @property
    def gold_len(self) -> int:
        return len(self.tri) + len(self.bi_input_gold) + len(self.bi_gold_output) + len(self.un_gold)

    @property
    def input_len(self) -> int:
        return len(self.tri) + len(self.bi_input_gold) + len(self.un_input)

    @property
    def output_len(self) -> int:
        return len(self.tri) + len(self.bi_gold_output) + len(self.un_output)


def partition_alignments(ig: Alignment, og: Alignment) -> AlignmentPartition:
    """Partition gold keys by where they are aligned.

    ig aligns source (left) against gold (right); og aligns output (left)
    against gold (right). Both must cover the same gold key universe.
    """
    if ig.right_universe != og.right_universe:
        raise UniverseMismatch("alignments do not share the gold key universe")

    input_by_gold: dict[str, list[str]] = {}
    for src, gold in ig.edges():
        input_by_gold.setdefault(gold, []).append(src)
    output_by_gold: dict[str, list[str]] = {}
    for out, gold in og.edges():
        output_by_gold.setdefault(gold, []).append(out)

    tri: set[tuple[str, str, str]] = set()
    bi_ig: set[tuple[str, str]] = set()
    bi_go: set[tuple[str, str]] = set()
    un_gold: set[str] = set()
    for gold in ig.right_universe:
        sources = input_by_gold.get(gold)
        outputs = output_by_gold.get(gold)
        if sources and outputs:
            tri.add((min(sources), gold, min(outputs)))
        elif sources:
            bi_ig.add((min(sources), gold))
        elif outputs:
            bi_go.add((gold, min(outputs)))
        else:
            un_gold.add(gold)

    aligned_inputs = {src for srcs in input_by_gold.values() for src in srcs}
    aligned_outputs = {out for outs in output_by_gold.values() for out in outs}
    return AlignmentPartition(
        tri=frozenset(tri),
        bi_input_gold=frozenset(bi_ig),
        bi_gold_output=frozenset(bi_go),
        un_input=ig.left_universe - aligned_inputs,
        un_output=og.left_universe - aligned_outputs,
        un_gold=frozenset(un_gold),
    )


@dataclass(frozen=True)
class UpdateReport:
    """Row-level synchronization quality, mirroring the report column layout.

    updated and added_pct are semantic sums of row F1 over the tri and
    gold-output bi groups, normalized by the gold key count and scaled to
    percent; the remaining fields are structural counts.
    """

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

    def _over_gold(self, count: int) -> Fraction:
        return Fraction(count, self.gold_len) if self.gold_len else Fraction(0)

    @property
    def missed_frac(self) -> Fraction:
        return self._over_gold(self.missed_gold)

    @property
    def deleted_frac(self) -> Fraction:
        return self._over_gold(self.deleted_input)

    @property
    def added_frac(self) -> Fraction:
        return self._over_gold(self.added_rows)

    @property
    def un_input_frac(self) -> Fraction:
        return Fraction(self.un_input, self.input_len) if self.input_len else Fraction(0)

    @property
    def un_output_frac(self) -> Fraction:
        return Fraction(self.un_output, self.output_len) if self.output_len else Fraction(0)


def build_report(
    partition: AlignmentPartition,
    row_scores_ig: Mapping[str, RowScore],
    row_scores_og: Mapping[str, RowScore],
) -> UpdateReport:
    """Assemble the update report from the partition and per-gold-key row scores.

    row_scores_ig must cover gold keys aligned with the source (tri plus
    bi_input_gold); row_scores_og those aligned with the output (tri plus
    bi_gold_output). Missing entries count as zero rows.
    """
    gold_len = partition.gold_len

    def f1(scores: Mapping[str, RowScore], gold_key: str) -> Fraction:
        score = scores.get(gold_key)
        return score.f1 if score is not None else Fraction(0)

    tri_og = sum((f1(row_scores_og, g) for _, g, _ in partition.tri), Fraction(0))
    tri_ig = sum((f1(row_scores_ig, g) for _, g, _ in partition.tri), Fraction(0))
    added = sum((f1(row_scores_og, g) for g, _ in partition.bi_gold_output), Fraction(0))

    updated = 100 * (tri_og - tri_ig) / gold_len if gold_len else Fraction(0)
    added_pct = 100 * added / gold_len if gold_len else Fraction(0)
    return UpdateReport(
        updated=updated,
        added_pct=added_pct,
        added_rows=len(partition.bi_gold_output),
        missed_gold=len(partition.un_gold),
        deleted_input=len(partition.bi_input_gold),
        gold_len=gold_len,
        input_len=partition.input_len,
        output_len=partition.output_len,
        un_input=len(partition.un_input),
        un_output=len(partition.un_output),
    )


@dataclass(frozen=True)
class InstanceEvaluation:
    partition: AlignmentPartition
    per_model: dict[str, UpdateReport]
    ensemble: UpdateReport
    flagged: tuple[tuple[str, str], ...]  # (model_id, gold_key) pairs scored 0 on failure


def evaluate_instance(
    source: InfoTable,
    output: InfoTable,
    gold: InfoTable,
    *,
    gateway: Gateway,
    evaluator_models: Sequence[str],
) -> InstanceEvaluation:
    """Full §-style evaluation of one output table against its instance.

    Alignments are source-gold and output-gold; each aligned pair is compared
    per evaluator model and reports are ensemble-averaged. The distinct
    (model, candidate row, gold row) comparisons are planned first, in the
    order the reports read them, and issued as one `gateway.map` batch, so a
    row the output leaves unchanged is compared once and scores the same on
    both sides. A backend error is the first one in plan order.
    """
    ig = align_deterministic(source, gold)
    og = align_deterministic(output, gold)
    partition = partition_alignments(ig, og)

    ig_pairs = {g: s for s, g, _ in partition.tri} | {g: s for s, g in partition.bi_input_gold}
    og_pairs = {g: o for _, g, o in partition.tri} | {g: o for g, o in partition.bi_gold_output}
    # Per side: (gold key, candidate row, gold row) by gold key.
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

    def scored(comparison: tuple[str, TableRow, TableRow]) -> RowScore | None:  # None: comparison failed
        model_id, candidate_row, gold_row = comparison
        try:
            comparison = compare_rows(candidate_row, gold_row, model_id, gateway, language=gold.language)
            return score_row(comparison)
        except ComparisonFailed:
            return None

    scores = dict(zip(plan, gateway.map(scored, plan)))
    flagged: list[tuple[str, str]] = []

    def side_scores(model_id: str, side) -> dict[str, RowScore]:
        result: dict[str, RowScore] = {}
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
    if reports:  # every report reads the one partition, so only the scores differ
        n = len(reports)
        ensemble = replace(
            reports[0],
            updated=sum((r.updated for r in reports), Fraction(0)) / n,
            added_pct=sum((r.added_pct for r in reports), Fraction(0)) / n,
        )
    else:
        ensemble = build_report(partition, {}, {})
    return InstanceEvaluation(partition, per_model, ensemble, tuple(flagged))


REPORT_COLUMNS = ("updated", "added_pct", "added_rows", "missed_gold", "deleted_input")


def report_jsonable(report: UpdateReport) -> dict:
    """Deterministic JSON form: exact fractions as strings plus float renderings."""

    def frac(value: Fraction) -> dict:
        return {"exact": str(value), "value": float(value)}

    return {
        "columns": list(REPORT_COLUMNS),
        "updated": frac(report.updated),
        "added_pct": frac(report.added_pct),
        "added_rows": report.added_rows,
        "missed_gold": report.missed_gold,
        "deleted_input": report.deleted_input,
        "counts": {
            "gold_len": report.gold_len,
            "input_len": report.input_len,
            "output_len": report.output_len,
            "un_input": report.un_input,
            "un_output": report.un_output,
        },
        "fractions": {
            "missed": frac(report.missed_frac),
            "deleted": frac(report.deleted_frac),
            "added": frac(report.added_frac),
            "un_input": frac(report.un_input_frac),
            "un_output": frac(report.un_output_frac),
        },
    }


def aggregate_reports(reports: Sequence[UpdateReport]) -> dict:
    """Corpus view: arithmetic mean of every column across instance reports."""
    if not reports:
        return {"columns": list(REPORT_COLUMNS), "instances": 0}
    n = len(reports)

    def mean(values) -> Fraction:
        return sum(values, Fraction(0)) / n

    means = {
        "updated": mean(r.updated for r in reports),
        "added_pct": mean(r.added_pct for r in reports),
        "added_rows": mean(Fraction(r.added_rows) for r in reports),
        "missed_gold": mean(Fraction(r.missed_gold) for r in reports),
        "deleted_input": mean(Fraction(r.deleted_input) for r in reports),
    }
    return {
        "columns": list(REPORT_COLUMNS),
        "instances": n,
        **{name: {"exact": str(value), "value": float(value)} for name, value in means.items()},
    }
