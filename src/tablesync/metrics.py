"""Evaluation stack: alignment partition, atomic-fact comparison, update reports.

Scores are kept as exact rationals so report fractions reproduce the worked
metric identities with zero tolerance; render as float only at the edges.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Mapping, Sequence

from . import prompts
from .alignment import Alignment, align_deterministic
from .errors import ComparisonFailed, OverlappingFacts, TableSyncError
from .gateway import DEFAULT_EVAL_TEMPERATURE, CompletionRequest, Gateway
from .tables import InfoTable, TableRow, Value, language_name, normalize_key, parse_kg, serialize_table

COMPARISON_KEYS = ("similar_consistent", "similar_contradictory", "table1_unique", "table2_unique")


class AtomicComparison(Value):
    """Fact lists (tuples of text) for one aligned row pair: consistent, contradictory, unique-left, unique-right."""

    __slots__ = ("sct", "scd", "t1u", "t2u")

    def __init__(self, sct: tuple = (), scd: tuple = (), t1u: tuple = (), t2u: tuple = ()) -> None:
        groups = (set(sct), set(scd), set(t1u), set(t2u))
        union = set().union(*groups)
        if len(union) != sum(len(g) for g in groups):
            shared = min(fact for fact in union if sum(fact in g for g in groups) > 1)
            raise OverlappingFacts(f"comparison fact lists must be disjoint; {shared!r} is in two")
        Value.__init__(self, sct, scd, t1u, t2u)


class RowScore(Value):
    __slots__ = ("precision", "recall", "f1")  # Fractions


def score_row(c: AtomicComparison) -> RowScore:
    """Precision/recall/F1 from fact cardinalities.

    A ratio with zero denominator counts as 1 (vacuously correct); the F1 of
    (0, 0) is 0.
    """
    return _score_counts(len(c.sct), len(c.scd), len(c.t1u), len(c.t2u))


@lru_cache
def _score_counts(sct: int, scd: int, t1u: int, t2u: int) -> RowScore:
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


@lru_cache
def token_compare(left: TableRow, right: TableRow) -> AtomicComparison:
    """Deterministic value-token comparator used by the offline stub.

    Items shared by both values are consistent facts; leftover items are paired
    positionally as contradictions, and unpaired leftovers are unique to their
    side. Item matching is case-insensitive. Fact texts anchor on the right
    (gold-side) key so rows aligned to the same key yield comparable facts.
    Memoized: the error ledger's columns compare mostly the same row pairs.
    An item holding " <> " can write a consistent fact and a contradiction
    fact alike ("k: a <> c" from "a <> c, a" against "a <> c, c"): that is
    OverlappingFacts.
    """
    left_items, right_items = _fact_items(left.value), _fact_items(right.value)
    left_fold = {item.casefold() for item in left_items}
    right_fold = {item.casefold() for item in right_items}
    key = right.key

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


def _comparison_from(entry: object) -> AtomicComparison | None:
    """The fact lists of one row's answer entry; None when the entry is
    missing or not a map, holds non-text facts, or has overlapping lists."""
    if not isinstance(entry, dict):
        return None
    try:
        return AtomicComparison(*(_facts_from(entry.get(name)) for name in COMPARISON_KEYS))
    except (ComparisonFailed, OverlappingFacts):
        return None


# Aligned row pairs judged in one evaluate prompt. The stub's answer takes
# about 135 characters per row; a real judge's, about three times that, so 16
# rows come to about 6,500 characters, some 1,600 tokens at four characters a
# token: within DEFAULT_MAX_TOKENS (2048).
EVAL_BATCH_ROWS = 16


def compare_rows(
    pairs: Sequence[tuple[TableRow, TableRow]],
    model_id: str,
    gateway: Gateway,
    *,
    entity: str,
    language: str,
) -> list[AtomicComparison | None]:
    """LLM comparison of aligned (candidate row, gold row) pairs, all in one
    prompt, into the four fact categories; one result per pair.

    The prompt names the entity the tables are about. Table 1 holds the
    candidate rows and Table 2 the gold rows, row i aligned with row i, so
    the gold keys must be distinct once normalized. The answer maps each
    gold key to its fact lists; answer keys are matched through
    `normalize_key`. An answer with no map gets one reprompt, and if that
    fails too every pair's result is None. Otherwise a pair whose entry is
    missing or malformed gets None, with no reprompt. Backend errors propagate.
    """
    prompt = prompts.fill(
        prompts.EVALUATE,
        entity=entity,
        language=language_name(language),
        table_1=serialize_table(candidate for candidate, _ in pairs),
        table_2=serialize_table(gold for _, gold in pairs),
    )
    request = CompletionRequest(
        prompt=prompt,
        model_id=model_id,
        temperature=DEFAULT_EVAL_TEMPERATURE,
        tag="evaluate",
    )

    def parse(response: str) -> dict:
        try:
            return {normalize_key(key): entry for key, entry in parse_kg(response).root.items()}
        except TableSyncError as exc:  # no map in the answer
            raise ComparisonFailed(f"unparseable comparison output: {exc}") from exc

    try:
        entries, _ = gateway.complete_parsed(request, parse)
    except ComparisonFailed:
        return [None] * len(pairs)
    return [_comparison_from(entries.get(normalize_key(gold.key))) for _, gold in pairs]


class AlignmentPartition(Value):
    """Gold-anchored decomposition over (source, output, gold) alignments.

    Each gold key lands in exactly one of: tri (aligned in both), bi_input_gold
    (source only), bi_gold_output (output only), or un_gold. Partner keys in
    tuples are the lexicographically smallest aligned key of a multi-alignment.

    The groups are frozensets; input_len and output_len count the distinct
    normalized keys of the source and the output table."""

    __slots__ = (
        "tri", "bi_input_gold", "bi_gold_output", "un_input", "un_output", "un_gold", "input_len", "output_len")

    @property
    def gold_len(self) -> int:
        return len(self.tri) + len(self.bi_input_gold) + len(self.bi_gold_output) + len(self.un_gold)


def _gold_partners(alignment: Alignment) -> dict[str, str]:
    """Each aligned gold (right) key -> its smallest aligned left key."""
    return {gold: keys[0] for gold, keys in alignment.by_right.items()}


def partition_alignments(ig: Alignment, og: Alignment) -> AlignmentPartition:
    """Partition gold keys by where they are aligned.

    ig aligns source (left) against gold (right); og aligns output (left)
    against gold (right): `evaluate_instance` aligns both against one gold table.
    """
    sources, outputs = _gold_partners(ig), _gold_partners(og)
    return AlignmentPartition(
        tri=frozenset((sources[g], g, outputs[g]) for g in sources.keys() & outputs.keys()),
        bi_input_gold=frozenset((sources[g], g) for g in sources.keys() - outputs.keys()),
        bi_gold_output=frozenset((g, outputs[g]) for g in outputs.keys() - sources.keys()),
        un_input=ig.unaligned_left,
        un_output=og.unaligned_left,
        un_gold=ig.unaligned_right & og.unaligned_right,
        input_len=len(ig.left_universe),
        output_len=len(og.left_universe),
    )


class UpdateReport(Value):
    """Row-level synchronization quality, mirroring the report column layout.

    updated and added_pct are semantic sums of row F1 over the tri and
    gold-output bi groups, normalized by the gold key count and scaled to
    percent, as Fractions; the remaining fields are structural counts.
    """

    __slots__ = (
        "updated", "added_pct", "added_rows", "missed_gold", "deleted_input",
        "gold_len", "input_len", "output_len", "un_input", "un_output",
    )

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


class InstanceEvaluation(Value):
    __slots__ = ("per_model", "ensemble", "flagged")  # flagged: (model_id, gold_key) pairs scored 0 on failure


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
    per evaluator model (evaluator_models is non-empty) and reports are
    ensemble-averaged. A candidate row equal to its gold row (the same wire
    text) scores PERFECT_ROW without a judge. The other distinct (model,
    candidate row, gold row) comparisons are planned first, in the order the
    reports read them, so a row the output leaves unchanged is compared once
    and scores the same on both sides. The plan is cut into chunks for
    `compare_rows`, each of one model: a chunk closes at EVAL_BATCH_ROWS
    pairs, or before a gold key it already holds. The chunks run as one
    `gateway.map` batch; a backend error is the first one in plan order.
    """
    ig = align_deterministic(source, gold)
    og = align_deterministic(output, gold)
    partition = partition_alignments(ig, og)
    # Per side: (gold key, candidate row, gold row) by gold key.
    sides = [
        [
            (gold_key, candidate.row_for(cand_key), gold.row_for(gold_key))
            for gold_key, cand_key in sorted(_gold_partners(alignment).items())
        ]
        for alignment, candidate in ((ig, source), (og, output))
    ]
    plan = list(
        dict.fromkeys(
            (model_id, candidate_row, gold_row)
            for model_id in evaluator_models
            for side in sides
            for _, candidate_row, gold_row in side
            if candidate_row != gold_row
        )
    )
    chunks: list[list[tuple[str, TableRow, TableRow]]] = []
    held: set[str] = set()  # normalized gold keys of the last chunk
    for item in plan:
        model_id, _, gold_row = item
        gold_key = normalize_key(gold_row.key)
        last = chunks[-1] if chunks else []
        if not last or last[0][0] != model_id or len(last) == EVAL_BATCH_ROWS or gold_key in held:
            chunks.append(last := [])
            held = set()
        last.append(item)
        held.add(gold_key)

    def scored(chunk: list[tuple[str, TableRow, TableRow]]) -> list[RowScore | None]:
        # None where the comparison failed.
        pairs = [(candidate_row, gold_row) for _, candidate_row, gold_row in chunk]
        comparisons = compare_rows(pairs, chunk[0][0], gateway, entity=gold.entity, language=gold.language)
        return [None if comparison is None else score_row(comparison) for comparison in comparisons]

    # The chunks cut the plan in order.
    scores = dict(zip(plan, chain.from_iterable(gateway.map(scored, chunks))))
    flagged: list[tuple[str, str]] = []

    def side_scores(model_id: str, side) -> dict[str, RowScore]:
        result: dict[str, RowScore] = {}
        for gold_key, candidate_row, gold_row in side:
            score = PERFECT_ROW if candidate_row == gold_row else scores[model_id, candidate_row, gold_row]
            if score is None:
                flagged.append((model_id, gold_key))
            result[gold_key] = ZERO_ROW if score is None else score
        return result

    per_model = {
        model_id: build_report(partition, *(side_scores(model_id, side) for side in sides))
        for model_id in evaluator_models
    }
    # Every report reads the one partition, so only the scores differ.
    reports = list(per_model.values())
    first = reports[0]
    ensemble = UpdateReport(
        sum((r.updated for r in reports), Fraction(0)) / len(reports),
        sum((r.added_pct for r in reports), Fraction(0)) / len(reports),
        *first._values(first)[2:],  # the counts
    )
    return InstanceEvaluation(per_model, ensemble, tuple(flagged))


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
