"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Expected values come from independent oracles computed inside each test:
brute-force formula evaluation, an exhaustive set-theoretic enumerator, and
hand-traceable fixture constructions.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from tablesync import cli
from tablesync.alignment import Alignment, majority_vote
from tablesync.error_analysis import ErrorAnalyzer, ErrorCounts
from tablesync.gateway import Gateway
from tablesync.metrics import (
    AtomicComparison,
    PERFECT_ROW,
    build_report,
    evaluate_instance,
    partition_alignments,
    score_row,
)
from tablesync.pipeline import Pipeline, Strategy
from tablesync.stub import StubBackend, StubRuleSet, translate_cells
from tablesync.tables import (
    DEFAULT_PIVOT,
    KnowledgeGraph,
    TableRow,
    parse_kg,
    parse_table,
    serialize_kg,
    serialize_table,
)
from tablesync.dataset import iter_instance_dirs, load_instance


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)")


# 1. Worked-example oracle ---------------------------------------------------


def test_criterion_1_worked_example_partition_and_report():
    with criterion(1, "worked-example partition and report fractions, exact"):
        started = time.monotonic()
        ig = Alignment.build(
            ("ir1", "ir2", "ir3", "ir4"),
            ("gr1", "gr2", "gr3", "gr4", "gr5", "gr6", "gr7", "gr8"),
            [("ir1", "gr1"), ("ir2", "gr2"), ("ir3", "gr3")],
        )
        og = Alignment.build(
            ("or1", "or2", "or3", "or4", "or5", "or6"),
            ("gr1", "gr2", "gr3", "gr4", "gr5", "gr6", "gr7", "gr8"),
            [("or1", "gr1"), ("or2", "gr2"), ("or3", "gr4"), ("or5", "gr7")],
        )
        partition = partition_alignments(ig, og)
        assert partition.tri == {("ir1", "gr1", "or1"), ("ir2", "gr2", "or2")}
        assert partition.bi_input_gold == {("ir3", "gr3")}
        assert partition.bi_gold_output == {("gr4", "or3"), ("gr7", "or5")}
        assert partition.un_input == {"ir4"}
        assert partition.un_gold == {"gr5", "gr6", "gr8"}
        assert partition.un_output == {"or4", "or6"}
        assert (len(partition.tri), len(partition.bi_input_gold), len(partition.bi_gold_output)) == (2, 1, 2)

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
        assert time.monotonic() - started < 1.0


# 2. Formula oracle ----------------------------------------------------------


def brute_force_prf(sct: int, scd: int, t1u: int, t2u: int) -> tuple[float, float, float]:
    """Direct float evaluation of the precision/recall/F1 formulas."""
    p_den = sct + scd + t1u
    precision = sct / p_den if p_den else 1.0
    r_den = sct + scd + t2u
    recall = sct / r_den if r_den else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def test_criterion_2_score_row_matches_brute_force():
    with criterion(2, "score_row equals brute-force formulas on all 2401 tuples"):
        checked = 0
        for sct in range(7):
            for scd in range(7):
                for t1u in range(7):
                    for t2u in range(7):
                        comparison = AtomicComparison(
                            tuple(f"s{i}" for i in range(sct)),
                            tuple(f"c{i}" for i in range(scd)),
                            tuple(f"l{i}" for i in range(t1u)),
                            tuple(f"r{i}" for i in range(t2u)),
                        )
                        score = score_row(comparison)
                        expected = brute_force_prf(sct, scd, t1u, t2u)
                        assert abs(float(score.precision) - expected[0]) < 1e-12
                        assert abs(float(score.recall) - expected[1]) < 1e-12
                        assert abs(float(score.f1) - expected[2]) < 1e-12
                        checked += 1
        assert checked == 2401


# 3. Partition oracle --------------------------------------------------------


def enumerator_partition(i_keys, o_keys, g_keys, edges_ig, edges_og):
    """Verbatim set-theoretic definitions of the alignment groups. A gold key
    aligned to several keys on one side names the smallest of them."""

    def aligned_ig(g):
        return {i for i in i_keys if (i, g) in edges_ig}

    def aligned_og(g):
        return {o for o in o_keys if (o, g) in edges_og}

    tri = {
        (min(aligned_ig(g)), g, min(aligned_og(g)))
        for g in g_keys
        if aligned_ig(g) and aligned_og(g)
    }
    bi_input = {(min(aligned_ig(g)), g) for g in g_keys if aligned_ig(g) and not aligned_og(g)}
    bi_output = {(g, min(aligned_og(g))) for g in g_keys if aligned_og(g) and not aligned_ig(g)}
    un_input = {i for i in i_keys if all((i, g) not in edges_ig for g in g_keys)}
    un_output = {o for o in o_keys if all((o, g) not in edges_og for g in g_keys)}
    un_gold = {g for g in g_keys if not aligned_ig(g) and not aligned_og(g)}
    return tri, bi_input, bi_output, un_input, un_output, un_gold


def random_one_to_one(rng, left, right):
    count = rng.randint(0, min(len(left), len(right)))
    return set(zip(rng.sample(left, count), rng.sample(right, count)))


def random_many_to_many(rng, left, right):
    density = rng.random()
    return {(l, r) for l in left for r in right if rng.random() < density}


def test_criterion_3_partition_matches_enumerator():
    with criterion(3, "partition matches the exhaustive enumerator on 1000 random triples"):
        started = time.monotonic()
        rng = random.Random(20240917)
        for n in range(1000):
            # Up to 12 keys a side, so "i10" sorts before "i2".
            i_keys = [f"i{k}" for k in range(rng.randint(0, 12))]
            o_keys = [f"o{k}" for k in range(rng.randint(0, 12))]
            g_keys = [f"g{k}" for k in range(rng.randint(0, 12))]
            draw = random_one_to_one if n % 2 == 0 else random_many_to_many
            edges_ig = draw(rng, i_keys, g_keys)
            edges_og = draw(rng, o_keys, g_keys)
            partition = partition_alignments(
                Alignment.build(i_keys, g_keys, edges_ig),
                Alignment.build(o_keys, g_keys, edges_og),
            )
            tri, bi_in, bi_out, un_in, un_out, un_gold = enumerator_partition(
                i_keys, o_keys, g_keys, edges_ig, edges_og
            )
            assert partition.tri == tri
            assert partition.bi_input_gold == bi_in
            assert partition.bi_gold_output == bi_out
            assert partition.un_input == un_in
            assert partition.un_output == un_out
            assert partition.un_gold == un_gold
            assert partition.gold_len == len(g_keys)
            # A side's length is its key count, however its keys align.
            assert partition.input_len == len(i_keys)
            assert partition.output_len == len(o_keys)
        assert time.monotonic() - started < 10.0


# 4. Voting properties -------------------------------------------------------


def test_criterion_4_majority_vote_properties():
    with criterion(4, "voting: unanimity, idempotence, permutation-invariance, no invented edges"):
        rng = random.Random(77002)
        left = tuple(f"k{n}" for n in range(5))
        right = tuple(f"r{n}" for n in range(5))

        def random_alignment():
            edges = {
                (rng.choice(left), rng.choice(right)) for _ in range(rng.randint(0, 6))
            }
            return Alignment.build(left, right, edges)

        for _ in range(1000):
            vote = random_alignment()
            copies = rng.randint(1, 5)
            assert majority_vote([vote] * copies) == vote  # unanimity and idempotence

            votes = [random_alignment() for _ in range(rng.randint(1, 7))]
            result = majority_vote(votes)
            shuffled = list(votes)
            rng.shuffle(shuffled)
            assert majority_vote(shuffled) == result  # permutation-invariance
            union = set().union(*(v.edges for v in votes))
            assert result.edges <= union  # no invented correspondences


# 5. Offline end-to-end ------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_paths():
    fixtures = Path(__file__).parent / "fixtures"
    return fixtures / "corpus", fixtures / "lexicons"


def test_criterion_5_offline_end_to_end(fixture_paths):
    with criterion(5, "stub hierarchical run: Missed(G)=0, Delete(I)=0, direct never better"):
        started = time.monotonic()
        corpus, lexicons = fixture_paths
        rules = StubRuleSet.from_dir(lexicons)
        gateway = Gateway(StubBackend(rules))
        pipeline = Pipeline(gateway, "stub-model")

        instance_dirs = iter_instance_dirs(corpus)
        assert len(instance_dirs) >= 10
        instances = [load_instance(d) for d in instance_dirs]
        pairs = {(i.source.language, i.reference.language) for i in instances}
        assert len(pairs) >= 3

        hierarchical_missed = []
        direct_missed = []
        for instance in instances:
            hier = pipeline.run(instance, Strategy.HIERARCHICAL)
            direct = pipeline.run(instance, Strategy.DIRECT)
            ev_h = evaluate_instance(
                instance.source, hier.output, instance.gold,
                gateway=gateway, evaluator_models=["stub-eval"],
            )
            ev_d = evaluate_instance(
                instance.source, direct.output, instance.gold,
                gateway=gateway, evaluator_models=["stub-eval"],
            )
            assert ev_h.ensemble.missed_gold == 0
            assert ev_h.ensemble.deleted_input == 0
            assert ev_d.ensemble.missed_gold >= ev_h.ensemble.missed_gold
            hierarchical_missed.append(ev_h.ensemble.missed_gold)
            direct_missed.append(ev_d.ensemble.missed_gold)
        assert sum(direct_missed) > sum(hierarchical_missed)
        assert time.monotonic() - started < 30.0


# 6. Replay determinism ------------------------------------------------------


def test_criterion_6_replay_byte_identical_reports(fixture_paths, tmp_path):
    with criterion(6, "record a stub session, replay it, reports byte-identical"):
        corpus, lexicons = fixture_paths
        transcript = tmp_path / "transcript.jsonl"
        out_record = tmp_path / "record"
        out_replay = tmp_path / "replay"

        assert cli.main([
            "sync", "--corpus", str(corpus), "--out", str(out_record),
            "--lexicons", str(lexicons),
            "--transcripts", str(transcript), "--record",
        ]) == cli.EXIT_OK
        assert cli.main([
            "sync", "--corpus", str(corpus), "--out", str(out_replay),
            "--backend", "replay", "--transcripts", str(transcript),
        ]) == cli.EXIT_OK

        recorded = sorted(
            p.relative_to(out_record)
            for p in out_record.rglob("*")
            if p.is_file() and (p.name.endswith(".table") or p.name == "report.json")
        )
        replayed = sorted(
            p.relative_to(out_replay)
            for p in out_replay.rglob("*")
            if p.is_file() and (p.name.endswith(".table") or p.name == "report.json")
        )
        assert recorded == replayed and len(recorded) > 10
        for rel in recorded:
            assert (out_record / rel).read_bytes() == (out_replay / rel).read_bytes()


# 7. Error-ledger telescoping ------------------------------------------------


def test_criterion_7_ledger_telescoping_and_lower_bound(fixture_paths):
    with criterion(7, "ledger telescopes to final errors; reference column is a lower bound"):
        corpus, lexicons = fixture_paths
        rules = StubRuleSet.from_dir(lexicons)
        pipeline = Pipeline(Gateway(StubBackend(rules)), "stub-model")
        analyzer = ErrorAnalyzer(rules, pivot=DEFAULT_PIVOT)
        for directory in iter_instance_dirs(corpus):
            instance = load_instance(directory)
            result = pipeline.run(instance, Strategy.HIERARCHICAL)
            ledger = analyzer.stagewise_ledger(instance, {t.stage: t.output_artifact for t in result.traces})

            assert ledger[-1].cumulative == analyzer.classify(result.output, instance.gold)
            for earlier, later in zip(ledger, ledger[1:]):
                assert later.cumulative == earlier.cumulative + later.delta
            baseline = ledger[0].cumulative.missing
            assert all(e.cumulative.missing >= baseline for e in ledger)
            assert ledger[1].delta == ErrorCounts()  # lossless translation column


# 8. Round-trip invariants ---------------------------------------------------


_CHARS = "abcXYZ 0123456789'\"\\,:[]{}éüñ中\n\t-"


def _random_text(rng, max_len=12) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, max_len)))


def _random_key(rng) -> str:
    while True:
        text = _random_text(rng, 8)
        if text.strip():
            return text


def _random_kg_value(rng, depth: int):
    if depth == 0 or rng.random() < 0.5:
        return _random_text(rng)
    if rng.random() < 0.5:
        return [_random_kg_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return {_random_key(rng): _random_kg_value(rng, depth - 1) for _ in range(rng.randint(1, 3))}


def test_criterion_8_round_trip_invariants(fixture_paths):
    with criterion(8, "10000+ random parse/serialize round trips; en->X->en lexicon identity"):
        rng = random.Random(900913)
        for _ in range(6000):
            rows = tuple(
                TableRow(_random_key(rng), _random_text(rng))
                for _ in range(rng.randint(0, 6))
            )
            assert parse_table(serialize_table(rows)) == rows
        for _ in range(6000):
            kg = KnowledgeGraph(
                {_random_key(rng): _random_kg_value(rng, 3) for _ in range(rng.randint(0, 3))}
            )
            assert parse_kg(serialize_kg(kg)) == kg

        corpus, lexicons = fixture_paths
        rules = StubRuleSet.from_dir(lexicons)
        checked = 0
        for directory in iter_instance_dirs(corpus):
            instance = load_instance(directory)
            for table in (instance.reference, instance.gold):
                if table.language == "en":
                    for target in ("de", "fr", "es"):
                        there = translate_cells(table.rows, rules.lexicon("en", target))
                        back = translate_cells(there, rules.lexicon(target, "en"))
                        assert back == table.rows
                        checked += 1
                else:
                    lang = table.language
                    there = translate_cells(table.rows, rules.lexicon(lang, "en"))
                    back = translate_cells(there, rules.lexicon("en", lang))
                    assert back == table.rows
                    checked += 1
        assert checked >= 10
