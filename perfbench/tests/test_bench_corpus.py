"""Determinism and shape of the benchmark's synthetic corpus generator."""

from __future__ import annotations

from pathlib import Path

from perfbench import corpus as gen
from tablesync.dataset import iter_instance_dirs, load_instance
from tablesync.stub import StubRuleSet

PARAMS = gen.CorpusParams(n=4, rows=(6, 9), lexicon=40, neutral_share=0.5)
# Pins the generated bytes, so a parent commit and a change (and any Python
# version) receive identical inputs for a seed.
PINNED_SEED0 = "ce7809038774a6316d85b452f0089c4ed87a6b057fffada49aa242da3f9b33ff"


def shape(corpus: gen.Corpus) -> list[tuple]:
    rows = []
    for inst in corpus.instances:
        loaded = load_instance(corpus.corpus_dir / inst.rel)
        rows.append(
            (
                inst.rel.split("/")[0],
                inst.source_lang,
                inst.reference_lang,
                inst.gap,
                len(loaded.source.rows),
                len(loaded.reference.rows),
                len(loaded.gold.rows),
            )
        )
    return rows


def test_same_seed_gives_identical_bytes(tmp_path: Path):
    a = gen.generate(tmp_path / "a", 7, PARAMS)
    b = gen.generate(tmp_path / "b", 7, PARAMS)
    assert a.digest == b.digest == gen.tree_digest(tmp_path / "a")
    assert a.instances == b.instances


def test_pinned_digest(tmp_path: Path):
    assert gen.generate(tmp_path, 0, PARAMS).digest == PINNED_SEED0


def test_seed_changes_spellings_not_shape(tmp_path: Path):
    a = gen.generate(tmp_path / "a", 1, PARAMS)
    b = gen.generate(tmp_path / "b", 2, PARAMS)
    assert a.digest != b.digest
    assert shape(a) == shape(b)


def test_corpus_loads_and_lexicon_gaps_are_real(tmp_path: Path):
    corpus = gen.generate(tmp_path, 3, PARAMS)
    listed = sorted(d.relative_to(corpus.corpus_dir).as_posix() for d in iter_instance_dirs(corpus.corpus_dir))
    assert listed == sorted(inst.rel for inst in corpus.instances)
    rules = StubRuleSet.from_dir(corpus.lexicon_dir)
    assert len(rules.lexicons) == 6
    assert all(len(entries) >= PARAMS.lexicon - 1 for entries in rules.lexicons.values())
    assert {inst.gap for inst in corpus.instances} == {None, gen.GAP_REFERENCE, gen.GAP_BACK}
    for inst in corpus.instances:
        if inst.gap != gen.GAP_REFERENCE:
            continue
        loaded = load_instance(corpus.corpus_dir / inst.rel)
        known = {src for src, _ in rules.lexicon(inst.reference_lang, gen.PIVOT)}
        gold_keys = {row.key for row in loaded.gold.rows}
        stuck = [row.key for row in loaded.reference.rows if row.key not in known | gold_keys]
        assert len(stuck) == 1
