"""Deterministic synthetic corpora for the benchmark.

`generate(root, seed, params)` writes `<root>/corpus` in the instance layout
(a manifest plus source, reference and gold tables in the list-of-pairs wire
format) and `<root>/lexicons` (`<src>-<tgt>.tsv` phrase pairs for the six
directions between English and de/fr/es). Every byte is written by this
module's own code; nothing here imports `tablesync`, so a parent commit and a
change under test receive byte-identical inputs for the same seed.

The seed chooses only spellings. Instance count, row counts, row roles,
language pairs and lexicon gaps depend on the parameters and the instance
index alone, so the work a run does and the report it should produce are the
same for every seed.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

PIVOT = "en"
LANGS = ("de", "fr", "es")
# (source, reference) per instance index; all six lexicon directions are used.
LANG_PAIRS = (("de", "fr"), ("fr", "es"), ("es", "de"))
CATEGORIES = ("City", "Person", "Company", "Album", "Athlete", "Country", "Stadium", "College")
# Role of row j >= 1 is ROLE_CYCLE[(j - 1) % 5]; row 0 holds the entity name.
#   same     value unchanged between source and current
#   updated  source holds an older number
#   phrase   unchanged value that is itself a translated phrase
#   added    row missing from the source, present in reference and gold
ROLE_CYCLE = ("same", "updated", "phrase", "added", "same")
# Lexicon gaps by instance index (i % 4): 1 drops the reference-to-pivot entry
# of an added row's key, 3 drops the pivot-to-source entry of an updated row's
# key. Each gap leaves one gold row unmatched by the stub's output.
GAP_REFERENCE = "reference-to-pivot"
GAP_BACK = "pivot-to-source"

_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")


@dataclass(frozen=True)
class CorpusParams:
    n: int
    rows: tuple[int, int]  # current rows per table, lowest and highest
    lexicon: int  # entries per lexicon direction; filler pads up to it
    neutral_share: float  # share of keys spelled alike in every language

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "rows": list(self.rows),
            "lexicon": self.lexicon,
            "neutral_share": self.neutral_share,
        }


@dataclass(frozen=True)
class Instance:
    rel: str  # directory relative to the corpus root
    entity: str
    source_lang: str
    reference_lang: str
    gap: str | None


@dataclass(frozen=True)
class Corpus:
    corpus_dir: Path
    lexicon_dir: Path
    instances: tuple[Instance, ...]
    digest: str


class _Words:
    """Unique capitalized pseudo-words; no word is ever used twice, so distinct
    phrases share no token and the key matcher cannot confuse them."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        while True:
            word = "".join(self.rng.choice(_SYLLABLES) for _ in range(3)).capitalize()
            if word not in self.used:
                self.used.add(word)
                return word

    def phrase(self, words: int) -> str:
        return " ".join(self.word() for _ in range(words))

    def number(self) -> str:
        return str(self.rng.randrange(1000, 1000000))

    def concept(self, words: int = 2) -> dict[str, str]:
        """One meaning spelled differently in the pivot and in every language."""
        return {lang: self.phrase(words) for lang in (PIVOT, *LANGS)}


def _neutral(j: int, share: float) -> bool:
    # Spreads neutral keys evenly over the rows, independent of the seed.
    return int((j + 1) * share) > int(j * share)


def _rows_for(index: int, rows: tuple[int, int]) -> int:
    low, high = rows
    return low + (index * 7) % (high - low + 1)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("'", "\\'")


def wire_table(rows: list[tuple[str, str]]) -> str:
    """List-of-pairs wire format, one row per line, newline-terminated."""
    if not rows:
        return "[]\n"
    lines = ",\n".join(f'    ["{_escape(k)}","{_escape(v)}"]' for k, v in rows)
    return f"[\n{lines}\n]\n"


def _slug(text: str) -> str:
    slug = "".join(ch if ch.isalnum() else "-" for ch in text.lower())
    return "-".join(part for part in slug.split("-") if part)


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _write_instance(
    corpus_dir: Path,
    index: int,
    words: _Words,
    params: CorpusParams,
    lexicon: dict[tuple[str, str], dict[str, str]],
) -> Instance:
    src, ref = LANG_PAIRS[index % len(LANG_PAIRS)]
    category = CATEGORIES[index % len(CATEGORIES)]
    entity = words.phrase(2)
    gap = {1: GAP_REFERENCE, 3: GAP_BACK}.get(index % 4)
    count = _rows_for(index, params.rows)

    roles = ["same"] + [ROLE_CYCLE[(j - 1) % len(ROLE_CYCLE)] for j in range(1, count)]
    neutral = [_neutral(j, params.neutral_share) for j in range(count)]
    gap_role = {GAP_REFERENCE: "added", GAP_BACK: "updated"}.get(gap)
    gap_row = None
    if gap_role is not None:
        candidates = [j for j in range(count) if roles[j] == gap_role]
        if not candidates:
            raise ValueError(f"instance {index} has no {gap_role} row for its lexicon gap")
        gap_row = next((j for j in candidates if not neutral[j]), candidates[0])
        neutral[gap_row] = False

    current: list[tuple[dict[str, str], dict[str, str]]] = []  # (key, value) by language
    source: list[tuple[dict[str, str], dict[str, str]]] = []
    translated: list[dict[str, str]] = []
    for j, role in enumerate(roles):
        if neutral[j]:
            text = words.phrase(2)
            key = dict.fromkeys((PIVOT, *LANGS), text)
        else:
            key = words.concept()
            translated.append(key)
        if j == 0:
            new = old = dict.fromkeys((PIVOT, *LANGS), entity)
        elif role == "phrase" and not neutral[j]:
            new = old = words.concept()
            translated.append(new)
        elif role == "phrase":
            new = old = dict.fromkeys((PIVOT, *LANGS), words.phrase(2))
        else:
            new = old = dict.fromkeys((PIVOT, *LANGS), words.number())
            while role == "updated" and old == new:
                old = dict.fromkeys((PIVOT, *LANGS), words.number())
        current.append((key, new))
        if role != "added":
            source.append((key, old))
    stale = words.concept()
    translated.append(stale)
    source.append((stale, dict.fromkeys((PIVOT, *LANGS), words.number())))

    for concept in translated:
        for lang in LANGS:
            lexicon[(PIVOT, lang)][concept[PIVOT]] = concept[lang]
            lexicon[(lang, PIVOT)][concept[lang]] = concept[PIVOT]
    if gap == GAP_REFERENCE:
        del lexicon[(ref, PIVOT)][current[gap_row][0][ref]]
    elif gap == GAP_BACK:
        del lexicon[(PIVOT, src)][current[gap_row][0][PIVOT]]

    rel = f"{category}/{index:03d}-{_slug(entity)}"
    directory = corpus_dir / rel
    directory.mkdir(parents=True)
    tables = (
        ("source", src, "old-2018", source),
        ("reference", ref, "new-2023", current),
        ("gold", src, "new-2023", current),
    )
    manifest = [
        f"entity: {entity}",
        f"category: {category}",
        f"source_lang: {src}",
        f"reference_lang: {ref}",
    ]
    for role, lang, revision, rows in tables:
        manifest.append(f"{role}_revision: {revision}")
        text = wire_table([(key[lang], value[lang]) for key, value in rows])
        (directory / f"{role}.{lang}.table").write_text(text, "utf-8")
    (directory / "manifest").write_text("\n".join(manifest) + "\n", "utf-8")
    return Instance(rel, entity, src, ref, gap)


def generate(root: str | Path, seed: int, params: CorpusParams) -> Corpus:
    """Write a corpus and its lexicons under root (replacing both) and return
    their description with the sha256 of the whole tree."""
    root = Path(root)
    corpus_dir = root / "corpus"
    lexicon_dir = root / "lexicons"
    for directory in (corpus_dir, lexicon_dir):
        if directory.exists():
            shutil.rmtree(directory)
    corpus_dir.mkdir(parents=True)
    lexicon_dir.mkdir(parents=True)

    words = _Words(random.Random(seed))
    lexicon: dict[tuple[str, str], dict[str, str]] = {}
    for lang in LANGS:
        lexicon[(PIVOT, lang)] = {}
        lexicon[(lang, PIVOT)] = {}
    instances = tuple(
        _write_instance(corpus_dir, i, words, params, lexicon) for i in range(params.n)
    )

    for lang in LANGS:
        filler = params.lexicon - max(len(lexicon[(PIVOT, lang)]), len(lexicon[(lang, PIVOT)]))
        for k in range(max(0, filler)):
            pivot_text = words.phrase(1 + k % 3)
            lang_text = words.phrase(1 + (k + 1) % 3)
            lexicon[(PIVOT, lang)][pivot_text] = lang_text
            lexicon[(lang, PIVOT)][lang_text] = pivot_text
    for (src, tgt), entries in sorted(lexicon.items()):
        ordered = sorted(entries.items(), key=lambda e: (-len(e[0]), e[0]))
        text = "".join(f"{a}\t{b}\n" for a, b in ordered)
        (lexicon_dir / f"{src}-{tgt}.tsv").write_text(text, "utf-8")

    return Corpus(corpus_dir, lexicon_dir, instances, tree_digest(root))
