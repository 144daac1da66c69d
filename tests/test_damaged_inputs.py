"""Damaged input files: whatever the damage to a file the CLI reads, the
command ends with exit 0, 1 or 2, and no exception escapes `cli.main`.

Each case is drawn from a fixed seed: a file of a copy of the fixture corpus
(or of a file a run made from it), then a damage to its bytes. The command
that reads the file runs in-process on the damaged copy.
"""

import random
import shutil
from pathlib import Path

import pytest

from tablesync import cli
from conftest import quiet_cli

SEED = 31
DAMAGES_PER_FILE = 3
INSTANCE = Path("corpus") / "City" / "musterstadt"
SYNC = ("sync", "--corpus", "{root}/corpus", "--lexicons", "{root}/lexicons", "--out", "{root}/o",
        "--instance", "musterstadt")
ERRORS = ("errors", "--instance-dir", f"{{root}}/{INSTANCE}", "--traces", "{root}/run/City/musterstadt/traces.json",
          "--lexicons", "{root}/lexicons")
ALIGN = ("align", "--left", f"{{root}}/{INSTANCE}/source.de.table", "--right", f"{{root}}/{INSTANCE}/gold.de.table",
         "--language", "de", "--gold-alignment", "{root}/gold-alignment.json")
REPLAY = ("sync", "--corpus", "{root}/corpus", "--out", "{root}/o", "--instance", "musterstadt",
          "--backend", "replay", "--transcripts", "{root}/t.jsonl")
EVAL = ("eval", "--outputs", "{root}/run", "--corpus", "{root}/corpus", "--lexicons", "{root}/lexicons",
        "--out", "{root}/o", "--instance", "musterstadt")

# Each file the CLI reads, relative to the case's root, and the commands that read it.
TARGETS = {
    "manifest": (str(INSTANCE / "manifest"), [SYNC, ("stats", "--corpus", "{root}/corpus")]),
    "source-table": (str(INSTANCE / "source.de.table"), [SYNC]),
    "reference-table": (str(INSTANCE / "reference.en.table"), [SYNC]),
    "gold-table": (str(INSTANCE / "gold.de.table"), [SYNC, EVAL]),
    "lexicon": ("lexicons/de-en.tsv", [SYNC]),
    "config": ("run.conf", [(*SYNC, "--config", "{root}/run.conf")]),
    "traces": ("run/City/musterstadt/traces.json", [ERRORS]),
    "gold-alignment": ("gold-alignment.json", [ALIGN]),
    "transcript": ("t.jsonl", [REPLAY, ("transcripts", "{root}/t.jsonl")]),
    "output-table": ("run/City/musterstadt/output.de.table", [EVAL]),
}
DAMAGES = (
    "truncate", "surrogate-escape", "flip-byte", "invalid-utf8", "brackets", "drop-separators", "byte-order-mark",
)


def damage(kind: str, data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data) + 1)
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "surrogate-escape":  # json reads it as a lone surrogate
        return data[:at] + b"\\ud800" + data[at:]
    if kind == "flip-byte":
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
    if kind == "invalid-utf8":
        return data[:at] + b"\xff" + data[at:]
    if kind == "brackets":
        return data[:at] + b"[" * 3000 + data[at:]
    if kind == "drop-separators":  # every quote, colon, `=` or tab, whichever the file holds
        present = [sep for sep in (b'"', b":", b"=", b"\t") if sep in data]
        return data.replace(rng.choice(present), b"") if present else data
    return b"\xef\xbb\xbf" + data


def draw_cases() -> list:
    rng = random.Random(SEED)
    return [
        pytest.param(target, kind, rng.getrandbits(32), id=f"{target}-{kind}")
        for target in TARGETS
        for kind in rng.sample(DAMAGES, DAMAGES_PER_FILE)
    ]


@pytest.fixture(scope="module")
def undamaged(tmp_path_factory, corpus_dir, lexicon_dir) -> Path:
    """The fixture corpus and lexicons, a config file, and what a recorded run
    and `align` made from them: every file a case may damage."""
    root = tmp_path_factory.mktemp("undamaged")
    shutil.copytree(corpus_dir, root / "corpus")
    shutil.copytree(lexicon_dir, root / "lexicons")
    (root / "run.conf").write_text("# shared settings\nstrategy = hierarchical\nconcurrency = 2\n", "utf-8")
    assert quiet_cli(
        "sync", "--corpus", f"{root}/corpus", "--lexicons", f"{root}/lexicons", "--out", f"{root}/run",
        "--instance", "musterstadt", "--record", "--transcripts", f"{root}/t.jsonl",
    ) == cli.EXIT_OK
    assert quiet_cli(
        "align", "--left", f"{root}/{INSTANCE}/source.de.table", "--right", f"{root}/{INSTANCE}/gold.de.table",
        "--language", "de", "--out", f"{root}/gold-alignment.json",
    ) == cli.EXIT_OK
    return root


@pytest.mark.parametrize("target, kind, seed", draw_cases())
def test_damaged_input_file_exits_with_a_contract_code(undamaged, tmp_path, target, kind, seed):
    root = tmp_path / "case"
    shutil.copytree(undamaged, root)
    path, commands = TARGETS[target]
    file = root / path
    file.write_bytes(damage(kind, file.read_bytes(), random.Random(seed)))
    for command in commands:
        shutil.rmtree(root / "o", ignore_errors=True)
        code = quiet_cli(*(part.format(root=root) for part in command))
        assert code in (cli.EXIT_OK, cli.EXIT_PARTIAL, cli.EXIT_CONFIG), command
        if kind == "byte-order-mark":  # a leading mark changes nothing a file says
            assert code == cli.EXIT_OK, command
