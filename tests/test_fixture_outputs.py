"""Byte identity of every file `sync` writes on the fixture corpus.

`fixtures/sync_outputs.sha256` pins one sha256 per output file for each of
the five strategies (stub backend, fixture lexicons), in `sha256sum` format
with paths `<strategy>/<path under --out>`. `config.snapshot` is left out: it
records the output directory. A change that alters any output, even by a
byte, fails here and names the file.

Regenerate the manifest only for an intended output change:

    PYTHONPATH=src python tests/test_fixture_outputs.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from tablesync import cli
from tablesync.pipeline import Strategy

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = FIXTURES / "sync_outputs.sha256"
UNPINNED = {"config.snapshot"}


def sync_digests(out_root: Path) -> dict[str, str]:
    """Run `sync` for every strategy under out_root; sha256 per written file."""
    digests: dict[str, str] = {}
    for strategy in Strategy:
        out = out_root / strategy.value
        code = cli.main([
            "sync",
            "--corpus", str(FIXTURES / "corpus"),
            "--lexicons", str(FIXTURES / "lexicons"),
            "--strategy", strategy.value,
            "--out", str(out),
        ])
        assert code == cli.EXIT_OK, f"sync --strategy {strategy.value} exited {code}"
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name not in UNPINNED:
                name = f"{strategy.value}/{path.relative_to(out).as_posix()}"
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def read_manifest() -> dict[str, str]:
    entries: dict[str, str] = {}
    for line in MANIFEST.read_text("utf-8").splitlines():
        digest, _, name = line.partition("  ")
        entries[name] = digest
    return entries


def test_sync_outputs_match_manifest(tmp_path, capsys):
    expected = read_manifest()
    actual = sync_digests(tmp_path)
    capsys.readouterr()
    differing = sorted(n for n in expected.keys() & actual.keys() if expected[n] != actual[n])
    assert not differing, f"outputs differ from the manifest: {differing}"
    missing = sorted(expected.keys() - actual.keys())
    assert not missing, f"pinned outputs not written: {missing}"
    unpinned = sorted(actual.keys() - expected.keys())
    assert not unpinned, f"outputs missing from the manifest: {unpinned}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = sync_digests(Path(scratch))
    MANIFEST.write_text("".join(f"{d}  {n}\n" for n, d in sorted(digests.items())), "utf-8")
    print(f"wrote {len(digests)} entries to {MANIFEST}", file=sys.stderr)
