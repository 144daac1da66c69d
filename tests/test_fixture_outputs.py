"""Byte identity of every file `sync` and `errors` write on the fixture corpus.

`fixtures/sync_outputs.sha256` pins one sha256 per output file for each of
the five strategies (stub backend, fixture lexicons), in `sha256sum` format
with paths `<strategy>/<path under --out>`. `config.snapshot` is left out: it
records the output directory. `fixtures/ledger_outputs.sha256` pins the
`errors --out` ledger JSON of every instance, read from its hierarchical
`traces.json`, with paths `<category>/<instance>/ledger.json`. A change that
alters any output, even by a byte, fails here and names the file.

Regenerate both manifests only for an intended output change:

    PYTHONPATH=src python tests/test_fixture_outputs.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from tablesync import cli
from tablesync.pipeline import Strategy

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = FIXTURES / "sync_outputs.sha256"
LEDGER_MANIFEST = FIXTURES / "ledger_outputs.sha256"
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


def ledger_digests(out_root: Path) -> dict[str, str]:
    """Run `errors --out` on every instance's hierarchical traces under
    out_root (written by `sync_digests`); sha256 per ledger file."""
    digests: dict[str, str] = {}
    hierarchical = out_root / Strategy.HIERARCHICAL.value
    for traces in sorted(hierarchical.rglob("traces.json")):
        instance = traces.parent.relative_to(hierarchical)
        ledger = out_root / "ledgers" / instance / "ledger.json"
        code = cli.main([
            "errors",
            "--instance-dir", str(FIXTURES / "corpus" / instance),
            "--traces", str(traces),
            "--lexicons", str(FIXTURES / "lexicons"),
            "--out", str(ledger),
        ])
        assert code == cli.EXIT_OK, f"errors on {instance.as_posix()} exited {code}"
        digests[f"{instance.as_posix()}/ledger.json"] = hashlib.sha256(ledger.read_bytes()).hexdigest()
    return digests


def read_manifest(path: Path = MANIFEST) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line in path.read_text("utf-8").splitlines():
        digest, _, name = line.partition("  ")
        entries[name] = digest
    return entries


def write_manifest(path: Path, digests: dict[str, str]) -> None:
    path.write_text("".join(f"{d}  {n}\n" for n, d in sorted(digests.items())), "utf-8")
    print(f"wrote {len(digests)} entries to {path}", file=sys.stderr)


def assert_matches(expected: dict[str, str], actual: dict[str, str]) -> None:
    differing = sorted(n for n in expected.keys() & actual.keys() if expected[n] != actual[n])
    assert not differing, f"outputs differ from the manifest: {differing}"
    missing = sorted(expected.keys() - actual.keys())
    assert not missing, f"pinned outputs not written: {missing}"
    unpinned = sorted(actual.keys() - expected.keys())
    assert not unpinned, f"outputs missing from the manifest: {unpinned}"


@pytest.fixture(scope="module")
def sync_run(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """One `sync` sweep shared by both manifests: its root and its digests."""
    out_root = tmp_path_factory.mktemp("sync")
    return out_root, sync_digests(out_root)


def test_sync_outputs_match_manifest(sync_run):
    assert_matches(read_manifest(), sync_run[1])


def test_ledger_outputs_match_manifest(sync_run):
    assert_matches(read_manifest(LEDGER_MANIFEST), ledger_digests(sync_run[0]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = sync_digests(Path(scratch))
        ledgers = ledger_digests(Path(scratch))
    write_manifest(MANIFEST, digests)
    write_manifest(LEDGER_MANIFEST, ledgers)
