"""On-disk corpus: instance loading, validation, and statistics.

Layout: `<root>/<category>/<entity-slug>/` holding `manifest`,
`source.<lang>.table`, `reference.<lang>.table`, and `gold.<lang>.table`.
Table files use the list-of-pairs wire format. Every input file but a
transcript is read through `read_text`, and each line-based one through `read_entries`.
"""

from __future__ import annotations

from pathlib import Path

from .errors import (
    LanguageConstraintViolation,
    MissingFile,
    ParseError,
    TableSyncError,
)
from .tables import InfoTable, SyncInstance, TableRow, Value, parse_table

MANIFEST_NAME = "manifest"
_REQUIRED_MANIFEST_KEYS = ("entity", "category", "source_lang", "reference_lang")


class InstanceManifest(Value):
    __slots__ = (  # the manifest's text fields (a revision may be None) and the instance directory
        "entity", "category", "source_lang", "reference_lang",
        "source_revision", "reference_revision", "gold_revision", "root",
    )


class CorpusStats(Value):
    """Instance counts keyed by the (old, new) pair's language and by category."""

    __slots__ = ("tables_by_language", "tables_by_category", "instance_count")


def read_text(path: Path, what: str, error: type[Exception]) -> str:
    """The text of a UTF-8 file, one leading byte-order mark dropped; a file that
    cannot be read or decoded is error("cannot read {what} {path}: ...")."""
    try:
        return path.read_text("utf-8-sig")
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_entries(path: Path, what: str, sep: str, error: type[Exception]) -> list[tuple[str, str]]:
    """The stripped key and value of each line of read_text(path) that is
    neither blank nor a `#` comment, split at the first sep; a line without sep
    is an error naming path:line. A line is stripped before it is split, so a
    whitespace sep (a tab) has text on both sides."""
    entries = []
    for number, line in enumerate(read_text(path, what, error).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, found, value = line.partition(sep)
        if not found:
            raise error(f"{path}:{number}: malformed {what} line {line!r}, no {sep!r}")
        entries.append((key.strip(), value.strip()))
    return entries


def read_manifest(directory: str | Path) -> InstanceManifest:
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise MissingFile(f"no manifest in {directory}")
    values = dict(read_entries(path, "manifest", ":", ParseError))
    for key in _REQUIRED_MANIFEST_KEYS:
        if not values.get(key):
            raise ParseError(f"{path}: manifest misses {key!r}")
    return InstanceManifest(
        entity=values["entity"],
        category=values["category"],
        source_lang=values["source_lang"],
        reference_lang=values["reference_lang"],
        source_revision=values.get("source_revision"),
        reference_revision=values.get("reference_revision"),
        gold_revision=values.get("gold_revision"),
        root=Path(directory),
    )


def read_table(path: Path) -> tuple[TableRow, ...]:
    """The rows of a `.table` file: MissingFile when it is absent, ParseError
    naming it when it cannot be read, decoded or parsed."""
    if not path.is_file():
        raise MissingFile(f"missing table file {path}")
    text = read_text(path, "table", ParseError)
    try:
        return parse_table(text)
    except TableSyncError as exc:
        raise ParseError(f"cannot read table {path}: {exc}") from exc


def _load_table(
    manifest: InstanceManifest, role: str, lang: str, revision: str | None
) -> InfoTable:
    rows = read_table(manifest.root / f"{role}.{lang}.table")
    return InfoTable(manifest.entity, lang, manifest.category, rows, revision)


def load_instance(directory: str | Path) -> SyncInstance:
    """Validated instance from one corpus directory; every failure is typed."""
    manifest = read_manifest(directory)
    if manifest.source_lang == manifest.reference_lang:
        raise LanguageConstraintViolation(
            f"{manifest.root}: source and reference share language {manifest.source_lang!r}"
        )
    try:  # an unregistered language fails InfoTable
        source = _load_table(manifest, "source", manifest.source_lang, manifest.source_revision)
        reference = _load_table(manifest, "reference", manifest.reference_lang, manifest.reference_revision)
        gold = _load_table(manifest, "gold", manifest.source_lang, manifest.gold_revision)
    except ValueError as exc:
        raise LanguageConstraintViolation(f"{manifest.root}: {exc}") from exc
    return SyncInstance(source, reference, gold)


def iter_instance_dirs(root: str | Path) -> list[Path]:
    """Instance directories under root, sorted for traversal-order independence."""
    return sorted(path.parent for path in Path(root).rglob(MANIFEST_NAME))


def corpus_stats(root: str | Path) -> CorpusStats:
    by_language: dict[str, int] = {}
    by_category: dict[str, int] = {}
    count = 0
    for directory in iter_instance_dirs(root):
        manifest = read_manifest(directory)
        by_language[manifest.source_lang] = by_language.get(manifest.source_lang, 0) + 1
        by_category[manifest.category] = by_category.get(manifest.category, 0) + 1
        count += 1
    return CorpusStats(by_language, by_category, count)

