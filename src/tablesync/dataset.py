"""On-disk corpus: instance loading, validation, and statistics.

Layout: `<root>/<category>/<entity-slug>/` holding `manifest`,
`source.<lang>.table`, `reference.<lang>.table`, and `gold.<lang>.table`.
Table files use the list-of-pairs wire format.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import (
    LanguageConstraintViolation,
    MissingFile,
    ParseError,
    TableSyncError,
)
from .tables import InfoTable, SyncInstance, parse_table, serialize_table

MANIFEST_NAME = "manifest"
_REQUIRED_MANIFEST_KEYS = ("entity", "category", "source_lang", "reference_lang")


@dataclass(frozen=True)
class InstanceManifest:
    entity: str
    category: str
    source_lang: str
    reference_lang: str
    source_revision: str | None
    reference_revision: str | None
    gold_revision: str | None
    root: Path


@dataclass(frozen=True)
class CorpusStats:
    """Instance counts keyed by the (old, new) pair's language and by category."""

    tables_by_language: dict[str, int]
    tables_by_category: dict[str, int]
    instance_count: int


def read_manifest(directory: str | Path) -> InstanceManifest:
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise MissingFile(f"no manifest in {directory}")
    try:
        text = path.read_text("utf-8")
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"{path}: malformed manifest line {line!r}")
        values[key.strip()] = value.strip()
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


def _load_table(
    manifest: InstanceManifest, role: str, lang: str, revision: str | None
) -> InfoTable:
    path = manifest.root / f"{role}.{lang}.table"
    if not path.is_file():
        raise MissingFile(f"missing {path.name} in {manifest.root}")
    try:
        rows = parse_table(path.read_text("utf-8"))
        return InfoTable(manifest.entity, lang, manifest.category, rows, revision)
    except (TableSyncError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_instance(directory: str | Path) -> SyncInstance:
    """Validated instance from one corpus directory; every failure is typed."""
    manifest = read_manifest(directory)
    if manifest.source_lang == manifest.reference_lang:
        raise LanguageConstraintViolation(
            f"{manifest.root}: source and reference share language {manifest.source_lang!r}"
        )
    source = _load_table(manifest, "source", manifest.source_lang, manifest.source_revision)
    reference = _load_table(manifest, "reference", manifest.reference_lang, manifest.reference_revision)
    gold = _load_table(manifest, "gold", manifest.source_lang, manifest.gold_revision)
    try:
        return SyncInstance(source, reference, gold)
    except ValueError as exc:
        raise LanguageConstraintViolation(f"{manifest.root}: {exc}") from exc


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


def instance_slug(entity: str) -> str:
    slug = "".join(ch if ch.isalnum() else "-" for ch in entity.lower())
    return "-".join(part for part in slug.split("-") if part) or "entity"


def write_instance(root: str | Path, instance: SyncInstance) -> Path:
    """Materialize an instance in the corpus layout; returns its directory."""
    directory = Path(root) / instance.source.category / instance_slug(instance.source.entity)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"entity: {instance.source.entity}",
        f"category: {instance.source.category}",
        f"source_lang: {instance.source.language}",
        f"reference_lang: {instance.reference.language}",
    ]
    for role, table in (
        ("source", instance.source),
        ("reference", instance.reference),
        ("gold", instance.gold),
    ):
        if table.revision_tag:
            lines.append(f"{role}_revision: {table.revision_tag}")
        path = directory / f"{role}.{table.language}.table"
        path.write_text(serialize_table(table) + "\n", "utf-8")
    (directory / MANIFEST_NAME).write_text("\n".join(lines) + "\n", "utf-8")
    return directory
