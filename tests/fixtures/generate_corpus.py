"""Regenerate the bundled bilingual fixture corpus and its stub lexicons.

Each instance is derived from canonical English rows plus per-language phrase
maps; source/reference/gold tables and the lexicon files all come from the
same mapping, so stub translation provably round-trips and the reference
covers every gold row. This module also owns the corpus writer
(`write_instance`). Run from the repository root:

    python3 tests/fixtures/generate_corpus.py [ROOT]

It writes ROOT/corpus and ROOT/lexicons, ROOT being this file's directory by
default; an existing ROOT/corpus is replaced.
"""

from __future__ import annotations

import argparse
import shutil
from pathlib import Path

from tablesync.dataset import MANIFEST_NAME
from tablesync.stub import translate_cells
from tablesync.tables import InfoTable, SyncInstance, TableRow, serialize_table

HERE = Path(__file__).parent

# English canon -> per-language phrases. Identity translations are omitted
# from the lexicon files (untranslated phrases pass through the stub).
KEYS = {
    "Name": {"de": "Name", "fr": "Nom", "es": "Nombre"},
    "Country": {"de": "Land", "fr": "Pays", "es": "País"},
    "Population": {"de": "Einwohner", "fr": "Population", "es": "Población"},
    "Mayor": {"de": "Bürgermeister", "fr": "Maire", "es": "Alcalde"},
    "Area": {"de": "Fläche", "fr": "Superficie", "es": "Superficie"},
    "Founded": {"de": "Gegründet", "fr": "Fondée", "es": "Fundación"},
    "Date of birth": {"de": "Geburtsdatum", "fr": "Date de naissance", "es": "Fecha de nacimiento"},
    "Occupation": {"de": "Beruf", "fr": "Profession", "es": "Ocupación"},
    "Nationality": {"de": "Staatsangehörigkeit", "fr": "Nationalité", "es": "Nacionalidad"},
    "Capital": {"de": "Hauptstadt", "fr": "Capitale", "es": "Capital"},
    "Currency": {"de": "Währung", "fr": "Monnaie", "es": "Moneda"},
    "Industry": {"de": "Branche", "fr": "Secteur", "es": "Sector"},
    "Employees": {"de": "Mitarbeiter", "fr": "Effectifs", "es": "Empleados"},
    "Headquarters": {"de": "Hauptsitz", "fr": "Siège", "es": "Sede"},
    "Genre": {"de": "Genre", "fr": "Genre", "es": "Género"},
    "Label": {"de": "Label", "fr": "Label", "es": "Discográfica"},
    "Release date": {"de": "Veröffentlichung", "fr": "Date de sortie", "es": "Fecha de lanzamiento"},
    "Producer": {"de": "Produzent", "fr": "Producteur", "es": "Productor"},
    "Team": {"de": "Verein", "fr": "Équipe", "es": "Equipo"},
    "Position": {"de": "Position", "fr": "Poste", "es": "Posición"},
    "Height": {"de": "Größe", "fr": "Taille", "es": "Estatura"},
    "Capacity": {"de": "Kapazität", "fr": "Capacité", "es": "Capacidad"},
    "Opened": {"de": "Eröffnet", "fr": "Ouverture", "es": "Inauguración"},
    "City": {"de": "Stadt", "fr": "Ville", "es": "Ciudad"},
    "Students": {"de": "Studierende", "fr": "Étudiants", "es": "Estudiantes"},
    "President": {"de": "Präsident", "fr": "Président", "es": "Presidente"},
}

VALUES = {
    "Germany": {"de": "Deutschland", "fr": "Allemagne", "es": "Alemania"},
    "France": {"de": "Frankreich", "fr": "France", "es": "Francia"},
    "Spain": {"de": "Spanien", "fr": "Espagne", "es": "España"},
    "United States": {"de": "Vereinigte Staaten", "fr": "États-Unis", "es": "Estados Unidos"},
    "Physicist": {"de": "Physiker", "fr": "Physicien", "es": "Físico"},
    "Theoretical Physicist": {
        "de": "Theoretischer Physiker",
        "fr": "Physicien théoricien",
        "es": "Físico teórico",
    },
    "Singer": {"de": "Sängerin", "fr": "Chanteuse", "es": "Cantante"},
    "Forward": {"de": "Stürmer", "fr": "Attaquant", "es": "Delantero"},
}

PHRASES = {**KEYS, **VALUES}


# Rows: (english key, current value, source value). Source value None drops the
# row from the source table; values are English canon and get translated.
INSTANCES = [
    {
        "entity": "Musterstadt",
        "category": "City",
        "langs": ("de", "en"),
        "rows": [
            ("Name", "Musterstadt", "Musterstadt"),
            ("Country", "Germany", "Germany"),
            ("Population", "230000", "210000"),
            ("Mayor", "Eva Neu", "Hans Alt"),
            ("Area", "140 km2", None),
            ("Founded", "1180", None),
        ],
    },
    {
        "entity": "Albert Einstein",
        "category": "Person",
        "langs": ("de", "en"),
        "rows": [
            ("Name", "Albert Einstein", "Albert Einstein"),
            ("Date of birth", "14 March 1879", "14 March 1879"),
            ("Occupation", "Theoretical Physicist", "Physicist"),
            ("Country", "Germany", "Germany"),
            ("Nationality", "Germany, United States", None),
        ],
    },
    {
        "entity": "Acme Corp",
        "category": "Company",
        "langs": ("de", "en"),
        "rows": [
            ("Name", "Acme Corp", "Acme Corp"),
            ("Industry", "Robotics", "Robotics"),
            ("Employees", "1800", "1200"),
            ("Headquarters", "Musterstadt", "Musterstadt"),
            ("Founded", "1969", None),
        ],
        # Redundant source-only row; absent from gold by design.
        "source_extra": [("Notizen", "alte Angaben")],
    },
    {
        "entity": "Marie Curie",
        "category": "Person",
        "langs": ("fr", "en"),
        "rows": [
            ("Name", "Marie Curie", "Marie Curie"),
            ("Date of birth", "7 November 1867", "7 November 1867"),
            ("Occupation", "Physicist", "Physicist"),
            ("Nationality", "France", None),
            ("Country", "France", "France"),
        ],
    },
    {
        "entity": "Villeneuve",
        "category": "City",
        "langs": ("fr", "en"),
        "rows": [
            ("Name", "Villeneuve", "Villeneuve"),
            ("Country", "France", "France"),
            ("Population", "86400", "81200"),
            ("Mayor", "Jeanne d'Arcourt", "Paul Vieux"),
            ("Area", "62 km2", None),
            ("Founded", "1254", None),
        ],
    },
    {
        "entity": "Nuit Etoilee",
        "category": "Album",
        "langs": ("fr", "en"),
        "rows": [
            ("Name", "Nuit Étoilée", "Nuit Étoilée"),
            ("Genre", "Pop", "Pop"),
            ("Label", "Disques Bleu", "Disques Rouge"),
            ("Release date", "12 May 2022", "12 May 2022"),
            ("Producer", "Luc Marchand", None),
        ],
    },
    {
        "entity": "Atlantida",
        "category": "Country",
        "langs": ("es", "en"),
        "rows": [
            ("Name", "Atlantida", "Atlantida"),
            ("Capital", "Puerto Real", "Puerto Real"),
            ("Population", "5400000", "5100000"),
            ("Currency", "Peso", "Peso"),
            ("President", "Ana Torres", None),
        ],
    },
    {
        "entity": "Luis García",
        "category": "Athlete",
        "langs": ("es", "en"),
        "rows": [
            ("Name", "Luis García", "Luis García"),
            ("Team", "Atlético Nuevo", "Real Viejo"),
            ("Position", "Forward", "Forward"),
            ("Height", "1.84 m", "1.84 m"),
            ("Date of birth", "3 June 1995", None),
        ],
    },
    {
        "entity": "Estadio Central",
        "category": "Stadium",
        "langs": ("es", "fr"),
        "rows": [
            ("Name", "Estadio Central", "Estadio Central"),
            ("Capacity", "45000", "40000"),
            ("Opened", "1965", "1965"),
            ("Country", "Spain", "Spain"),
            ("City", "Puerto Real", None),
        ],
    },
    {
        "entity": "Colegio Mayor",
        "category": "College",
        "langs": ("es", "fr"),
        "rows": [
            ("Name", "Colegio Mayor", "Colegio Mayor"),
            ("Founded", "1912", "1912"),
            ("Students", "6200", "5000"),
            ("President", "Ana Torres", "Carlos Ruiz"),
            ("Country", "Spain", None),
        ],
    },
]


def lexicon_pairs(lang: str) -> tuple[tuple[str, str], ...]:
    """en -> lang phrase pairs, identities dropped, longest source first."""
    pairs = [(en, forms[lang]) for en, forms in PHRASES.items() if forms[lang] != en]
    return tuple(sorted(pairs, key=lambda p: (-len(p[0]), p[0])))


def to_lang(rows: list[TableRow], lang: str) -> tuple[TableRow, ...]:
    if lang == "en":
        return tuple(rows)
    return translate_cells(rows, lexicon_pairs(lang))


def build_instance(spec: dict) -> SyncInstance:
    src_lang, ref_lang = spec["langs"]
    current = [TableRow(key, value) for key, value, _ in spec["rows"]]
    old = [TableRow(key, source) for key, _, source in spec["rows"] if source is not None]
    source_rows = list(to_lang(old, src_lang)) + [
        TableRow(k, v) for k, v in spec.get("source_extra", ())
    ]
    source = InfoTable(spec["entity"], src_lang, spec["category"], tuple(source_rows), "old-2018")
    reference = InfoTable(spec["entity"], ref_lang, spec["category"], to_lang(current, ref_lang), "new-2023")
    gold = InfoTable(spec["entity"], src_lang, spec["category"], to_lang(current, src_lang), "new-2023")
    return SyncInstance(source, reference, gold)


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


def write_lexicons(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for lang in ("de", "fr", "es"):
        forward = lexicon_pairs(lang)
        (directory / f"en-{lang}.tsv").write_text(
            "".join(f"{a}\t{b}\n" for a, b in forward), "utf-8"
        )
        (directory / f"{lang}-en.tsv").write_text(
            "".join(f"{b}\t{a}\n" for a, b in forward), "utf-8"
        )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate the fixture corpus and its lexicons.")
    parser.add_argument("root", nargs="?", type=Path, default=HERE, help="output root (default: %(default)s)")
    root = parser.parse_args(argv).root
    corpus, lexicons = root / "corpus", root / "lexicons"
    if corpus.exists():
        shutil.rmtree(corpus)
    for spec in INSTANCES:
        directory = write_instance(corpus, build_instance(spec))
        print(f"wrote {directory}")
    write_lexicons(lexicons)
    print(f"wrote lexicons to {lexicons}")


if __name__ == "__main__":
    main()
