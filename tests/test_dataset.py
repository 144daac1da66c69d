import pytest

from tablesync.dataset import (
    corpus_stats,
    iter_instance_dirs,
    load_instance,
    read_entries,
    read_manifest,
    read_text,
)
from tablesync.errors import ConfigError, LanguageConstraintViolation, MissingFile, ParseError
from tablesync.tables import SyncInstance
from conftest import output_files


def write_fixture(tmp_path, manifest: dict, tables: dict):
    directory = tmp_path / "inst"
    directory.mkdir()
    (directory / "manifest").write_text(
        "".join(f"{k}: {v}\n" for k, v in manifest.items()), "utf-8"
    )
    for name, text in tables.items():
        (directory / name).write_text(text, "utf-8")
    return directory


GOOD_MANIFEST = {
    "entity": "Thing",
    "category": "City",
    "source_lang": "de",
    "reference_lang": "en",
}
GOOD_TABLES = {
    "source.de.table": '[["Name","Thing"]]',
    "reference.en.table": '[["Name","Thing"],["Area","1"]]',
    "gold.de.table": '[["Name","Thing"],["Fläche","1"]]',
}


class TestLoadInstance:
    def test_well_formed(self, tmp_path):
        directory = write_fixture(tmp_path, GOOD_MANIFEST, GOOD_TABLES)
        instance = load_instance(directory)
        assert isinstance(instance, SyncInstance)
        assert instance.source.language == "de"
        assert instance.gold.rows[1].key == "Fläche"

    def test_missing_manifest(self, tmp_path):
        directory = tmp_path / "empty"
        directory.mkdir()
        with pytest.raises(MissingFile):
            load_instance(directory)

    def test_missing_gold_table(self, tmp_path):
        tables = {k: v for k, v in GOOD_TABLES.items() if not k.startswith("gold")}
        directory = write_fixture(tmp_path, GOOD_MANIFEST, tables)
        with pytest.raises(MissingFile):
            load_instance(directory)

    def test_same_language_violation(self, tmp_path):
        manifest = dict(GOOD_MANIFEST, reference_lang="de")
        directory = write_fixture(tmp_path, manifest, GOOD_TABLES)
        with pytest.raises(LanguageConstraintViolation):
            load_instance(directory)

    def test_unregistered_language(self, tmp_path):
        manifest = dict(GOOD_MANIFEST, reference_lang="xx")
        tables = dict(GOOD_TABLES, **{"reference.xx.table": GOOD_TABLES["reference.en.table"]})
        directory = write_fixture(tmp_path, manifest, tables)
        with pytest.raises(LanguageConstraintViolation, match="'xx'"):
            load_instance(directory)

    def test_unparseable_table(self, tmp_path):
        tables = dict(GOOD_TABLES, **{"source.de.table": "not a table"})
        directory = write_fixture(tmp_path, GOOD_MANIFEST, tables)
        with pytest.raises(ParseError):
            load_instance(directory)

    def test_incomplete_manifest(self, tmp_path):
        manifest = {k: v for k, v in GOOD_MANIFEST.items() if k != "category"}
        directory = write_fixture(tmp_path, manifest, GOOD_TABLES)
        with pytest.raises(ParseError):
            load_instance(directory)

    def test_byte_order_mark_before_the_manifest(self, tmp_path):
        directory = write_fixture(tmp_path, GOOD_MANIFEST, GOOD_TABLES)
        expected = load_instance(directory)
        manifest = directory / "manifest"
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert load_instance(directory) == expected

    def test_manifest_line_without_colon_names_file_and_line(self, tmp_path):
        directory = write_fixture(tmp_path, GOOD_MANIFEST, GOOD_TABLES)
        with (directory / "manifest").open("a", encoding="utf-8") as handle:
            handle.write("# a comment\nno colon here\n")
        with pytest.raises(ParseError, match=r"manifest:6: malformed manifest line 'no colon here'"):
            load_instance(directory)


class TestReaders:
    def test_read_text_drops_one_byte_order_mark(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes("\ufeff\ufeffx".encode("utf-8"))
        assert read_text(path, "thing", ConfigError) == "\ufeffx"

    @pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8"], ids=["absent", "not-utf8"])
    def test_read_text_failure_is_the_given_error_naming_the_file(self, tmp_path, content):
        path = tmp_path / "f"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"cannot read thing {path}: "):
            read_text(path, "thing", ConfigError)

    def test_read_entries_skips_blanks_and_comments_and_strips(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("# head\n\n  a = 1 \n\tb=\n  # indented comment\nc = x = y\n", "utf-8")
        assert read_entries(path, "thing", "=", ConfigError) == [("a", "1"), ("b", ""), ("c", "x = y")]

    def test_read_entries_line_without_separator_names_file_and_line(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("a = 1\n\nb 2\n", "utf-8")
        with pytest.raises(ParseError, match=rf"{path}:3: malformed thing line 'b 2', no '='"):
            read_entries(path, "thing", "=", ParseError)


class TestStats:
    def test_empty_root(self, tmp_path):
        stats = corpus_stats(tmp_path)
        assert stats.instance_count == 0
        assert not stats.tables_by_language

    def test_hand_counted_fixture(self, tmp_path, mk_table, generator):
        specs = [("de", "City"), ("de", "Person"), ("fr", "City")]
        for i, (lang, category) in enumerate(specs):
            instance = SyncInstance(
                mk_table([("a", "1")], lang=lang, category=category, entity=f"e{i}"),
                mk_table([("a", "1")], lang="en", category=category, entity=f"e{i}"),
                mk_table([("a", "1")], lang=lang, category=category, entity=f"e{i}"),
            )
            generator.write_instance(tmp_path, instance)
        stats = corpus_stats(tmp_path)
        assert stats.instance_count == 3
        assert stats.tables_by_language == {"de": 2, "fr": 1}
        assert stats.tables_by_category == {"City": 2, "Person": 1}

    def test_bundled_corpus_counts(self, corpus_dir):
        stats = corpus_stats(corpus_dir)
        assert stats.instance_count >= 10
        assert len(stats.tables_by_language) >= 3

    def test_ordering_independence(self, corpus_dir):
        a = corpus_stats(corpus_dir)
        b = corpus_stats(corpus_dir)
        assert a == b


class TestWriteInstance:
    def test_round_trip(self, tmp_path, mk_table, generator):
        instance = SyncInstance(
            mk_table([("Land", "Deutschland")], lang="de", revision_tag="old-2018"),
            mk_table([("Country", "Germany")], lang="en", revision_tag="new-2023"),
            mk_table([("Land", "Deutschland")], lang="de", revision_tag="new-2023"),
        )
        directory = generator.write_instance(tmp_path, instance)
        loaded = load_instance(directory)
        assert loaded == instance
        manifest = read_manifest(directory)
        assert manifest.source_revision == "old-2018"

    def test_slug(self, generator):
        assert generator.instance_slug("Albert Einstein") == "albert-einstein"
        assert generator.instance_slug("***") == "entity"

    def test_generator_reproduces_the_fixtures(self, tmp_path, generator, corpus_dir, lexicon_dir):
        generator.main([str(tmp_path)])
        assert output_files(tmp_path / "corpus") == output_files(corpus_dir)
        assert output_files(tmp_path / "lexicons") == output_files(lexicon_dir)

    def test_iter_dirs_sorted(self, corpus_dir):
        dirs = iter_instance_dirs(corpus_dir)
        assert dirs == sorted(dirs)
