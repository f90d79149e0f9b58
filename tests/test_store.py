"""Corpus discovery, loading and the derived index file."""

import os
import re
import shutil
import stat
import weakref
from pathlib import Path

import pytest

from nihdl import dsl, store
from nihdl.store import (
    StoreError,
    build_index,
    load_all,
    open_corpus,
    write_index,
)

from conftest import CORPUS_DIR, GAP_FILE, SYNTHETIC_DIR


class TestOpenCorpus:
    def test_fixture_corpus_sorted(self):
        corpus = open_corpus(CORPUS_DIR)
        names = [p.name for p in corpus.description_files]
        assert names == ["dhcp_options.nihd", "gap_channel.nihd"]
        assert corpus.catalog_file.name == "catalog.nihc"

    def test_empty_directory(self, tmp_path):
        corpus = open_corpus(tmp_path)
        assert corpus.description_files == ()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError,
                           match=f"^not a corpus directory: {re.escape(str(tmp_path))}/nope$"):
            open_corpus(tmp_path / "nope")

    def test_name_too_long_is_a_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="File name too long$"):
            open_corpus(tmp_path / ("a" * 300))

    def test_descriptions_that_is_not_a_directory_is_a_store_error(self, tmp_path):
        (tmp_path / "descriptions").write_text("")
        with pytest.raises(StoreError,
                           match=f"^not a directory: {re.escape(str(tmp_path))}/descriptions$"):
            open_corpus(tmp_path)

    def test_non_nihd_files_ignored(self, tmp_path):
        (tmp_path / "descriptions").mkdir()
        (tmp_path / "descriptions" / "readme.txt").write_text("hi")
        (tmp_path / "descriptions" / "a.nihd").write_text("")
        corpus = open_corpus(tmp_path)
        assert [p.name for p in corpus.description_files] == ["a.nihd"]


class TestLoadAll:
    def test_fixture_corpus(self):
        documents, diags = load_all(open_corpus(CORPUS_DIR))
        assert len(documents) == 2
        assert diags == []

    def test_empty_corpus(self, tmp_path):
        assert load_all(open_corpus(tmp_path)) == ([], [])

    def test_malformed_file_does_not_abort(self, tmp_path):
        corpus_root = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus_root)
        (corpus_root / "descriptions" / "broken.nihd").write_text('method "x" {')
        documents, diags = load_all(open_corpus(corpus_root))
        assert len(documents) == 2
        assert len(diags) == 1 and diags[0].code == "E001"
        # No file is lost: documents plus failing files cover everything.
        assert len(documents) + 1 == 3

    def test_undecodable_file_reported(self, tmp_path):
        corpus_root = tmp_path / "corpus"
        (corpus_root / "descriptions").mkdir(parents=True)
        (corpus_root / "descriptions" / "bad.nihd").write_bytes(b"\xff\xfe\x00junk")
        documents, diags = load_all(open_corpus(corpus_root))
        assert documents == []
        assert [d.code for d in diags] == ["E007"]

    def test_missing_catalog_is_e007(self, tmp_path):
        catalog, diags = store.load_catalog(open_corpus(tmp_path))
        assert catalog is None
        assert [d.code for d in diags] == ["E007"]
        assert re.fullmatch(r"cannot read .*/catalog\.nihc: No such file or directory",
                            diags[0].message)

    def test_catalog_name_too_long_is_e007(self, tmp_path):
        corpus = store.Corpus(tmp_path, tmp_path / ("c" * 300), ())
        catalog, diags = store.load_catalog(corpus)
        assert catalog is None
        assert [d.code for d in diags] == ["E007"]
        assert re.fullmatch(r"cannot read .*/c{300}: File name too long", diags[0].message)

    def test_an_os_error_without_strerror_gives_its_text(self, tmp_path, monkeypatch):
        def refuse(self, encoding=None):
            raise OSError("refused")

        monkeypatch.setattr(Path, "read_text", refuse)
        _, diags = store.read_file(tmp_path / "x.nihd")
        assert [d.message for d in diags] == [f"cannot read {tmp_path}/x.nihd: refused"]


class TestBuildIndex:
    def _working_copy(self, tmp_path):
        corpus_root = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus_root)
        return open_corpus(corpus_root)

    def test_two_fixture_rows(self, tmp_path, catalog):
        corpus = self._working_copy(tmp_path)
        rows, diags = build_index(corpus, catalog)
        assert diags == []
        assert len(rows) == 2
        index_text = (corpus.root / "index.tsv").read_text()
        lines = index_text.splitlines()
        assert lines[0] == "file\tmethod\tsource\tyear\tpattern\tscore"
        # dhcp: countermeasures partial, control absent -> 4.5/6
        assert lines[1].startswith("descriptions/dhcp_options.nihd\t"
                                   "DHCP number of options channel\trios-dhcp\t-\t")
        assert lines[1].endswith("\t0.750")
        # gap: everything full except control protocol -> 5/6
        assert lines[2].split("\t")[3] == "2008"
        assert lines[2].endswith("\t0.833")

    def test_method_without_year_dashed(self, tmp_path, catalog):
        corpus = self._working_copy(tmp_path)
        rows, _ = build_index(corpus, catalog)
        dhcp_row = rows[0]
        assert dhcp_row[3] == "-"

    def test_empty_corpus_header_only(self, tmp_path, catalog):
        (tmp_path / "descriptions").mkdir()
        corpus = open_corpus(tmp_path)
        rows, _ = build_index(corpus, catalog)
        assert rows == []
        assert (tmp_path / "index.tsv").read_text() == \
            "file\tmethod\tsource\tyear\tpattern\tscore\n"

    def test_byte_identical_reruns(self, tmp_path, catalog):
        corpus_root = tmp_path / "corpus"
        shutil.copytree(SYNTHETIC_DIR, corpus_root)
        corpus = open_corpus(corpus_root)
        build_index(corpus, catalog)
        first = (corpus_root / "index.tsv").read_bytes()
        build_index(corpus, catalog)
        assert (corpus_root / "index.tsv").read_bytes() == first

    def test_new_index_mode_is_0666_less_the_umask(self, tmp_path, catalog):
        (tmp_path / "descriptions").mkdir()
        old = os.umask(0o027)
        try:
            build_index(open_corpus(tmp_path), catalog)
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "index.tsv").stat().st_mode) == 0o640

    def test_a_tab_inside_a_field_is_written_as_a_space(self, tmp_path, catalog):
        # Quotes and backslashes are written as they are.
        corpus = self._working_copy(tmp_path)
        gap = corpus.root / "descriptions" / "gap_channel.nihd"
        gap.write_text(gap.read_text()
                       .replace('"Model-based inter-packet gap channel"',
                                '"tab\there \\\\ \\"q\\""')
                       .replace('"gianvecchio2008"', '"gian\t\tvecchio"'))
        rows, diags = build_index(corpus, catalog)
        assert diags == []
        lines = (corpus.root / "index.tsv").read_text().splitlines()
        assert [tuple(line.split("\t")) for line in lines[1:]] == rows
        assert {len(line.split("\t")) for line in lines} == {6}
        assert rows[1][1:3] == ('tab here \\ "q"', "gian  vecchio")

    def test_a_line_break_in_a_file_name_is_written_as_a_space(self, tmp_path, catalog):
        corpus = self._working_copy(tmp_path)
        descriptions = corpus.root / "descriptions"
        (descriptions / "gap_channel.nihd").rename(descriptions / "gap\nchannel.nihd")
        rows, diags = build_index(open_corpus(corpus.root), catalog)
        assert diags == []
        lines = (corpus.root / "index.tsv").read_text().splitlines()
        assert [len(line.split("\t")) for line in lines] == [6, 6, 6]
        assert lines[2].split("\t")[0] == rows[1][0] == "descriptions/gap channel.nihd"

    def test_unresolvable_paths_reported(self, tmp_path, catalog):
        corpus = self._working_copy(tmp_path)
        stray = corpus.root / "descriptions" / "a_stray.nihd"
        text = (corpus.root / "descriptions" / "gap_channel.nihd").read_text()
        stray.write_text(
            text.replace("Model-based inter-packet gap channel", "stray")
                .replace(
                    "Network Covert Timing Channels / Inter-arrival Time Pattern",
                    "Totally New Root",
                )
                .replace('justify "Network Covert Timing Channels"',
                         'justify "Totally New Root"')
                .replace('justify "Inter-arrival Time Pattern"',
                         'justify "Totally New Root"'),
        )
        corpus = open_corpus(corpus.root)
        rows, diags = build_index(corpus, catalog)
        assert len(rows) == 3
        assert any(d.code == "E110" for d in diags)

    def test_a_file_name_that_is_not_utf8_is_written_with_u_fffd(self, tmp_path, catalog):
        corpus = self._working_copy(tmp_path)
        descriptions = os.fsencode(corpus.root / "descriptions")
        try:
            os.rename(descriptions + b"/gap_channel.nihd", descriptions + b"/gap_\xffchannel.nihd")
        except OSError:
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        rows, diags = build_index(open_corpus(corpus.root), catalog)
        assert diags == []
        lines = (corpus.root / "index.tsv").read_bytes().decode("utf-8").splitlines()
        assert [tuple(line.split("\t")) for line in lines[1:]] == rows
        assert rows[1][0] == "descriptions/gap_\ufffdchannel.nihd"


def _synthetic_copy(root):
    shutil.copytree(SYNTHETIC_DIR, root)


def _faulty_copy(root):
    """The fixture corpus plus an undecodable file, one that fails to parse
    and a method whose pattern path the catalog cannot resolve."""
    shutil.copytree(CORPUS_DIR, root)
    descriptions = root / "descriptions"
    (descriptions / "a_undecodable.nihd").write_bytes(b"\xff\xfe\x00junk")
    (descriptions / "broken.nihd").write_text('method "x" {')
    (descriptions / "stray.nihd").write_text(
        GAP_FILE.read_text()
        .replace("Model-based inter-packet gap channel", "stray")
        .replace("Network Covert Timing Channels", "Totally New Root"))


class TestWriteIndex:
    @pytest.mark.parametrize("make, codes", [
        (_synthetic_copy, []),
        (_faulty_copy, ["E007", "E001", "E110"]),
    ])
    def test_indexes_load_all_as_build_index_does(self, tmp_path, catalog, make, codes):
        make(tmp_path / "corpus")
        corpus = open_corpus(tmp_path / "corpus")
        built_rows, built_diags = build_index(corpus, catalog)
        built = (corpus.root / "index.tsv").read_bytes()
        (corpus.root / "index.tsv").unlink()
        documents, parse_diags = load_all(corpus)
        rows, resolution = write_index(corpus, documents, catalog)
        assert (corpus.root / "index.tsv").read_bytes() == built
        assert rows == built_rows
        assert parse_diags + resolution == built_diags
        assert [d.code for d in built_diags] == codes

    def test_a_document_not_from_the_corpus_is_refused_before_writing(self, tmp_path, catalog):
        shutil.copytree(CORPUS_DIR, tmp_path / "corpus")
        corpus = open_corpus(tmp_path / "corpus")
        build_index(corpus, catalog)
        index = (corpus.root / "index.tsv").read_bytes()
        listing = sorted(p.name for p in corpus.root.iterdir())
        documents, _ = load_all(corpus)
        document, _ = dsl.parse_description(GAP_FILE.read_text())
        assert document.source_file == "<input>"
        for given in ([document], [*documents, document]):
            with pytest.raises(ValueError):
                write_index(corpus, given, catalog)
            assert (corpus.root / "index.tsv").read_bytes() == index
            assert sorted(p.name for p in corpus.root.iterdir()) == listing

    @pytest.mark.parametrize("make", [_synthetic_copy, _faulty_copy])
    def test_a_one_shot_generator_indexes_as_a_list_does(self, tmp_path, catalog, make):
        make(tmp_path / "corpus")
        corpus = open_corpus(tmp_path / "corpus")
        documents, _ = load_all(corpus)
        listed = write_index(corpus, documents, catalog)
        from_list = (corpus.root / "index.tsv").read_bytes()
        (corpus.root / "index.tsv").unlink()
        one_shot = (document for document in documents)
        assert write_index(corpus, one_shot, catalog) == listed
        assert next(one_shot, None) is None
        assert (corpus.root / "index.tsv").read_bytes() == from_list


def test_build_index_holds_one_document_at_a_time(tmp_path, catalog, monkeypatch):
    """When a file is read, at most one document read before it is alive:
    build_index keeps rows, not documents."""
    shutil.copytree(SYNTHETIC_DIR, tmp_path / "corpus")
    corpus = open_corpus(tmp_path / "corpus")
    read = store.read_description_file
    earlier: list[weakref.ref] = []
    alive_at_each_read: list[int] = []

    def tracked(path):
        alive_at_each_read.append(sum(ref() is not None for ref in earlier))
        document, diags = read(path)
        earlier.append(weakref.ref(document))
        return document, diags

    monkeypatch.setattr(store, "read_description_file", tracked)
    rows, diags = build_index(corpus, catalog)
    assert len(alive_at_each_read) == len(corpus.description_files) > 2
    assert max(alive_at_each_read) <= 1
    assert diags == [] and len(rows) == 131


def test_atomic_write_keeps_the_mode(tmp_path):
    target = tmp_path / "kept.txt"
    target.write_text("old\n")
    target.chmod(0o604)
    store.atomic_write_text(target, "new\n")
    assert target.read_text() == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o604
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        store.atomic_write_text(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
