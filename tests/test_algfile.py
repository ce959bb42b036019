from __future__ import annotations

import pytest

from umtl.algfile import (
    AlgebraFileError,
    document_for_algebra,
    load_algebra_file,
    parse_algebra_text,
    write_algebra_text,
)
from umtl.corpus import bundled_corpus, corpus_dir
from umtl.core import validate


def test_shipped_corpus_files_match_definitions():
    shipped = {p.stem: p for p in corpus_dir().glob("*.alg")}
    entries = bundled_corpus()
    assert set(shipped) == {e.name for e in entries}
    for entry in entries:
        text = shipped[entry.name].read_text(encoding="utf-8")
        doc = parse_algebra_text(text)
        assert doc.name == entry.name
        assert doc.odot == entry.algebra.odot
        assert doc.arrow == entry.algebra.arrow
        assert doc.names == entry.algebra.names
        assert doc.forall == entry.forall
        assert doc.top == entry.algebra.top


def test_round_trip_byte_identical_modulo_comments():
    for path in sorted(corpus_dir().glob("*.alg")):
        text = path.read_text(encoding="utf-8")
        doc = parse_algebra_text(text)
        rendered = write_algebra_text(
            doc.name, doc.size, doc.names, doc.odot, doc.arrow, doc.forall
        )
        assert rendered == text
        # comments and blank lines do not change the parse
        commented = "# header\n" + text.replace("odot", "odot  # rows follow", 1)
        assert parse_algebra_text(commented) == doc


def test_parse_errors_carry_line_numbers():
    with pytest.raises(AlgebraFileError, match="line 1"):
        parse_algebra_text("nonsense\n")
    with pytest.raises(AlgebraFileError, match="expected 'size"):
        parse_algebra_text("algebra x\nodot\n")
    bad_row = "algebra x\nsize 2\nodot\n0 0\n0 q\narrow\n1 1\n0 1\n"
    with pytest.raises(AlgebraFileError, match="integers"):
        parse_algebra_text(bad_row)
    short_row = "algebra x\nsize 2\nodot\n0 0\n0\narrow\n1 1\n0 1\n"
    with pytest.raises(AlgebraFileError, match="expected 2 entries"):
        parse_algebra_text(short_row)
    with pytest.raises(AlgebraFileError, match="trailing"):
        parse_algebra_text(
            "algebra x\nsize 2\nodot\n0 0\n0 1\narrow\n1 1\n0 1\nextra\n"
        )
    duplicate = "algebra x\nsize 2\nnames a a\nodot\n0 0\n0 1\narrow\n1 1\n0 1\n"
    with pytest.raises(AlgebraFileError, match=r"duplicate .* 'a' \(line 3\)"):
        parse_algebra_text(duplicate)


def test_default_names():
    doc = parse_algebra_text("algebra x\nsize 2\nodot\n0 0\n0 1\narrow\n1 1\n0 1\n")
    assert doc.names == ("e0", "e1")
    assert doc.top == 1


def test_document_for_algebra_round_trip(six):
    text = document_for_algebra("fixture", six, None)
    doc = parse_algebra_text(text)
    alg = validate(doc.size, doc.odot, doc.arrow, doc.top, doc.names)
    assert alg.table_key() == six.table_key()


def test_load_missing_file(tmp_path):
    with pytest.raises(AlgebraFileError, match="cannot read"):
        load_algebra_file(tmp_path / "missing.alg")
