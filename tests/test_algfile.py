from __future__ import annotations

import pytest

from umtl.algfile import (
    AlgebraFileError,
    load_algebra_file,
    parse_algebra_text,
    write_algebra_text,
)
from umtl.corpus import SIX_BLOCKY, SIX_DELTA, bundled_corpus, corpus_dir
from umtl.core import chain_algebra, validate

CHAIN_TAGS = {"lukasiewicz": "lukasiewicz", "goedel": "goedel", "nm": "nilpotent-minimum"}


def test_shipped_corpus_files_match_definitions():
    docs = {p.stem: load_algebra_file(p) for p in corpus_dir().glob("*.alg")}
    chains = {"boolean-2": ("lukasiewicz", 2)} | {
        f"{tag}-{n}": (kind, n) for tag, kind in CHAIN_TAGS.items() for n in range(2, 7)
    }
    fixtures = {
        "example-3-2": None,
        "example-3-2-delta": SIX_DELTA,
        "example-3-2-block": SIX_BLOCKY,
    }
    assert set(docs) == set(chains) | set(fixtures)
    assert all(doc.name == stem for stem, doc in docs.items())
    for stem, (kind, n) in chains.items():
        doc, alg = docs[stem], chain_algebra(kind, n)
        assert (doc.odot, doc.arrow, doc.top, doc.names, doc.forall) == (
            alg.odot, alg.arrow, alg.top, alg.names, None
        ), stem
    six = docs["example-3-2"]
    for stem, forall in fixtures.items():
        assert docs[stem].forall == forall
        assert docs[stem]._replace(name=six.name, forall=None) == six
    entries = bundled_corpus()
    assert [e.name for e in entries] == sorted(docs)
    for entry in entries:
        doc = docs[entry.name]
        alg = entry.algebra
        assert (alg.odot, alg.arrow, alg.top, alg.names) == (
            doc.odot, doc.arrow, doc.top, doc.names
        )
        assert entry.forall == doc.forall


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


def test_written_algebra_round_trip(six):
    text = write_algebra_text("fixture", six.size, six.names, six.odot, six.arrow)
    doc = parse_algebra_text(text)
    alg = validate(doc.size, doc.odot, doc.arrow, doc.top, doc.names)
    assert alg.table_key() == six.table_key()


def test_load_missing_file(tmp_path):
    with pytest.raises(AlgebraFileError, match="cannot read"):
        load_algebra_file(tmp_path / "missing.alg")
