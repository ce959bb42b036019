"""Report digests: the built-in SHA-256 `report` uses equals `hashlib`'s."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from umtl import report
from umtl.cli import main
from umtl.corpus import corpus_dir


# 55 and 56 bytes fill one block with and without room for the length, and
# 63, 64 and 65 sit at the block edge
@pytest.mark.parametrize("length", [0, 1, 55, 56, 63, 64, 65, 100_000])
def test_sha256_matches_hashlib_at_the_padding_edges(length):
    data = bytes(i % 251 for i in range(length))
    assert report.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_sha256_matches_hashlib_on_the_audit_report(tmp_path):
    path = tmp_path / "audit.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--json", str(path), "audit"]) == 1
    written = json.loads(path.read_text())
    body = report.canonical_json(written["report"]).encode()
    digest = hashlib.sha256(body).hexdigest()
    assert report.sha256(body).hexdigest() == digest == written["report_digest"]


def test_input_digest_matches_hashlib():
    paths = sorted(corpus_dir().glob("*.alg"))
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert report.input_digest(paths) == h.hexdigest()
