"""Reports do not depend on the process that writes them.

Formula nodes hash by identity, that is by memory address, and strings
hash by `PYTHONHASHSEED`, so a report that iterated a set of formulas or
ordered formulas by hash would change from one process to the next.
Each command runs once in a fresh process under each of two hash seeds,
and the two report files must be equal byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import umtl
from umtl.corpus import proofs_dir

SRC = str(Path(umtl.__file__).resolve().parents[1])


def report(argv: list[str], path: Path, seed: str) -> tuple[int, bytes]:
    """The exit code and the report file of a fresh `umtl` process."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed}
    done = subprocess.run(
        [sys.executable, "-m", "umtl.cli", "--json", str(path), *argv],
        env=env,
        capture_output=True,
        timeout=120,
    )
    return done.returncode, path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "deduce", str(proofs_dir() / "boxed-modus-ponens.prf"), "--discharge", "boxed"],
        ["logic", "countermodel", "--rule", "disj-box"],
        ["logic", "valid", "(p0 -> p1) | (p1 -> p0)"],
        ["audit"],
    ],
    ids=["prove-deduce", "logic-countermodel", "logic-valid", "audit"],
)
def test_reports_are_equal_under_two_hash_seeds(argv, tmp_path):
    first = report(argv, tmp_path / "seed0.json", "0")
    second = report(argv, tmp_path / "seed1.json", "1")
    assert first[0] in (0, 1) and first[1] and first == second
