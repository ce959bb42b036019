"""The bundled algebra corpus: the shipped `.alg` files, validated.

The six-element fixture is the product of the 3-element Lukasiewicz chain
and the 2-element Boolean algebra.  Its monoid table is the one forced by
residuation from the implication table; three cells of the published
monoid table contradict commutativity/residuation and are corrected in
`example-3-2.alg` (the implication table pins them uniquely).
"""

from __future__ import annotations

from typing import NamedTuple
from pathlib import Path

from .algfile import load_algebra_file
from .core import FiniteMTLAlgebra, validate

SIX_DELTA = (0, 0, 0, 0, 0, 5)

# top and d fixed, b and c squashed to b, a squashed to bottom
SIX_BLOCKY = (0, 0, 2, 2, 4, 5)


class CorpusEntry(NamedTuple):
    name: str
    algebra: FiniteMTLAlgebra
    forall: tuple[int, ...] | None = None


def _load(path: Path) -> CorpusEntry:
    doc = load_algebra_file(path)
    alg = validate(doc.size, doc.odot, doc.arrow, doc.top, doc.names)
    return CorpusEntry(doc.name, alg, doc.forall)


def example_3_2() -> FiniteMTLAlgebra:
    """The six-element non-linear fixture."""
    return _load(corpus_dir() / "example-3-2.alg").algebra


def bundled_corpus() -> list[CorpusEntry]:
    """Every shipped `.alg` file, validated, in name order (so
    `example-3-2` comes before `example-3-2-block`)."""
    return sorted(map(_load, corpus_dir().glob("*.alg")), key=lambda e: e.name)


def corpus_dir() -> Path:
    """Directory holding the shipped .alg files."""
    return Path(__file__).parent / "data" / "corpus"


def proofs_dir() -> Path:
    """Directory holding the shipped proof files."""
    return Path(__file__).parent / "data" / "proofs"
