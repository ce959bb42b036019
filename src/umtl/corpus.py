"""The bundled algebra corpus.

The six-element fixture is the product of the 3-element Lukasiewicz chain
and the 2-element Boolean algebra.  Its monoid table is the one forced by
residuation from the implication table; three cells of the published
monoid table contradict commutativity/residuation and are corrected here
(the implication table pins them uniquely).
"""

from __future__ import annotations

from typing import NamedTuple
from importlib import resources
from pathlib import Path

from .core import FiniteMTLAlgebra, chain_algebra, validate

SIX_NAMES = ("0", "a", "b", "c", "d", "1")

SIX_ODOT = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (0, 0, 2, 2, 0, 2),
    (0, 0, 2, 2, 1, 3),
    (0, 1, 0, 1, 4, 4),
    (0, 1, 2, 3, 4, 5),
)

SIX_ARROW = (
    (5, 5, 5, 5, 5, 5),
    (3, 5, 3, 5, 5, 5),
    (4, 4, 5, 5, 4, 5),
    (1, 4, 3, 5, 4, 5),
    (2, 3, 2, 3, 5, 5),
    (0, 1, 2, 3, 4, 5),
)

SIX_DELTA = (0, 0, 0, 0, 0, 5)

# top and d fixed, b and c squashed to b, a squashed to bottom
SIX_BLOCKY = (0, 0, 2, 2, 4, 5)


def example_3_2() -> FiniteMTLAlgebra:
    """The six-element non-linear fixture."""
    return validate(6, SIX_ODOT, SIX_ARROW, top=5, names=SIX_NAMES)


class CorpusEntry(NamedTuple):
    name: str
    algebra: FiniteMTLAlgebra
    forall: tuple[int, ...] | None = None


def bundled_corpus() -> list[CorpusEntry]:
    """Every bundled algebra, chain variants first, fixture files last."""
    entries = [CorpusEntry("boolean-2", chain_algebra("lukasiewicz", 2))]
    for kind, tag in (
        ("lukasiewicz", "lukasiewicz"),
        ("goedel", "goedel"),
        ("nilpotent-minimum", "nm"),
    ):
        for n in range(2, 7):
            entries.append(CorpusEntry(f"{tag}-{n}", chain_algebra(kind, n)))
    fixture = example_3_2()
    entries.append(CorpusEntry("example-3-2", fixture))
    entries.append(CorpusEntry("example-3-2-delta", fixture, SIX_DELTA))
    entries.append(CorpusEntry("example-3-2-block", fixture, SIX_BLOCKY))
    entries.sort(key=lambda e: e.name)
    return entries


def corpus_dir() -> Path:
    """Directory holding the shipped .alg files."""
    return Path(str(resources.files("umtl") / "data" / "corpus"))


def proofs_dir() -> Path:
    """Directory holding the shipped proof files."""
    return Path(str(resources.files("umtl") / "data" / "proofs"))
