"""Hasse-diagram DOT export for element orders and U-filter lattices.

Only the cover relation is drawn; edges point upward (rankdir=BT).  Nodes
and edges are emitted in sorted order so output is reproducible.  Every
name and label is a DOT quoted string, with backslash and double quote
escaped.
"""

from __future__ import annotations

from .core import FiniteMTLAlgebra, lower_covers
from .filters import FilterSet


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, prefix: str, labels: list[str], leq) -> str:
    """A digraph with node `prefix`i labelled labels[i] and an edge from
    each element to each element covering it under the table `leq`."""
    lines = [f"digraph {_quoted(name)} {{", "  rankdir=BT;"]
    for i, label in enumerate(labels):
        lines.append(f"  {prefix}{i} [label={_quoted(label)}];")
    covers = sorted((c, d) for d, cs in enumerate(lower_covers(leq)) for c in cs)
    for c, d in covers:
        lines.append(f"  {prefix}{c} -> {prefix}{d};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def order_dot(alg: FiniteMTLAlgebra, name: str = "order") -> str:
    return _dot(name, "n", list(alg.names), alg.leq)


def filter_lattice_dot(filtersets: list[FilterSet], name: str = "filters") -> str:
    """Inclusion order on a family of element subsets."""
    family = sorted(filtersets, key=lambda f: f.mask)
    leq = [[a.members <= b.members for b in family] for a in family]
    return _dot(name, "f", [f.label() for f in family], leq)
