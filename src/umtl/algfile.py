"""The algebra text format.

    algebra <ident>
    size <n>
    names <n tokens>          (optional)
    odot
    <n rows of n integers>
    arrow
    <n rows of n integers>
    forall <n integers>       (optional)

'#' starts a comment anywhere; blank lines are ignored.  The writer emits
the canonical layout, so parse -> write round-trips byte-identically
modulo comments.
"""

from __future__ import annotations

from typing import NamedTuple
from pathlib import Path

from .core import default_names


class AlgebraFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class AlgebraDocument(NamedTuple):
    """Parsed, not yet validated, algebra data."""

    name: str
    size: int
    names: tuple[str, ...]
    odot: tuple[tuple[int, ...], ...]
    arrow: tuple[tuple[int, ...], ...]
    top: int
    forall: tuple[int, ...] | None = None


def _int_row(tokens: list[str], lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise AlgebraFileError(f"expected integers, got {tokens!r}", lineno) from exc


def parse_algebra_text(text: str) -> AlgebraDocument:
    lines: list[tuple[int, list[str]]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((i, body.split()))
    pos = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise AlgebraFileError(f"unexpected end of file, expected {expected!r}")
        item = lines[pos]
        pos += 1
        return item

    lineno, tokens = take("algebra")
    if tokens[0] != "algebra" or len(tokens) != 2:
        raise AlgebraFileError("expected 'algebra <ident>'", lineno)
    name = tokens[1]
    lineno, tokens = take("size")
    if tokens[0] != "size" or len(tokens) != 2:
        raise AlgebraFileError("expected 'size <n>'", lineno)
    size = _int_row(tokens[1:], lineno)[0]
    if size < 1:
        raise AlgebraFileError("size must be positive", lineno)
    names: tuple[str, ...] | None = None
    if pos < len(lines) and lines[pos][1][0] == "names":
        lineno, tokens = take("names")
        if len(tokens) != size + 1:
            raise AlgebraFileError(f"expected {size} names", lineno)
        names = tuple(tokens[1:])
        dup = next((x for i, x in enumerate(names) if x in names[:i]), None)
        if dup is not None:
            raise AlgebraFileError(f"duplicate element name {dup!r}", lineno)

    def table(tag: str) -> tuple[tuple[int, ...], ...]:
        lineno, tokens = take(tag)
        if tokens != [tag]:
            raise AlgebraFileError(f"expected '{tag}'", lineno)
        rows = []
        for _ in range(size):
            lineno, tokens = take(f"{tag} row")
            row = _int_row(tokens, lineno)
            if len(row) != size:
                raise AlgebraFileError(
                    f"expected {size} entries in {tag} row, got {len(row)}", lineno
                )
            rows.append(row)
        return tuple(rows)

    odot = table("odot")
    arrow = table("arrow")
    forall = None
    if pos < len(lines) and lines[pos][1][0] == "forall":
        lineno, tokens = take("forall")
        forall = _int_row(tokens[1:], lineno)
        if len(forall) != size:
            raise AlgebraFileError(f"expected {size} forall entries", lineno)
    if pos < len(lines):
        lineno, tokens = lines[pos]
        raise AlgebraFileError(f"unexpected trailing content {tokens!r}", lineno)
    if names is None:
        names = default_names(size)
    # top is determined by the unit column of the monoid table when
    # possible; validation re-checks it in every case.
    top = _infer_top(size, odot, arrow)
    return AlgebraDocument(
        name=name, size=size, names=names, odot=odot, arrow=arrow, top=top,
        forall=forall,
    )


def _infer_top(size, odot, arrow) -> int:
    units = [
        e
        for e in range(size)
        if all(odot[x][e] == x and odot[e][x] == x for x in range(size))
    ]
    if len(units) == 1:
        return units[0]
    # fall back: the element whose arrow row is the identity row
    for e in range(size):
        if all(arrow[e][y] == y for y in range(size)):
            return e
    return size - 1


def write_algebra_text(
    name: str,
    alg_size: int,
    names: tuple[str, ...],
    odot,
    arrow,
    forall=None,
) -> str:
    out = [f"algebra {name}", f"size {alg_size}"]
    if tuple(names) != default_names(alg_size):
        out.append("names " + " ".join(names))
    out.append("odot")
    out.extend(" ".join(str(v) for v in row) for row in odot)
    out.append("arrow")
    out.extend(" ".join(str(v) for v in row) for row in arrow)
    if forall is not None:
        out.append("forall " + " ".join(str(v) for v in forall))
    return "\n".join(out) + "\n"


def load_algebra_file(path: str | Path) -> AlgebraDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # the caller names the file; an OSError's text names it again
        reason = getattr(exc, "strerror", None) or exc
        raise AlgebraFileError(f"cannot read: {reason}") from exc
    return parse_algebra_text(text)
