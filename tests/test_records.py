"""The package's record classes: immutable, compared and hashed by field.

Plain records are `typing.NamedTuple`s; the algebra, the formula nodes
and `Proof` are `__slots__` classes.  Every record class that one
bundled-corpus audit and one proof check construct is tested on an
instance they built: assigning a field raises `AttributeError` (`Proof`
excepted: the parser and the builder append to it), a copy is equal,
changing a compared field makes it unequal, changing an ignored field
does not, and the hash is that of the compared fields, as it was when
these classes were frozen dataclasses.  Formula nodes are interned
instead: equal fields give the same object, different fields a different
one, and equality and the hash are identity.
"""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
import sys
from pathlib import Path

import pytest

import umtl
from umtl.analysis import AuditEntry
from umtl.cli import main
from umtl.core import FiniteMTLAlgebra, Violation, chain_algebra, validate
from umtl.logic import formulas
from umtl.logic.formulas import parse_formula
from umtl.logic.proofs import Proof
from umtl.logic.semantics import SearchExhausted

PROOF = Path(umtl.__file__).parent / "data" / "proofs" / "k-distribution.prf"

# the fields that equality and the hash read, where not all of them
COMPARED = {
    FiniteMTLAlgebra: ("size", "odot", "arrow", "top", "names"),
    AuditEntry: ("check", "subject", "agrees"),
}
# the abstract formula classes, and the weak reference of the formula table
NOT_RECORDS = {formulas.Formula, formulas._Binary, formulas._Entry}
# the audit finds a countermodel for every rule it searches
NOT_REACHED = {SearchExhausted}


def _is_record(c) -> bool:
    return (
        isinstance(c, type)
        and c.__module__.startswith("umtl.")
        and (hasattr(c, "_fields") or "__slots__" in vars(c))
    )


def record_classes() -> set[type]:
    modules = [
        importlib.import_module(m.name)
        for m in pkgutil.walk_packages(umtl.__path__, "umtl.")
    ]
    return {c for m in modules for c in vars(m).values() if _is_record(c)} - NOT_RECORDS


def fields(obj) -> tuple[str, ...]:
    """The constructor's parameters, each a field of the same name."""
    cls = type(obj)
    if hasattr(cls, "_fields"):
        return cls._fields
    return getattr(cls, "__match_args__", cls.__slots__)


def compared(obj) -> tuple[str, ...]:
    return COMPARED.get(type(obj), fields(obj))


def _walk(obj, classes) -> dict[type, object]:
    """The first instance of each class in `classes` reached from `obj`
    through record fields and containers."""
    found: dict[type, object] = {}
    seen: set[int] = set()
    stack = [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) in classes:
            found.setdefault(type(x), x)
            stack.extend(getattr(x, k) for k in fields(x))
        elif isinstance(x, (tuple, list, frozenset, set)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
    return found


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """One instance of each record class returned by a function of the
    audit or the proof check, or held in the fields of one."""
    classes = record_classes()
    returned = []

    def hook(frame, event, arg):
        if event == "return" and type(arg) in classes:
            returned.append(arg)

    report = tmp_path_factory.mktemp("records") / "audit.json"
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        assert main(["--json", str(report), "audit"]) == 1
        assert main(["prove", "check", str(PROOF)]) == 0
    finally:
        sys.setprofile(previous)
    return _walk(returned, classes)


def test_every_record_class_is_reached(reached):
    assert set(reached) == record_classes() - NOT_REACHED


def reached_classes():
    return sorted(record_classes() - NOT_REACHED, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", reached_classes(), ids=lambda c: c.__name__)
def test_fields_are_read_only(reached, cls):
    obj = reached[cls]
    for name in fields(obj):
        if cls is Proof:
            setattr(obj, name, getattr(obj, name))
        else:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
    if cls is not Proof:
        with pytest.raises(AttributeError):
            obj.extra = None


@pytest.mark.parametrize("cls", reached_classes(), ids=lambda c: c.__name__)
def test_equality_and_hash_read_the_compared_fields(reached, cls):
    obj = reached[cls]
    values = {k: getattr(obj, k) for k in fields(obj)}
    if issubclass(cls, formulas.Formula):
        # interned: the same fields give this node, and only this node
        assert cls(**values) is obj and copy.copy(obj) is obj
        for name in fields(obj):
            other = cls(**{**values, name: object()})
            assert other is not obj and other != obj and not other == obj, name
        assert hash(obj) == object.__hash__(obj)
        return
    twin = copy.copy(obj)
    assert twin is not obj and twin == obj and not twin != obj
    for name in fields(obj):
        other = cls(**{**values, name: object()})
        if name in compared(obj):
            assert other != obj and not other == obj, name
        else:
            assert other == obj and hash(other) == hash(obj), name
    key = tuple(values[k] for k in compared(obj))
    try:
        expected = hash(key) if cls is not Proof else None
    except TypeError:  # a dict or a list among the compared fields
        expected = None
    if expected is None:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected


@pytest.mark.parametrize("cls", reached_classes(), ids=lambda c: c.__name__)
def test_pickle_round_trip(reached, cls):
    obj = reached[cls]
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_algebra_equality_ignores_derived_tables_and_cache():
    a = chain_algebra("lukasiewicz", 4)
    b = validate(a.size, a.odot, a.arrow, a.top, a.names)
    a.cache["profile"] = "anything"
    assert a == b and hash(a) == hash(b)
    renamed = validate(a.size, a.odot, a.arrow, a.top, ("w", "x", "y", "z"))
    assert renamed != a
    assert pickle.loads(pickle.dumps(a)).cache == {}


def test_violation_shape_is_read_off_the_axiom():
    assert "shape" not in Violation._fields
    assert Violation("degenerate-size", (1,)).shape
    assert Violation("odot-non-square", (2, 3)).shape
    assert not Violation("odot-entry-out-of-range", (2, 3)).shape
    assert Violation("residuation", (0, 1, 2)).as_dict(("a", "b", "c")) == {
        "axiom": "residuation",
        "witness": ["a", "b", "c"],
    }


def test_audit_entry_ignores_details():
    a = AuditEntry("c", "s", True, {"x": 1})
    b = AuditEntry("c", "s", True, {"x": 2})
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != AuditEntry("c", "s", False, {"x": 1})


@pytest.mark.parametrize(
    "text", ["p0 -> p1", "p0 & bot", "p0 ^ p1", "box p0", "p0 | p1 <-> neg top"]
)
def test_formula_copies_drop_the_cached_hash(text):
    # a node caches no hash, since its hash is its identity, and a copy is
    # rebuilt from the fields, which gives back the interned node
    f = parse_formula(text)
    hash(f)
    assert not hasattr(f, "_hash")
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert g is f is parse_formula(text) and hash(g) == hash(f)

