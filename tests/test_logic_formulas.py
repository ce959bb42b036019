from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtl.logic.formulas import (
    And,
    Bot,
    Box,
    FormulaSyntaxError,
    Impl,
    MetaVar,
    Min,
    Var,
    iff,
    lor,
    neg,
    parse_formula,
    print_formula,
    top,
    variables_of,
)


def test_box_m1_shape():
    assert parse_formula("box p0 -> p0") == Impl(Box(Var(0)), Var(0))


def test_bot_arrow():
    assert parse_formula("bot -> p0") == Impl(Bot(), Var(0))


def test_lor_expansion():
    p, q = Var(0), Var(1)
    expected = Min(Impl(Impl(p, q), q), Impl(Impl(q, p), p))
    assert parse_formula("p0 | p1") == expected == lor(p, q)


def test_or_chains_hash_and_compare_in_linear_time():
    # `a | b` holds each side two or three times, so a recursive hash or
    # equality walk of a flat chain of `|` is exponential in its links
    text = " | ".join(f"p{i % 3}" for i in range(31))
    start = time.perf_counter()
    f, g = parse_formula(text), parse_formula(text)
    assert f is not g and hash(f) == hash(g) and f == g
    assert f != parse_formula(text[:-2] + "p4")
    # equal children give Impl and And equal hashes, so the walk must
    # tell the node types apart below the root
    p, q = Var(0), Var(1)
    assert hash(lor(Impl(p, q), f)) == hash(lor(And(p, q), g))
    assert lor(Impl(p, q), f) != lor(And(p, q), g)
    assert time.perf_counter() - start < 1.0


def test_or_chain_repr_is_linear():
    # the repr of a connective is the printed formula, which re-sugars
    # each `|` once instead of walking its expanded sides
    f = parse_formula(" | ".join(f"p{i}" for i in range(31)))
    start = time.perf_counter()
    text = repr(f)
    assert time.perf_counter() - start < 1.0
    assert parse_formula(text) == f
    assert repr(Impl(Var(0), Bot())) == "neg p0"
    assert [repr(Var(3)), repr(Bot())] == ["p3", "bot"]


def test_top_and_neg_and_iff_expansion():
    assert parse_formula("top") == Impl(Bot(), Bot()) == top()
    assert parse_formula("neg p0") == Impl(Var(0), Bot()) == neg(Var(0))
    assert parse_formula("p0 <-> p1") == And(
        Impl(Var(0), Var(1)), Impl(Var(1), Var(0))
    ) == iff(Var(0), Var(1))


def test_precedence():
    # box/neg bind tightest, then &, then ^ and |, then -> and <->
    assert parse_formula("box p0 & p1") == And(Box(Var(0)), Var(1))
    assert parse_formula("p0 & p1 ^ p2") == Min(And(Var(0), Var(1)), Var(2))
    assert parse_formula("p0 ^ p1 -> p2") == Impl(Min(Var(0), Var(1)), Var(2))
    assert parse_formula("p0 -> p1 -> p2") == Impl(Var(0), Impl(Var(1), Var(2)))
    assert parse_formula("p0 ^ p1 ^ p2") == Min(Min(Var(0), Var(1)), Var(2))


def test_syntax_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p0 -> (p1")
    assert err.value.position >= 0
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p0 @ p1")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("hello -> p0")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p0 p1")


@pytest.mark.parametrize(
    "text, position",
    [("-", 0), ("p0-", 2), ("p0    -", 6), ("   -", 3), ("p0 -> \t@ p1", 7)],
)
def test_a_bad_character_is_reported_at_its_own_index(text, position):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    bad = text[position]
    assert str(err.value) == f"unexpected character {bad!r} (at position {position})"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p0 & & p1", "unexpected token '&' (at position 5)"),
        ("(p0 -> ) p1", "unexpected token ')' (at position 7)"),
        ("-> p0", "unexpected token '->' (at position 0)"),
        ("p0 & P0", "unknown identifier 'P0' (at position 5)"),
        ("box q", "unknown identifier 'q' (at position 4)"),
        ("p0 &", "unexpected end of formula (at position 4)"),
    ],
)
def test_misplaced_operators_are_not_called_identifiers(text, message):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_variables_of():
    f = parse_formula("box p3 -> (p0 & p3)")
    assert variables_of(f) == (0, 3)


@pytest.mark.parametrize(
    "text",
    [
        "box p0 -> p0",
        "bot -> p0",
        "p0 | p1",
        "neg (p0 & p1) ^ top",
        "p0 <-> box neg p1",
        "(p0 -> p1) -> p2",
        "box box p0",
        "p0 | p1 | p2",
        "neg neg p0 -> p0",
        "(p0 | neg p0) & top",
    ],
)
def test_round_trip_examples(text):
    f = parse_formula(text)
    assert parse_formula(print_formula(f)) == f


def formulas(max_depth=4):
    atoms = st.one_of(
        st.integers(min_value=0, max_value=3).map(Var),
        st.just(Bot()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Impl(*ab)),
            st.tuples(children, children).map(lambda ab: And(*ab)),
            st.tuples(children, children).map(lambda ab: Min(*ab)),
            children.map(Box),
            st.tuples(children, children).map(lambda ab: lor(*ab)),
            st.tuples(children, children).map(lambda ab: iff(*ab)),
            children.map(neg),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


def random_printer_input(rnd: random.Random, depth: int):
    """A formula mixing every connective, the four sugars (nested too),
    metavariables, and near misses of each sugar that must print plain."""
    if depth == 0 or rnd.random() < 0.15:
        return rnd.choice(
            [Var(rnd.randrange(4)), Bot(), top(), MetaVar(rnd.choice(("alpha", "beta")))]
        )
    a, b, c = (random_printer_input(rnd, depth - 1) for _ in range(3))
    kind = rnd.randrange(14)
    if kind < 2:
        return (Box, neg)[kind](a)
    if kind < 9:
        return (Impl, And, Min, lor, iff, Impl, Min)[kind - 2](a, b)
    near_misses = (
        Impl(Bot(), a),  # bot -> a, not top
        Min(Impl(Impl(a, b), b), Impl(Impl(b, a), c)),  # one side off a | b
        Min(Impl(Impl(a, b), c), Impl(Impl(b, a), a)),
        And(Impl(a, b), Impl(b, c)),  # one side off a <-> b
        Impl(Bot(), Impl(a, Bot())),
    )
    return near_misses[kind - 9]


def test_printed_text_is_pinned():
    rnd = random.Random(1915)
    texts = [print_formula(random_printer_input(rnd, 4)) for _ in range(400)]
    joined = "\n".join(texts)
    for piece in ("top", "neg", " | ", " <-> ", " ^ ", " & ", " -> ", "box", "bot", "alpha"):
        assert piece in joined
    digest = hashlib.sha256(joined.encode()).hexdigest()
    assert digest == "61a8ec0f940a9d1aab29369c43c9e17097ee54e59166c9310b7e12cf9e846b61"
