"""Structural analysis of quantified algebras and the cross-theorem audits.

Every "equivalence" claimed by the source theory is audited as agreement
of independently computed booleans; the audit never aborts on a
disagreement, it records a witness.  Verdicts are pure functions of the
input pair.  Every equational condition (representability by equation
and by join-implication, the minimal-prime form, strongness, finite
order, a map's preservation of the operations and the quantifier) is a
named check whose least witness `core.first_witnesses` finds; each
report keeps the witnesses and derives its booleans from them.  The
subdirect decomposition names its blocker from its own embedding alone.

Filters and U-filters are the up-sets of idempotents that
`filters.enumerate_filters` and `filters.enumerate_ufilters` list; the
image-simplicity condition instead decides the filters of the fixpoint
subalgebra by closures of `filters.filter_table` restricted to that
carrier, so the two simplicity conditions that read filters are computed
two ways.  The scans in `tests/oracles.py` check these independently.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import FiniteMTLAlgebra, classify, closure, first_violations, first_witnesses
from .quantifier import (
    InvalidQuantifierError,
    UMTLAlgebra,
    check_u2_parse,
    delta_table,
    make_umtl,
    properties_suite,
    check_mba_axioms,
    check_umv_axioms,
)
from . import filters as flt


class RepresentabilityReport(NamedTuple):
    """The three finite representability conditions and their agreement,
    each held as its least witness, None when it holds.

    The headline verdict is the pure equation scan (condition 2); the
    join-implication form (3) and the minimal-prime form (4) are audit
    companions.  The join-implication form is also the algebra-side
    condition for the disjunction form of the box rule.
    """

    equation_witness: tuple[int, int] | None
    join_witness: tuple[int, int] | None
    offending_prime: tuple[int, ...] | None

    @property
    def by_equation(self) -> bool:
        return self.equation_witness is None

    @property
    def by_join_implication(self) -> bool:
        return self.join_witness is None

    @property
    def by_minimal_primes(self) -> bool:
        return self.offending_prime is None

    @property
    def representable(self) -> bool:
        return self.by_equation

    @property
    def agree(self) -> bool:
        return self.by_equation == self.by_join_implication == self.by_minimal_primes


def is_representable(q: UMTLAlgebra) -> RepresentabilityReport:
    """The three sides of representability, computed once per algebra
    object and table: `is_strong` and the audits that compare with it read
    the report kept in `alg.cache`."""
    alg, f = q.algebra, q.forall
    return alg.cached(("representable", f), lambda: _representability(alg, f))


def _representability(alg: FiniteMTLAlgebra, f) -> RepresentabilityReport:
    rng = range(alg.size)
    top, join, arrow = alg.top, alg.join, alg.arrow
    checks = (
        (
            "equation",
            (
                (x, y)
                for x in rng
                for y in rng
                if join[f[arrow[x][y]]][arrow[y][x]] != top
            ),
        ),
        (
            "join-implication",
            (
                (x, y)
                for x in rng
                for y in rng
                if join[x][y] == top and join[x][f[y]] != top
            ),
        ),
        (
            "minimal-primes",
            (  # minimal primes are filters: test their closure under forall
                p.sorted_members()
                for p in flt.minimal_primes(alg).by_inclusion
                if any(f[x] not in p.members for x in p.members)
            ),
        ),
    )
    return RepresentabilityReport(*(v.witness for v in first_witnesses(checks)))


class StrongReport(NamedTuple):
    """Join-distributivity of the quantifier, held as its least witness,
    with the representability comparison attached (the two are claimed
    equivalent)."""

    witness: tuple[int, int] | None
    representable: bool

    @property
    def strong(self) -> bool:
        return self.witness is None

    @property
    def agree(self) -> bool:
        return self.strong == self.representable


def is_strong(q: UMTLAlgebra) -> StrongReport:
    alg, f = q.algebra, q.forall
    rng = range(alg.size)
    join = alg.join
    witnesses = ((x, y) for x in rng for y in rng if f[join[x][y]] != join[f[x]][f[y]])
    (strong,) = first_witnesses([("strong", witnesses)])
    return StrongReport(strong.witness, is_representable(q).representable)


class SimplicityReport(NamedTuple):
    """Five simplicity conditions, each independently computed."""

    ufilters_trivial: bool                    # exactly {top} and L
    image_simple: bool                        # fixpoint subalgebra has 2 filters
    fixpoints_two_element: bool               # fixpoints == {bottom, top}
    unique_proper_ufilter: bool               # {top} is the only proper one
    # least x != top with forall x not nilpotent; None when there is none
    finite_order_witness: tuple[int] | None

    @property
    def finite_order_outside_top(self) -> bool:
        return self.finite_order_witness is None

    def conditions(self) -> tuple[bool, ...]:
        return (
            self.ufilters_trivial,
            self.image_simple,
            self.fixpoints_two_element,
            self.unique_proper_ufilter,
            self.finite_order_outside_top,
        )

    @property
    def simple(self) -> bool:
        return self.ufilters_trivial

    @property
    def agree(self) -> bool:
        return len(set(self.conditions())) == 1


def _subalgebra_filters_trivial(
    alg: FiniteMTLAlgebra, carrier: frozenset[int], forall=None
) -> bool:
    """Whether the subalgebra on `carrier` has only {top} and itself as
    filters (filters computed inside the subalgebra), counting only the
    filters closed under the quantifier table `forall` unless it is None.
    `carrier` must be a subalgebra, as every quantifier image is.

    {top} and the carrier are always filters, and any other filter contains
    some x != top whose principal filter is then proper; so the family is
    exactly those two iff the carrier has two or more elements and every
    x != top generates all of it.  A filter is an up-set, so it is the
    whole carrier exactly when it holds bottom: each closure under
    `filters.filter_table` restricted to the carrier stops as soon as it
    forces bottom in (bottom is 0, the one element below the floor 1).
    So at most n - 1 closures decide it, with no enumeration of the family.

    It stays on closures although the filters of an algebra are the
    up-sets of its idempotents: read that way, `is_simple`'s
    `image_simple` and `ufilters_trivial` would both read one set, the
    idempotent quantifier fixpoints, and their agreement would prove
    nothing.
    """
    if alg.top not in carrier or len(carrier) < 2:
        return False
    table = flt.filter_table(alg, forall, carrier)
    return all(
        closure(table, (alg.top, x), floor=1) is None
        for x in carrier
        if x not in (alg.top, alg.bottom)
    )


def is_simple(q: UMTLAlgebra) -> SimplicityReport:
    alg, f = q.algebra, q.forall
    top, bot = alg.top, alg.bottom
    all_ufilters = flt.enumerate_ufilters(q)
    proper = [u for u in all_ufilters if u.is_proper()]
    trivial = {frozenset({top}), frozenset(alg.elements)}
    image = frozenset(f)
    infinite_order = (
        (x,) for x in alg.elements if x != top and alg.ord_of(f[x]) is None
    )
    (finite_order,) = first_witnesses([("finite-order", infinite_order)])
    return SimplicityReport(
        ufilters_trivial={u.members for u in all_ufilters} == trivial,
        image_simple=_subalgebra_filters_trivial(alg, image),
        fixpoints_two_element=image == frozenset({bot, top}),
        unique_proper_ufilter=[u.members for u in proper] == [frozenset({top})],
        finite_order_witness=finite_order.witness,
    )


class SemisimplicityReport(NamedTuple):
    semisimple: bool
    radical_members: tuple[int, ...]


def is_semisimple(q: UMTLAlgebra) -> SemisimplicityReport:
    rad = flt.radical(q)
    return SemisimplicityReport(
        semisimple=rad.members == {q.algebra.top},
        radical_members=rad.sorted_members(),
    )


def is_u_homomorphism(mapping, q1: UMTLAlgebra, q2: UMTLAlgebra):
    """Check preservation of all operations and the quantifier.

    Returns (True, None) or (False, first failing description tuple).
    On the class map of a `filters.quotient`, whose tables are read off
    class representatives, this is the check that every operation and
    the quantifier are well defined on the classes.
    """
    m = tuple(mapping)
    a1, a2 = q1.algebra, q2.algebra
    witness = _mtl_homomorphism_witness(m, a1, a2) or _forall_witness(m, q1, q2)
    return witness is None, witness


def _mtl_homomorphism_witness(
    m: tuple[int, ...], a1: FiniteMTLAlgebra, a2: FiniteMTLAlgebra
) -> tuple | None:
    """The first failure of `m` to map the carrier of `a1` into that of
    `a2` preserving bottom, top, odot, arrow, meet and join, or None."""
    rng = range(a1.size)

    def breaks(t1, t2):
        return ((x, y) for x in rng for y in rng if m[t1[x][y]] != t2[m[x]][m[y]])

    in_range = len(m) == a1.size and all(0 <= v < a2.size for v in m)
    checks = (
        ("domain", () if in_range else ((),)),
        ("bottom", ((b,) for b in (a1.bottom,) if m[b] != a2.bottom)),
        ("top", ((t,) for t in (a1.top,) if m[t] != a2.top)),
        ("odot", breaks(a1.odot, a2.odot)),
        ("arrow", breaks(a1.arrow, a2.arrow)),
        ("meet", breaks(a1.meet, a2.meet)),
        ("join", breaks(a1.join, a2.join)),
    )
    return _first_failure(checks)


def _forall_witness(m: tuple, q1: UMTLAlgebra, q2: UMTLAlgebra) -> tuple | None:
    """The first x whose quantifier image `m` does not preserve, or None."""
    f1, f2 = q1.forall, q2.forall
    bad = ((x,) for x in q1.algebra.elements if m[f1[x]] != f2[m[x]])
    return _first_failure([("forall", bad)])


def _first_failure(checks) -> tuple | None:
    """The first failing check's name and witness as one tuple, or None."""
    v = next(first_violations(checks), None)
    return v and (v.axiom, *v.witness)


class SubdirectEmbedding(NamedTuple):
    factors: tuple[UMTLAlgebra, ...]
    embedding: tuple[tuple[int, ...], ...]
    injective: bool
    coordinates_u_homomorphic: tuple[bool, ...]
    factors_simple: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return self.injective and all(self.coordinates_u_homomorphic)


class DecompositionResult(NamedTuple):
    embedding: SubdirectEmbedding | None
    failure: str | None
    witness: tuple | None

    @property
    def ok(self) -> bool:
        return self.embedding is not None and self.embedding.ok


def subdirect_decompose(q: UMTLAlgebra, mode: str) -> DecompositionResult:
    """Subdirect decomposition through the selected filter family, whose
    bitmask order the factors keep.

    mode="min-primes" reports a minimal prime that is no U-filter, with
    no embedding; mode="max-ufilters" succeeds exactly on semisimple
    inputs, with factors verified simple.  Every other outcome carries
    the whole embedding, which names its own blocker: x has top's class
    in the quotient by a filter exactly when x is in it, so the elements
    with top's coordinates are the family's intersection (for the
    maximal U-filters, the radical, not read here), and the least of
    them below top is the failure's witness.  Each coordinate is onto by
    construction.
    """
    alg = q.algebra
    if mode == "min-primes":
        family = flt.minimal_primes(alg).by_inclusion
        bad = is_representable(q).offending_prime
        if bad is not None:
            return DecompositionResult(None, "minimal prime is not a U-filter", bad)
    elif mode == "max-ufilters":
        family = flt.maximal_ufilters(q)
    else:
        raise ValueError(f"unknown decomposition mode: {mode!r}")
    quotients = [flt.quotient(q, fs.members) for fs in family]
    embedding = tuple(
        tuple(res.class_map[x] for res in quotients) for x in alg.elements
    )
    # also the quotient's well-definedness check; the MTL half reads only the
    # algebra and the filter (whose class map and quotient algebra are shared),
    # so it runs once per filter, the quantifier half for every pair
    u_homomorphic = tuple(
        alg.cached(
            ("class-map-homomorphism", fs.members),
            lambda: _mtl_homomorphism_witness(res.class_map, alg, res.quotient.algebra),
        )
        is None
        and _forall_witness(res.class_map, q, res.quotient) is None
        for fs, res in zip(family, quotients)
    )
    factors = tuple(res.quotient for res in quotients)
    emb = SubdirectEmbedding(
        factors=factors,
        embedding=embedding,
        injective=len(set(embedding)) == alg.size,
        coordinates_u_homomorphic=u_homomorphic,
        # `SimplicityReport.simple`, decided as `audit_quotient_simplicity` does
        factors_simple=tuple(
            _subalgebra_filters_trivial(
                f.algebra, frozenset(f.algebra.elements), f.forall
            )
            for f in factors
        ),
    )
    top = embedding[alg.top]
    blockers = ((x,) for x in alg.elements if x != alg.top and embedding[x] == top)
    (blocker,) = first_witnesses([("blocker", blockers)])
    failure = blocker.witness and "radical element below top blocks injectivity"
    return DecompositionResult(emb, failure, blocker.witness)


# ---------------------------------------------------------------------------
# audit harness


class AuditEntry(NamedTuple):
    """One audit verdict; `details` stays out of equality and the hash."""

    check: str
    subject: str
    agrees: bool
    details: dict

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):  # tuple's own != would read `details`
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "subject": self.subject,
            "agrees": self.agrees,
            "details": self.details,
        }


def _names(alg: FiniteMTLAlgebra, items) -> list[str]:
    return [alg.name_of(i) for i in items]


def audit_minimal_primes(alg: FiniteMTLAlgebra, subject: str) -> AuditEntry:
    res = flt.minimal_primes(alg)
    return AuditEntry(
        "minimal-prime-characterizations",
        subject,
        res.agree,
        {
            "by_inclusion": [_names(alg, p.sorted_members()) for p in res.by_inclusion],
            "by_perp": [_names(alg, p.sorted_members()) for p in res.by_perp],
        },
    )


def property_failures(q: UMTLAlgebra) -> list[dict]:
    """The failed items of `properties_suite` with their witnesses, as
    report data."""
    return [
        {"item": c.name, "witness": list(c.witness)}
        for c in properties_suite(q)
        if not c.passed
    ]


def audit_prop_3_4(q: UMTLAlgebra) -> AuditEntry:
    failures = property_failures(q)
    return AuditEntry(
        "quantifier-property-suite",
        q.label(),
        not failures,
        {"failures": failures},
    )


def audit_term_equivalences(q: UMTLAlgebra) -> list[AuditEntry]:
    profile = classify(q.algebra)
    term_equivalences = (
        (profile.mv, "quantified-mv-term-equivalence", check_umv_axioms),
        (profile.boolean, "monadic-boolean-term-equivalence", check_mba_axioms),
    )
    out = []
    for applies, check_id, check_axioms in term_equivalences:
        if applies:
            verdicts = {v.name: v.passed for v in check_axioms(q)}
            out.append(
                AuditEntry(
                    check_id, q.label(), all(verdicts.values()), {"verdicts": verdicts}
                )
            )
    return out


def audit_congruence_correspondence(q: UMTLAlgebra) -> AuditEntry:
    """Filters -> congruences -> filters is the identity, the map is a
    bijection (so the reverse composition is the identity too), and both
    directions preserve inclusion."""
    ufilters = flt.enumerate_ufilters(q)
    congruences = flt.enumerate_ucongruences(q)
    of_filter = {u.members: flt.congruence_of_filter(q, u.members) for u in ufilters}
    round_trip = all(
        flt.filter_of_congruence(q, of_filter[u.members]) == u.members
        for u in ufilters
    )
    images = set(of_filter.values())
    bijective = images == set(congruences) and len(ufilters) == len(congruences)
    order_iso = all(
        (u1.members <= u2.members)
        == _congruence_leq(of_filter[u1.members], of_filter[u2.members])
        for u1 in ufilters
        for u2 in ufilters
    )
    agrees = round_trip and bijective and order_iso
    return AuditEntry(
        "ufilter-congruence-correspondence",
        q.label(),
        agrees,
        {
            "ufilters": len(ufilters),
            "ucongruences": len(congruences),
            "round_trip": round_trip,
            "bijective": bijective,
            "order_isomorphism": order_iso,
        },
    )


def _congruence_leq(c1, c2) -> bool:
    """c1 refines-or-equals c2, both held as each element's least class
    member: every x shares its c2 class with its c1 least member, so
    x ~1 y implies x ~2 y.  O(n) per pair."""
    return all(c2[x] == c2[r] for x, r in enumerate(c1))


def audit_representability(q: UMTLAlgebra) -> AuditEntry:
    rep = is_representable(q)
    alg = q.algebra
    details = {
        "by_equation": rep.by_equation,
        "by_join_implication": rep.by_join_implication,
        "by_minimal_primes": rep.by_minimal_primes,
    }
    if rep.equation_witness:
        details["equation_witness"] = _names(alg, rep.equation_witness)
    if rep.join_witness:
        details["join_witness"] = _names(alg, rep.join_witness)
    if rep.offending_prime:
        details["offending_prime"] = _names(alg, rep.offending_prime)
    return AuditEntry("representability-conditions", q.label(), rep.agree, details)


def audit_delta_on_linear(alg: FiniteMTLAlgebra, subject: str) -> AuditEntry:
    """Whether (L, delta) is a representable quantified algebra exactly on
    the linearly ordered bases; delta can fail the U2 scan on
    non-involutive chains, which this audit records rather than assumes."""
    linear = classify(alg).linear
    try:
        q = make_umtl(alg, delta_table(alg))
        violations = []
    except InvalidQuantifierError as exc:
        q, violations = None, exc.violations
    delta_valid = q is not None
    representable = delta_valid and is_representable(q).representable
    claim = linear == representable
    return AuditEntry(
        "delta-on-linear-bases",
        subject,
        claim,
        {
            "linear": linear,
            "delta_valid": delta_valid,
            "delta_violations": [v.as_dict() for v in violations],
            "representable_with_delta": representable,
        },
    )


def audit_strong(q: UMTLAlgebra) -> AuditEntry:
    rep = is_strong(q)
    details = {"strong": rep.strong, "representable": rep.representable}
    if rep.witness:
        details["witness"] = _names(q.algebra, rep.witness)
    return AuditEntry("strong-iff-representable", q.label(), rep.agree, details)


def audit_maximality(q: UMTLAlgebra) -> AuditEntry:
    proper = [u for u in flt.enumerate_ufilters(q) if u.is_proper()]
    disagreements = []
    for u in proper:
        verdict = flt.is_maximal_ufilter(q, u.members)
        if not verdict.agree:
            disagreements.append(
                {
                    "filter": _names(q.algebra, u.sorted_members()),
                    "by_definition": verdict.by_definition,
                    "by_criterion": verdict.by_criterion,
                }
            )
    return AuditEntry(
        "maximal-ufilter-criterion",
        q.label(),
        not disagreements,
        {"proper_ufilters": len(proper), "disagreements": disagreements},
    )


def audit_simplicity(q: UMTLAlgebra) -> AuditEntry:
    rep = is_simple(q)
    conds = rep.conditions()
    details = {
        "conditions": {
            "ufilters_trivial": conds[0],
            "image_simple": conds[1],
            "fixpoints_two_element": conds[2],
            "unique_proper_ufilter": conds[3],
            "finite_order_outside_top": conds[4],
        },
    }
    if not rep.agree:
        fix = sorted(set(q.forall))
        details["fixpoints"] = _names(q.algebra, fix)
    return AuditEntry("simplicity-conditions", q.label(), rep.agree, details)


def audit_quotient_simplicity(q: UMTLAlgebra) -> AuditEntry:
    """Quotient by F is simple exactly when F is a maximal U-filter.

    A quotient is simple when its only U-filters are {top} and itself
    (`SimplicityReport.simple`), decided on the quotient by the n - 1
    principal U-filter closures of `_subalgebra_filters_trivial` on its
    whole carrier; the other side, `filters.maximal_ufilters`, reads only
    the parent."""
    proper = [u for u in flt.enumerate_ufilters(q) if u.is_proper()]
    maxes = {u.members for u in flt.maximal_ufilters(q)}
    disagreements = []
    for u in proper:
        quot = flt.quotient(q, u.members).quotient
        alg_q = quot.algebra
        simple = _subalgebra_filters_trivial(alg_q, frozenset(alg_q.elements), quot.forall)
        if simple != (u.members in maxes):
            disagreements.append(
                {
                    "filter": _names(q.algebra, u.sorted_members()),
                    "quotient_simple": simple,
                    "maximal": u.members in maxes,
                }
            )
    return AuditEntry(
        "quotient-simplicity-iff-maximal",
        q.label(),
        not disagreements,
        {"proper_ufilters": len(proper), "disagreements": disagreements},
    )


def audit_semisimplicity(q: UMTLAlgebra) -> AuditEntry:
    semi = is_semisimple(q)
    dec = subdirect_decompose(q, "max-ufilters")
    ok = dec.ok and all(dec.embedding.factors_simple) if dec.embedding else False
    details = {
        "semisimple": semi.semisimple,
        "radical": _names(q.algebra, semi.radical_members),
        "decomposition_ok": ok,
    }
    if dec.failure:
        details["failure"] = dec.failure
        details["witness"] = list(dec.witness or ())
    return AuditEntry(
        "semisimple-iff-simple-subdirect",
        q.label(),
        semi.semisimple == ok,
        details,
    )


def theorem_audit(corpus: list[UMTLAlgebra], u2_parse: str = "standard") -> list[AuditEntry]:
    """Run every per-theorem agreement check over the corpus.

    Discrepancies are data, not failures; ordering is canonical
    (check id, then subject label).  `u2_parse` accepts only "standard"
    (`quantifier.check_u2_parse`); it leaves with the benchmark change of
    ROADMAP item 6.
    """
    check_u2_parse(u2_parse)
    entries: list[AuditEntry] = []
    seen_algebras: dict[tuple, str] = {}
    for q in corpus:
        key = q.algebra.table_key()
        if key not in seen_algebras:
            subject = q.label().rsplit("+", 1)[0]
            seen_algebras[key] = subject
            entries.append(audit_minimal_primes(q.algebra, subject))
            entries.append(audit_delta_on_linear(q.algebra, subject))
        entries.append(audit_prop_3_4(q))
        entries.extend(audit_term_equivalences(q))
        entries.append(audit_congruence_correspondence(q))
        entries.append(audit_representability(q))
        entries.append(audit_strong(q))
        entries.append(audit_maximality(q))
        entries.append(audit_simplicity(q))
        entries.append(audit_quotient_simplicity(q))
        entries.append(audit_semisimplicity(q))
    entries.sort(key=lambda e: (e.check, e.subject))
    return entries
