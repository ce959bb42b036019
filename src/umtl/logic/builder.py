"""Step-level combinators for constructing checkable Hilbert proofs.

Each method appends fully justified steps and returns the index of the
concluding step.  Steps are memoised by formula, so repeated lemmas are
emitted once.  Everything here bottoms out in axiom instances, modus
ponens and necessitation; no derived rule is trusted by the checker.
"""

from __future__ import annotations

from .formulas import And, Box, Formula, Impl
from .proofs import AxiomStep, HypStep, MPStep, NecStep, Proof, ProofStep
from .schemas import SchemaCatalog, instantiate


def power(h: Formula, n: int) -> Formula:
    """Left-combed n-fold strong conjunction of h with itself."""
    if n < 1:
        raise ValueError("power must be >= 1")
    acc = h
    for _ in range(n - 1):
        acc = And(acc, h)
    return acc


class ProofBuilder:
    def __init__(self, catalog: SchemaCatalog, theory=()):
        self.catalog = catalog
        self.proof = Proof(theory=list(theory))
        self._memo: dict[Formula, int] = {}

    # -- primitive steps --------------------------------------------------

    def _append(self, formula: Formula, justification) -> int:
        known = self._memo.get(formula)
        if known is not None:
            return known
        self.proof.steps.append(ProofStep(formula, justification))
        index = len(self.proof.steps)
        self._memo[formula] = index
        return index

    def formula_at(self, index: int) -> Formula:
        return self.proof.steps[index - 1].formula

    def axiom(self, schema_id: str, /, **binding: Formula) -> int:
        pattern = self.catalog.get(schema_id)
        if pattern is None:
            raise ValueError(f"unknown schema {schema_id}")
        instance = instantiate(pattern, binding)
        return self._append(
            instance, AxiomStep(schema_id, tuple(sorted(binding.items())))
        )

    def hyp(self, name: str) -> int:
        formula = self.proof.hypothesis(name)
        if formula is None:
            raise ValueError(f"unknown hypothesis {name!r}")
        return self._append(formula, HypStep(name))

    def mp(self, premise: int, implication: int) -> int:
        impl = self.formula_at(implication)
        if not isinstance(impl, Impl) or impl.left != self.formula_at(premise):
            raise ValueError("modus ponens shape mismatch")
        return self._append(impl.right, MPStep(premise, implication))

    def nec(self, premise: int) -> int:
        return self._append(Box(self.formula_at(premise)), NecStep(premise))

    # -- derived rules -----------------------------------------------------

    def weaken(self, x: Formula, y: Formula) -> int:
        """x -> (y -> x)"""
        a2 = self.axiom("A2", alpha=x, beta=y)
        a8 = self.axiom("A8", alpha=x, beta=y, gamma=x)
        return self.mp(a2, a8)

    def trans(self, i: int, j: int) -> int:
        """From X -> Y and Y -> Z, conclude X -> Z."""
        fi, fj = self.formula_at(i), self.formula_at(j)
        assert isinstance(fi, Impl) and isinstance(fj, Impl)
        assert fi.right == fj.left
        a1 = self.axiom("A1", alpha=fi.left, beta=fi.right, gamma=fj.right)
        step = self.mp(i, a1)
        return self.mp(j, step)

    def exchange_thm(self, x: Formula, y: Formula, z: Formula) -> int:
        """(x -> (y -> z)) -> (y -> (x -> z))"""
        c1 = self.axiom("A7", alpha=x, beta=y, gamma=z)
        c2 = self.axiom("A3", alpha=y, beta=x)
        c3 = self.axiom("A1", alpha=And(y, x), beta=And(x, y), gamma=z)
        c4 = self.mp(c2, c3)
        c5 = self.trans(c1, c4)
        c6 = self.axiom("A8", alpha=y, beta=x, gamma=z)
        return self.trans(c5, c6)

    def exchange(self, i: int) -> int:
        f = self.formula_at(i)
        assert isinstance(f, Impl) and isinstance(f.right, Impl)
        thm = self.exchange_thm(f.left, f.right.left, f.right.right)
        return self.mp(i, thm)

    def identity(self, phi: Formula) -> int:
        """phi -> phi"""
        t1 = self.axiom("A2", alpha=phi, beta=phi)
        theta = self.formula_at(t1)
        t5 = self.weaken(phi, theta)
        t6 = self.exchange(t5)
        return self.mp(t1, t6)

    def curry(self, i: int) -> int:
        """From (X & Y) -> Z, conclude X -> (Y -> Z)."""
        f = self.formula_at(i)
        assert isinstance(f, Impl) and isinstance(f.left, And)
        a8 = self.axiom(
            "A8", alpha=f.left.left, beta=f.left.right, gamma=f.right
        )
        return self.mp(i, a8)

    def uncurry(self, i: int) -> int:
        """From X -> (Y -> Z), conclude (X & Y) -> Z."""
        f = self.formula_at(i)
        assert isinstance(f, Impl) and isinstance(f.right, Impl)
        a7 = self.axiom(
            "A7", alpha=f.left, beta=f.right.left, gamma=f.right.right
        )
        return self.mp(i, a7)

    def prefix_lift(self, i: int, w: Formula) -> int:
        """From U -> V, conclude (w -> U) -> (w -> V)."""
        f = self.formula_at(i)
        assert isinstance(f, Impl)
        a1 = self.axiom("A1", alpha=w, beta=f.left, gamma=f.right)
        ex = self.exchange(a1)
        return self.mp(i, ex)

    def assertion(self, i: int, psi: Formula) -> int:
        """From a theorem phi, conclude (phi -> psi) -> psi."""
        phi = self.formula_at(i)
        ident = self.identity(Impl(phi, psi))
        ex = self.exchange(ident)
        return self.mp(i, ex)

    def fusion(self, x: Formula, y: Formula) -> int:
        """(x & (x -> y)) -> y"""
        a6 = self.axiom("A6", alpha=x, beta=y)
        a5 = self.axiom("A5", alpha=x, beta=y)
        a4 = self.axiom("A4", alpha=y, beta=x)
        t = self.trans(a6, a5)
        return self.trans(t, a4)

    def mono_conj(self, i: int, j: int) -> int:
        """From A -> B and C -> D, conclude (A & C) -> (B & D)."""
        fi, fj = self.formula_at(i), self.formula_at(j)
        assert isinstance(fi, Impl) and isinstance(fj, Impl)
        b, d = fi.right, fj.right
        ident = self.identity(And(b, d))
        n2 = self.curry(ident)
        n3 = self.trans(i, n2)
        n4 = self.exchange(n3)
        n5 = self.trans(j, n4)
        n6 = self.exchange(n5)
        return self.uncurry(n6)

    # -- modal derived rules ------------------------------------------------

    def box_mono(self, i: int) -> int:
        """From U -> V, conclude box U -> box V."""
        f = self.formula_at(i)
        assert isinstance(f, Impl)
        m1 = self.axiom("M1", alpha=f.left)
        s2 = self.trans(m1, i)
        s3 = self.nec(s2)
        m3a = self.axiom("M3a", alpha=f.left, beta=f.right)
        return self.mp(s3, m3a)

    def box_idem(self, x: Formula) -> int:
        """box x -> box box x"""
        ident = self.identity(Box(x))
        n = self.nec(ident)
        m3a = self.axiom("M3a", alpha=x, beta=Box(x))
        return self.mp(n, m3a)

    def k_distribution(self, x: Formula, y: Formula) -> int:
        """box(x -> y) -> (box x -> box y)"""
        m1 = self.axiom("M1", alpha=x)
        a1 = self.axiom("A1", alpha=Box(x), beta=x, gamma=y)
        c = self.mp(m1, a1)
        d = self.box_mono(c)
        e = self.axiom("M3a", alpha=x, beta=y)
        return self.trans(d, e)

    def box_collect(self, x: Formula, y: Formula) -> int:
        """(box x & box y) -> box(x & y)"""
        ident = self.identity(And(x, y))
        cu = self.curry(ident)
        bm = self.box_mono(cu)
        k = self.k_distribution(y, And(x, y))
        tr = self.trans(bm, k)
        return self.uncurry(tr)

    # -- power bookkeeping for the deduction transform ----------------------

    def thm_curry_power(self, h: Formula, n: int, target: Formula) -> int:
        """(h^n -> T) -> (h -> (h -> ... (h -> T)))"""
        if n == 1:
            return self.identity(Impl(h, target))
        s1 = self.axiom(
            "A8", alpha=power(h, n - 1), beta=h, gamma=target
        )
        s2 = self.thm_curry_power(h, n - 1, Impl(h, target))
        return self.trans(s1, s2)

    def power_split(self, h: Formula, a: int, b: int) -> int:
        """h^(a+b) -> (h^a & h^b)"""
        target = And(power(h, a), power(h, b))
        d1 = self.identity(target)
        d2 = self.curry(d1)  # h^a -> (h^b -> target)
        # fully curry the first antecedent
        cur = d2
        for _ in range(a - 1):
            cur = self.curry(cur)
        # now: h -> (h -> ... (h^b -> target)), a guards
        tc = self.thm_curry_power(h, b, target)
        for _ in range(a):
            tc = self.prefix_lift(tc, h)
        cur = self.mp(cur, tc)
        # uncurry back to the left-combed power
        for _ in range(a + b - 1):
            cur = self.uncurry(cur)
        return cur

    def power_box_absorb(self, boxed: Box, n: int) -> int:
        """(box g)^n -> box((box g)^n), for a boxed formula box g."""
        h = boxed
        if n == 1:
            return self.box_idem(h.arg)
        prev = self.power_box_absorb(boxed, n - 1)
        bi = self.box_idem(h.arg)
        mc = self.mono_conj(prev, bi)
        bc = self.box_collect(power(h, n - 1), h)
        return self.trans(mc, bc)
