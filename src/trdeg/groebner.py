"""Buchberger's algorithm over field coefficients, with optional cofactor
tracking so ideal membership can return an explicit witness.

reduce_with_cofactors is the one tracked membership call, and
membership_cofactors keeps only its cofactors; a quotient ring's relations
join the generators there, and a PolyRing is its own quotient by none.

GroebnerBasis is the one basis class and holds the one pair loop: append
queues a generator's pairs and complete treats them.  buchberger appends
every generator, completes once and reduces the basis in place; the ideal
route of the dependence search adds one value at a time and completes after
each, so only the new pairs are formed.  Queued pairs wait in a heap keyed
by (ordering key of the lcm, i, j), which is the normal strategy (least lcm
under the ordering, ties to the least index pair); each pair's lcm and key
are computed once, when the pair is formed.

Every basis, tracked or not, keeps one pair rule, the Gebauer-Moeller
update (Gebauer & Moeller 1988; UPDATE in Becker & Weispfenning 1993): when
h joins, its pairs are pruned before they are queued (criterion M drops a
pair whose lcm another new pair's lcm properly divides, F keeps one pair per
lcm, and an lcm class goes whole when one of its pairs has coprime leading
monomials), B_k drops the queued pairs whose lcm lm(h) divides unless it is
the lcm of either element with h, and the elements whose leading monomial
lm(h) divides leave the active list.  S-polynomials, and add, divide by the
active elements only, so a tracked remainder's cofactor row is combined from
the active elements' rows.  The reduced basis does not depend on the pair
rule; cofactor rows, and with them certificates, do.

Each element is made monic as it enters the basis, together with its
cofactor row, so neither S-polynomials nor division divide by a leading
coefficient.  The basis buchberger returns is reduced (minimal,
inter-reduced, monic, sorted by ascending leading monomial), hence canonical
for the ideal and ordering.  Inter-reduction takes one pass: the leading
monomials of a minimal basis are pairwise indivisible and reducing a tail
never changes them, so a tail reduced once stays reduced.

Every division (normal_form, the tracked quotients, the pair loop, add,
inter-reduction and QuotRing.reduce) runs one loop, _remainder, a sparse
division that keeps the work as a term dict beside a heap of its monomials,
greatest first (Johnson 1974; Monagan & Pearce 2007).  Each monomial's
ordering key is computed once, when it enters the work, the leading term is
a heap pop, and a reduction step touches only the divisor's terms.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Optional, Sequence

from .errors import InternalInconsistencyError
from .monomials import Monomial
from .orderings import MonomialOrdering
from .polynomials import Polynomial, leading_term


def _rep_minus(rep, quots, reps) -> list[Polynomial]:
    """rep - sum(quots_i * reps_i), row by row."""
    for q, other in zip(quots, reps):
        if q:
            rep = [a - q * b for a, b in zip(rep, other)]
    return rep


class _Greatest:
    """A heap entry for a monomial and its ordering key.  heapq pops the least
    entry, so __lt__ inverts the key and the ordering-greatest monomial pops
    first; this serves every ordering, nested keys included."""

    __slots__ = ("key", "mon")

    def __init__(self, key: tuple, mon: Monomial):
        self.key = key
        self.mon = mon

    def __lt__(self, other: "_Greatest") -> bool:
        return self.key > other.key


def _remainder(
    p: Polynomial,
    divisors: list[Polynomial],
    leads: list[Monomial],
    ordering: MonomialOrdering,
    field,
    quotients: Optional[list[dict[Monomial, object]]] = None,
) -> Polynomial:
    """Remainder r of full division by monic divisors with leading monomials
    leads: p == sum(q_i * divisors_i) + r with no monomial of r divisible by
    any lead.  The terms of q_i are written into quotients[i] when quotients
    is given.  The leading monomial of the work strictly falls, so each
    quotient and remainder monomial is written once.

    The work is a term dict beside a heap of its monomials, greatest first,
    and a monomial's ordering key is computed once, when it enters the dict.
    A step pops the leading term and subtracts lc * mon * divisor term by
    term, the divisor's leading term included, which cancels the popped term
    since the divisor is monic; a term that no lead divides moves to r.  A
    term that cancels leaves its heap entry behind, and a popped monomial no
    longer in the dict is skipped."""
    key, add, mul, neg = ordering.key, field.add, field.mul, field.neg
    push, pop = heapq.heappush, heapq.heappop
    work = dict(p.terms)
    get = work.get
    heap = [_Greatest(key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, object] = {}
    while heap:
        lm = pop(heap).mon
        lc = get(lm)
        if lc is None:
            continue
        for i, glm in enumerate(leads):
            if glm.divides(lm):
                mon = lm.div(glm)
                for m, v in divisors[i].terms.items():
                    m = m * mon
                    c = neg(mul(lc, v))
                    old = get(m)
                    if old is None:
                        if c:
                            work[m] = c
                            push(heap, _Greatest(key(m), m))
                    elif c := add(old, c):
                        work[m] = c
                    else:
                        del work[m]
                if quotients is not None:
                    quotients[i][mon] = lc
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return Polynomial(field, remainder)


def _divide(
    p: Polynomial,
    divisors: list[Polynomial],
    leads: list[Monomial],
    ordering: MonomialOrdering,
    field,
) -> tuple[Polynomial, list[Polynomial]]:
    """(remainder, quotients) of _remainder's division."""
    quotients: list[dict[Monomial, object]] = [{} for _ in divisors]
    r = _remainder(p, divisors, leads, ordering, field, quotients)
    return r, [Polynomial(field, q) for q in quotients]


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    return _remainder(p, gb.polys, gb.leads, gb.ordering, gb.field)


def normal_form_with_quotients(
    p: Polynomial, gb: GroebnerBasis
) -> tuple[Polynomial, list[Polynomial]]:
    return _divide(p, gb.polys, gb.leads, gb.ordering, gb.field)


class GroebnerBasis:
    """A Groebner basis of the ideal of everything appended, once complete
    has run; leads[i] is the leading monomial of polys[i].  With track,
    reps[i] is combined from the rows given to append exactly as polys[i] is
    combined from the appended generators.

    Pairs are pruned when they are formed, by the Gebauer-Moeller update (see
    the module docstring), and only the active elements divide; polys, leads
    and reps still hold every element, since queued pairs may name a retired
    one."""

    def __init__(self, ordering: MonomialOrdering, field, track: bool = False):
        self.ordering = ordering
        self.field = field
        self.polys: list[Polynomial] = []
        self.leads: list[Monomial] = []
        self.reps: Optional[list[list[Polynomial]]] = [] if track else None
        # (ordering key of the lcm, i, j, lcm) of every queued pair i < j.
        self._heap: list[tuple] = []
        # The indices of the active elements, those whose leading monomial no
        # later leading monomial divides, and their polys and leads, the
        # divisors of every division.
        self._active: list[int] = []
        self._divisors: tuple[list[Polynomial], list[Monomial]] = ([], [])

    def append(self, g: Polynomial, rep: Optional[list[Polynomial]] = None) -> None:
        """Add g != 0 and its cofactor row, both scaled so g is monic, and its pairs."""
        lm, lc = leading_term(g, self.ordering)
        field = self.field
        if not field.is_one(lc):
            inv = field.div(field.one(), lc)
            g = g.scale(inv)
            if self.reps is not None:
                rep = [c.scale(inv) for c in rep]
        self.polys.append(g)
        self.leads.append(lm)
        if self.reps is not None:
            self.reps.append(rep)
        self._update(len(self.polys) - 1, lm)

    def _update(self, new: int, lm: Monomial) -> None:
        """The Gebauer-Moeller update for element new with leading monomial lm:
        queue its pairs with the active elements that criteria M, F and the
        product criterion leave, drop the queued pairs that B_k names, and
        retire the active elements whose leading monomial lm divides."""
        leads = self.leads
        pairs = [(leads[k].lcm(lm), k) for k in self._active]
        lcms = {lcm for lcm, _ in pairs}
        # Product criterion: a class with coprime leading monomials goes whole.
        coprime = {lcm for lcm, k in pairs if lcm == leads[k] * lm}
        kept: dict[Monomial, int] = {}
        for lcm, k in pairs:
            if lcm in kept or lcm in coprime:
                continue  # F keeps one pair per lcm; or the product criterion
            if any(other.degree < lcm.degree and other.divides(lcm) for other in lcms):
                continue  # M: another new pair's lcm properly divides this one
            kept[lcm] = k
        # B_k: lm divides the lcm of (i, j), and the lcm is neither that of
        # (i, new) nor that of (j, new).
        heap = [
            e
            for e in self._heap
            if not lm.divides(e[3]) or e[3] == leads[e[1]].lcm(lm) or e[3] == leads[e[2]].lcm(lm)
        ]
        heap += [(self.ordering.key(lcm), k, new, lcm) for lcm, k in kept.items()]
        heapq.heapify(heap)
        self._heap = heap
        self._set_active([k for k in self._active if not lm.divides(leads[k])] + [new])

    def _set_active(self, active: list[int]) -> None:
        self._active = active
        self._divisors = ([self.polys[k] for k in active], [self.leads[k] for k in active])

    def complete(self) -> None:
        """Reduce the S-polynomial of every queued pair, appending nonzero
        remainders (whose pairs join the queue), until no pair is left."""
        polys, leads, reps = self.polys, self.leads, self.reps
        one = self.field.one()
        while self._heap:
            _, i, j, lcm = heapq.heappop(self._heap)
            mon_i = lcm.div(leads[i])
            mon_j = lcm.div(leads[j])
            s = polys[i].mul_term(mon_i, one) - polys[j].mul_term(mon_j, one)
            if reps is None:
                r = _remainder(s, *self._divisors, self.ordering, self.field)
                if r:
                    self.append(r)
                continue
            r, quots = _divide(s, *self._divisors, self.ordering, self.field)
            if r:
                rep = [
                    a.mul_term(mon_i, one) - b.mul_term(mon_j, one)
                    for a, b in zip(reps[i], reps[j])
                ]
                self.append(r, _rep_minus(rep, quots, [reps[k] for k in self._active]))

    def add(self, p: Polynomial) -> bool:
        """True when p lies in the ideal of the complete basis; otherwise its
        normal form joins and the basis is completed again.  Untracked only:
        a tracked basis is refused before anything changes."""
        if self.reps is not None:
            raise ValueError("add needs an untracked basis: it has no cofactor row for p")
        r = _remainder(p, *self._divisors, self.ordering, self.field)
        if not r:
            return True
        self.append(r)
        self.complete()
        return False

    def is_full(self) -> bool:
        """True when the ideal is the whole ring."""
        return any(lm.is_one() for lm in self.leads)


def buchberger(
    gens: Sequence[Polynomial],
    ordering: MonomialOrdering,
    field,
    track: bool = False,
) -> GroebnerBasis:
    gens = list(gens)
    basis = GroebnerBasis(ordering, field, track)
    for k, g in enumerate(gens):
        if g:
            unit = [Polynomial(field) for _ in gens]
            unit[k] = Polynomial.constant(field, field.one())
            basis.append(g, unit)
    basis.complete()
    _reduce_basis(basis)
    return basis


def _reduce_basis(basis: GroebnerBasis) -> None:
    """Make a complete basis reduced, in place."""
    polys, leads, reps = basis.polys, basis.leads, basis.reps
    ordering, field = basis.ordering, basis.field
    # Minimal: drop any element whose leading monomial another one divides.
    keep: list[int] = []
    for idx in sorted(range(len(polys)), key=lambda k: leads[k].natural_key()):
        if not any(leads[k].divides(leads[idx]) for k in keep):
            keep.append(idx)
    polys = [polys[k] for k in keep]
    leads = [leads[k] for k in keep]
    kept_reps = [reps[k] for k in keep] if reps is not None else None

    # Inter-reduce tails; one pass suffices (see the module docstring).
    for i in range(len(polys)):
        others = leads[:i] + leads[i + 1 :]
        if reps is None:
            polys[i] = _remainder(polys[i], polys[:i] + polys[i + 1 :], others, ordering, field)
            continue
        polys[i], quots = _divide(polys[i], polys[:i] + polys[i + 1 :], others, ordering, field)
        kept_reps[i] = _rep_minus(kept_reps[i], quots, kept_reps[:i] + kept_reps[i + 1 :])

    final = sorted(range(len(polys)), key=lambda k: ordering.key(leads[k]))
    basis.polys = [polys[k] for k in final]
    basis.leads = [leads[k] for k in final]
    if reps is not None:
        basis.reps = [kept_reps[k] for k in final]
    # The leading monomials of a reduced basis are pairwise indivisible.
    basis._set_active(list(range(len(final))))


def membership_cofactors(
    f: Polynomial, gens: Sequence[Polynomial], ring, ordering: MonomialOrdering
) -> Optional[list[Polynomial]]:
    """Cofactors c with f == sum(c_k * gens_k) in ring, or None when f is outside."""
    return reduce_with_cofactors(f, gens, ring, ordering)[1]


def reduce_with_cofactors(
    f: Polynomial, gens: Sequence[Polynomial], ring, ordering: MonomialOrdering
) -> tuple[Polynomial, Optional[list[Polynomial]]]:
    """(normal form r of f modulo the ideal, cofactors c or None), from one
    tracked basis.

    ring is a polynomial ring over a field or a quotient of one; a quotient's
    relations join gens in the ideal.  c comes when r is zero: the witness
    identity f == sum(c_k * gens_k) + sum(d_k * relations_k) is re-checked by
    substitution, then the relations' cofactors d are dropped and each c_k
    comes back reduced in ring.
    """
    ideal = [*gens, *ring.relations]
    field = ring.poly_ring.base
    gb = buchberger(ideal, ordering, field, track=True)
    r, quots = normal_form_with_quotients(f, gb)
    if r:
        return r, None
    cof = [Polynomial(field) for _ in ideal]
    for q, rep in zip(quots, gb.reps):
        if q:
            cof = [a + q * b for a, b in zip(cof, rep)]
    total = Polynomial(field)
    for c, g in zip(cof, ideal):
        total = total + c * g
    if total != f:
        raise InternalInconsistencyError("cofactor identity failed; tracking bug")
    return r, [ring.reduce(c) for c in cof[: len(gens)]]


def staircase_dimension_from_gb(gb: GroebnerBasis, nvars: int) -> int:
    """Krull dimension of field[x1..xn]/ideal read off the staircase.

    The dimension is the largest size of a variable subset S such that no
    leading monomial involves only variables from S; -1 for the unit ideal.
    Exhaustive over subsets, intended for small nvars.
    """
    if gb.is_full():
        return -1
    supports = [set(lm.indices()) for lm in gb.leads]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(1, nvars + 1), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    raise InternalInconsistencyError("unreachable: the empty subset always qualifies")


def staircase_dimension(
    gens: Sequence[Polynomial], nvars: int, ordering: MonomialOrdering, field
) -> int:
    return staircase_dimension_from_gb(buchberger(gens, ordering, field), nvars)
