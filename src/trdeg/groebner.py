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

An untracked basis over QQ is integral: it keeps each element as a
primitive integer polynomial with a positive leading coefficient, so its
S-polynomials and divisions run on integers, fraction-free (the idea of
Bareiss, Math. Comp. 1968).  An S-polynomial takes the cofactors L_j/g and
L_i/g of the leading coefficients, g = gcd(L_i, L_j), and a division step by
a leading coefficient L other than 1 scales the work by L/gcd(lc, L) first
(see _remainder).  Every other basis, tracked or over GF(p), makes each
element monic as it enters, together with its cofactor row, so cofactors
and certificates carry no scale.  Every reduced basis is monic:
_reduce_basis makes an integral basis monic, and the basis buchberger
returns is reduced (minimal, inter-reduced, monic, sorted by ascending
leading monomial), hence canonical for the ideal and ordering.
Inter-reduction takes one pass: the leading monomials of a minimal basis
are pairwise indivisible and reducing a tail never changes them, so a tail
reduced once stays reduced.

Every division (normal_form, the tracked quotients, the pair loop, add,
inter-reduction and QuotRing.reduce) runs one loop, _remainder, a sparse
division that keeps the work as a term dict beside a heap of its monomials,
greatest first (Johnson 1974; Monagan & Pearce 2007).  Each monomial's
ordering key is computed once, when it enters the work, the leading term is
a heap pop, the scan for a divisor tests divisibility on the packed
monomial codes inline (see monomials), and a reduction step touches only
the divisor's terms.  An S-polynomial, and each entry of a tracked one's
cofactor row, is built straight into one term dict (_spoly).
normal_form and normal_form_with_quotients answer exactly on every basis:
on an integral one, p's denominators are cleared on entry and the result is
divided by the accumulated scale once at the end.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from . import monomials
from .errors import InternalInconsistencyError
from .monomials import Monomial, _quotient
from .orderings import MonomialOrdering
from .polynomials import Polynomial, leading_term
from .rings import QQ


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
) -> tuple[Polynomial, int]:
    """(r, scale) of full division by divisors with leading monomials leads:
    scale * p == sum(q_i * divisors_i) + r with no monomial of r divisible by
    any lead.  The terms of q_i are written into quotients[i] when quotients
    is given.  The leading monomial of the work strictly falls, so each
    quotient and remainder monomial is written once.

    The work is a term dict beside a heap of its monomials, greatest first,
    and a monomial's ordering key is computed once, when it enters the dict.
    A step pops the leading term lc * lm and subtracts lc * mon * divisor
    term by term, the divisor's leading term included, which cancels the
    popped term; a term that no lead divides moves to r.  A term that cancels leaves its heap entry behind, and a
    popped monomial no longer in the dict is skipped.

    Each divisor is monic, or p and the divisors have integer coefficients
    (an integral basis).  A step by a divisor whose leading coefficient L is
    not 1 first multiplies the work, r and the quotients so far by
    L / gcd(lc, L) and then subtracts (lc / gcd(lc, L)) * mon * divisor, so
    everything stays integral; scale is the product of those factors, 1 when
    every divisor used is monic."""
    key, add, mul, neg = ordering.key, field.add, field.mul, field.neg
    push, pop = heapq.heappush, heapq.heappop
    # Divisibility on codes, as Monomial.divides tests it; the guard covers
    # every field of every lead, all interned before this call.
    guard = monomials._GUARD
    work = dict(p.terms)
    get = work.get
    heap = [_Greatest(key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, object] = {}
    scale = 1
    while heap:
        lm = pop(heap).mon
        lc = get(lm)
        if lc is None:
            continue
        code = lm.code
        for i, glm in enumerate(leads):
            d = code - glm.code
            if d >= 0 and not d & guard:
                terms = divisors[i].terms
                top = terms[glm]
                if top != 1:
                    d = math.gcd(lc, top)
                    lc, s = lc // d, top // d
                    if s != 1:
                        scale *= s
                        for part in (work, remainder, *(quotients or ())):
                            for m, v in part.items():
                                part[m] = v * s
                mon = _quotient(lm, glm)
                minus = neg(lc)
                for m, v in terms.items():
                    m = m * mon
                    c = mul(minus, v)
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
    return Polynomial(field, remainder), scale


def _cleared(p: Polynomial) -> tuple[Polynomial, int]:
    """(den * p, den) for the least den > 0 that makes p's coefficients ints."""
    if Fraction not in map(type, p.terms.values()):
        return p, 1
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return p.scale(den), den


def _divide(
    p: Polynomial,
    divisors: list[Polynomial],
    leads: list[Monomial],
    ordering: MonomialOrdering,
    field,
) -> tuple[Polynomial, list[Polynomial]]:
    """(remainder, quotients) of _remainder's division by monic divisors."""
    quotients: list[dict[Monomial, object]] = [{} for _ in divisors]
    r = _remainder(p, divisors, leads, ordering, field, quotients)[0]
    return r, [Polynomial(field, q) for q in quotients]


def _exact_remainder(
    p: Polynomial, gb: GroebnerBasis, quotients: Optional[list[dict[Monomial, object]]] = None
) -> Polynomial:
    """The remainder r of p by gb.polys, p == sum(q_i * gb.polys[i]) + r, with
    the terms of q_i written into quotients[i] when quotients is given.  On an
    integral basis p's denominators are cleared on entry, and r and the
    quotients are divided by the accumulated scale once at the end."""
    den = 1
    if gb.integral:
        p, den = _cleared(p)
    field = gb.field
    r, scale = _remainder(p, gb.polys, gb.leads, gb.ordering, field, quotients)
    scale *= den
    if scale == 1:
        return r
    inv = field.div(field.one(), scale)
    for q in quotients or ():
        for m, v in q.items():
            q[m] = field.mul(v, inv)
    return r.scale(inv)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    return _exact_remainder(p, gb)


def normal_form_with_quotients(
    p: Polynomial, gb: GroebnerBasis
) -> tuple[Polynomial, list[Polynomial]]:
    quotients: list[dict[Monomial, object]] = [{} for _ in gb.polys]
    r = _exact_remainder(p, gb, quotients)
    return r, [Polynomial(gb.field, q) for q in quotients]


class GroebnerBasis:
    """A Groebner basis of the ideal of everything appended, once complete
    has run; leads[i] is the leading monomial of polys[i].  With track,
    reps[i] is combined from the rows given to append exactly as polys[i] is
    combined from the appended generators.  Untracked over QQ, the basis is
    integral: it keeps each element primitive in ZZ[x] with a positive
    leading coefficient, until _reduce_basis makes it monic; every other
    basis keeps monic elements (see the module docstring).

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
        self.integral = not track and field == QQ
        # (ordering key of the lcm, i, j, lcm) of every queued pair i < j.
        self._heap: list[tuple] = []
        # The indices of the active elements, those whose leading monomial no
        # later leading monomial divides, and their polys and leads, the
        # divisors of every division.
        self._active: list[int] = []
        self._divisors: tuple[list[Polynomial], list[Monomial]] = ([], [])

    def append(self, g: Polynomial, rep: Optional[list[Polynomial]] = None) -> None:
        """Add g != 0 and its cofactor row, both scaled so g is monic (in an
        integral basis: g alone, so it is primitive with lc > 0), and its pairs."""
        lm, lc = leading_term(g, self.ordering)
        field = self.field
        if self.integral:
            g = _primitive(g, lc)
        elif not field.is_one(lc):
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
        # Product criterion: a class with coprime leading monomials, whose
        # lcm is their product, so its degree is the sum, goes whole.
        degree = lm.degree
        coprime = {lcm for lcm, k in pairs if lcm.degree == leads[k].degree + degree}
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
        while self._heap:
            _, i, j, lcm = heapq.heappop(self._heap)
            mon_i = _quotient(lcm, leads[i])
            mon_j = _quotient(lcm, leads[j])
            # The leading-coefficient cofactors, 1 and 1 unless integral.
            c_i = c_j = 1
            if self.integral:
                top_i, top_j = polys[i].terms[leads[i]], polys[j].terms[leads[j]]
                if top_i != top_j:
                    d = math.gcd(top_i, top_j)
                    c_i, c_j = top_j // d, top_i // d
            s = _spoly(polys[i], mon_i, c_i, polys[j], mon_j, c_j, self.field)
            if reps is None:
                r = _remainder(s, *self._divisors, self.ordering, self.field)[0]
                if r:
                    self.append(r)
                continue
            r, quots = _divide(s, *self._divisors, self.ordering, self.field)
            if r:
                rep = [
                    _spoly(a, mon_i, c_i, b, mon_j, c_j, self.field)
                    for a, b in zip(reps[i], reps[j])
                ]
                self.append(r, _rep_minus(rep, quots, [reps[k] for k in self._active]))

    def add(self, p: Polynomial) -> bool:
        """True when p lies in the ideal of the complete basis; otherwise its
        normal form joins and the basis is completed again.  Untracked only:
        a tracked basis is refused before anything changes."""
        if self.reps is not None:
            raise ValueError("add needs an untracked basis: it has no cofactor row for p")
        if self.integral:
            p = _cleared(p)[0]
        r = _remainder(p, *self._divisors, self.ordering, self.field)[0]
        if not r:
            return True
        self.append(r)
        self.complete()
        return False

    def is_full(self) -> bool:
        """True when the ideal is the whole ring."""
        return any(lm.is_one() for lm in self.leads)


def _spoly(
    f: Polynomial, mon_f: Monomial, c_f, g: Polynomial, mon_g: Monomial, c_g, field
) -> Polynomial:
    """c_f * mon_f * f - c_g * mon_g * g, built in one term dict."""
    add, mul, neg = field.add, field.mul, field.neg
    terms = {m * mon_f: mul(c_f, v) for m, v in f.terms.items()}
    for m, v in g.terms.items():
        m = m * mon_g
        c = neg(mul(c_g, v))
        terms[m] = add(terms[m], c) if m in terms else c
    return Polynomial(field, terms)


def _primitive(g: Polynomial, lc) -> Polynomial:
    """The primitive integer polynomial with a positive leading coefficient
    that is a rational multiple of g, whose leading coefficient is lc."""
    g = _cleared(g)[0]
    content = math.gcd(*g.terms.values())
    if lc < 0:
        content = -content
    return g if content == 1 else Polynomial(g.ring, {m: c // content for m, c in g.terms.items()})


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
    if basis.integral:
        one = field.one()
        polys = [
            g if g.terms[lm] == 1 else g.scale(field.div(one, g.terms[lm]))
            for g, lm in zip(polys, leads)
        ]
        basis.integral = False

    # Inter-reduce tails; one pass suffices (see the module docstring).
    for i in range(len(polys)):
        others = leads[:i] + leads[i + 1 :]
        if reps is None:
            polys[i] = _remainder(polys[i], polys[:i] + polys[i + 1 :], others, ordering, field)[0]
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
