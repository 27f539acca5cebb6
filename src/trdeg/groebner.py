"""Buchberger's algorithm over field coefficients, with optional cofactor
tracking so ideal membership can return an explicit witness.

GroebnerBasis is the one basis class and holds the one pair loop: append
queues a generator's pairs and complete treats them.  buchberger appends
every generator, completes once and reduces the basis in place; the ideal
route of the dependence search adds one value at a time and completes after
each, so only the new pairs are formed.  Queued pairs wait in a heap keyed
by (ordering key of the lcm, i, j), which is the normal strategy (least lcm
under the ordering, ties to the least index pair); each pair's lcm and key
are computed once, when the pair is formed.  Pairs are skipped by the
coprime-leading-monomial criterion and the chain criterion.  Each element
is made monic as it enters the basis, together with its cofactor row, so
neither S-polynomials nor division divide by a leading coefficient.  The
basis buchberger returns is reduced (minimal, inter-reduced, monic, sorted
by ascending leading monomial), hence canonical for the ideal and ordering.
Inter-reduction takes one pass: the leading monomials of a minimal basis are
pairwise indivisible and reducing a tail never changes them, so a tail
reduced once stays reduced.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Optional, Sequence

from .errors import InternalInconsistencyError
from .monomials import Monomial
from .orderings import GrevLex, MonomialOrdering
from .polynomials import Polynomial, leading_term


def _rep_minus(rep, quots, reps) -> list[Polynomial]:
    """rep - sum(quots_i * reps_i), row by row."""
    for q, other in zip(quots, reps):
        if q:
            rep = [a - q * b for a, b in zip(rep, other)]
    return rep


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
    quotient and remainder monomial is written once."""
    remainder: dict[Monomial, object] = {}
    work = p
    while work:
        lm, lc = leading_term(work, ordering)
        for i, glm in enumerate(leads):
            if glm.divides(lm):
                mon = lm.div(glm)
                work = work - divisors[i].mul_term(mon, lc)
                if quotients is not None:
                    quotients[i][mon] = lc
                break
        else:
            remainder[lm] = lc
            work = work - Polynomial(field, {lm: lc})
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
    combined from the appended generators."""

    def __init__(self, ordering: MonomialOrdering, field, track: bool = False):
        self.ordering = ordering
        self.field = field
        self.polys: list[Polynomial] = []
        self.leads: list[Monomial] = []
        self.reps: Optional[list[list[Polynomial]]] = [] if track else None
        # (ordering key of the lcm, i, j, lcm) of every untreated pair i < j;
        # live holds their (i, j) for the chain criterion.
        self._heap: list[tuple] = []
        self._live: set[tuple[int, int]] = set()

    def append(self, g: Polynomial, rep: Optional[list[Polynomial]] = None) -> None:
        """Add g != 0 and its cofactor row, both scaled so g is monic, and its pairs."""
        lm, lc = leading_term(g, self.ordering)
        field = self.field
        if not field.is_one(lc):
            inv = field.div(field.one(), lc)
            g = g.scale(inv)
            if self.reps is not None:
                rep = [c.scale(inv) for c in rep]
        new = len(self.polys)
        self.polys.append(g)
        if self.reps is not None:
            self.reps.append(rep)
        for k, other in enumerate(self.leads):
            lcm = other.lcm(lm)
            heapq.heappush(self._heap, (self.ordering.key(lcm), k, new, lcm))
            self._live.add((k, new))
        self.leads.append(lm)

    def complete(self) -> None:
        """Reduce the S-polynomial of every queued pair, appending nonzero
        remainders (whose pairs join the queue), until no pair is left."""
        polys, leads, reps, live = self.polys, self.leads, self.reps, self._live
        one = self.field.one()
        while self._heap:
            _, i, j, lcm = heapq.heappop(self._heap)
            live.discard((i, j))
            lm_i, lm_j = leads[i], leads[j]
            if lcm == lm_i * lm_j:
                continue  # coprime leading monomials reduce to zero
            if any(
                k != i
                and k != j
                and leads[k].divides(lcm)
                and (min(i, k), max(i, k)) not in live
                and (min(j, k), max(j, k)) not in live
                for k in range(len(polys))
            ):
                continue  # chain criterion

            mon_i = lcm.div(lm_i)
            mon_j = lcm.div(lm_j)
            s = polys[i].mul_term(mon_i, one) - polys[j].mul_term(mon_j, one)
            if reps is None:
                r = _remainder(s, polys, leads, self.ordering, self.field)
                if r:
                    self.append(r)
                continue
            r, quots = _divide(s, polys, leads, self.ordering, self.field)
            if r:
                rep = [
                    a.mul_term(mon_i, one) - b.mul_term(mon_j, one)
                    for a, b in zip(reps[i], reps[j])
                ]
                self.append(r, _rep_minus(rep, quots, reps))

    def add(self, p: Polynomial) -> bool:
        """True when p lies in the ideal of the complete basis; otherwise its
        normal form joins and the basis is completed again.  Untracked only:
        a tracked basis is refused before anything changes."""
        if self.reps is not None:
            raise ValueError("add needs an untracked basis: it has no cofactor row for p")
        r = _remainder(p, self.polys, self.leads, self.ordering, self.field)
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


def ideal_membership(f: Polynomial, gens: Sequence[Polynomial], ordering: MonomialOrdering, field) -> bool:
    return not normal_form(f, buchberger(gens, ordering, field))


def membership_cofactors(
    f: Polynomial, gens: Sequence[Polynomial], ordering: MonomialOrdering, field
) -> Optional[list[Polynomial]]:
    """Cofactors c with f == sum(c_k * gens_k), or None when f is outside."""
    return reduce_with_cofactors(f, gens, ordering, field)[1]


def reduce_with_cofactors(
    f: Polynomial, gens: Sequence[Polynomial], ordering: MonomialOrdering, field
) -> tuple[Polynomial, Optional[list[Polynomial]]]:
    """(normal form r of f modulo the ideal of gens, cofactors c or None),
    from one tracked basis.  c comes when r is zero, and the witness identity
    f == sum(c_k * gens_k) is re-checked by substitution before returning."""
    gens = list(gens)
    gb = buchberger(gens, ordering, field, track=True)
    r, quots = normal_form_with_quotients(f, gb)
    if r:
        return r, None
    cof = [Polynomial(field) for _ in gens]
    for q, rep in zip(quots, gb.reps):
        if q:
            cof = [a + q * b for a, b in zip(cof, rep)]
    total = Polynomial(field)
    for c, g in zip(cof, gens):
        total = total + c * g
    if total != f:
        raise InternalInconsistencyError("cofactor identity failed; tracking bug")
    return r, cof


def ideal_cofactors(target: Polynomial, gens: list, ring) -> Optional[list]:
    """Cofactors c in ring with target == sum(c_k * gens_k), or None.

    ring is a polynomial ring over a field or a quotient of one; a quotient's
    relations join the generators, and its cofactors come back reduced.
    """
    ideal = gens + list(ring.relations)
    cof = membership_cofactors(target, ideal, GrevLex(), ring.poly_ring.base)
    return None if cof is None else [ring.reduce(c) for c in cof[: len(gens)]]


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
