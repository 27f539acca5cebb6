"""Buchberger's algorithm over field coefficients, with optional cofactor
tracking so ideal membership can return an explicit witness.

Pair selection is the normal strategy (least lcm under the ordering, ties to
the least index pair); each pair's lcm and its ordering key are computed
once, when the pair is formed.  Pairs are skipped by the coprime-leading-
monomial criterion and the chain criterion.  The returned basis is reduced
(minimal, inter-reduced, monic, sorted by ascending leading monomial), hence
canonical for the ideal and ordering.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .errors import InternalInconsistencyError
from .monomials import Monomial
from .orderings import MonomialOrdering
from .polynomials import Polynomial, leading_term


class GroebnerBasis:
    def __init__(
        self,
        field,
        ordering: MonomialOrdering,
        polys: list[Polynomial],
        reps: Optional[list[list[Polynomial]]] = None,
    ):
        self.field = field
        self.ordering = ordering
        self.polys = polys
        self.reps = reps  # reps[i][k]: cofactor of gens[k] in polys[i]

    def __iter__(self):
        return iter(self.polys)

    def leading_monomials(self) -> list[Monomial]:
        return [leading_term(g, self.ordering)[0] for g in self.polys]

    def is_unit_ideal(self) -> bool:
        return any(lm.is_one() for lm in self.leading_monomials())


def _rep_zero(field, count: int) -> list[Polynomial]:
    return [Polynomial(field) for _ in range(count)]


def _divide(
    p: Polynomial,
    divisors: list[Polynomial],
    leads: list[tuple[Monomial, object]],
    ordering: MonomialOrdering,
    field,
) -> tuple[Polynomial, list[Polynomial]]:
    """Full division: p == sum(q_i * divisors_i) + r with no monomial of r
    divisible by any divisor's leading monomial."""
    remainder = Polynomial(field)
    quotients = [Polynomial(field) for _ in divisors]
    work = p
    while not work.is_zero():
        lm, lc = leading_term(work, ordering)
        for i, (glm, glc) in enumerate(leads):
            if glm.divides(lm):
                mon = lm.div(glm)
                c = field.div(lc, glc)
                work = work - divisors[i].mul_term(mon, c)
                quotients[i] = quotients[i] + Polynomial(field, {mon: c})
                break
        else:
            t = Polynomial(field, {lm: lc})
            remainder = remainder + t
            work = work - t
    return remainder, quotients


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    leads = [leading_term(g, gb.ordering) for g in gb.polys]
    r, _ = _divide(p, gb.polys, leads, gb.ordering, gb.field)
    return r


def normal_form_with_quotients(
    p: Polynomial, gb: GroebnerBasis
) -> tuple[Polynomial, list[Polynomial]]:
    leads = [leading_term(g, gb.ordering) for g in gb.polys]
    return _divide(p, gb.polys, leads, gb.ordering, gb.field)


def buchberger(
    gens: Sequence[Polynomial],
    ordering: MonomialOrdering,
    field,
    track: bool = False,
) -> GroebnerBasis:
    gens = list(gens)
    n_gens = len(gens)
    basis: list[Polynomial] = []
    reps: list[list[Polynomial]] = []
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        basis.append(g)
        if track:
            reps.append(_rep_zero(field, n_gens))
            reps[-1][k] = Polynomial.constant(field, field.one())

    leads = [leading_term(g, ordering) for g in basis]
    # (i, j) -> (ordering key of the lcm, lcm) of the pair's leading monomials.
    pending: dict[tuple[int, int], tuple[tuple, Monomial]] = {}

    def add_pairs(pairs) -> None:
        for i, j in pairs:
            lcm = leads[i][0].lcm(leads[j][0])
            pending[i, j] = (ordering.key(lcm), lcm)

    add_pairs(combinations(range(len(basis)), 2))
    while pending:
        best = min(pending, key=lambda p: (pending[p][0], p))
        best_lcm = pending.pop(best)[1]
        i, j = best
        lm_i, lm_j = leads[i][0], leads[j][0]
        if best_lcm == lm_i * lm_j:
            continue  # coprime leading monomials reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if leads[k][0].divides(best_lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue

        mon_i = best_lcm.div(lm_i)
        mon_j = best_lcm.div(lm_j)
        inv_i = field.div(field.one(), leads[i][1])
        inv_j = field.div(field.one(), leads[j][1])
        s = basis[i].mul_term(mon_i, inv_i) - basis[j].mul_term(mon_j, inv_j)
        r, quots = _divide(s, basis, leads, ordering, field)
        if r.is_zero():
            continue
        if track:
            rep = [
                a.mul_term(mon_i, inv_i) - b.mul_term(mon_j, inv_j)
                for a, b in zip(reps[i], reps[j])
            ]
            for q, other in zip(quots, reps):
                if not q.is_zero():
                    rep = [a - q * b for a, b in zip(rep, other)]
            reps.append(rep)
        new_index = len(basis)
        basis.append(r)
        leads.append(leading_term(r, ordering))
        add_pairs((k, new_index) for k in range(new_index))

    return _reduce_basis(basis, reps if track else None, ordering, field)


def _reduce_basis(
    basis: list[Polynomial],
    reps: Optional[list[list[Polynomial]]],
    ordering: MonomialOrdering,
    field,
) -> GroebnerBasis:
    # Minimal: drop any element whose leading monomial another one divides.
    order_key = lambda idx: leading_term(basis[idx], ordering)[0].natural_key()
    keep: list[int] = []
    for idx in sorted(range(len(basis)), key=order_key):
        lm = leading_term(basis[idx], ordering)[0]
        if not any(
            leading_term(basis[k], ordering)[0].divides(lm) for k in keep
        ):
            keep.append(idx)
    polys = [basis[k] for k in keep]
    kept_reps = [reps[k] for k in keep] if reps is not None else None

    # Inter-reduce tails to a fixpoint; leading monomials are already
    # pairwise indivisible so no element collapses to zero.
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1 :]
            leads = [leading_term(g, ordering) for g in others]
            r, quots = _divide(polys[i], others, leads, ordering, field)
            if r != polys[i]:
                changed = True
                if reps is not None:
                    rep = kept_reps[i]
                    other_reps = kept_reps[:i] + kept_reps[i + 1 :]
                    for q, other in zip(quots, other_reps):
                        if not q.is_zero():
                            rep = [a - q * b for a, b in zip(rep, other)]
                    kept_reps[i] = rep
                polys[i] = r

    for i, g in enumerate(polys):
        _, lc = leading_term(g, ordering)
        if not field.is_one(lc):
            inv = field.div(field.one(), lc)
            polys[i] = g.scale(inv)
            if reps is not None:
                kept_reps[i] = [c.scale(inv) for c in kept_reps[i]]

    lead_key = lambda k: ordering.key(leading_term(polys[k], ordering)[0])
    final = sorted(range(len(polys)), key=lead_key)
    polys = [polys[k] for k in final]
    if reps is not None:
        kept_reps = [kept_reps[k] for k in final]
    return GroebnerBasis(field, ordering, polys, kept_reps)


def ideal_membership(f: Polynomial, gens: Sequence[Polynomial], ordering: MonomialOrdering, field) -> bool:
    gb = buchberger(gens, ordering, field)
    if not gb.polys:
        return f.is_zero()
    return normal_form(f, gb).is_zero()


def membership_cofactors(
    f: Polynomial, gens: Sequence[Polynomial], ordering: MonomialOrdering, field
) -> Optional[list[Polynomial]]:
    """Cofactors c with f == sum(c_k * gens_k), or None when f is outside.

    The witness identity is re-checked by substitution before returning.
    """
    gens = list(gens)
    gb = buchberger(gens, ordering, field, track=True)
    if not gb.polys:
        return _rep_zero(field, len(gens)) if f.is_zero() else None
    r, quots = normal_form_with_quotients(f, gb)
    if not r.is_zero():
        return None
    cof = _rep_zero(field, len(gens))
    for q, rep in zip(quots, gb.reps):
        if not q.is_zero():
            cof = [a + q * b for a, b in zip(cof, rep)]
    total = Polynomial(field)
    for c, g in zip(cof, gens):
        total = total + c * g
    if total != f:
        raise InternalInconsistencyError("cofactor identity failed; tracking bug")
    return cof


def staircase_dimension_from_gb(gb: GroebnerBasis, nvars: int) -> int:
    """Krull dimension of field[x1..xn]/ideal read off the staircase.

    The dimension is the largest size of a variable subset S such that no
    leading monomial involves only variables from S; -1 for the unit ideal.
    Exhaustive over subsets, intended for small nvars.
    """
    if gb.is_unit_ideal():
        return -1
    supports = [set(lm.indices()) for lm in gb.leading_monomials()]
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
