"""Sparse multivariate polynomials over an arbitrary coefficient ring.

A Polynomial carries the ring its coefficients live in and a dict mapping
Monomial to a nonzero coefficient.  One rule keeps it so: a ring value is
zero exactly when it is falsy, and Polynomial(ring, terms) takes a dict from
Monomial to coefficient and keeps exactly the truthy coefficients; a
Polynomial is itself falsy exactly when it is zero.  All arithmetic goes
through the ring object, so coefficients may themselves be polynomials
(nested rings) or residue classes; nothing here assumes ints.
"""

from __future__ import annotations

from itertools import accumulate, repeat

from .monomials import ONE, Monomial


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict[Monomial, object] = {}):
        # terms is only read, so the shared empty default is safe.
        self.ring = ring
        self.terms: dict[Monomial, object] = {m: c for m, c in terms.items() if c}

    @classmethod
    def constant(cls, ring, value) -> "Polynomial":
        return cls(ring, {ONE: value})

    @classmethod
    def variable(cls, ring, index: int, exp: int = 1) -> "Polynomial":
        return cls(ring, {Monomial.var(index, exp): ring.one()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self.terms)

    def constant_coeff(self):
        return self.terms.get(ONE, self.ring.zero())

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def max_var_index(self) -> int:
        return max((m.max_index() for m in self.terms), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        add = self.ring.add
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = add(terms[m], c) if m in terms else c
        return Polynomial(self.ring, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        r = self.ring
        return Polynomial(r, {m: r.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        r = self.ring
        acc: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                prod = r.mul(c1, c2)
                acc[m] = r.add(acc[m], prod) if m in acc else prod
        return Polynomial(r, acc)

    def scale(self, c) -> "Polynomial":
        r = self.ring
        return Polynomial(r, {m: r.mul(c, v) for m, v in self.terms.items()})

    def mul_term(self, mon: Monomial, c) -> "Polynomial":
        r = self.ring
        return Polynomial(r, {m * mon: r.mul(c, v) for m, v in self.terms.items()})

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"({c!r})*{m!r}" for m, c in sorted(self.terms.items(), key=lambda t: t[0].natural_key())]
        return " + ".join(parts)


def leading_term(f: Polynomial, ordering) -> tuple[Monomial, object]:
    """(monomial, coefficient) of the ordering-greatest monomial of f != 0."""
    if not f:
        raise ValueError("zero polynomial has no leading term")
    best = max(f.terms, key=ordering.key)
    return best, f.terms[best]


def trailing_term(f: Polynomial, ordering) -> tuple[Monomial, object]:
    """(monomial, coefficient) of the ordering-least monomial of f != 0."""
    if not f:
        raise ValueError("zero polynomial has no trailing term")
    best = min(f.terms, key=ordering.key)
    return best, f.terms[best]


def eval_poly(f: Polynomial, args: list, algebra, scalar_map=None):
    """Evaluate f at args[0], args[1], ... inside the given algebra.

    scalar_map embeds a coefficient of f into the algebra; by default the
    coefficient ring must equal the algebra.  Variable xi beyond len(args)
    is an error.
    """
    if scalar_map is None:
        if f.ring != algebra:
            raise ValueError("coefficient ring differs from algebra; pass scalar_map")
        scalar_map = lambda c: c

    if f.max_var_index() > len(args):
        raise ValueError(
            f"polynomial uses x{f.max_var_index()} but only {len(args)} values given"
        )

    # Each argument's powers a, a^2, ..., up to its largest exponent in f,
    # each the one below times a.
    tops = [0] * len(args)
    for mon in f.terms:
        for i, e in enumerate(mon.vector):
            if e > tops[i]:
                tops[i] = e
    mul = algebra.mul
    powers = [list(accumulate(repeat(a, t - 1), mul, initial=a)) for a, t in zip(args, tops)]

    total = algebra.zero()
    for mon, coeff in sorted(f.terms.items(), key=lambda t: t[0].natural_key()):
        v = scalar_map(coeff)
        for row, e in zip(powers, mon.vector):
            if e:
                v = mul(v, row[e - 1])
        total = algebra.add(total, v)
    return total
