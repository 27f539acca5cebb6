"""Monomials in variables x1, x2, ... (1-based indices).

Monomials are interned: every way of building one (Monomial(pairs), var, *,
div, lcm, monomials_up_to_degree, and copy, deepcopy and pickle) returns the
one object kept for its exponent vector, so equal monomials are identical and
compare and hash by identity, in C.  The table keeps one entry per exponent
vector ever built, for the life of the process.
"""

from __future__ import annotations

from operator import add, le, sub
from typing import Iterable, Iterator


class Monomial:
    """An exponent vector stored densely: vector[i - 1] is the exponent of xi.

    Immutable by convention, and shared: each exponent vector has one
    interned object (see the module docstring), so equality is identity.
    Trailing zero exponents are never stored.  The empty vector is the
    constant 1.  Monomial(pairs) returns the one for (index, exponent) pairs
    and checks them; products, quotients, lcms and var() skip that check.
    """

    __slots__ = ("vector", "degree")

    def __new__(cls, exps: Iterable[tuple[int, int]] = ()) -> "Monomial":
        vec: list[int] = []
        for index, exp in exps:
            if index < 1:
                raise ValueError(f"variable index must be >= 1, got {index}")
            if exp < 0:
                raise ValueError(f"exponent must be nonnegative, got {exp}")
            if exp:
                if index > len(vec):
                    vec.extend([0] * (index - len(vec)))
                vec[index - 1] += exp
        return _monomial(tuple(vec))

    def __init__(self, exps: Iterable[tuple[int, int]] = ()):
        """Nothing to set: __new__ returned the interned monomial, built once."""

    def __reduce__(self):
        # copy, deepcopy and unpickling look the vector up again.
        return _monomial, (self.vector,)

    @classmethod
    def var(cls, index: int, exp: int = 1) -> "Monomial":
        if index < 1 or exp < 0:
            raise ValueError(f"no monomial x{index}^{exp}")
        return _monomial((0,) * (index - 1) + (exp,) if exp else ())

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """The nonzero exponents as sorted (index, exponent) pairs."""
        return tuple((i, e) for i, e in enumerate(self.vector, 1) if e)

    def exponent(self, index: int) -> int:
        return self.vector[index - 1] if 0 < index <= len(self.vector) else 0

    def is_one(self) -> bool:
        return not self.vector

    def max_index(self) -> int:
        """Largest variable index with a nonzero exponent; 0 for the constant."""
        return len(self.vector)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.vector, 1) if e)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.vector, other.vector
        if len(a) < len(b):
            a, b = b, a
        return _monomial(tuple(map(add, a, b)) + a[len(b):])

    def divides(self, other: "Monomial") -> bool:
        a, b = self.vector, other.vector
        return len(a) <= len(b) and all(map(le, a, b))

    def div(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; requires other.divides(self)."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        a, b = self.vector, other.vector
        return _monomial(_trim(tuple(map(sub, a, b)) + a[len(b):]))

    def lcm(self, other: "Monomial") -> "Monomial":
        a, b = self.vector, other.vector
        if len(a) < len(b):
            a, b = b, a
        return _monomial(tuple(map(max, a, b)) + a[len(b):])

    def natural_key(self) -> tuple:
        """Ordering-independent sort key, for deterministic bookkeeping only:
        degree, then the sorted (index, exponent) pairs."""
        return (self.degree, self.exps)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.exps)

    def __repr__(self) -> str:
        if not self.vector:
            return "1"
        return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in self.exps)


# Every Monomial ever built, by its exponent vector.
_INTERNED: dict[tuple[int, ...], Monomial] = {}


def _monomial(vector: tuple[int, ...]) -> Monomial:
    """The interned Monomial of a vector without trailing zeros, unchecked."""
    m = _INTERNED.get(vector)
    if m is None:
        m = _INTERNED[vector] = object.__new__(Monomial)
        m.vector, m.degree = vector, sum(vector)
    return m


def _trim(vec: tuple[int, ...]) -> tuple[int, ...]:
    end = len(vec)
    while end and not vec[end - 1]:
        end -= 1
    return vec[:end]


ONE = Monomial()


def monomials_up_to_degree(nvars: int, maxdeg: int) -> list[Monomial]:
    """All monomials in x1..xnvars of total degree <= maxdeg.

    Produced by ascending total degree, then lexicographic exponent vector;
    callers re-sort under a monomial ordering when one is in play.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if maxdeg < 0:
        raise ValueError("degree bound must be nonnegative")
    return [
        _monomial(_trim(vec))
        for total in range(maxdeg + 1)
        for vec in compositions(total, nvars)
    ]


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total,
    in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
