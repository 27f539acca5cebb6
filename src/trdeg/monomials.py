"""Monomials in variables x1, x2, ... (1-based indices).

Monomials are interned: every way of building one (Monomial(pairs), var, *,
div and its unchecked _quotient, lcm, monomials_up_to_degree, and copy,
deepcopy and pickle) returns the one object kept for its exponent vector, so
equal monomials are identical and compare and hash by identity, in C.  The
table keeps one entry per exponent vector ever built, for the life of the
process.

Each monomial also carries its packed code, one int holding the exponent of
xi in bits W*(i-1) to W*i - 1, W = 32, whose top bit is a guard kept zero
(Bachmann & Schoenemann, ISSAC 1998).  The intern table is keyed by code, and
divisibility, products, quotients and lcms are integer operations on codes:
a divides b when b.code - a.code is nonnegative with no guard bit set,
a * b is the monomial of a.code + b.code, and so on.  _GUARD holds the guard
bits of every field of every interned monomial and grows with the longest
vector.  So an exponent must stay below 2^31: building a larger one raises
UnsupportedConfigError naming it.
"""

from __future__ import annotations

from itertools import count
from operator import lshift
from typing import Iterable, Iterator

from .errors import UnsupportedConfigError


class Monomial:
    """An exponent vector stored densely: vector[i - 1] is the exponent of xi,
    and packed in code (see the module docstring).

    Immutable by convention, and shared: each exponent vector has one
    interned object, so equality is identity.  Trailing zero exponents are
    never stored.  The empty vector is the constant 1.  Monomial(pairs)
    returns the one for (index, exponent) pairs and checks them; products,
    quotients, lcms and var() skip that check.  Every way refuses an exponent
    of 2^31 or more.
    """

    __slots__ = ("vector", "degree", "code")

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
        code = self.code + other.code
        return _lookup(code) or _decoded(code)

    def divides(self, other: "Monomial") -> bool:
        # A field where other's exponent is smaller borrows through its guard.
        d = other.code - self.code
        return d >= 0 and not d & _GUARD

    def div(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; requires other.divides(self)."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return _quotient(self, other)

    def lcm(self, other: "Monomial") -> "Monomial":
        # Per field, (a + guard) - b keeps its guard bit exactly when a >= b;
        # mask spreads that bit over the field, and the lcm takes a there and
        # b elsewhere.
        a, b = self.code, other.code
        mask = ((((a | _GUARD) - b) & _GUARD) >> (_W - 1)) * _FIELD
        code = b ^ ((a ^ b) & mask)
        return _lookup(code) or _decoded(code)

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


# Field width of a code, the exponent limit (a field's guard bit) and a
# full field.
_W = 32
_LIMIT = 1 << (_W - 1)
_FIELD = (1 << _W) - 1

# Every Monomial ever built, by its code.
_INTERNED: dict[int, Monomial] = {}
_lookup = _INTERNED.get

# The guard bit of every field of the longest interned vector.
_GUARD = 0


def _monomial(vector: tuple[int, ...]) -> Monomial:
    """The interned Monomial of a vector of nonnegative exponents without
    trailing zeros; an exponent of 2^31 or more is refused."""
    if vector and max(vector) >= _LIMIT:
        _refuse(vector)
    code = sum(map(lshift, vector, count(0, _W)))
    return _lookup(code) or _intern(vector, code)


def _decoded(code: int) -> Monomial:
    """The Monomial of a code that is not interned yet, such as a sum of the
    codes of interned monomials; a field that reached its guard bit is
    refused."""
    vector = tuple((code >> shift) & _FIELD for shift in range(0, code.bit_length(), _W))
    if vector and max(vector) >= _LIMIT:
        _refuse(vector)
    return _intern(vector, code)


def _intern(vector: tuple[int, ...], code: int) -> Monomial:
    global _GUARD
    if len(vector) * _W > _GUARD.bit_length():
        _GUARD = _LIMIT * (((1 << _W * len(vector)) - 1) // _FIELD)
    m = _INTERNED[code] = object.__new__(Monomial)
    m.vector, m.degree, m.code = vector, sum(vector), code
    return m


def _refuse(vector: tuple[int, ...]):
    i, e = next((i, e) for i, e in enumerate(vector, 1) if e >= _LIMIT)
    raise UnsupportedConfigError(f"exponent {e} of x{i} is too large: exponents must be below 2^31")


def _quotient(m: Monomial, d: Monomial) -> Monomial:
    """m / d for a d known to divide m, unchecked."""
    code = m.code - d.code
    return _lookup(code) or _decoded(code)


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
