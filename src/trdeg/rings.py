"""Coefficient rings and algebras.

Rings are lightweight descriptor objects operating on raw element values:
ints for ZZ and the modular rings, Fraction for QQ, Polynomial for
polynomial and quotient rings.  Element values carry no ring pointer, so
every operation goes through the ring that owns it.

The protocol: a ring gives from_int, and zero and one follow from it.  add,
mul and neg are Python's +, * and unary -, and is_zero(a) is ``not a``; a
ring overrides them only when its values need reducing or are not falsy at
zero.  Rings are frozen dataclasses, so equality and hashing follow from
their fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import TrdegError
from .intmath import is_probable_prime, modinv
from .polynomials import Polynomial


class Ring:
    """A commutative ring over raw values: subclasses give from_int.

    Override add, mul and neg only when values need reducing, and is_zero
    only when a value is not falsy exactly at zero.
    """

    is_field = False
    is_finite = False

    def from_int(self, k: int):
        raise NotImplementedError

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return not a

    def is_one(self, a) -> bool:
        return a == self.one()

    def div(self, a, b):
        raise TrdegError(f"division is not defined in {self}")

    def format_elem(self, a) -> str:
        return str(a)

    def elements(self) -> Iterator:
        raise TrdegError(f"{self} is not a finite ring")

    def __repr__(self) -> str:
        from .parsing import ring_to_text

        return ring_to_text(self)


@dataclass(frozen=True, repr=False)
class IntegerRing(Ring):
    def from_int(self, k: int):
        return k


@dataclass(frozen=True, repr=False)
class RationalRing(Ring):
    is_field = True

    def from_int(self, k: int):
        return Fraction(k)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b


@dataclass(frozen=True, repr=False)
class ModularRing(Ring):
    """Z/n for n >= 2; elements are ints in range(n)."""

    modulus: int
    is_finite = True

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def from_int(self, k: int):
        return k % self.modulus

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))


@dataclass(frozen=True, repr=False)
class PrimeField(ModularRing):
    """GF(p); the modulus is checked for primality at construction."""

    is_field = True

    def __post_init__(self):
        if not is_probable_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")

    def div(self, a, b):
        return a * modinv(b, self.modulus) % self.modulus


@dataclass(frozen=True, repr=False)
class PolyRing(Ring):
    """base[v1, ..., vk]; elements are Polynomials with coefficients in base."""

    base: Ring
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("polynomial ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def var(self, index: int) -> Polynomial:
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        return Polynomial.variable(self.base, index)

    def var_by_name(self, name: str) -> Polynomial:
        return self.var(self.names.index(name) + 1)

    def from_int(self, k: int):
        return Polynomial.constant(self.base, self.base.from_int(k))

    def contains_value(self, a) -> bool:
        return (
            isinstance(a, Polynomial)
            and a.ring == self.base
            and a.max_var_index() <= self.nvars
        )

    def format_elem(self, a) -> str:
        from .parsing import poly_to_text

        return poly_to_text(a, self)


@dataclass(frozen=True, repr=False)
class QuotRing(Ring):
    """poly_ring / (relations), with poly_ring over a field.

    Elements are Polynomials in normal form with respect to a reduced Groebner
    basis of the relation ideal, so value equality is ring equality.  The
    basis is computed on first use under a graded reverse lexicographic
    ordering with the natural variable priority.  Only products are reduced:
    normal forms are closed under addition and negation, which introduce no
    new reducible monomials.
    """

    poly_ring: PolyRing
    relations: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        if not self.poly_ring.base.is_field:
            raise ValueError("quotient rings are supported over field coefficients only")
        for g in self.relations:
            if not self.poly_ring.contains_value(g):
                raise ValueError("relation outside the polynomial ring")

    @cached_property
    def groebner_basis(self):
        from .groebner import buchberger
        from .orderings import GrevLex

        return buchberger(list(self.relations), GrevLex(), self.poly_ring.base)

    def reduce(self, p: Polynomial) -> Polynomial:
        from .groebner import normal_form

        return normal_form(p, self.groebner_basis)

    def mul(self, a, b):
        return self.reduce(a * b)

    def from_int(self, k: int):
        return self.reduce(self.poly_ring.from_int(k))

    def format_elem(self, a) -> str:
        return self.poly_ring.format_elem(a)


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(n: int) -> ModularRing:
    return ModularRing(n)


def GF(p: int) -> PrimeField:
    return PrimeField(p)
