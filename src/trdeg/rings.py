"""Coefficient rings and algebras.

Rings are lightweight descriptor objects operating on raw element values:
ints for ZZ and the modular rings, for QQ an int when integral and a
Fraction otherwise, Polynomial for polynomial and quotient rings.  Element
values carry no ring pointer, so every operation goes through the ring that
owns it.

The protocol: a ring gives from_int, and zero and one follow from it, and
contains, which accepts exactly its values in that one form (no bool, float
or value of another ring; a quotient's values in normal form).  add,
mul and neg are Python's +, * and unary -; a ring overrides them only when
its values need reducing, and pow squares repeatedly through mul.  A value
is zero exactly when it is falsy, as ints, Fractions and Polynomials are, so
there is no separate zero test.  Rings are frozen dataclasses, so equality
and hashing follow from their fields, and each ring class prints its own
descriptor (ZZ, QQ, Zmod(n), GF(p), Poly(base; names), Quot(Poly(...);
[relations])), the text that parsing.parse_ring_text reads back.

A PolyRing is its own quotient by no relations, so code written against a
QuotRing's poly_ring, relations and reduce takes a PolyRing unchanged.
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

    Override add, mul and neg only when values need reducing.  A value is
    zero exactly when it is falsy.
    """

    is_field = False
    is_finite = False

    def from_int(self, k: int):
        raise NotImplementedError

    def contains(self, v) -> bool:
        """True when v is a value of this ring in its one form."""
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

    def pow(self, a, e: int):
        """a^e for e >= 0, by repeated squaring."""
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        out = self.one()
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return out

    def is_one(self, a) -> bool:
        return a == self.one()

    def div(self, a, b):
        raise TrdegError(f"division is not defined in {self}")

    def format_elem(self, a) -> str:
        return str(a)

    def elements(self) -> Iterator:
        raise TrdegError(f"{self} is not a finite ring")


@dataclass(frozen=True)
class IntegerRing(Ring):
    def from_int(self, k: int):
        return k

    def contains(self, v) -> bool:
        # Not isinstance: a bool would pass as 0 or 1.
        return type(v) is int

    def __repr__(self) -> str:
        return "ZZ"


def _rational(q):
    """The one form of a rational: q's numerator when q is integral."""
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class RationalRing(Ring):
    """QQ; a value is an int when integral and a Fraction otherwise."""

    is_field = True

    def from_int(self, k: int):
        return k

    def contains(self, v) -> bool:
        return type(v) is int or type(v) is Fraction

    def add(self, a, b):
        return _rational(a + b)

    def mul(self, a, b):
        return _rational(a * b)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return _rational(Fraction(a) / b)

    def __repr__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
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

    def contains(self, v) -> bool:
        return type(v) is int and 0 <= v < self.modulus

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))

    def __repr__(self) -> str:
        return f"Zmod({self.modulus})"


@dataclass(frozen=True)
class PrimeField(ModularRing):
    """GF(p); the modulus is checked for primality at construction."""

    is_field = True

    def __post_init__(self):
        if not is_probable_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")

    def div(self, a, b):
        return a * modinv(b, self.modulus) % self.modulus

    def __repr__(self) -> str:
        return f"GF({self.modulus})"


@dataclass(frozen=True)
class PolyRing(Ring):
    """base[v1, ..., vk]; elements are Polynomials with coefficients in base.

    It is its own quotient by no relations: poly_ring is itself, relations
    are () and reduce is the identity.
    """

    base: Ring
    names: tuple[str, ...]
    relations = ()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("polynomial ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    @property
    def poly_ring(self) -> PolyRing:
        return self

    @property
    def nvars(self) -> int:
        return len(self.names)

    def reduce(self, p: Polynomial) -> Polynomial:
        return p

    def var(self, index: int) -> Polynomial:
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        return Polynomial.variable(self.base, index)

    def from_int(self, k: int):
        return Polynomial.constant(self.base, self.base.from_int(k))

    def contains(self, v) -> bool:
        return (
            isinstance(v, Polynomial)
            and v.ring == self.base
            and v.max_var_index() <= self.nvars
            and all(map(self.base.contains, v.terms.values()))
        )

    def format_elem(self, a) -> str:
        from .parsing import poly_to_text

        return poly_to_text(a, self)

    def __repr__(self) -> str:
        return f"Poly({self.base!r}; {','.join(self.names)})"


@dataclass(frozen=True)
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
            if not self.poly_ring.contains(g):
                raise ValueError("relation outside the polynomial ring")

    @cached_property
    def groebner_basis(self):
        from .groebner import buchberger
        from .orderings import GrevLex

        return buchberger(list(self.relations), GrevLex(), self.poly_ring.base)

    def reduce(self, p: Polynomial) -> Polynomial:
        from .groebner import normal_form

        return normal_form(p, self.groebner_basis)

    def contains(self, v) -> bool:
        """An element of poly_ring in normal form."""
        return self.poly_ring.contains(v) and self.reduce(v) == v

    @cached_property
    def _unit_terms(self) -> dict:
        return self.poly_ring.one().terms

    def mul(self, a, b):
        # A normal form times the constant 1 is that normal form: no reduction.
        if a.terms == self._unit_terms:
            return b
        if b.terms == self._unit_terms:
            return a
        return self.reduce(a * b)

    def from_int(self, k: int):
        return self.reduce(self.poly_ring.from_int(k))

    def format_elem(self, a) -> str:
        return self.poly_ring.format_elem(a)

    def __repr__(self) -> str:
        rels = ", ".join(self.poly_ring.format_elem(g) for g in self.relations)
        return f"Quot({self.poly_ring!r}; [{rels}])"


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(n: int) -> ModularRing:
    return ModularRing(n)


def GF(p: int) -> PrimeField:
    return PrimeField(p)
