"""Coefficient rings and algebras.

Rings are lightweight descriptor objects operating on raw element values:
ints for ZZ and the modular rings, Fraction for QQ, Polynomial for
polynomial and quotient rings.  Element values carry no ring pointer, so
every operation goes through the ring that owns it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import TrdegError
from .intmath import is_probable_prime, modinv
from .polynomials import Polynomial


class Ring:
    is_field = False
    is_finite = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_one(self, a) -> bool:
        return a == self.one()

    def from_int(self, k: int):
        raise NotImplementedError

    def div(self, a, b):
        raise TrdegError(f"division is not defined in {self}")

    def format_elem(self, a) -> str:
        return str(a)

    def elements(self) -> Iterator:
        raise TrdegError(f"{self} is not a finite ring")

    def __repr__(self) -> str:
        from .parsing import ring_to_text

        return ring_to_text(self)


class IntegerRing(Ring):
    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, k: int):
        return k

    def __eq__(self, other):
        return type(other) is IntegerRing

    def __hash__(self):
        return hash("ZZ")


class RationalRing(Ring):
    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b

    def from_int(self, k: int):
        return Fraction(k)

    def __eq__(self, other):
        return type(other) is RationalRing

    def __hash__(self):
        return hash("QQ")


class ModularRing(Ring):
    """Z/n for n >= 2; elements are ints in range(n)."""

    is_finite = True

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus

    def zero(self):
        return 0

    def one(self):
        return 1 % self.modulus

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

    def __eq__(self, other):
        return type(other) is type(self) and other.modulus == self.modulus

    def __hash__(self):
        return hash((type(self).__name__, self.modulus))


class PrimeField(ModularRing):
    """GF(p); the modulus is checked for primality at construction."""

    is_field = True

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)

    def div(self, a, b):
        return a * modinv(b, self.modulus) % self.modulus


class PolyRing(Ring):
    """base[v1, ..., vk]; elements are Polynomials with coefficients in base."""

    def __init__(self, base: Ring, names: tuple[str, ...]):
        if not names:
            raise ValueError("polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.base = base
        self.names = tuple(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def var(self, index: int) -> Polynomial:
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        return Polynomial.variable(self.base, index)

    def var_by_name(self, name: str) -> Polynomial:
        return self.var(self.names.index(name) + 1)

    def zero(self):
        return Polynomial(self.base)

    def one(self):
        return Polynomial.constant(self.base, self.base.one())

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a.is_zero()

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

    def __eq__(self, other):
        return (
            type(other) is PolyRing
            and other.base == self.base
            and other.names == self.names
        )

    def __hash__(self):
        return hash(("Poly", self.base, self.names))


class QuotRing(Ring):
    """poly_ring / (relations), with poly_ring over a field.

    Elements are Polynomials in normal form with respect to a reduced Groebner
    basis of the relation ideal, so value equality is ring equality.  The
    basis is computed on first use under a graded reverse lexicographic
    ordering with the natural variable priority.
    """

    def __init__(self, poly_ring: PolyRing, relations: tuple[Polynomial, ...]):
        if not poly_ring.base.is_field:
            raise ValueError("quotient rings are supported over field coefficients only")
        for g in relations:
            if not poly_ring.contains_value(g):
                raise ValueError("relation outside the polynomial ring")
        self.poly_ring = poly_ring
        self.relations = tuple(relations)
        self._basis = None

    @property
    def groebner_basis(self):
        if self._basis is None:
            from .groebner import buchberger
            from .orderings import GrevLex

            self._basis = buchberger(
                list(self.relations), GrevLex(), self.poly_ring.base
            )
        return self._basis

    def reduce(self, p: Polynomial) -> Polynomial:
        from .groebner import normal_form

        return normal_form(p, self.groebner_basis)

    def zero(self):
        return self.poly_ring.zero()

    def one(self):
        return self.reduce(self.poly_ring.one())

    def add(self, a, b):
        # Normal forms are closed under addition: no new reducible monomials.
        return a + b

    def mul(self, a, b):
        return self.reduce(a * b)

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def from_int(self, k: int):
        return self.reduce(self.poly_ring.from_int(k))

    def div(self, a, b):
        raise TrdegError("division is not defined in a quotient ring")

    def format_elem(self, a) -> str:
        return self.poly_ring.format_elem(a)

    def __eq__(self, other):
        return (
            type(other) is QuotRing
            and other.poly_ring == self.poly_ring
            and other.relations == self.relations
        )

    def __hash__(self):
        return hash(("Quot", self.poly_ring, self.relations))


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(n: int) -> ModularRing:
    return ModularRing(n)


def GF(p: int) -> PrimeField:
    return PrimeField(p)
