"""The boundary-ideal membership criterion for Krull dimension.

dim(R) < n holds exactly when every tuple a1..an in R admits exponents
m1..mn with

    prod_i ai^mi  in  ( aj * prod_{i<=j} ai^mi : j = 1..n )_R.

cl_search looks for such exponents inside a box 0 <= mi <= M, recovering
explicit membership coefficients r1..rn so the certificate is verifiable and
convertible: the same identity, read as a polynomial, is a submonic relation
under plain lex, which is the bridge between dimension and bounded
transcendence degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Union

from .dependence import AlgebraConfig, SubmonicCertificate, mark_verified, require_elements
from .errors import InternalInconsistencyError, ResourceCapExceeded, UnsupportedConfigError
from .groebner import membership_cofactors
from .linalg import solve_in_span
from .monomials import ONE, Monomial, compositions
from .orderings import GrevLex, Lex
from .parsing import parse_elem, parse_ring_text
from .polynomials import Polynomial
from .rings import Ring


@dataclass
class CLCertificate:
    ring: Ring
    elements: tuple
    exponents: tuple[int, ...]
    coeffs: tuple

    def to_dict(self) -> dict:
        return {
            "ring": str(self.ring),
            "elements": [self.ring.format_elem(a) for a in self.elements],
            "exponents": list(self.exponents),
            "coeffs": [self.ring.format_elem(r) for r in self.coeffs],
            "verified": cl_verify(self),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "CLCertificate":
        ring = parse_ring_text(data["ring"])
        return cls(
            ring=ring,
            elements=tuple(parse_elem(t, ring) for t in data["elements"]),
            exponents=tuple(int(m) for m in data["exponents"]),
            coeffs=tuple(parse_elem(t, ring) for t in data["coeffs"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "CLCertificate":
        return cls.from_dict(json.loads(text))


@dataclass
class NotFoundUpTo:
    exponent_bound: int

    def __repr__(self):
        return f"NotFoundUpTo({self.exponent_bound})"


CLOutcome = Union[CLCertificate, NotFoundUpTo]


def _cl_sides(ring: Ring, elems: Sequence, exps: Sequence[int]):
    """(product, generators): prod_i ai^mi and [aj * prod_{i<=j} ai^mi]."""
    running = ring.one()
    gens = []
    for a, m in zip(elems, exps):
        running = ring.mul(running, ring.pow(a, m))
        gens.append(ring.mul(a, running))
    return running, gens


def _membership(ring: Ring, scalars: Optional[Ring], target, gens: list) -> Optional[list]:
    """Coefficients r with target == sum(r_j * gens_j) in R, or None: Groebner
    cofactors when scalars, AlgebraConfig(ring, ring).scalars, is None, else
    a 1-dimensional span solve over scalars."""
    if scalars is None:
        return membership_cofactors(target, gens, ring, GrevLex())
    return solve_in_span([target], [[g] for g in gens], scalars)


def cl_search(
    ring: Ring, elems: Sequence, maxexp: int, cap: Optional[int] = None
) -> CLOutcome:
    """Least exponent vector (by total sum, then lexicographically) in the box
    [0, maxexp]^n whose boundary-ideal membership holds, with coefficients.
    Every element must belong to ring (see require_elements)."""
    elems = tuple(elems)
    if not elems:
        raise ValueError("need at least one element")
    if maxexp < 0:
        raise ValueError("exponent bound must be nonnegative")
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValueError(f"cap must be a positive int, not {cap!r}")
    n = len(elems)
    count = (maxexp + 1) ** n
    limit = cap if cap is not None else 200000
    if count > limit:
        raise ResourceCapExceeded(f"{count} exponent tuples exceed the cap {limit}")
    scalars = AlgebraConfig(ring, ring).scalars  # raises for an unsupported ring
    require_elements(ring, elems)

    for total in range(n * maxexp + 1):
        for exps in compositions(total, n):
            if any(m > maxexp for m in exps):
                continue
            target, gens = _cl_sides(ring, elems, exps)
            coeffs = _membership(ring, scalars, target, gens)
            if coeffs is not None:
                cert = CLCertificate(ring, elems, tuple(exps), tuple(coeffs))
                if not cl_verify(cert):
                    raise InternalInconsistencyError("membership oracle returned a bad witness")
                return cert
    return NotFoundUpTo(maxexp)


def cl_check(cert: CLCertificate) -> Optional[str]:
    """None when the membership identity holds, else a reason string."""
    ring = cert.ring
    n = len(cert.elements)
    if len(cert.exponents) != n or len(cert.coeffs) != n:
        return "exponent and coefficient counts must match the element count"
    if any(m < 0 for m in cert.exponents):
        return "exponents must be nonnegative"
    for kind, values in (("element", cert.elements), ("coefficient", cert.coeffs)):
        for v in values:
            if not ring.contains(v):
                return f"{kind} {v!r} is not in {ring}"
    target, gens = _cl_sides(ring, cert.elements, cert.exponents)
    total = ring.zero()
    for r, g in zip(cert.coeffs, gens):
        total = ring.add(total, ring.mul(r, g))
    if ring.sub(target, total):
        return "membership identity does not hold for the stated coefficients"
    return None


def cl_verify(cert: CLCertificate) -> bool:
    """Exact re-evaluation of the membership identity; producer-independent."""
    return cl_check(cert) is None


def cl_to_submonic(cert: CLCertificate) -> SubmonicCertificate:
    """Rewrite the membership identity as a lex-submonic relation.

    f = prod xi^mi - sum_j rj * xj * prod_{i<=j} xi^mi.  Term j raises the
    xj-exponent by one while matching all earlier exponents, so it is
    lex-greater than the leading product, which therefore is the trailing
    monomial with coefficient 1.
    """
    if not cl_verify(cert):
        raise ValueError("certificate does not verify; refusing to convert")
    ring = cert.ring
    terms: dict[Monomial, object] = {}
    trailing = ONE  # prod_{i<=j} xi^mi after step j
    for j, (m, r) in enumerate(zip(cert.exponents, cert.coeffs), 1):
        trailing = trailing * Monomial.var(j, m)
        terms[trailing * Monomial.var(j)] = ring.neg(r)
    terms[trailing] = ring.one()
    out = SubmonicCertificate(
        config=AlgebraConfig(ring, ring),
        elements=cert.elements,
        ordering=Lex(),
        poly=Polynomial(ring, terms),
        trailing=trailing,
        degree_bound=max(m.degree for m in terms),
    )
    return mark_verified(out, "conversion produced an invalid certificate")


@dataclass
class FiniteRingDimResult:
    ring: Ring
    arity: int
    holds: bool
    witnesses: list[tuple[tuple, CLCertificate]]
    failing: Optional[tuple] = None

    def to_dict(self) -> dict:
        out = {
            "ring": str(self.ring),
            "arity": self.arity,
            "holds": self.holds,
            "witnesses": [cert.to_dict() for _, cert in self.witnesses],
        }
        if self.failing is not None:
            out["failing"] = [self.ring.format_elem(a) for a in self.failing]
        return out


def finite_ring_dim_lt(
    ring: Ring, n_test: int, tuple_cap: int = 50000
) -> FiniteRingDimResult:
    """Decide dim(ring) < n_test by full tuple enumeration over a finite ring.

    Escalates the exponent box through |R|, 2|R|, 4|R|, 8|R| per tuple before
    giving up on it; a tuple that still fails is reported as the failing
    witness rather than looping forever.
    """
    if not ring.is_finite:
        raise UnsupportedConfigError("full enumeration needs a finite ring")
    if n_test < 1:
        raise ValueError("arity must be >= 1")
    size = ring.modulus
    if size**n_test > tuple_cap:
        raise ResourceCapExceeded(
            f"{size**n_test} tuples exceed the enumeration cap {tuple_cap}"
        )
    witnesses = []
    for tup in product(list(ring.elements()), repeat=n_test):
        cert = None
        for m_bound in (size, 2 * size, 4 * size, 8 * size):
            outcome = cl_search(ring, tup, m_bound, cap=10**7)
            if isinstance(outcome, CLCertificate):
                cert = outcome
                break
        if cert is None:
            return FiniteRingDimResult(ring, n_test, False, witnesses, failing=tup)
        witnesses.append((tup, cert))
    return FiniteRingDimResult(ring, n_test, True, witnesses)
