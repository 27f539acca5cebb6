"""Bounded-degree search for submonic relations and dependence certificates.

The decision question: given elements a1..an of an R-algebra A, a global
monomial ordering and a degree bound D, is there a nonzero f in R[x1..xn] of
total degree <= D whose ordering-least monomial has coefficient 1 and with
f(a1..an) = 0?  Candidate trailing monomials are enumerated in increasing
order; t wins as soon as t(a) lies in the R-span of the evaluations of the
strictly greater monomials within the bound, which is exact linear algebra
for scalar coefficient rings and exact ideal membership when R acts as the
whole ring.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

from .errors import InternalInconsistencyError, ResourceCapExceeded, UnsupportedConfigError
from .groebner import ideal_cofactors
from .intmath import ext_gcd
from .linalg import solve_in_span, span_structure
from .monomials import Monomial, monomials_up_to_degree
from .orderings import Lex, MonomialOrdering, ordering_from_text
from .parsing import elem_to_text, parse_elem, parse_ring_text, ring_to_text
from .polynomials import Polynomial, eval_poly, trailing_term
from .rings import (
    IntegerRing,
    ModularRing,
    PolyRing,
    PrimeField,
    QuotRing,
    Ring,
    ZZ,
)

DEFAULT_MONOMIAL_CAP = 20000


def _monomial_cap(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    return int(os.environ.get("TRDEG_MONOMIAL_CAP", str(DEFAULT_MONOMIAL_CAP)))


class AlgebraConfig:
    """A supported (coefficient ring R, algebra A) pair with its structure map.

    Supported table:
      (a) R = A = ZZ                          integer span
      (b) R = A = Zmod(n)                     residue span, lifted to ZZ
      (c) R = ZZ, A = Poly(ZZ) or Zmod(n)     integer/residue span on coefficients
      (d) R = A = Poly(field) or R = A = Quot ideal membership with cofactors
      (e) R = field k, A = Poly(k) or Quot    k-linear span on coefficients
      (f) R = A = field                       1-dimensional k-span
    Anything else raises UnsupportedConfigError.
    """

    def __init__(self, coeff_ring: Ring, algebra: Ring):
        self.coeff_ring = coeff_ring
        self.algebra = algebra
        self.kind = self._classify(coeff_ring, algebra)

    @staticmethod
    def _classify(r: Ring, a: Ring) -> str:
        if isinstance(r, IntegerRing):
            if isinstance(a, IntegerRing):
                return "zz"
            if isinstance(a, PolyRing) and isinstance(a.base, IntegerRing):
                return "zz"
            if isinstance(a, ModularRing) and not isinstance(a, PrimeField):
                return "zmod"
        if isinstance(r, ModularRing) and not r.is_field:
            if r == a:
                return "zmod"
        if r.is_field:
            if r == a:
                return "field"
            if isinstance(a, PolyRing) and a.base == r:
                return "field"
            if isinstance(a, QuotRing) and a.poly_ring.base == r:
                return "field"
        if r == a and isinstance(r, (PolyRing, QuotRing)):
            base = r.base if isinstance(r, PolyRing) else r.poly_ring.base
            if base.is_field:
                return "ideal"
        raise UnsupportedConfigError(
            f"unsupported (coefficient ring, algebra) pair: "
            f"({ring_to_text(r)}, {ring_to_text(a)})"
        )

    def scalar_map(self) -> Callable:
        r, a = self.coeff_ring, self.algebra
        if r == a:
            return lambda c: c
        if isinstance(a, ModularRing):
            return lambda c: c % a.modulus
        if isinstance(a, PolyRing):
            return lambda c: Polynomial.constant(a.base, c) if c else a.zero()
        if isinstance(a, QuotRing):
            return lambda c: a.reduce(Polynomial.constant(a.poly_ring.base, c))
        raise UnsupportedConfigError(f"no structure map into {ring_to_text(a)}")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraConfig)
            and other.coeff_ring == self.coeff_ring
            and other.algebra == self.algebra
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.algebra))

    def __repr__(self):
        return f"AlgebraConfig({ring_to_text(self.coeff_ring)}, {ring_to_text(self.algebra)})"


@dataclass
class SubmonicCertificate:
    config: AlgebraConfig
    elements: tuple
    ordering: MonomialOrdering
    poly: Polynomial  # over the coefficient ring
    trailing: Monomial
    degree_bound: int
    verified: bool = False

    def evaluate(self):
        return eval_poly(
            self.poly, list(self.elements), self.config.algebra, self.config.scalar_map()
        )

    def to_dict(self) -> dict:
        a, r = self.config.algebra, self.config.coeff_ring
        terms = self.ordering.sort(self.poly.terms)
        return {
            "ring": ring_to_text(a),
            "coeff_ring": ring_to_text(r),
            "ordering": self.ordering.to_text(),
            "elements": [elem_to_text(v, a) for v in self.elements],
            "poly": [
                [elem_to_text(self.poly.terms[m], r), [list(p) for p in m.exps]]
                for m in terms
            ],
            "trailing": [list(p) for p in self.trailing.exps],
            "degree_bound": self.degree_bound,
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "SubmonicCertificate":
        algebra = parse_ring_text(data["ring"])
        coeff_ring = parse_ring_text(data["coeff_ring"])
        config = AlgebraConfig(coeff_ring, algebra)
        ordering = ordering_from_text(data["ordering"])
        elements = tuple(parse_elem(t, algebra) for t in data["elements"])
        terms = []
        for coeff_text, pairs in data["poly"]:
            mon = Monomial((int(i), int(e)) for i, e in pairs)
            terms.append((mon, parse_elem(coeff_text, coeff_ring)))
        poly = Polynomial(coeff_ring, terms)
        trailing = Monomial((int(i), int(e)) for i, e in data["trailing"])
        cert = cls(
            config=config,
            elements=elements,
            ordering=ordering,
            poly=poly,
            trailing=trailing,
            degree_bound=int(data["degree_bound"]),
            verified=False,
        )
        cert.verified = verify_certificate(cert)
        return cert

    @classmethod
    def from_json(cls, text: str) -> "SubmonicCertificate":
        return cls.from_dict(json.loads(text))


@dataclass
class Dependent:
    certificate: SubmonicCertificate

    def __repr__(self):
        return f"Dependent({self.certificate.poly!r})"


@dataclass
class NoRelationUpTo:
    degree_bound: int

    def __repr__(self):
        return f"NoRelationUpTo({self.degree_bound})"


DependenceVerdict = Union[Dependent, NoRelationUpTo]


def check_certificate(cert: SubmonicCertificate) -> Optional[str]:
    """None when the certificate is valid, else a human-readable reason."""
    f = cert.poly
    if f.is_zero():
        return "polynomial is zero"
    n = len(cert.elements)
    if f.max_var_index() > n:
        return f"polynomial uses x{f.max_var_index()} but only {n} elements are given"
    if f.total_degree() > cert.degree_bound:
        return (
            f"polynomial degree {f.total_degree()} exceeds the stated bound "
            f"{cert.degree_bound}"
        )
    t, c = trailing_term(f, cert.ordering)
    if t != cert.trailing:
        return "stated trailing monomial differs from the computed one"
    if not cert.config.coeff_ring.is_one(c):
        return "trailing coefficient is not 1"
    value = cert.evaluate()
    if not cert.config.algebra.is_zero(value):
        return "relation does not evaluate to zero"
    return None


def verify_certificate(cert: SubmonicCertificate) -> bool:
    return check_certificate(cert) is None


def _evaluate_monomials(
    mons: Sequence[Monomial], elements: Sequence, algebra: Ring
) -> dict[Monomial, object]:
    """Values of all candidate monomials at the elements, sharing subproducts."""
    values: dict[Monomial, object] = {}
    for m in sorted(mons, key=Monomial.natural_key):
        if m.is_one():
            values[m] = algebra.one()
            continue
        i = m.exps[0][0]
        values[m] = algebra.mul(values[m.div(Monomial.var(i))], elements[i - 1])
    return values


def _coefficient_basis(values: Sequence[Polynomial]) -> list[Monomial]:
    support: set[Monomial] = set()
    for v in values:
        support.update(v.terms)
    return sorted(support, key=Monomial.natural_key)


def search_submonic_relation(
    config: AlgebraConfig,
    elems: Sequence,
    ordering: MonomialOrdering,
    maxdeg: int,
    cap: Optional[int] = None,
) -> DependenceVerdict:
    """First (least trailing monomial) submonic relation of degree <= maxdeg.

    Deterministic: candidates are scanned in increasing ordering position, and
    the coefficient extraction is exact.  Raises ResourceCapExceeded when the
    candidate count math.comb(maxdeg + n, n) exceeds the cap, which is a
    distinct outcome from NoRelationUpTo.
    """
    elems = tuple(elems)
    if not elems:
        raise ValueError("need at least one element")
    if maxdeg < 0:
        raise ValueError("degree bound must be nonnegative")
    n = len(elems)
    count = math.comb(maxdeg + n, n)
    limit = _monomial_cap(cap)
    if count > limit:
        raise ResourceCapExceeded(
            f"{count} candidate monomials exceed the cap {limit}; "
            f"raise TRDEG_MONOMIAL_CAP or lower the degree bound"
        )

    mons = ordering.sort(monomials_up_to_degree(n, maxdeg))
    values = _evaluate_monomials(mons, elems, config.algebra)

    if config.kind == "ideal":
        return _search_ideal(config, elems, ordering, maxdeg, mons, values)
    return _search_span(config, elems, ordering, maxdeg, mons, values)


def _search_span(
    config: AlgebraConfig,
    elems: tuple,
    ordering: MonomialOrdering,
    maxdeg: int,
    mons: list[Monomial],
    values: dict[Monomial, object],
) -> DependenceVerdict:
    algebra = config.algebra
    if isinstance(algebra, (PolyRing, QuotRing)):
        poly_vals = [values[m] for m in mons]
        basis = _coefficient_basis(poly_vals)
        zero = poly_vals[0].ring.zero()
        vecs = [[v.terms.get(b, zero) for b in basis] for v in poly_vals]
        dim = len(basis)
    else:
        vecs = [[values[m]] for m in mons]
        dim = 1

    # A Z/n span runs over the algebra Z/n, a field span over the
    # coefficient field, which _classify makes the algebra's base field.
    kind = config.kind
    scalars = ZZ if kind == "zz" else algebra if kind == "zmod" else config.coeff_ring
    structure = span_structure(scalars, dim)

    # One reversed pass: after processing index i the structure spans exactly
    # the evaluations of monomials strictly greater than mons[i-1].
    member = [False] * len(mons)
    for i in range(len(mons) - 1, -1, -1):
        member[i] = structure.add(vecs[i])

    hit = next((i for i, flag in enumerate(member) if flag), None)
    if hit is None:
        return NoRelationUpTo(maxdeg)

    above = mons[hit + 1 :]
    gens = vecs[hit + 1 :]
    # Solve on 1, 2, 4, ... of the greater values; zip below skips the
    # monomials past the prefix (coefficient 0).  Over ZZ any spanning prefix
    # gives a relation, and a short one has far smaller coefficients.  Over a
    # field every spanning prefix gives the same coefficients as all of them.
    # Z/n solves on all.
    size = len(gens) if config.kind == "zmod" else 1
    coeffs = solve_in_span(vecs[hit], gens[:size], scalars)
    while coeffs is None and size < len(gens):
        size = min(2 * size, len(gens))
        coeffs = solve_in_span(vecs[hit], gens[:size], scalars)
    if coeffs is None:
        raise InternalInconsistencyError("incremental membership disagreed with the span solver")
    r = config.coeff_ring
    terms = {mons[hit]: r.one()}
    for s, c in zip(above, coeffs):
        if c:
            terms[s] = r.neg(c)
    return _package(config, elems, ordering, maxdeg, Polynomial(r, terms), mons[hit])


def _search_ideal(
    config: AlgebraConfig,
    elems: tuple,
    ordering: MonomialOrdering,
    maxdeg: int,
    mons: list[Monomial],
    values: dict[Monomial, object],
) -> DependenceVerdict:
    algebra = config.algebra
    for i, t in enumerate(mons):
        cof = ideal_cofactors(values[t], [values[s] for s in mons[i + 1 :]], algebra)
        if cof is None:
            continue
        terms = {t: algebra.one()}
        for s, c in zip(mons[i + 1 :], cof):
            if not algebra.is_zero(c):
                terms[s] = algebra.neg(c)
        return _package(config, elems, ordering, maxdeg, Polynomial(algebra, terms), t)
    return NoRelationUpTo(maxdeg)


def _package(
    config: AlgebraConfig,
    elems: tuple,
    ordering: MonomialOrdering,
    maxdeg: int,
    f: Polynomial,
    trailing: Monomial,
) -> Dependent:
    cert = SubmonicCertificate(
        config=config,
        elements=elems,
        ordering=ordering,
        poly=f,
        trailing=trailing,
        degree_bound=maxdeg,
    )
    return Dependent(mark_verified(cert, "search produced an invalid certificate"))


def mark_verified(cert: SubmonicCertificate, message: str) -> SubmonicCertificate:
    """Set cert.verified once check_certificate passes it; otherwise raise
    InternalInconsistencyError with message and the reason."""
    reason = check_certificate(cert)
    if reason is not None:
        raise InternalInconsistencyError(f"{message}: {reason}")
    cert.verified = True
    return cert


def pid_pair_certificate(a: int, b: int) -> SubmonicCertificate:
    """Dependence of an integer pair through the principal-ideal route.

    Finds the least n >= 0 with gcd(a, b^(n+1)) | b^n, writes
    b^n = c*a + d*b^(n+1) from the extended gcd, and packages
    f = x2^n - c*x1 - d*x2^(n+1), which is submonic under lex(x1 > x2).
    Terminates because the multiplicity of every prime of a in gcd(a, b^k)
    stabilizes once k exceeds the largest exponent in a.
    """
    if a == 0:
        raise ValueError("a must be nonzero (0 admits the trivial relation x1)")
    if b == 0:
        raise ValueError("b must be nonzero (0 admits the trivial relation x2)")
    n = 0
    while True:
        g, u, v = ext_gcd(a, b ** (n + 1))
        if b**n % g == 0:
            k = b**n // g
            c, d = k * u, k * v
            break
        n += 1
    terms = {
        Monomial.var(2, n) if n else Monomial(): 1,
    }
    if c:
        terms[Monomial.var(1)] = terms.get(Monomial.var(1), 0) - c
    if d:
        mon = Monomial.var(2, n + 1)
        terms[mon] = terms.get(mon, 0) - d
    cert = SubmonicCertificate(
        config=AlgebraConfig(ZZ, ZZ),
        elements=(a, b),
        ordering=Lex(),
        poly=Polynomial(ZZ, terms),
        trailing=Monomial.var(2, n) if n else Monomial(),
        degree_bound=n + 1,
    )
    return mark_verified(cert, "pid construction failed")


@dataclass
class MatrixEntry:
    elements: tuple
    verdict: str  # "dependent" | "no_relation" | "resource_exceeded"
    certificate: Optional[SubmonicCertificate] = None


@dataclass
class DependenceMatrixReport:
    arity: int
    degree_bound: int
    entries: list[MatrixEntry] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out = {"dependent": 0, "no_relation": 0, "resource_exceeded": 0}
        for e in self.entries:
            out[e.verdict] += 1
        return out

    @property
    def independent_candidates(self) -> list[tuple]:
        """Tuples with no relation up to the bound: trdeg >= arity candidates."""
        return [e.elements for e in self.entries if e.verdict == "no_relation"]

    def to_dict(self, algebra: Ring) -> dict:
        return {
            "arity": self.arity,
            "degree_bound": self.degree_bound,
            "counts": self.counts,
            "entries": [
                {
                    "elements": [elem_to_text(v, algebra) for v in e.elements],
                    "verdict": e.verdict,
                }
                for e in self.entries
            ],
            "independent_candidates": [
                [elem_to_text(v, algebra) for v in t]
                for t in self.independent_candidates
            ],
        }


def dependence_matrix(
    config: AlgebraConfig,
    pool: Sequence,
    arity: int,
    ordering: MonomialOrdering,
    maxdeg: int,
    cap: Optional[int] = None,
    max_tuples: int = 5000,
) -> DependenceMatrixReport:
    """Verdicts for every arity-subset of the pool, in pool order."""
    pool = list(pool)
    if not pool:
        raise ValueError("pool must be nonempty")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    total = math.comb(len(pool), arity)
    if total > max_tuples:
        raise ResourceCapExceeded(
            f"{total} tuples exceed the combinatorial cap {max_tuples}"
        )
    report = DependenceMatrixReport(arity=arity, degree_bound=maxdeg)
    for tup in combinations(pool, arity):
        try:
            verdict = search_submonic_relation(config, tup, ordering, maxdeg, cap)
        except ResourceCapExceeded:
            report.entries.append(MatrixEntry(tup, "resource_exceeded"))
            continue
        if isinstance(verdict, Dependent):
            report.entries.append(MatrixEntry(tup, "dependent", verdict.certificate))
        else:
            report.entries.append(MatrixEntry(tup, "no_relation"))
    return report
