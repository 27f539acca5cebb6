"""Bounded-degree search for submonic relations and dependence certificates.

The decision question: given elements a1..an of an R-algebra A, a global
monomial ordering and a degree bound D, is there a nonzero f in R[x1..xn] of
total degree <= D whose ordering-least monomial has coefficient 1 and with
f(a1..an) = 0?  Candidate trailing monomials are enumerated in increasing
order; t wins as soon as t(a) lies in the R-span of the evaluations of the
strictly greater monomials within the bound, which is exact linear algebra
for scalar coefficient rings and exact ideal membership when R acts as the
whole ring.  One search body serves both routes: a reverse sweep
(_least_member) adds each candidate's item to a structure, which answers
whether the item is already in the span, and stops as soon as the greater
values span everything, since 1 is then the hit.  The span route adds the
values' vectors to span_structure; the hit's coefficients come, over ZZ,
from the shortest prefix of the greater vectors that spans it, over a field
from a solve on 1, 2, 4, ... of them, and over Z/n from the sweep's
lattice.  The ideal route adds the values to one growing GroebnerBasis seeded
with the algebra's relations (a value is a member exactly when its normal
form is zero) and takes the hit's cofactors from membership_cofactors.

Every route reads a candidate's value off one table of the elements'
powers (_power_products), when the sweep or the solve first reads it,
greatest first.  The span route works on one vector per candidate: a scalar
algebra's is the 1-vector of its value, a polynomial or quotient algebra's
the coefficient vector of its value over the monomials that occur (when
packed: can occur) in some value, in Monomial.natural_key order.  A
PolyRing over ZZ, QQ or GF(p) packs its elements into ints by Kronecker
substitution (see _packed_vectors); a quotient algebra, or a PolyRing whose
packing box is too sparse, reads every value to find its columns.
check_certificate always evaluates through eval_poly.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, combinations, product, repeat
from operator import getitem, mul
from typing import Callable, Optional, Union

from .errors import InternalInconsistencyError, ResourceCapExceeded, UnsupportedConfigError
from .groebner import GroebnerBasis, membership_cofactors
from .intmath import ext_gcd
from .linalg import IntLattice, solve_in_span, span_structure
from .monomials import Monomial, monomials_up_to_degree
from .orderings import GrevLex, Lex, MonomialOrdering, ordering_from_text
from .parsing import parse_elem, parse_ring_text
from .polynomials import Polynomial, eval_poly, trailing_term
from .rings import ZZ, ModularRing, PolyRing, QuotRing, Ring

DEFAULT_MONOMIAL_CAP = 20000
# dependence_matrix refuses a pool with more arity-subsets than this.
MAX_TUPLES = 5000
# _candidates keeps the candidate lists of this many (n, maxdeg, ordering).
_CANDIDATE_LISTS = 16
# _packed_vectors packs only when its box has at most this many slots per
# term that the largest value can have (see its docstring).
_BOX_PER_TERM = 16


def _monomial_cap() -> int:
    text = os.environ.get("TRDEG_MONOMIAL_CAP", str(DEFAULT_MONOMIAL_CAP))
    if not text.strip().isdecimal():
        raise UnsupportedConfigError(
            f"TRDEG_MONOMIAL_CAP must be a nonnegative integer, not {text!r}"
        )
    return int(text)


@dataclass(frozen=True)
class AlgebraConfig:
    """A supported (coefficient ring R, algebra A) pair with its structure map.

    Supported table, with the scalar ring the span search solves over:
      (a) R = A = ZZ                          ZZ: integer span
      (b) R = A = Zmod(n)                     Zmod(n): residue span
      (c) R = ZZ, A = Poly(ZZ)                ZZ: integer span on coefficients
          R = ZZ, A = Zmod(n)                 Zmod(n): residue span
      (d) R = A = Poly(field) or R = A = Quot None: ideal membership with cofactors
          (not the zero ring, a Quot whose relations generate 1)
      (e) R = field k, A = Poly(k) or Quot    k: k-linear span on coefficients
      (f) R = A = field k                     k: 1-dimensional k-span
    Anything else raises UnsupportedConfigError at construction.
    """

    coeff_ring: Ring
    algebra: Ring

    def __post_init__(self):
        self.scalars  # raises for an unsupported pair

    @cached_property
    def scalars(self) -> Optional[Ring]:
        """The ring the span search solves over, or None for ideal membership."""
        r, a = self.coeff_ring, self.algebra
        if isinstance(a, (PolyRing, QuotRing)):
            base = a.poly_ring.base
            if r == a and base.is_field:
                if isinstance(a, QuotRing) and a.groebner_basis.is_full():
                    raise UnsupportedConfigError(
                        f"{a} is the zero ring: its relations generate 1, so 1 = 0 "
                        "and no relation has trailing coefficient 1"
                    )
                return None
            if r == base and (r == ZZ or r.is_field):
                return r
        elif r == a:
            return r
        elif r == ZZ and a.is_finite and not a.is_field:
            return a
        raise UnsupportedConfigError(f"unsupported (coefficient ring, algebra) pair: ({r}, {a})")

    def scalar_map(self) -> Callable:
        r, a = self.coeff_ring, self.algebra
        if r == a:
            return lambda c: c
        if isinstance(a, ModularRing):
            return lambda c: c % a.modulus
        return lambda c: a.reduce(Polynomial.constant(a.poly_ring.base, c))


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
            "ring": str(a),
            "coeff_ring": str(r),
            "ordering": self.ordering.to_text(),
            "elements": [a.format_elem(v) for v in self.elements],
            "poly": [
                [r.format_elem(self.poly.terms[m]), [list(p) for p in m.exps]]
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
        # A monomial listed twice counts with the sum of its coefficients.
        poly = Polynomial(coeff_ring)
        for coeff_text, pairs in data["poly"]:
            mon = Monomial((int(i), int(e)) for i, e in pairs)
            poly = poly + Polynomial(coeff_ring, {mon: parse_elem(coeff_text, coeff_ring)})
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
    if not f:
        return "polynomial is zero"
    algebra, r = cert.config.algebra, cert.config.coeff_ring
    for e in cert.elements:
        if not algebra.contains(e):
            return f"element {e!r} is not in {algebra}"
    if f.ring != r:
        return f"polynomial is over {f.ring}, not {r}"
    for c in f.terms.values():
        if not r.contains(c):
            return f"coefficient {c!r} is not in {r}"
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
    if not r.is_one(c):
        return "trailing coefficient is not 1"
    value = cert.evaluate()
    if value:
        return "relation does not evaluate to zero"
    return None


def verify_certificate(cert: SubmonicCertificate) -> bool:
    return check_certificate(cert) is None


def _power_products(elems: Sequence, maxdeg: int, mul: Callable, one) -> Callable:
    """m -> prod_i pw[i][m_i], read off the power table pw[i][e] = a_i^e,
    e <= maxdeg, built with mul from one: the only place where the search
    multiplies out a candidate's value."""
    powers = [list(accumulate(repeat(a, maxdeg), mul, initial=one)) for a in elems]
    return lambda m: reduce(mul, map(getitem, powers, m.vector), one)


def _span_vectors(
    mons: Sequence[Monomial], elems: Sequence, config: AlgebraConfig
) -> Sequence[list]:
    """The vector of each candidate's value at the elements, in the order of mons.

    A scalar algebra's vector is [value], built on demand.  A polynomial or
    quotient algebra's is the coefficient vector of its value over the
    monomials that have a nonzero coefficient in some value, in
    Monomial.natural_key order, the column order that fixes the Hermite and
    echelon forms.  A PolyRing (over ZZ, QQ or GF(p), the ones AlgebraConfig
    admits here) packs unless its box is too sparse, see _packed_vectors.  A
    QuotRing, or a PolyRing that does not pack, needs every value to know
    the columns.
    """
    algebra = config.algebra
    maxdeg = max(m.degree for m in mons)
    if not isinstance(algebra, (PolyRing, QuotRing)):
        value = _power_products(elems, maxdeg, algebra.mul, algebra.one())
        return _LazyRows(mons, lambda m: [value(m)])
    if isinstance(algebra, PolyRing):
        vecs = _packed_vectors(mons, elems, algebra.base)
        if vecs is not None:
            return vecs
    values = list(map(_power_products(elems, maxdeg, algebra.mul, algebra.one()), mons))
    basis = sorted({b for v in values for b in v.terms}, key=Monomial.natural_key)
    zero = algebra.poly_ring.base.zero()
    return [[v.terms.get(b, zero) for b in basis] for v in values]


class _LazyRows(Sequence):
    """rows[k] is build(keys[k]), built the first time it is read and kept;
    a slice is the list of its rows."""

    def __init__(self, keys: Sequence, build: Callable[..., list]):
        self._keys, self._build = keys, build
        self._rows: list = [None] * len(keys)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        if self._rows[k] is None:
            self._rows[k] = self._build(self._keys[k])
        return self._rows[k]


def _multisets(size: int, count: int) -> int:
    """Number of products of count factors drawn from size terms."""
    return math.comb(size + count - 1, count)


def _box_cells(radix: Sequence[int], top: int) -> list[Monomial]:
    """The monomials with x_j-degree < radix[j - 1] and total degree <= top,
    in Monomial.natural_key order: the only slots of a packed value that can
    be nonzero when top bounds its total degree."""
    cells = (Monomial(enumerate(v, 1)) for v in product(*map(range, radix)) if sum(v) <= top)
    return sorted(cells, key=Monomial.natural_key)


def _packed_vectors(
    mons: Sequence[Monomial], elems: Sequence, base: Ring
) -> Optional[Sequence[list]]:
    """_span_vectors on base[x] for base ZZ, QQ or GF(p), by Kronecker
    substitution, as rows built on demand; None when the box is too large
    for the values to pay.

    Each element a_i becomes its integer lift a'_i = d_i * a_i (d_i clears
    the denominators; over GF(p) the coefficients are lifted to [0, p)),
    packed as one int with x^v at bit B * idx(v), where idx is mixed-radix
    with radix maxdeg * (largest x_j-degree of the elements) + 1 for x_j.
    The row of m is read off the packed m(a') from _power_products.  B is
    bitlen(N^maxdeg) + 2, N the largest l1 norm of the a'_i: |coefficient of
    m(a')| <= prod ||a'_i||_1^e_i <= N^maxdeg, since ||fg||_1 <= ||f||_1
    ||g||_1.  B is rounded up to whole bytes and the signed slots are
    decoded with a bias of 2^(B-1), only at the columns; a slot is then
    reduced mod p over GF(p) and divided by prod d_i^e_i over QQ.  The
    columns are the cells of the Minkowski support, the support of
    (1 + s_1 + ... + s_n)^maxdeg with s_i the packed 0/1 indicator of
    supp(a'_i) (its slots fit (1 + sum |supp a'_i|)^maxdeg): every value's
    support lies in it, but a coefficient that cancels, or vanishes mod p,
    can leave a column zero in every row.  Every product spans the whole
    box, which can hold about nvars! times as many slots as the degree
    simplex, or far more than a product of few terms has; so a box of more
    than _BOX_PER_TERM slots per term that the largest value can have is
    not packed.
    """
    maxdeg = max(m.degree for m in mons)
    modulus = base.modulus if isinstance(base, ModularRing) else None
    lifts, dens = [], []
    for a in elems:
        d = math.lcm(*(c.denominator for c in a.terms.values()))
        lift = {m: int(c * d) for m, c in a.terms.items()}
        lifts.append({m: c % modulus for m, c in lift.items()} if modulus else lift)
        dens.append(d)
    nvars = max(1, max(a.max_var_index() for a in elems))
    radix = [
        maxdeg * max((m.exponent(j) for lift in lifts for m in lift), default=0) + 1
        for j in range(1, nvars + 1)
    ]
    top = maxdeg * max((m.degree for lift in lifts for m in lift), default=0)
    slots = math.prod(radix)
    # The largest value has at most this many terms: no more than the
    # degree simplex has cells, nor than its factors have products.
    sizes = [max(1, len(lift)) for lift in lifts]
    terms = max(math.prod(map(_multisets, sizes, m.vector)) for m in mons if m.degree == maxdeg)
    if slots > _BOX_PER_TERM * min(terms, math.comb(nvars + top, nvars)):
        return None
    weights = [math.prod(radix[:j]) for j in range(nvars)]

    def pack(poly: dict, width: int) -> int:
        return sum(c << 8 * width * sum(map(mul, m.vector, weights)) for m, c in poly.items())

    count = 1 + sum(map(len, lifts))
    ind = -(-(count**maxdeg).bit_length() // 8)
    support = (1 + sum(pack(dict.fromkeys(lift, 1), ind) for lift in lifts)) ** maxdeg
    marks = support.to_bytes(ind * slots, "little")
    norm = max(1, max(sum(map(abs, lift.values())) for lift in lifts))
    width = -(-((norm**maxdeg).bit_length() + 2) // 8)  # bitlen(N^maxdeg) + 2 bits, in bytes
    offsets = []
    for c in _box_cells(radix, top):
        k = sum(map(mul, c.vector, weights))
        if any(marks[ind * k : ind * (k + 1)]):
            offsets.append(width * k)
    packed = _power_products([pack(lift, width) for lift in lifts], maxdeg, mul, 1)
    half = 1 << (8 * width - 1)
    bias = half * (((1 << 8 * width * slots) - 1) // ((1 << 8 * width) - 1))

    def row(m: Monomial) -> list:
        buf = (packed(m) + bias).to_bytes(width * slots, "little")
        vec = [int.from_bytes(buf[k : k + width], "little") - half for k in offsets]
        if modulus:
            vec = [c % modulus for c in vec]
        d = math.prod(map(pow, dens, m.vector))
        return vec if d == 1 else [base.div(c, d) for c in vec]

    return _LazyRows(mons, row)


def search_submonic_relation(
    config: AlgebraConfig,
    elems: Sequence,
    ordering: MonomialOrdering,
    maxdeg: int,
) -> DependenceVerdict:
    """First (least trailing monomial) submonic relation of degree <= maxdeg.

    Deterministic: candidates are scanned in increasing ordering position, and
    the coefficient extraction is exact.  Raises ResourceCapExceeded when the
    candidate count math.comb(maxdeg + n, n) exceeds TRDEG_MONOMIAL_CAP, which
    is a distinct outcome from NoRelationUpTo.  Every element must belong to
    the algebra (see require_elements).
    """
    elems = tuple(elems)
    if not elems:
        raise ValueError("need at least one element")
    algebra, scalars = config.algebra, config.scalars
    require_elements(algebra, elems)
    if maxdeg < 0:
        raise ValueError("degree bound must be nonnegative")
    n = len(elems)
    count = math.comb(maxdeg + n, n)
    limit = _monomial_cap()
    if count > limit:
        raise ResourceCapExceeded(
            f"{count} candidate monomials exceed the cap {limit}; "
            f"raise TRDEG_MONOMIAL_CAP or lower the degree bound"
        )

    mons = _candidates(n, maxdeg, ordering)
    if scalars is None:
        items = _LazyRows(mons, _power_products(elems, maxdeg, algebra.mul, algebra.one()))
        structure = GroebnerBasis(GrevLex(), algebra.poly_ring.base)
        for rel in algebra.relations:
            structure.add(rel)
    else:
        items = _span_vectors(mons, elems, config)
        # The greatest candidate's row: the sweep reads it first anyway.
        structure = span_structure(scalars, len(items[-1]))
    hit = _least_member(structure, items)
    if hit is None:
        return NoRelationUpTo(maxdeg)

    # A solve on a prefix of the greater values leaves the monomials past it
    # out of the zip below (coefficient 0).
    greater = mons[hit + 1 :]
    if scalars is None:
        coeffs = membership_cofactors(items[hit], items[hit + 1 :], algebra, GrevLex())
    elif isinstance(structure, IntLattice) and structure.modulus:
        # Z/n: the lattice kept the hit's coefficients over the values added
        # before it, greatest first.  A sweep stopped at is_full lacks items[0].
        if structure.adds < len(items):
            structure.add(items[0])
        greater, coeffs = reversed(mons), structure.member
    elif scalars == ZZ:
        coeffs = _solve_on_shortest_prefix(items, hit)
    else:
        coeffs = _solve_on_prefixes(items, hit, scalars)
    if coeffs is None:
        raise InternalInconsistencyError("the sweep disagreed with the solver")
    r = config.coeff_ring
    terms = {mons[hit]: r.one()} | {s: r.neg(c) for s, c in zip(greater, coeffs) if c}
    cert = SubmonicCertificate(
        config=config,
        elements=elems,
        ordering=ordering,
        poly=Polynomial(r, terms),
        trailing=mons[hit],
        degree_bound=maxdeg,
    )
    return Dependent(mark_verified(cert, "search produced an invalid certificate"))


@lru_cache(maxsize=_CANDIDATE_LISTS)
def _candidates(n: int, maxdeg: int, ordering: MonomialOrdering) -> tuple[Monomial, ...]:
    """The monomials in x1..xn of total degree <= maxdeg, least first under
    ordering; every job of an experiment or a matrix shares one list."""
    return tuple(ordering.sort(monomials_up_to_degree(n, maxdeg)))


def _least_member(structure, items: Sequence) -> Optional[int]:
    """Least i with items[i] in the span (or ideal) of items[i+1:] and what
    structure starts from, or None.  structure.add answers that and takes
    items[i] in; once the nested spans are everything (is_full), every
    smaller index is a member, so the sweep stops with 0."""
    hit = None
    for i in range(len(items) - 1, -1, -1):
        if structure.add(items[i]):
            hit = i
        elif i > 0 and structure.is_full():
            return 0
    return hit


def require_elements(ring: Ring, elems: Sequence) -> None:
    """Raise UnsupportedConfigError unless ring.contains every element: the
    searches build values from the elements as they are, so a QuotRing's
    must be normal forms, and a value from outside the ring (a bool, a float,
    a Fraction in ZZ, 7 in Zmod(6)) would give a relation that holds in
    Python arithmetic but not in the ring."""
    for e in elems:
        if ring.contains(e):
            continue
        if isinstance(ring, QuotRing) and ring.poly_ring.contains(e):
            raise UnsupportedConfigError(f"{ring.format_elem(e)} is not in normal form in {ring}")
        raise UnsupportedConfigError(f"{e!r} is not an element of {ring}")


def _solve_on_shortest_prefix(items: Sequence[list], hit: int) -> Optional[list]:
    """Over ZZ, items[hit]'s coefficients over the shortest prefix of
    items[hit + 1:] that spans it, or None: a tracked lattice grows by one
    greater value at a time and is probed with the hit after each add."""
    target, lattice, k = items[hit], IntLattice(len(items[hit]), track=True), hit + 1
    while not lattice.add(target, insert=False):
        if k == len(items):
            return None
        lattice.add(items[k])
        k += 1
    return lattice.member


def _solve_on_prefixes(items: Sequence[list], hit: int, scalars: Ring) -> Optional[list]:
    """Over a field, solve_in_span for items[hit] on 1, 2, 4, ... of the
    greater values, or None."""
    # Every spanning prefix gives the same coefficients as all of them, and
    # only the rows of the prefixes are read.
    total, size = len(items) - hit - 1, 1
    coeffs = solve_in_span(items[hit], items[hit + 1 : hit + 2], scalars)
    while coeffs is None and size < total:
        size = min(2 * size, total)
        coeffs = solve_in_span(items[hit], items[hit + 1 : hit + 1 + size], scalars)
    return coeffs


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
    trailing = Monomial.var(2, n)
    terms = {trailing: 1, Monomial.var(1): -c, Monomial.var(2, n + 1): -d}
    cert = SubmonicCertificate(
        config=AlgebraConfig(ZZ, ZZ),
        elements=(a, b),
        ordering=Lex(),
        poly=Polynomial(ZZ, terms),
        trailing=trailing,
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
                    "elements": [algebra.format_elem(v) for v in e.elements],
                    "verdict": e.verdict,
                }
                for e in self.entries
            ],
            "independent_candidates": [
                [algebra.format_elem(v) for v in t]
                for t in self.independent_candidates
            ],
        }


def dependence_matrix(
    config: AlgebraConfig,
    pool: Sequence,
    arity: int,
    ordering: MonomialOrdering,
    maxdeg: int,
) -> DependenceMatrixReport:
    """Verdicts for every arity-subset of the pool, in pool order."""
    pool = list(pool)
    if not pool:
        raise ValueError("pool must be nonempty")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    total = math.comb(len(pool), arity)
    if total > MAX_TUPLES:
        raise ResourceCapExceeded(f"{total} tuples exceed the combinatorial cap {MAX_TUPLES}")
    report = DependenceMatrixReport(arity=arity, degree_bound=maxdeg)
    for tup in combinations(pool, arity):
        try:
            verdict = search_submonic_relation(config, tup, ordering, maxdeg)
        except ResourceCapExceeded:
            report.entries.append(MatrixEntry(tup, "resource_exceeded"))
            continue
        if isinstance(verdict, Dependent):
            report.entries.append(MatrixEntry(tup, "dependent", verdict.certificate))
        else:
            report.entries.append(MatrixEntry(tup, "no_relation"))
    return report
