"""Shared randomized property checks.

Unit test modules run these at moderate counts; the acceptance suite re-runs
them at the mandated volumes.  Every function takes an explicit rng so runs
are reproducible, asserts internally, and returns the number of checks made.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Iterator
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd

from trdeg.dependence import (
    AlgebraConfig,
    Dependent,
    SubmonicCertificate,
    search_submonic_relation,
)
from trdeg.groebner import GroebnerBasis, _reduce_basis, _remainder, buchberger, normal_form
from trdeg.harness import sample_element
from trdeg.linalg import FieldEchelon, hnf, solve_in_span
from trdeg.monomials import ONE, Monomial, monomials_up_to_degree
from trdeg.orderings import (
    GrevLex,
    GrLex,
    Lex,
    MatrixOrder,
    MonomialOrdering,
    WeightedLex,
    is_weight_graded,
)
from trdeg.parsing import parse_ring_text
from trdeg.polynomials import Polynomial, leading_term
from trdeg.rings import GF, QQ, ZZ, ModularRing, PolyRing, QuotRing, Ring, Zmod


def random_monomial(rng: random.Random, nvars: int, maxdeg: int) -> Monomial:
    total = rng.randint(0, maxdeg)
    cuts = sorted(rng.randint(0, total) for _ in range(nvars - 1))
    bounds = [0] + cuts + [total]
    return Monomial(
        (i + 1, bounds[i + 1] - bounds[i])
        for i in range(nvars)
        if bounds[i + 1] - bounds[i]
    )


def ordering_families(nvars: int) -> list[MonomialOrdering]:
    """One representative per implemented family, all global on nvars."""
    weight_row = [i + 2 for i in range(nvars)]
    matrix_rows = [weight_row] + [
        [1 if j == i else 0 for j in range(nvars)] for i in range(nvars - 1)
    ]
    return [
        Lex(),
        GrLex(),
        GrevLex(tuple(range(nvars, 0, -1))),
        WeightedLex([Fraction(3, 2), 2] + [1] * (nvars - 2)),
        MatrixOrder(matrix_rows),
    ]


def check_ordering_axioms(
    ordering: MonomialOrdering, rng: random.Random, count: int, nvars: int = 5, maxdeg: int = 8
) -> int:
    cmp = ordering.compare
    for _ in range(count):
        s = random_monomial(rng, nvars, maxdeg)
        t = random_monomial(rng, nvars, maxdeg)
        u = random_monomial(rng, nvars, maxdeg)
        c_st = cmp(s, t)
        assert c_st in (-1, 0, 1)
        assert c_st == -cmp(t, s), "antisymmetry"
        assert (c_st == 0) == (s == t), "totality: ties only on equality"
        if c_st <= 0 and cmp(t, u) <= 0:
            assert cmp(s, u) <= 0, "transitivity"
        assert cmp(ONE, s) <= 0, "1 is least"
        w = random_monomial(rng, nvars, maxdeg)
        assert cmp(w * s, w * t) == c_st, "multiplicative compatibility"
    return count


def check_univariate_agreement(rng: random.Random, count: int) -> int:
    """All families order univariate monomials by degree."""
    families = ordering_families(1) + [Lex((1,)), GrevLex()]
    for _ in range(count):
        a, b = rng.randint(0, 12), rng.randint(0, 12)
        s, t = Monomial.var(1, a) if a else ONE, Monomial.var(1, b) if b else ONE
        expected = (a > b) - (a < b)
        for ordering in families:
            assert ordering.compare(s, t) == expected, ordering.to_text()
    return count


def check_weight_graded_consistency(rng: random.Random, count: int, nvars: int = 4) -> int:
    def weight(w, m):
        return sum(w[i - 1] * e for i, e in m)

    for ordering in ordering_families(nvars):
        w = is_weight_graded(ordering, nvars)
        if w is None:
            assert isinstance(ordering, Lex)
            continue
        assert all(x > 0 for x in w)
        for _ in range(count):
            s = random_monomial(rng, nvars, 6)
            t = random_monomial(rng, nvars, 6)
            if ordering.compare(s, t) <= 0:
                assert weight(w, s) <= weight(w, t), ordering.to_text()
    return count


def _is_hermite(h: list[list[int]]) -> bool:
    pivots = []
    seen_zero = False
    for r, row in enumerate(h):
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            seen_zero = True
            continue
        if seen_zero:
            return False  # zero rows must sink to the bottom
        if pivots and lead <= pivots[-1][1]:
            return False
        pivots.append((r, lead))
    for r, c in pivots:
        if h[r][c] <= 0:
            return False
        for rr in range(r):
            if not 0 <= h[rr][c] < h[r][c]:
                return False
    return True


def det(matrix: list[list]) -> Fraction:
    """Determinant of a square matrix, exact over Q: the unimodularity reference."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square")
    a = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / p
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return sign * result


def check_hnf_postconditions(rng: random.Random, count: int) -> int:
    for _ in range(count):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        h, u = hnf(a)
        assert abs(det(u)) == 1, "transform must be unimodular"
        for i in range(m):
            recomputed = [
                sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)
            ]
            assert recomputed == h[i], "U*A == H"
        assert _is_hermite(h)
    return count


class ReferenceFieldEchelon:
    """Incremental reduced row echelon form by Gauss-Jordan through the ring.

    The reference for trdeg.linalg.FieldEchelon: every row is stored with a 1
    in its pivot column and a 0 in every other pivot column, and every step
    is a Ring.sub/Ring.mul on field elements (Fractions over QQ).
    """

    def __init__(self, field: Ring):
        self.field = field
        self.rows: dict[int, list] = {}  # pivot column -> row

    def add(self, vec) -> bool:
        f = self.field
        v = list(vec)
        for c, row in self.rows.items():
            if v[c]:
                factor = v[c]
                v = [f.sub(a, f.mul(factor, b)) for a, b in zip(v, row)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return True
        inv = f.div(f.one(), v[lead])
        v = [f.mul(inv, x) for x in v]
        for c, other in self.rows.items():
            if other[lead]:
                factor = other[lead]
                self.rows[c] = [f.sub(a, f.mul(factor, b)) for a, b in zip(other, v)]
        self.rows[lead] = v
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def reference_solve_field(target: list, gens: list[list], field: Ring):
    """solve_in_span over a field, on the reduced echelon form of [G^T | target]."""
    k = len(gens)
    echelon = ReferenceFieldEchelon(field)
    for i, t in enumerate(target):
        echelon.add([g[i] for g in gens] + [t])
    if k in echelon.rows:
        return None
    coeffs = [field.zero()] * k
    for j, row in echelon.rows.items():
        coeffs[j] = row[k]
    return coeffs


def _reduced(rows: dict[int, list], field: Ring) -> dict[int, list]:
    """The reduced row echelon form of echelon rows: each row divided by its
    pivot, then the rows below taken off it at their pivot columns."""
    out: dict[int, list] = {}
    for c in sorted(rows, reverse=True):
        r = [field.div(x, rows[c][c]) for x in rows[c]]
        for d, below in out.items():
            factor = r[d]
            r = [field.sub(a, field.mul(factor, b)) for a, b in zip(r, below)]
        out[c] = r
    return out


def check_field_echelon_reference(rng: random.Random, count: int) -> int:
    """FieldEchelon agrees with ReferenceFieldEchelon on random add sequences.

    Fields QQ (denominators 1-6), GF(2), GF(7) and GF(101); dims 1-6; the
    inputs mix random, zero and repeated vectors with combinations of earlier
    ones.  After every add: the same member flag, rank and pivot columns;
    each row is 0 left of its pivot and stored canonically (primitive with a
    positive pivot over QQ, pivot 1 and entries in range(p) over GF(p)); the
    rows, reduced here by back elimination, are the reference's reduced rows;
    and solve_in_span over the field answers like the reference solve on the
    vectors so far.
    """
    fields = [QQ, GF(2), GF(7), GF(101)]
    for _ in range(count):
        field = rng.choice(fields)
        dim = rng.randint(1, 6)

        def scalar():
            if field is QQ:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            return rng.randrange(field.modulus)

        def combination(vecs):
            total = [field.zero()] * dim
            for g in vecs:
                c = scalar()
                total = [field.add(t, field.mul(c, x)) for t, x in zip(total, g)]
            return total

        echelon, reference = FieldEchelon(dim, field), ReferenceFieldEchelon(field)
        seen: list[list] = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.random()
            if kind < 0.1 or not seen:
                v = [field.zero()] * dim if kind < 0.05 else [scalar() for _ in range(dim)]
            elif kind < 0.25:
                v = list(rng.choice(seen))
            elif kind < 0.5:
                v = combination(rng.sample(seen, rng.randint(1, len(seen))))
            else:
                v = [scalar() for _ in range(dim)]
            assert echelon.add(v) == reference.add(v), "member flag"
            assert echelon.rank == reference.rank, "rank"
            seen.append(v)
            assert echelon.rows.keys() == reference.rows.keys(), "pivot columns"
            for c, row in echelon.rows.items():
                assert not any(row[:c]), "zero left of the pivot"
                if field is QQ:
                    assert row[c] > 0 and gcd(*row) == 1, "primitive, positive pivot"
                else:
                    assert row[c] == 1 and all(0 <= x < field.modulus for x in row), "pivot 1"
            assert _reduced(echelon.rows, field) == reference.rows, "reduced rows"
            target = combination(seen) if rng.random() < 0.5 else [scalar() for _ in range(dim)]
            assert solve_in_span(target, seen, field) == reference_solve_field(
                target, seen, field
            ), "solve_in_span"
    return count


def random_poly(rng: random.Random, base, nvars: int, maxdeg: int, sampler) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[random_monomial(rng, nvars, maxdeg)] = sampler(rng)
    return Polynomial(base, terms)


def check_spoly_reduction(rng: random.Random, count: int) -> int:
    """Every S-polynomial of a computed basis reduces to zero, and the basis
    contains its own generators' ideal (NF of each generator is zero).  Every
    second basis is tracked: each element is then the combination of the
    generators that its cofactor row names, and the basis equals the
    untracked one.  Every element that complete appends is checked as
    _check_appends checks it."""
    samplers = {
        GF(7): lambda r: r.randrange(7),
        QQ: lambda r: Fraction(r.randint(-4, 4)),
    }
    for case in range(count):
        field = GF(7) if rng.random() < 0.5 else QQ
        ordering = rng.choice([Lex(), GrevLex(), GrLex()])
        gens = [
            random_poly(rng, field, rng.randint(1, 3), 3, samplers[field])
            for _ in range(rng.randint(1, 3))
        ]
        track = case % 2 == 1
        with checked_completions():
            gb = buchberger(gens, ordering, field, track)
            if track:
                assert gb.polys == buchberger(gens, ordering, field).polys, "tracked basis"
        if track:
            for g, rep in zip(gb.polys, gb.reps):
                total = sum((c * h for c, h in zip(rep, gens)), Polynomial(field))
                assert total == g, "an element is its cofactor row's combination"
        for g in gens:
            assert not normal_form(g, gb)
        polys = gb.polys
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                lm_i, lc_i = leading_term(polys[i], ordering)
                lm_j, lc_j = leading_term(polys[j], ordering)
                lcm = lm_i.lcm(lm_j)
                s = polys[i].mul_term(
                    lcm.div(lm_i), field.div(field.one(), lc_i)
                ) - polys[j].mul_term(lcm.div(lm_j), field.div(field.one(), lc_j))
                assert not normal_form(s, gb), "S-polynomial must reduce to 0"
    return count


def reference_divide(
    p: Polynomial,
    divisors: list[Polynomial],
    leads: list[Monomial],
    ordering: MonomialOrdering,
    field,
) -> tuple[Polynomial, list[Polynomial]]:
    """(remainder, quotients) of full division by monic divisors, as the
    plain textbook loop computes them: one max over the work's terms per
    step for its leading term, and each subtraction a new Polynomial."""
    quotients: list[dict] = [{} for _ in divisors]
    remainder: dict = {}
    work = p
    while work:
        lm, lc = leading_term(work, ordering)
        for i, glm in enumerate(leads):
            if glm.divides(lm):
                mon = lm.div(glm)
                work = work - divisors[i].mul_term(mon, lc)
                quotients[i][mon] = lc
                break
        else:
            remainder[lm] = lc
            work = work - Polynomial(field, {lm: lc})
    return Polynomial(field, remainder), [Polynomial(field, q) for q in quotients]


def reference_basis(
    basis: list[Polynomial], p: Polynomial, ordering: MonomialOrdering, field
) -> list[Polynomial]:
    """The reduced Groebner basis of the ideal of basis, a reduced Groebner
    basis, and p, by Buchberger's algorithm with no pair criterion: each new
    element's S-polynomial with every element, least lcm first, is divided by
    every element, and a nonzero remainder joins.  Then the elements whose
    leading monomial another one divides go, and each is reduced by the rest.
    Every division is reference_divide's, so the reference shares no division
    code with the basis it checks."""
    one = field.one()
    polys = list(basis)
    leads = [leading_term(g, ordering)[0] for g in polys]
    pairs: list[tuple[int, int]] = []
    p = reference_divide(p, polys, leads, ordering, field)[0]
    while True:
        if p:
            lm, lc = leading_term(p, ordering)
            pairs += [(k, len(polys)) for k in range(len(polys))]
            polys.append(p.scale(field.div(one, lc)))
            leads.append(lm)
        if not pairs:
            break
        i, j = min(pairs, key=lambda ij: ordering.key(leads[ij[0]].lcm(leads[ij[1]])))
        pairs.remove((i, j))
        lcm = leads[i].lcm(leads[j])
        s = polys[i].mul_term(lcm.div(leads[i]), one) - polys[j].mul_term(lcm.div(leads[j]), one)
        p = reference_divide(s, polys, leads, ordering, field)[0]
    # Ascending, a divisor of a leading monomial comes before it.
    keep: list[int] = []
    for k in sorted(range(len(polys)), key=lambda k: ordering.key(leads[k])):
        if not any(leads[m].divides(leads[k]) for m in keep):
            keep.append(k)
    return [
        reference_divide(
            polys[k],
            [polys[m] for m in keep if m != k],
            [leads[m] for m in keep if m != k],
            ordering,
            field,
        )[0]
        for k in keep
    ]


def check_incremental_basis(rng: random.Random, count: int) -> int:
    """An untracked basis built one add at a time, as the ideal sweep builds
    it, against reference_basis, which shares no pair rule with it.  Half the
    runs add random polynomials, half add the values of the monomials of
    degree <= 2 at two or three sparse elements, greatest first, as the sweep
    does.  After every add the active elements form a Groebner basis (every
    S-polynomial of two of them reduces to 0 by them alone) with pairwise
    indivisible leading monomials, and add answered membership; the reduced
    result is the reduced basis.  Over QQ the active elements are primitive
    integer polynomials with a positive leading coefficient, and each
    S-polynomial takes the leading-coefficient cofactors L_b/g and L_a/g,
    g = gcd(L_a, L_b), so that it is the same S-polynomial up to a scalar."""
    samplers = {
        QQ: lambda r: Fraction(r.randint(-4, 4), r.randint(1, 3)),
        GF(7): lambda r: r.randrange(7),
        GF(2): lambda r: r.randrange(2),
    }
    for _ in range(count):
        field = rng.choice(list(samplers))
        ordering = rng.choice([Lex(), GrLex(), GrevLex()])
        nvars = rng.randint(2, 3)
        if rng.random() < 0.5:
            count_adds = rng.randint(2, 5)
            adds = [random_poly(rng, field, nvars, 3, samplers[field]) for _ in range(count_adds)]
        else:
            count_elems = rng.randint(2, 3)
            elems = [random_poly(rng, field, nvars, 2, samplers[field]) for _ in range(count_elems)]
            mons = GrevLex().sort(monomials_up_to_degree(count_elems, 2))[::-1]
            adds = [_value(m, elems, field) for m in mons]
        gb = GroebnerBasis(ordering, field)
        _check_appends(gb)
        reference: list[Polynomial] = []
        for p in adds:
            previous = reference
            reference = reference_basis(previous, p, ordering, field)
            # A reduced basis is unique: it moves exactly when p is outside.
            assert gb.add(p) == (reference == previous), "add answers membership"
            active = [gb.polys[k] for k in gb._active]
            leads = [gb.leads[k] for k in gb._active]
            if field == QQ:
                for f, a in zip(active, leads):
                    assert all(type(c) is int for c in f.terms.values()), "integer element"
                    assert gcd(*f.terms.values()) == 1 and f.terms[a] > 0, "primitive element"
            for (f, a), (g, b) in combinations(zip(active, leads), 2):
                assert not a.divides(b) and not b.divides(a), "active leads are indivisible"
                lcm = a.lcm(b)
                top_a, top_b = f.terms[a], g.terms[b]
                d = gcd(top_a, top_b) if field == QQ else 1
                s = f.mul_term(lcm.div(a), field.div(top_b, d)) - g.mul_term(lcm.div(b), field.div(top_a, d))
                assert not _remainder(s, active, leads, ordering, field)[0], "S-polynomial is not 0"
        _reduce_basis(gb)
        assert gb.polys == reference, "reduced basis"
    return count


def _value(mon: Monomial, elems: list, field) -> Polynomial:
    """mon at the elements, by repeated multiplication."""
    value = Polynomial.constant(field, field.one())
    for i, e in mon:
        for _ in range(e):
            value = value * elems[i - 1]
    return value


# A wrong pair update can leave complete appending forever; the checks fail
# once a basis holds this many elements instead.
BASIS_LIMIT = 200


@contextmanager
def checked_completions() -> Iterator[None]:
    """While the context lasts, every GroebnerBasis.complete checks the
    elements it appends as _check_appends does, unless the basis is checked
    already.  The element bound alone is too slow a stop: a wrong update can
    build remainders of thousands of terms long before the basis holds
    BASIS_LIMIT elements."""
    complete = GroebnerBasis.complete

    def checked(self):
        if "append" in vars(self):
            return complete(self)
        _check_appends(self)
        try:
            complete(self)
        finally:
            del self.append

    GroebnerBasis.complete = checked
    try:
        yield
    finally:
        GroebnerBasis.complete = complete


def _check_appends(gb: GroebnerBasis) -> None:
    """Make every later append of gb check that the new element's leading
    monomial is divisible by no earlier one (a retired element's leading
    monomial is a multiple of an active one's), and fail once BASIS_LIMIT
    elements are in."""
    append = gb.append

    def checked(g, rep=None):
        assert len(gb.polys) < BASIS_LIMIT, "the basis grows without bound"
        lm = leading_term(g, gb.ordering)[0]
        assert not any(b.divides(lm) for b in gb.leads), "a new element is reduced"
        append(g, rep)

    gb.append = checked


def check_certificate_roundtrip(rng: random.Random, count: int) -> int:
    """JSON round-trips are bit-exact and re-verify for searched certificates."""
    done = 0
    while done < count:
        kind = rng.randrange(3)
        if kind == 0:
            ring = Zmod(rng.randint(2, 40))
            config = AlgebraConfig(ring, ring)
            elems = tuple(
                rng.randrange(ring.modulus) for _ in range(rng.randint(1, 2))
            )
            bound = ring.modulus + 1
        elif kind == 1:
            config = AlgebraConfig(ZZ, ZZ)
            elems = tuple(
                rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(2)
            )
            bound = 6
        else:
            field = GF(rng.choice([3, 5, 7]))
            config = AlgebraConfig(field, field)
            elems = (rng.randrange(field.modulus),)
            bound = 2
        ordering = rng.choice([Lex(), GrevLex(), GrLex((2, 1)) if len(elems) == 2 else GrLex()])
        verdict = search_submonic_relation(config, elems, ordering, bound)
        if not isinstance(verdict, Dependent):
            continue
        cert = verdict.certificate
        text = cert.to_json()
        back = SubmonicCertificate.from_json(text)
        assert back.verified, "round-tripped certificate must re-verify"
        assert back.to_json() == text, "serialization must be bit-exact"
        done += 1
    return done


def plain_eval(cert: SubmonicCertificate) -> dict:
    """The value of cert.poly at cert.elements, computed without trdeg arithmetic.

    No Polynomial or Ring operation runs: coefficients and elements are read
    from their term dicts into dicts keyed by exponent tuples, and the sums
    and products are Python int and Fraction arithmetic, reduced mod n over
    Z/n and GF(p), and with every term divisible by a relation dropped over a
    quotient by monomials.  Returns the nonzero terms, so {} means the
    relation holds.
    """
    algebra = cert.config.algebra
    cover = algebra.poly_ring if isinstance(algebra, QuotRing) else algebra
    nvars = cover.nvars if isinstance(cover, PolyRing) else 0
    scalars = cover.base if nvars else cover
    modulus = scalars.modulus if isinstance(scalars, ModularRing) else None
    walls = []
    if isinstance(algebra, QuotRing):
        for rel in algebra.relations:
            (mon,) = rel.terms  # a monomial relation
            walls.append(exponent_tuple(mon, nvars))

    def clean(value: dict) -> dict:
        out = {}
        for key, c in value.items():
            if modulus is not None:
                c %= modulus
            if c and not any(all(a >= b for a, b in zip(key, w)) for w in walls):
                out[key] = c
        return out

    def plain(value) -> dict:
        if not isinstance(value, Polynomial):
            return clean({(0,) * nvars: value})
        return clean({exponent_tuple(m, nvars): c for m, c in value.terms.items()})

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0) + ca * cb
        return clean(out)

    elements = [plain(v) for v in cert.elements]
    total: dict = {}
    for mon, coeff in cert.poly.terms.items():
        term = plain(coeff)
        for index, exp in mon.exps:
            for _ in range(exp):
                term = mul(term, elements[index - 1])
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return clean(total)


def exponent_tuple(mon: Monomial, nvars: int) -> tuple:
    powers = dict(mon.exps)
    return tuple(powers.get(i, 0) for i in range(1, nvars + 1))


def check_plain_eval(rng: random.Random, count: int) -> int:
    """Searched certificates evaluate to zero under plain_eval, and to a
    nonzero value once their constant coefficient is raised by one (the
    constant monomial is 1 at any elements, so the value moves by exactly 1).
    """
    quot = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
    cases = [
        (ZZ, parse_ring_text("Poly(ZZ; x)"), 4),
        (QQ, parse_ring_text("Poly(QQ; x)"), 4),
        (GF(7), parse_ring_text("Poly(GF(7); x)"), 4),
        (Zmod(12), Zmod(12), 6),
        (ZZ, Zmod(12), 6),
        (QQ, quot, 3),
        (quot, quot, 2),
    ]
    done = 0
    while done < count:
        coeff_ring, algebra, maxdeg = cases[done % len(cases)]
        if isinstance(algebra, ModularRing):
            elems = tuple(rng.randrange(12) for _ in range(rng.randint(1, 2)))
        elif isinstance(algebra, QuotRing):
            elems = tuple(algebra.reduce(sample_element(rng, algebra.poly_ring, 1, 3)) for _ in "ab")
        else:
            elems = tuple(sample_element(rng, algebra, 2, 3) for _ in "ab")
        config = AlgebraConfig(coeff_ring, algebra)
        ordering = rng.choice([Lex(), GrevLex()])
        verdict = search_submonic_relation(config, elems, ordering, maxdeg)
        if not isinstance(verdict, Dependent):
            continue
        cert = verdict.certificate
        assert plain_eval(cert) == {}, "certificate must evaluate to zero"
        terms = dict(cert.poly.terms)
        terms[ONE] = coeff_ring.add(terms.get(ONE, coeff_ring.zero()), coeff_ring.one())
        changed = dataclasses.replace(cert, poly=Polynomial(coeff_ring, terms))
        assert plain_eval(changed) != {}, "a changed coefficient must be caught"
        done += 1
    return done
