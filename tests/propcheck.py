"""Shared randomized property checks.

Unit test modules run these at moderate counts; the acceptance suite re-runs
them at the mandated volumes.  Every function takes an explicit rng so runs
are reproducible, asserts internally, and returns the number of checks made.
"""

from __future__ import annotations

import random
from fractions import Fraction

from trdeg.dependence import (
    AlgebraConfig,
    Dependent,
    SubmonicCertificate,
    search_submonic_relation,
)
from trdeg.groebner import buchberger, normal_form
from trdeg.linalg import FieldEchelon, hnf, solve_in_span
from trdeg.monomials import ONE, Monomial
from trdeg.orderings import (
    GrevLex,
    GrLex,
    Lex,
    MatrixOrder,
    MonomialOrdering,
    WeightedLex,
    is_weight_graded,
)
from trdeg.polynomials import Polynomial, leading_term
from trdeg.rings import GF, QQ, ZZ, Ring, Zmod


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
            if not f.is_zero(v[c]):
                factor = v[c]
                v = [f.sub(a, f.mul(factor, b)) for a, b in zip(v, row)]
        lead = next((j for j, x in enumerate(v) if not f.is_zero(x)), None)
        if lead is None:
            return True
        inv = f.div(f.one(), v[lead])
        v = [f.mul(inv, x) for x in v]
        for c, other in self.rows.items():
            if not f.is_zero(other[lead]):
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


def check_field_echelon_reference(rng: random.Random, count: int) -> int:
    """FieldEchelon agrees with ReferenceFieldEchelon on random add sequences.

    Fields QQ (denominators 1-6), GF(2), GF(7) and GF(101); dims 1-6; the
    inputs mix random, zero and repeated vectors with combinations of earlier
    ones.  After every add: the same member flag, rank and reduced rows
    (FieldEchelon keeps a multiple, row / row[pivot]), and solve_in_span over
    the field answers like the reference solve on the vectors so far.
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
            reduced = {
                c: [field.div(x, row[c]) for x in row] for c, row in echelon.rows.items()
            }
            assert reduced == reference.rows, "reduced rows"
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
    contains its own generators' ideal (NF of each generator is zero)."""
    samplers = {
        GF(7): lambda r: r.randrange(7),
        QQ: lambda r: Fraction(r.randint(-4, 4)),
    }
    for _ in range(count):
        field = GF(7) if rng.random() < 0.5 else QQ
        ordering = rng.choice([Lex(), GrevLex(), GrLex()])
        gens = [
            random_poly(rng, field, rng.randint(1, 3), 3, samplers[field])
            for _ in range(rng.randint(1, 3))
        ]
        gb = buchberger(gens, ordering, field)
        for g in gens:
            assert normal_form(g, gb).is_zero()
        polys = gb.polys
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                lm_i, lc_i = leading_term(polys[i], ordering)
                lm_j, lc_j = leading_term(polys[j], ordering)
                lcm = lm_i.lcm(lm_j)
                s = polys[i].mul_term(
                    lcm.div(lm_i), field.div(field.one(), lc_i)
                ) - polys[j].mul_term(lcm.div(lm_j), field.div(field.one(), lc_j))
                assert normal_form(s, gb).is_zero(), "S-polynomial must reduce to 0"
    return count


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
