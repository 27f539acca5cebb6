"""Buchberger, normal forms, ideal membership, staircase dimension."""

import hashlib
import math
import random
from fractions import Fraction
from math import gcd

import pytest

from propcheck import (
    check_incremental_basis,
    check_spoly_reduction,
    checked_completions,
    random_monomial,
    reference_basis,
    reference_divide,
)
from trdeg.groebner import (
    GroebnerBasis,
    _divide,
    _reduce_basis,
    _remainder,
    buchberger,
    membership_cofactors,
    normal_form,
    normal_form_with_quotients,
    staircase_dimension,
    staircase_dimension_from_gb,
)
from trdeg.monomials import Monomial
from trdeg.orderings import GrevLex, GrLex, Lex, MatrixOrder, WeightedLex, ordering_from_text
from trdeg.parsing import parse_elem, parse_ring_text
from trdeg.polynomials import Polynomial
from trdeg.rings import QQ, PolyRing, PrimeField

R2 = parse_ring_text("Poly(QQ; t1,t2)")
R3 = parse_ring_text("Poly(QQ; t1,t2,t3)")


@pytest.fixture(autouse=True)
def _checked():
    # A wrong pair update fails here instead of growing a basis for minutes.
    with checked_completions():
        yield


def polys(ring, *texts):
    return [parse_elem(t, ring) for t in texts]


def term_sets(gb):
    return {frozenset(g.terms.items()) for g in gb.polys}


class TestBuchberger:
    def test_single_monomial_is_its_own_basis(self):
        gb = buchberger(polys(R2, "t1*t2"), GrevLex(), QQ)
        assert term_sets(gb) == term_sets_of(R2, "t1*t2")

    def test_monomial_ideal_fixed(self):
        gb = buchberger(polys(R2, "t1^2", "t1*t2", "t2^2"), GrevLex(), QQ)
        assert term_sets(gb) == term_sets_of(R2, "t1^2", "t1*t2", "t2^2")

    def test_sum_and_difference_reduce_to_variables(self):
        gb = buchberger(polys(R2, "t1 + t2", "t1 - t2"), Lex(), QQ)
        assert term_sets(gb) == term_sets_of(R2, "t1", "t2")

    def test_basis_is_monic_reduced_and_sorted(self):
        gens = polys(R2, "t1^2*t2 - 1", "t1*t2^2 - t1")
        for ordering in (Lex(), GrLex(), GrevLex()):
            gb = buchberger(gens, ordering, QQ)
            lms = gb.leads
            # ascending leading monomials
            for a, b in zip(lms, lms[1:]):
                assert ordering.key(a) < ordering.key(b)
            for g, lm in zip(gb.polys, lms):
                assert g.terms[lm] == QQ.one()
                # no tail monomial of any element divisible by another lead
                for other in lms:
                    if other == lm:
                        continue
                    assert not any(other.divides(s) for s in g.terms)

    def test_unit_ideal(self):
        gb = buchberger(polys(R2, "t1", "t1 + 1"), GrevLex(), QQ)
        assert gb.is_full()
        assert term_sets(gb) == term_sets_of(R2, "1")

    def test_empty_and_zero_generators(self):
        assert buchberger([], GrevLex(), QQ).polys == []
        assert buchberger([Polynomial(QQ)], GrevLex(), QQ).polys == []

    def test_generators_reduce_to_zero(self):
        gens = polys(R2, "t1^2 + t2", "t1*t2 - 3", "t2^3 - t1")
        gb = buchberger(gens, GrevLex(), QQ)
        for g in gens:
            assert not normal_form(g, gb)

    def test_spoly_invariants_random(self):
        assert check_spoly_reduction(random.Random(7), 40) == 40

    def test_add_refuses_a_tracked_basis(self):
        ring = parse_ring_text("Poly(QQ; x,y)")
        gb = buchberger(polys(ring, "x*y - 1"), GrevLex(), QQ, track=True)
        before = (list(gb.polys), list(gb.leads), [list(rep) for rep in gb.reps])
        with pytest.raises(ValueError, match="untracked"):
            gb.add(parse_elem("x^2 + y", ring))
        assert (gb.polys, gb.leads, gb.reps) == before
        untracked = buchberger(polys(ring, "x*y - 1"), GrevLex(), QQ)
        assert untracked.add(parse_elem("x^2*y - x", ring))
        assert not untracked.add(parse_elem("x^2 + y", ring))


class TestIncrementalBasis:
    """The untracked basis the ideal sweep grows one add at a time, under the
    Gebauer-Moeller pair update that every basis takes, against a reference
    Buchberger with no pair criterion."""

    def test_seeded_sweeps_against_buchberger(self):
        assert check_incremental_basis(random.Random(20), 120) == 120

    def test_divided_elements_leave_the_active_list(self):
        ring = parse_ring_text("Poly(QQ; x,y)")
        gb = GroebnerBasis(GrevLex(), QQ)
        assert not gb.add(parse_elem("x^2*y + 1", ring))
        # y*(x^2*y + 1) - x*(x*y^2 + 1) = y - x, whose lead x retires x^2*y.
        assert not gb.add(parse_elem("x*y^2 + 1", ring))
        assert [ring.format_elem(gb.polys[k]) for k in gb._active] == ["x - y", "y^3 + 1"]
        # x*y - 1 reduces to y^2 - 1, which retires y^3 + 1; their S-polynomial
        # y + 1 retires y^2 - 1 in turn.
        assert not gb.add(parse_elem("x*y - 1", ring))
        assert [ring.format_elem(gb.polys[k]) for k in gb._active] == ["x - y", "y + 1"]
        # Retired elements stay in polys: queued pairs may name them.
        assert len(gb.polys) == 6
        assert gb.add(parse_elem("x + 1", ring)) and gb.add(parse_elem("y^2 - 1", ring))

    def test_coprime_pairs_are_never_queued(self):
        ring = parse_ring_text("Poly(QQ; x,y,z)")
        gb = GroebnerBasis(Lex(), QQ)
        for text in ("x^2 + y", "y^3 + z", "z^2 + 1"):
            gb.append(parse_elem(text, ring))
        assert gb._heap == []
        # x*y shares a variable with x^2 and y^3, none with z^2.
        gb.append(parse_elem("x*y", ring))
        assert sorted((i, j) for _, i, j, _ in gb._heap) == [(0, 3), (1, 3)]


class TestNormalForm:
    def test_remainder_has_no_divisible_monomial(self):
        gb = buchberger(polys(R2, "t1^2 - t2", "t2^2 - 1"), Lex(), QQ)
        f = parse_elem("t1^5 + t1^2*t2^3 + t2", R2)
        r = normal_form(f, gb)
        for s in r.terms:
            assert not any(lm.divides(s) for lm in gb.leads)

    def test_division_identity(self):
        gb = buchberger(polys(R2, "t1^2 - t2", "t2^2 - 1"), Lex(), QQ)
        f = parse_elem("t1^4*t2 - t1 + 5", R2)
        r, quots = normal_form_with_quotients(f, gb)
        total = r
        for q, g in zip(quots, gb.polys):
            total = total + q * g
        assert total == f

    def test_square_reduces_modulo_difference(self):
        gb = buchberger(polys(R2, "t1 - t2"), Lex(), QQ)
        assert normal_form(parse_elem("t1^2", R2), gb) == parse_elem("t2^2", R2)


def terms_in_order(p):
    """p's terms in dict order, coefficients by repr, so that 2 and
    Fraction(2, 1) differ."""
    return [(m.vector, repr(c)) for m, c in p.terms.items()]


def assert_same_division(got, want):
    (r, quots), (want_r, want_q) = got, want
    assert terms_in_order(r) == terms_in_order(want_r)
    assert [terms_in_order(q) for q in quots] == [terms_in_order(q) for q in want_q]


def monic(p, ordering, field):
    return p.scale(field.div(field.one(), p.terms[ordering.max(p.terms)]))


class TestDivisionOracle:
    # The heap-ordered division against propcheck.reference_divide: the same
    # remainder and the same quotients, term order and coefficient forms
    # included, under every ordering family.
    ORDERINGS = [
        Lex(),
        GrLex(),
        GrevLex(),
        Lex((2, 3, 1)),
        GrLex((3, 1, 2)),
        GrevLex((3, 1, 2)),
        WeightedLex([Fraction(3, 2), Fraction(1, 3), 2]),
        MatrixOrder([[1, 2, 1], [0, 0, 1], [1, 0, 0]]),
    ]
    SAMPLERS = {
        QQ: lambda r: QQ.div(r.randint(-4, 4), r.randint(1, 3)),
        PrimeField(7): lambda r: r.randrange(7),
    }

    def _poly(self, rng, field, terms, maxdeg):
        sample = self.SAMPLERS[field]
        return Polynomial(field, {random_monomial(rng, 3, maxdeg): sample(rng) for _ in range(terms)})

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    @pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.to_text())
    def test_seeded_divisions_match_reference(self, field, ordering):
        rng = random.Random(f"divide:{field}:{ordering.to_text()}")
        for _ in range(12):
            divisors = [
                monic(g, ordering, field)
                for g in (self._poly(rng, field, rng.randint(1, 4), 3) for _ in range(rng.randint(1, 4)))
                if g
            ]
            leads = [ordering.max(g.terms) for g in divisors]
            p = self._poly(rng, field, rng.randint(1, 8), 5)
            want = reference_divide(p, divisors, leads, ordering, field)
            assert_same_division(_divide(p, divisors, leads, ordering, field), want)

            gb = buchberger(divisors, ordering, field)
            want = reference_divide(p, gb.polys, gb.leads, ordering, field)
            assert_same_division(normal_form_with_quotients(p, gb), want)
            assert terms_in_order(normal_form(p, gb)) == terms_in_order(want[0])

    def test_cancelled_term_that_reenters(self):
        # Lex, x > y.  Reducing x^2 by x + y cancels x*y, whose heap entry
        # stays behind; reducing x*y^2 by y^2 + y brings x*y back, so it is
        # queued twice and the stale entry is popped after it is gone.
        ring = PolyRing(QQ, ("x", "y"))
        x, y = Monomial.var(1), Monomial.var(2)
        divisors = polys(ring, "y^2 + y", "x + y")
        leads = [y * y, x]
        p = parse_elem("x^2 + x*y + x*y^2", ring)
        r, quots = _divide(p, divisors, leads, Lex(), QQ)
        assert r == parse_elem("-y", ring)
        assert quots == polys(ring, "x + 1", "x - y")
        assert_same_division((r, quots), reference_divide(p, divisors, leads, Lex(), QQ))


class TestIntegralBasisOracle:
    # An untracked basis over QQ keeps primitive integer elements with a
    # positive leading coefficient and divides fraction-free.  Seeded adds
    # under every ordering family, against propcheck's reference loops, which
    # work on the monic elements: the same membership answers, exact normal
    # forms and quotients (scaled by each element's leading coefficient), the
    # scaled identity of the raw division, and the same reduced basis.
    def _poly(self, rng, terms, maxdeg):
        sample = TestDivisionOracle.SAMPLERS[QQ]
        return Polynomial(QQ, {random_monomial(rng, 3, maxdeg): sample(rng) for _ in range(terms)})

    @pytest.mark.parametrize("ordering", TestDivisionOracle.ORDERINGS, ids=lambda o: o.to_text())
    def test_seeded_bases_match_reference(self, ordering):
        rng = random.Random(f"integral:{ordering.to_text()}")
        for _ in range(6):
            gb = GroebnerBasis(ordering, QQ)
            assert gb.integral
            reference = []
            adds = [self._poly(rng, rng.randint(1, 4), 3) for _ in range(rng.randint(2, 4))]
            for g in (g for g in adds if g):
                previous, reference = reference, reference_basis(reference, g, ordering, QQ)
                assert gb.add(g) == (reference == previous)
                for f, lm in zip(gb.polys, gb.leads):
                    assert all(type(c) is int for c in f.terms.values())
                    assert gcd(*f.terms.values()) == 1 and f.terms[lm] > 0
                tops = [f.terms[lm] for f, lm in zip(gb.polys, gb.leads)]
                monics = [monic(f, ordering, QQ) for f in gb.polys]
                for p in (self._poly(rng, rng.randint(1, 6), 5), Polynomial(QQ)):
                    want = reference_divide(p, monics, gb.leads, ordering, QQ)
                    assert terms_in_order(normal_form(p, gb)) == terms_in_order(want[0])
                    r, quots = normal_form_with_quotients(p, gb)
                    scaled = [q.scale(top) for q, top in zip(quots, tops)]
                    assert_same_division((r, scaled), want)

                    cleared = p.scale(math.lcm(*(c.denominator for c in p.terms.values())))
                    raw = [{} for _ in gb.polys]
                    r, scale = _remainder(cleared, gb.polys, gb.leads, ordering, QQ, raw)
                    raw = [Polynomial(QQ, q) for q in raw]
                    assert all(type(c) is int for q in raw for c in (*q.terms.values(), *r.terms.values()))
                    total = sum((q * f for q, f in zip(raw, gb.polys)), r)
                    assert total == cleared.scale(scale)
                    assert r == reference_divide(cleared, monics, gb.leads, ordering, QQ)[0].scale(scale)
            _reduce_basis(gb)
            assert not gb.integral and gb.polys == reference
            assert buchberger(adds, ordering, QQ).polys == reference
            for p in (self._poly(rng, rng.randint(1, 6), 5) for _ in range(3)):
                assert_same_division(
                    _divide(p, gb.polys, gb.leads, ordering, QQ),
                    reference_divide(p, gb.polys, gb.leads, ordering, QQ),
                )


class TestQuotientsWithoutRecheck:
    # A division step divides lm by a lead already found to divide it, and an
    # S-polynomial divides the pair's lcm by each lead; both quotients go
    # through the unchecked monomials._quotient, not Monomial.div.
    def test_division_and_completion_skip_the_checked_div(self, monkeypatch):
        gens = polys(R3, "2*t1^2*t2 - t3", "3*t1*t2^2 - t1", "t2*t3 + 2*t1")
        p = parse_elem("t1^3*t2^2 + t2^3*t3 - t1", R3)
        want_basis = buchberger(gens, GrevLex(), QQ).polys
        divisors = [monic(g, GrevLex(), QQ) for g in gens]
        leads = [GrevLex().max(g.terms) for g in divisors]
        want_division = reference_divide(p, divisors, leads, GrevLex(), QQ)

        def refuse(self, other):
            raise LookupError(f"Monomial.div({self}, {other})")

        monkeypatch.setattr(Monomial, "div", refuse)
        r, quots = _divide(p, divisors, leads, GrevLex(), QQ)
        assert any(quots)
        assert_same_division((r, quots), want_division)
        basis = GroebnerBasis(GrevLex(), QQ)
        for g in gens:
            basis.append(g)
        basis.complete()
        assert len(basis.polys) > len(gens)
        _reduce_basis(basis)
        assert basis.polys == want_basis
        with pytest.raises(LookupError):
            Monomial.var(1).div(Monomial.var(2))

    def test_monic_elements_are_not_rescaled(self, monkeypatch):
        # Every element of this integral basis has leading coefficient 1, so
        # making it monic divides nothing.
        gens = polys(R2, "t1^2 - t2", "t1*t2 - 1")
        want = buchberger(gens, GrevLex(), QQ).polys

        def refuse(self, a, b):
            raise LookupError(f"QQ.div({a}, {b})")

        monkeypatch.setattr(type(QQ), "div", refuse)
        basis = buchberger(gens, GrevLex(), QQ)
        assert basis.polys == want
        assert all(type(c) is int for g in basis.polys for c in g.terms.values())


class TestMembership:
    def test_monomial_ideal_example(self):
        gens = polys(R2, "t1^2*t2^2", "t1^3*t2")
        assert membership_cofactors(parse_elem("t1^2*t2", R2), gens, R2, GrevLex()) is None
        assert membership_cofactors(parse_elem("t1^3*t2", R2), gens, R2, GrevLex()) is not None
        assert membership_cofactors(Polynomial(QQ), gens, R2, GrevLex()) is not None

    def test_empty_generators(self):
        assert membership_cofactors(parse_elem("t1", R2), [], R2, GrevLex()) is None
        assert membership_cofactors(Polynomial(QQ), [], R2, GrevLex()) == []

    def test_nonmember_gets_no_cofactors(self):
        gens = polys(R2, "t1^2", "t2")
        assert membership_cofactors(parse_elem("t1", R2), gens, R2, GrevLex()) is None
        assert membership_cofactors(parse_elem("t1 + 1", R2), gens, R2, Lex()) is None

    def test_cofactors_for_combination(self):
        rng = random.Random(13)
        gens = polys(R2, "t1^2 - t2", "t2^3 - t1*t2")
        for _ in range(25):
            mults = [
                Polynomial(
                    QQ,
                    {
                        random_monomial(rng, 2, 3): QQ.from_int(rng.randint(-4, 4))
                        for _ in range(rng.randint(0, 3))
                    },
                )
                for _ in gens
            ]
            f = Polynomial(QQ)
            for q, g in zip(mults, gens):
                f = f + q * g
            cof = membership_cofactors(f, gens, R2, GrevLex())
            assert cof is not None
            total = Polynomial(QQ)
            for c, g in zip(cof, gens):
                total = total + c * g
            assert total == f

    def test_monomial_ideal_membership_is_divisibility(self):
        rng = random.Random(29)
        for _ in range(60):
            nvars = rng.randint(1, 3)
            gens_mons = [random_monomial(rng, nvars, 4) for _ in range(rng.randint(1, 4))]
            gens = [Polynomial(QQ, {g: QQ.one()}) for g in gens_mons]
            probe = random_monomial(rng, nvars, 6)
            f = Polynomial(QQ, {probe: QQ.one()})
            expected = any(g.divides(probe) for g in gens_mons)
            assert (membership_cofactors(f, gens, R3, GrevLex()) is not None) == expected

    def test_prime_field_coefficients(self):
        gf = PrimeField(7)
        ring = parse_ring_text("Poly(GF(7); t1,t2)")
        gens = polys(ring, "t1^2 + 3*t2", "t1*t2 + 6")
        f = (gens[0] * parse_elem("t1 + 2", ring)) + (gens[1] * parse_elem("5*t2", ring))
        cof = membership_cofactors(f, gens, ring, Lex())
        assert cof is not None
        total = Polynomial(gf)
        for c, g in zip(cof, gens):
            total = total + c * g
        assert total == f


class TestStaircaseDimension:
    def test_pinned_values(self):
        assert staircase_dimension(polys(R2, "t1*t2"), 2, GrevLex(), QQ) == 1
        assert staircase_dimension(polys(R2, "t1^2", "t1*t2", "t2^2"), 2, GrevLex(), QQ) == 0
        assert staircase_dimension(polys(R3, "t1*t3", "t2*t3"), 3, GrevLex(), QQ) == 2
        assert staircase_dimension(polys(R2, "1"), 2, GrevLex(), QQ) == -1

    def test_empty_ideal_has_full_dimension(self):
        for n, ring in [(2, R2), (3, R3)]:
            assert staircase_dimension([], n, GrevLex(), QQ) == n

    def test_adding_generators_never_raises_dimension(self):
        rng = random.Random(37)
        for _ in range(30):
            nvars = rng.randint(1, 3)
            mons = [random_monomial(rng, nvars, 3) for _ in range(4)]
            gens = [Polynomial(QQ, {g: QQ.one()}) for g in mons]
            dims = [
                staircase_dimension(gens[:k], nvars, GrevLex(), QQ)
                for k in range(len(gens) + 1)
            ]
            for a, b in zip(dims, dims[1:]):
                assert b <= a

    def test_from_gb_matches(self):
        gens = polys(R3, "t1*t2 - t3", "t2^2 - 1")
        gb = buchberger(gens, GrevLex(), QQ)
        assert staircase_dimension_from_gb(gb, 3) == staircase_dimension(
            gens, 3, GrevLex(), QQ
        )


class TestPinnedOutputs:
    # A reduced basis is unique, and so are the normal form and quotients of
    # division by it; cofactor rows and membership cofactors depend on the
    # order of every elimination step, hence on the pair rule, and no other
    # test pins them.  Two digests over 360 seeded systems keep the two kinds
    # apart: the canonical one covers bases, normal forms and quotients, the
    # rule-dependent one cofactor rows and member and non-member cofactors.
    def test_seeded_systems_pinned(self):
        canonical, rule = seeded_system_digests()
        assert canonical == "8771a188661fcfe16f75a2693c9e40ca3c22c1c9149c190b7f48593f71e5bf84"
        assert rule == "4feb9529f6b79d14948afb0157e317d23e99be6408b61bc9b2d4249869ea11c1"


def seeded_system_digests():
    """(canonical digest, rule-dependent digest) of the pinned systems."""
    rng = random.Random(2026)
    canonical, rule = hashlib.sha256(), hashlib.sha256()
    outcomes = {"member": 0, "nonmember": 0}
    for field in (QQ, PrimeField(7), PrimeField(2)):
        ring = PolyRing(field, ("x1", "x2", "x3"))
        for text in ("lex", "grlex", "grevlex", "lex:x3>x1>x2", "wlex:2,1,3"):
            ordering = ordering_from_text(text)
            for _ in range(24):
                gens = [random_poly(rng, field, 3) for _ in range(rng.randint(2, 3))]
                gb = buchberger(gens, ordering, field, track=True)
                member = Polynomial(field)
                for g in gens:
                    member = member + random_poly(rng, field, 2) * g
                probe = random_poly(rng, field, 4)
                cofs = [membership_cofactors(f, gens, ring, ordering) for f in (member, probe)]
                outcomes["nonmember"] += cofs[1] is None
                outcomes["member"] += cofs[0] is not None
                r, quots = normal_form_with_quotients(probe, gb)
                assert normal_form(probe, gb) == r
                record = (
                    [poly_text(g) for g in gb.polys],
                    poly_text(r),
                    [poly_text(q) for q in quots],
                )
                canonical.update(repr(record).encode())
                record = (
                    [[poly_text(c) for c in rep] for rep in gb.reps],
                    [None if c is None else [poly_text(p) for p in c] for c in cofs],
                )
                rule.update(repr(record).encode())
    assert outcomes == {"member": 360, "nonmember": 165}
    return canonical.hexdigest(), rule.hexdigest()


def random_poly(rng, field, terms):
    # Built by addition, so a monomial drawn twice gets the sum of its coefficients.
    return sum(
        (
            Polynomial(field, {random_monomial(rng, 3, 2): field.from_int(rng.randint(-3, 3))})
            for _ in range(rng.randint(1, terms))
        ),
        Polynomial(field),
    )


def poly_text(p):
    return sorted((tuple(m), str(c)) for m, c in p.terms.items())


def term_sets_of(ring, *texts):
    return {frozenset(parse_elem(t, ring).terms.items()) for t in texts}
