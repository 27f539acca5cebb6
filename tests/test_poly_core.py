"""Monomials, polynomials, rings, and integer helpers."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from trdeg.errors import TrdegError
from trdeg.harness import _sample_scalar
from trdeg.intmath import ext_gcd, is_probable_prime, modinv
from trdeg.monomials import ONE, Monomial, compositions, monomials_up_to_degree
from trdeg.polynomials import Polynomial, eval_poly, leading_term, trailing_term
from trdeg.orderings import GrevLex, Lex
from trdeg.rings import (
    GF,
    QQ,
    ZZ,
    IntegerRing,
    ModularRing,
    PolyRing,
    QuotRing,
    RationalRing,
    Zmod,
)
from trdeg.parsing import parse_elem, parse_ring_text


class TestMonomial:
    def test_construction_accumulates_and_drops_zeros(self):
        m = Monomial([(2, 1), (1, 3), (2, 2), (4, 0)])
        assert m.exps == ((1, 3), (2, 3))
        assert m.degree == 6
        assert m.exponent(2) == 3
        assert m.exponent(4) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial([(0, 1)])
        with pytest.raises(ValueError):
            Monomial([(1, -1)])

    def test_one(self):
        assert ONE.is_one()
        assert ONE.degree == 0
        assert ONE.max_index() == 0
        assert Monomial() == ONE

    def test_mul_div_lcm(self):
        a = Monomial([(1, 2), (3, 1)])
        b = Monomial([(1, 1), (2, 4)])
        ab = a * b
        assert ab.exps == ((1, 3), (2, 4), (3, 1))
        assert b.divides(ab) and a.divides(ab)
        assert ab.div(b) == a
        assert not ab.divides(a)
        with pytest.raises(ValueError):
            a.div(b)
        assert a.lcm(b) == Monomial([(1, 2), (2, 4), (3, 1)])

    def test_matches_plain_vectors(self):
        rng = random.Random(17)

        def vector():
            return tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(rng.randint(0, 5)))

        def pairs(v):
            return tuple((i + 1, e) for i, e in enumerate(v) if e)

        def monomial(v):
            return Monomial((i + 1, e) for i, e in enumerate(v))

        for _ in range(1000):
            u, v = vector(), vector()
            n = max(len(u), len(v))
            u, v = u + (0,) * (n - len(u)), v + (0,) * (n - len(v))
            a, b = monomial(u), monomial(v)
            assert a.exps == tuple(a) == pairs(u) and a.degree == sum(u)
            assert a.indices() == tuple(i for i, _ in pairs(u))
            assert a.max_index() == max(a.indices(), default=0)
            assert (a == b) == (u == v) and (a == b) <= (hash(a) == hash(b))
            for got, want in [
                (a * b, tuple(x + y for x, y in zip(u, v))),
                (a.lcm(b), tuple(map(max, u, v))),
            ]:
                assert got == monomial(want) and hash(got) == hash(monomial(want))
                assert got.exps == pairs(want) and got.degree == sum(want)
            divides = all(x <= y for x, y in zip(u, v))
            assert a.divides(b) == divides
            if divides:
                q = tuple(y - x for x, y in zip(u, v))
                assert b.div(a) == monomial(q) and hash(b.div(a)) == hash(monomial(q))
                assert b.div(a).exps == pairs(q) and b.div(a).degree == sum(q)
            else:
                with pytest.raises(ValueError):
                    b.div(a)
        assert Monomial(((1, 2), (3, 0))) == Monomial.var(1, 2)
        assert hash(Monomial(((1, 2), (3, 0)))) == hash(Monomial.var(1, 2))

    def test_equal_vectors_give_one_object(self):
        # Monomials are interned, so equality is identity: every way of
        # building x1^2*x3 returns the same object.
        x1, x3 = Monomial.var(1), Monomial.var(3)
        want = Monomial([(1, 2), (3, 1)])
        ring = parse_ring_text("Poly(QQ; a,b,c)")
        (parsed,) = parse_elem("a^2*c", ring).terms
        built = [
            Monomial([(3, 1), (1, 1), (1, 1), (2, 0)]),
            x1 * x1 * x3,
            Monomial.var(1, 2) * x3,
            Monomial([(1, 3), (3, 2)]).div(x1 * x3),
            Monomial.var(1, 2).lcm(x3),
            next(m for m in monomials_up_to_degree(3, 3) if m.vector == (2, 0, 1)),
            parsed,
            copy.copy(want),
            copy.deepcopy(want),
            copy.deepcopy([want, {want: 1}])[1].popitem()[0],
            pickle.loads(pickle.dumps(want)),
        ]
        assert all(m is want for m in built)
        assert Monomial() is ONE and ONE.div(ONE) is ONE and Monomial.var(2, 0) is ONE
        assert copy.deepcopy(ONE) is ONE and pickle.loads(pickle.dumps(ONE)) is ONE

    def test_a_monomial_is_not_its_exponent_tuple(self):
        m = Monomial([(1, 2), (3, 1)])
        assert m != m.vector and m.vector != m and m != (2, 0, 1)
        assert ONE != () and {m: 1}.get((2, 0, 1)) is None

    def test_natural_key_is_degree_then_pairs(self):
        rng = random.Random(19)
        vectors = {tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(300)}
        mons = [Monomial((i + 1, e) for i, e in enumerate(v)) for v in vectors]
        by_pairs = sorted(
            vectors, key=lambda v: (sum(v), tuple((i + 1, e) for i, e in enumerate(v) if e))
        )
        assert [m.exps for m in sorted(mons, key=Monomial.natural_key)] == [
            tuple((i + 1, e) for i, e in enumerate(v) if e) for v in by_pairs
        ]

    def test_repr(self):
        assert repr(Monomial([(1, 1), (2, 3)])) == "x1*x2^3"
        assert repr(ONE) == "1"

    def test_enumeration_count_and_order(self):
        for nvars, maxdeg in [(1, 5), (2, 4), (3, 3)]:
            mons = monomials_up_to_degree(nvars, maxdeg)
            assert len(mons) == math.comb(nvars + maxdeg, nvars)
            assert len(set(mons)) == len(mons)
            degrees = [m.degree for m in mons]
            assert degrees == sorted(degrees)

    def test_compositions_lexicographic(self):
        got = list(compositions(2, 3))
        assert got == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        ]
        assert list(compositions(0, 2)) == [(0, 0)]


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(ZZ, {ONE: 0, Monomial.var(1): 2})
        assert p.terms == {Monomial.var(1): 2}
        q = Polynomial(ZZ, {ONE: 3}) + Polynomial(ZZ, {ONE: -3})
        assert not q and q.terms == {}

    def test_arithmetic_matches_hand_expansion(self):
        x = Polynomial.variable(ZZ, 1)
        one = Polynomial.constant(ZZ, 1)
        square = (x + one) * (x + one)
        assert square.terms == {
            Monomial.var(1, 2): 1,
            Monomial.var(1): 2,
            ONE: 1,
        }
        assert ((x + one) * (x - one)).terms == {Monomial.var(1, 2): 1, ONE: -1}

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.variable(ZZ, 1) + Polynomial.variable(QQ, 1)

    def test_nested_coefficients(self):
        # Coefficients that are themselves polynomials (algebra over Poly).
        inner = PolyRing(QQ, ("t",))
        t = inner.var(1)
        p = Polynomial(inner, {Monomial.var(1): t, ONE: inner.one()})
        q = p * p
        assert q.terms[Monomial.var(1, 2)] == t * t
        assert q.terms[Monomial.var(1)] == t + t

    def test_leading_and_trailing(self):
        P = parse_ring_text("Poly(ZZ; x,y)")
        f = parse_elem("x^2 + 3*y", P)
        lex = Lex()
        lm, lc = leading_term(f, lex)
        tm, tc = trailing_term(f, lex)
        assert (lm, lc) == (Monomial.var(1, 2), 1)
        assert (tm, tc) == (Monomial.var(2), 3)
        with pytest.raises(ValueError):
            leading_term(Polynomial(ZZ), lex)

    def test_eval_matches_naive(self):
        rng = random.Random(5)
        P = parse_ring_text("Poly(ZZ; x,y)")
        for _ in range(50):
            terms = {
                Monomial([(1, rng.randint(0, 3)), (2, rng.randint(0, 3))]): rng.randint(-4, 4)
                for _ in range(4)
            }
            f = Polynomial(ZZ, terms)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            naive = sum(
                c * a ** m.exponent(1) * b ** m.exponent(2) for m, c in f.terms.items()
            )
            assert eval_poly(f, [a, b], ZZ) == naive

    def test_eval_rejects_missing_arguments(self):
        f = Polynomial(ZZ, {Monomial.var(3): 1})
        with pytest.raises(ValueError):
            eval_poly(f, [1, 2], ZZ)

    def test_total_degree(self):
        assert Polynomial(ZZ).total_degree() == -1
        assert Polynomial.constant(ZZ, 4).total_degree() == 0
        assert Polynomial(ZZ, {Monomial([(1, 2), (2, 5)]): 1}).total_degree() == 7


class TestRings:
    def test_zmod_arithmetic(self):
        r = Zmod(6)
        assert r.add(4, 5) == 3
        assert r.mul(4, 5) == 2
        assert r.neg(2) == 4
        assert r.from_int(-1) == 5
        assert list(r.elements()) == [0, 1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            Zmod(1)

    def test_gf_division(self):
        f = GF(7)
        assert f.div(3, 4) == 6  # 4*6 = 24 = 3 mod 7
        assert f.mul(f.div(1, 5), 5) == 1
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ZeroDivisionError):
            f.div(1, 0)

    def test_qq(self):
        assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
        assert QQ.is_field
        with pytest.raises(ZeroDivisionError):
            QQ.div(Fraction(1), Fraction(0))

    @pytest.mark.parametrize(
        "ring_text, value, expected",
        [
            ("ZZ", 3, True),
            ("ZZ", -7, True),
            ("ZZ", True, False),
            ("ZZ", Fraction(1, 2), False),
            ("ZZ", 2.0, False),
            ("ZZ", "2", False),
            ("QQ", 3, True),
            ("QQ", Fraction(1, 2), True),
            ("QQ", False, False),
            ("QQ", 0.5, False),
            ("Zmod(6)", 5, True),
            ("Zmod(6)", 6, False),
            ("Zmod(6)", -1, False),
            ("Zmod(6)", True, False),
            ("GF(7)", 6, True),
            ("GF(7)", 7, False),
            ("GF(7)", Fraction(1, 2), False),
        ],
    )
    def test_contains_scalars(self, ring_text, value, expected):
        assert parse_ring_text(ring_text).contains(value) is expected

    def test_contains_polynomials(self):
        pq, pz = parse_ring_text("Poly(QQ; x,y)"), parse_ring_text("Poly(ZZ; x,y)")
        x = pq.var(1)
        assert pq.contains(x) and pq.contains(pq.zero())
        assert pq.contains(Polynomial(QQ, {Monomial.var(2): Fraction(1, 2)}))
        assert not pq.contains(pz.var(1))  # over ZZ, not QQ
        assert not pq.contains(Polynomial(QQ, {Monomial.var(3): 1}))  # x3
        assert not pq.contains(Polynomial(QQ, {Monomial.var(1): 0.5}))
        assert not pz.contains(Polynomial(ZZ, {Monomial.var(1): Fraction(1, 2)}))
        assert not pq.contains(1)
        g7 = parse_ring_text("Poly(GF(7); x)")
        assert not g7.contains(Polynomial(g7.base, {ONE: 9}))
        quot = parse_ring_text("Quot(Poly(QQ; x,y); [x*y - 1])")
        assert quot.contains(parse_elem("x*y", quot))  # reduced: 1
        assert not quot.contains(parse_elem("x*y", quot.poly_ring))
        assert not quot.contains(pz.var(1))

    def test_qq_values_are_canonical(self):
        # An integral rational is an int, never Fraction(k, 1).
        def canonical(v):
            return type(v) is int or (type(v) is Fraction and v.denominator != 1)

        rng = random.Random(23)
        samples = [QQ.from_int(k) for k in (-2, 0, 1, 3)]
        samples += [QQ.div(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(20)]
        samples += [Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(-1, 2)]
        assert all(canonical(v) for v in samples)
        assert type(QQ.zero()) is int and type(QQ.one()) is int
        for a in samples:
            assert canonical(QQ.neg(a))
            for b in samples:
                assert canonical(QQ.add(a, b)) and canonical(QQ.sub(a, b))
                assert canonical(QQ.mul(a, b))
                if b:
                    assert canonical(QQ.div(a, b))
        # Results that cancel to integers.
        half = Fraction(1, 2)
        for v in (QQ.add(half, half), QQ.sub(Fraction(3, 2), half),
                  QQ.mul(Fraction(2, 3), Fraction(3, 2)), QQ.div(half, half), QQ.div(4, 2)):
            assert type(v) is int
        assert all(type(_sample_scalar(rng, QQ, 5)) is int for _ in range(50))
        assert type(parse_elem("4/2", QQ)) is int
        p = parse_elem("4/2", parse_ring_text("Poly(QQ; x)"))
        assert p.constant_coeff() == 2 and type(p.constant_coeff()) is int

    def test_poly_ring_vars(self):
        P = PolyRing(ZZ, ("x", "y"))
        assert P.nvars == 2
        assert P.var(2) == Polynomial.variable(ZZ, 2)
        with pytest.raises(ValueError):
            P.var(3)
        with pytest.raises(ValueError):
            PolyRing(ZZ, ())

    def test_quot_ring_reduces_products(self):
        Q = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        x = Q.reduce(parse_elem("x", Q.poly_ring))
        y = Q.reduce(parse_elem("y", Q.poly_ring))
        assert not Q.mul(x, y)
        assert Q.add(x, y)
        assert Q.one() == Q.poly_ring.one()

    def test_quot_requires_field_base(self):
        P = PolyRing(ZZ, ("x",))
        with pytest.raises(ValueError):
            QuotRing(P, (P.var(1),))

    def test_ring_equality(self):
        assert Zmod(6) == Zmod(6)
        assert Zmod(6) != Zmod(7)
        assert GF(7) != Zmod(7)  # prime field is a different descriptor
        assert PolyRing(ZZ, ("x",)) == PolyRing(ZZ, ("x",))
        assert PolyRing(ZZ, ("x",)) != PolyRing(ZZ, ("y",))
        assert ZZ != QQ and ZZ == IntegerRing() and QQ == RationalRing()
        assert PolyRing(ZZ, ["x"]) == PolyRing(ZZ, ("x",))
        assert PolyRing(ZZ, ("x",)) != PolyRing(QQ, ("x",))
        quot_a = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        quot_b = parse_ring_text("Quot(Poly(QQ; x,y); [y*x])")
        assert quot_a == quot_b
        assert quot_a != parse_ring_text("Quot(Poly(QQ; x,y); [x*y - 1])")
        P = PolyRing(QQ, ("x", "y"))
        assert QuotRing(P, [P.var(1)]) == QuotRing(P, (P.var(1),))
        pairs = [
            (Zmod(6), Zmod(6)), (GF(7), GF(7)), (PolyRing(ZZ, ["x"]), PolyRing(ZZ, ("x",))),
            (quot_a, quot_b), (ZZ, IntegerRing()), (QQ, RationalRing()),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        # Equal rings are interchangeable as dict keys and polynomial rings.
        assert {Zmod(6): 1}[Zmod(6)] == 1
        assert Polynomial.constant(Zmod(6), 1) == Polynomial.constant(Zmod(6), 1)

    RING_SAMPLES = [
        (ZZ, [0, 1, -1, 7]),
        (QQ, [Fraction(0), Fraction(1, 2), Fraction(-3)]),
        (Zmod(6), [0, 1, 2, 3, 5]),
        (GF(7), [0, 1, 3, 6]),
        ("Poly(QQ; x,y)", ["0", "1", "x - x", "x*y - 1/2"]),
        ("Quot(Poly(QQ; x,y); [x*y])", ["0", "1", "x*y", "x + y", "x*y*x - 2"]),
    ]

    @pytest.mark.parametrize(
        "ring, samples", RING_SAMPLES, ids=["ZZ", "QQ", "Z/6", "GF(7)", "Poly", "Quot"]
    )
    def test_zero_one_and_truthiness(self, ring, samples):
        if isinstance(ring, str):
            ring = parse_ring_text(ring)
            samples = [parse_elem(text, ring) for text in samples]
        zero, one = ring.zero(), ring.one()
        assert not zero and one
        assert zero == ring.from_int(0) and one == ring.from_int(1)
        assert ring.is_one(one)
        for v in samples + [ring.add(s, t) for s in samples for t in samples]:
            assert (not v) == (v == zero)
            assert not ring.sub(v, v)
            assert ring.mul(v, one) == v and ring.add(v, zero) == v

    @pytest.mark.parametrize(
        "ring, text",
        [("ZZ", "-3"), ("QQ", "-2/3"), ("Zmod(12)", "5"), ("Poly(QQ; x)", "x - 1/2"),
         ("Quot(Poly(QQ; x,y); [x^2 - y, y^3 - 2])", "x + y")],
    )
    def test_pow_matches_repeated_multiplication(self, ring, text):
        ring = parse_ring_text(ring)
        a = parse_elem(text, ring)
        expected = ring.one()
        for e in range(21):
            assert ring.pow(a, e) == expected
            expected = ring.mul(expected, a)
        with pytest.raises(ValueError):
            ring.pow(a, -1)

    def test_parsed_power_squares(self, monkeypatch):
        calls = []
        original = ModularRing.mul

        def counting(self, a, b):
            calls.append(None)
            return original(self, a, b)

        monkeypatch.setattr(ModularRing, "mul", counting)
        assert parse_elem("3^1000000", Zmod(7)) == pow(3, 1000000, 7)
        assert len(calls) <= 42

    def test_quotient_basis_computed_once(self, monkeypatch):
        from trdeg import groebner

        calls = []
        original = groebner.buchberger

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counting)
        Q = parse_ring_text("Quot(Poly(QQ; x,y); [x*y, x^2 - 1])")
        x = Q.reduce(parse_elem("x", Q.poly_ring))
        basis = Q.groebner_basis
        assert Q.mul(x, x) == Q.one()
        assert Q.groebner_basis is basis
        assert len(calls) == 1


class TestIntMath:
    def test_ext_gcd_identity(self):
        rng = random.Random(11)
        for _ in range(300):
            a = rng.randint(-500, 500)
            b = rng.randint(-500, 500)
            g, x, y = ext_gcd(a, b)
            assert g == math.gcd(a, b)
            assert a * x + b * y == g

    def test_modinv(self):
        assert modinv(3, 7) == 5
        assert (modinv(5, 12) * 5) % 12 == 1
        with pytest.raises(ZeroDivisionError):
            modinv(4, 12)

    def test_primality_against_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(2000):
            assert is_probable_prime(n) == trial(n), n
        # a couple of larger Carmichael-adjacent values
        assert not is_probable_prime(561)
        assert not is_probable_prime(41041)
        assert is_probable_prime(2**31 - 1)
