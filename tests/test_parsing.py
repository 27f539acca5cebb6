"""Ring and element text syntax: parse/print round-trips and error reporting."""

import random
from fractions import Fraction

import pytest

from trdeg.errors import ParseError
from trdeg.monomials import Monomial
from trdeg.parsing import parse_elem, parse_ring_text, poly_to_text
from trdeg.polynomials import Polynomial
from trdeg.rings import GF, QQ, ZZ, Zmod

CANONICAL_RINGS = [
    "ZZ",
    "QQ",
    "Zmod(12)",
    "GF(7)",
    "Poly(ZZ; x)",
    "Poly(QQ; x,y)",
    "Poly(GF(7); t1,t2)",
    "Quot(Poly(QQ; x,y); [x*y])",
    "Quot(Poly(GF(5); a,b); [a^2, a*b])",
]


class TestRingText:
    @pytest.mark.parametrize("text", CANONICAL_RINGS)
    def test_roundtrip_is_identity_on_canonical_forms(self, text):
        ring = parse_ring_text(text)
        assert str(ring) == text
        assert parse_ring_text(str(ring)) == ring

    def test_whitespace_tolerated(self):
        assert parse_ring_text("  Zmod( 12 ) ") == Zmod(12)
        assert str(parse_ring_text("Poly(ZZ;x ,y)")) == "Poly(ZZ; x,y)"

    def test_errors(self):
        for bad in ["Z", "Zmod()", "Zmod(1)", "GF(6)", "Poly(ZZ)", "Poly(ZZ; )",
                    "Quot(ZZ; [2])", "Quot(Poly(ZZ; x); [x])"]:
            with pytest.raises((ParseError, ValueError)):
                parse_ring_text(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ring_text("Zmod(12")
        assert "position" in str(exc.value)


class TestElementText:
    def test_integer_contexts(self):
        assert parse_elem("12", ZZ) == 12
        assert parse_elem("-3", ZZ) == -3
        assert parse_elem("10", GF(7)) == 3
        assert parse_elem("-1", Zmod(12)) == 11
        assert parse_elem("3/4", QQ) == Fraction(3, 4)
        assert parse_elem("4/2", ZZ) == 2  # q | p: an integer, no field needed

    def test_rationals_rejected_outside_fields(self):
        with pytest.raises(ParseError):
            parse_elem("1/2", ZZ)
        P = parse_ring_text("Poly(ZZ; x)")
        with pytest.raises(ParseError):
            parse_elem("x/2", P)

    def test_polynomial_expressions(self):
        P = parse_ring_text("Poly(ZZ; x,y)")
        f = parse_elem("(x+1)*(x-1)", P)
        assert f.terms == {Monomial.var(1, 2): 1, Monomial(): -1}
        g = parse_elem("2*x*y - y^3 + 5", P)
        assert g.terms[Monomial([(1, 1), (2, 1)])] == 2
        assert g.terms[Monomial.var(2, 3)] == -1
        assert not parse_elem("x^2 - x^2", P)

    def test_power_and_unary(self):
        P = parse_ring_text("Poly(QQ; x)")
        assert parse_elem("-x^2", P) == -parse_elem("x^2", P)
        assert parse_elem("(-x)^2", P) == parse_elem("x^2", P)
        assert parse_elem("2^3", ZZ) == 8

    def test_quot_elements_are_reduced(self):
        Q = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        assert not parse_elem("x*y", Q)
        assert parse_elem("x", Q)
        assert parse_elem("1/2*x*y + 3/2*x", Q) == Q.reduce(parse_elem("3/2*x", Q.poly_ring))

    def test_unknown_variable_with_position(self):
        P = parse_ring_text("Poly(ZZ; x)")
        with pytest.raises(ParseError) as exc:
            parse_elem("x + w", P)
        assert "w" in str(exc.value) and "position" in str(exc.value)

    def test_syntax_errors(self):
        P = parse_ring_text("Poly(ZZ; x)")
        for bad in ["", "x +", "(x", "x ^", "* x", "x ** 2"]:
            with pytest.raises(ParseError):
                parse_elem(bad, P)

    def test_roundtrip_random_integer_polys(self):
        rng = random.Random(23)
        P = parse_ring_text("Poly(ZZ; x,y,z)")
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                mon = Monomial(
                    (i, rng.randint(0, 3)) for i in (1, 2, 3) if rng.random() < 0.7
                )
                terms[mon] = rng.randint(-9, 9)
            f = Polynomial(ZZ, terms)
            assert parse_elem(poly_to_text(f, P), P) == f

    def test_roundtrip_random_gf_polys(self):
        rng = random.Random(29)
        P = parse_ring_text("Poly(GF(7); t1,t2)")
        for _ in range(100):
            terms = {
                Monomial([(1, rng.randint(0, 4)), (2, rng.randint(0, 4))]): rng.randrange(7)
                for _ in range(rng.randint(1, 4))
            }
            f = Polynomial(GF(7), terms)
            assert parse_elem(poly_to_text(f, P), P) == f

    def test_nested_coefficients_roundtrip(self):
        # A coefficient that is a constant of a deeper ring prints through
        # that ring; two-level output keeps its form.
        two = parse_ring_text("Poly(Poly(QQ; t); x)")
        f = parse_elem("-1/3*x^2 + (t^2+1)*x - t + 2", two)
        assert two.format_elem(f) == "-1/3*x^2 + (t^2 + 1)*x + (-t + 2)"
        three = parse_ring_text("Poly(Poly(Poly(QQ; s); t); x)")
        assert three.format_elem(parse_elem("s*x", three)) == "(s)*x"
        assert three.format_elem(parse_elem("-x + 1/2", three)) == "-x + 1/2"
        rng = random.Random(31)
        four = parse_ring_text("Poly(Poly(Poly(Poly(GF(5); r); s); t); x)")
        for ring, names in ((three, "stx"), (four, "rstx")):
            for _ in range(50):
                text = "".join(
                    f" {rng.choice('+-')} {rng.randint(0, 3)}*"
                    + "*".join(f"{v}^{rng.randint(0, 2)}" for v in names)
                    for _ in range(rng.randint(1, 4))
                )
                f = parse_elem(text, ring)
                assert parse_elem(ring.format_elem(f), ring) == f

    def test_rational_coefficients_roundtrip(self):
        P = parse_ring_text("Poly(QQ; x)")
        f = parse_elem("1/2*x^2 - 2/3", P)
        assert f.terms[Monomial.var(1, 2)] == Fraction(1, 2)
        assert parse_elem(poly_to_text(f, P), P) == f

    def test_scalar_text_forms(self):
        assert Zmod(12).format_elem(11) == "11"
        assert QQ.format_elem(Fraction(-3, 4)) == "-3/4"
        P = parse_ring_text("Poly(ZZ; x)")
        assert poly_to_text(parse_elem("x^2-27", P), P) == "x^2 - 27"
        assert poly_to_text(P.zero(), P) == "0"
