"""Boundary-ideal membership certificates and the finite ring dimension test."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from trdeg import coquand_lombardi
from trdeg.coquand_lombardi import (
    CLCertificate,
    NotFoundUpTo,
    cl_check,
    cl_search,
    cl_to_submonic,
    cl_verify,
    finite_ring_dim_lt,
)
from trdeg.dependence import AlgebraConfig, Dependent, search_submonic_relation, verify_certificate
from trdeg.errors import ResourceCapExceeded, UnsupportedConfigError
from trdeg.monomials import Monomial
from trdeg.orderings import Lex
from trdeg.parsing import parse_elem, parse_ring_text
from trdeg.rings import ZZ, ModularRing, PrimeField


def m(*pairs):
    return Monomial(pairs)


class TestSearch:
    def test_mod_12_single(self):
        cert = cl_search(ModularRing(12), (2,), 5)
        assert isinstance(cert, CLCertificate)
        assert cert.exponents == (2,)
        assert cl_verify(cert)

    def test_mod_4_single(self):
        cert = cl_search(ModularRing(4), (2,), 6)
        assert cert.exponents == (2,)

    def test_prime_field_inverts_immediately(self):
        cert = cl_search(PrimeField(7), (5,), 0)
        assert cert.exponents == (0,)
        assert cert.coeffs == (3,)  # 1 = 3 * 5 in GF(7)

    def test_integers_pair(self):
        cert = cl_search(ZZ, (12, 18), 4)
        assert cert.exponents == (0, 2)
        assert cert.coeffs == (27, 0)

    def test_integers_single_never_terminates_in_the_box(self):
        for bound in (0, 5, 20):
            assert cl_search(ZZ, (2,), bound) == NotFoundUpTo(bound)

    def test_box_order_prefers_smaller_totals(self):
        # units first: for a pair of units 1 lies in the degree (0,0) ideal
        cert = cl_search(ZZ, (2, 3), 3)
        assert cert.exponents == (0, 0)

    def test_quotient_ring_pair(self):
        ring = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        x = parse_elem("x", ring)
        y = parse_elem("y", ring)
        cert = cl_search(ring, (x, y), 3)
        assert cert.exponents == (1, 1)
        assert cert.coeffs == (ring.zero(), ring.zero())

    def test_element_outside_the_ring_is_refused(self):
        # 7 is 1 in Z/6, but the search would build its powers from 7.
        with pytest.raises(UnsupportedConfigError, match=r"7 is not an element of Zmod\(6\)"):
            cl_search(ModularRing(6), (7,), 3)
        with pytest.raises(UnsupportedConfigError, match=r"True is not an element of ZZ"):
            cl_search(ZZ, (True, 2), 3)

    def test_quotient_element_not_in_normal_form_is_refused(self):
        # x*y is 1 in this ring; unreduced, the answer would depend on the
        # spelling: exponents (0, 0) with coefficients (0, y), against
        # coefficients (1, 0) for the reduced pair.
        ring = parse_ring_text("Quot(Poly(QQ; x,y); [x*y - 1])")
        x = parse_elem("x", ring)
        xy = parse_elem("x*y", ring.poly_ring)
        with pytest.raises(UnsupportedConfigError, match=r"x\*y is not in normal form in Quot\(Poly\(QQ; x,y\)"):
            cl_search(ring, (xy, x), 2)
        cert = cl_search(ring, (parse_elem("x*y", ring), x), 2)
        assert cert.exponents == (0, 0)
        assert cert.coeffs == (ring.one(), ring.zero())

    def test_cap(self):
        with pytest.raises(ResourceCapExceeded):
            cl_search(ZZ, (2, 3, 5), 100, cap=1000)

    @pytest.mark.parametrize("cap", [-5, 0, 2.5, True, "10"])
    def test_cap_must_be_a_positive_int(self, cap):
        with pytest.raises(ValueError, match="cap"):
            cl_search(ZZ, (2,), 1, cap=cap)

    def test_validation(self):
        with pytest.raises(ValueError):
            cl_search(ZZ, (), 3)
        with pytest.raises(ValueError):
            cl_search(ZZ, (2,), -1)

    def test_unsupported_ring(self):
        ring = parse_ring_text("Poly(ZZ; x)")
        with pytest.raises(UnsupportedConfigError):
            cl_search(ring, (parse_elem("x", ring),), 2)

    def test_polynomial_ring_over_a_field(self):
        # A PolyRing is its own quotient, so it takes the Groebner route.
        ring = parse_ring_text("Poly(QQ; x)")
        x = parse_elem("x", ring)
        assert cl_search(ring, (x,), 3) == NotFoundUpTo(3)
        cert = cl_search(ring, (x, x + ring.one()), 2)
        assert cert.exponents == (0, 0)
        assert cert.coeffs == (-ring.one(), ring.one())
        sub = cl_to_submonic(cert)
        assert sub.verified and sub.trailing == Monomial()


class TestCertificate:
    def test_hand_built_mod_12(self):
        cert = CLCertificate(ModularRing(12), (2,), (2,), (2,))
        assert cl_verify(cert)  # 2^2 = 2 * 2^3 mod 12

    def test_check_reasons(self):
        bad_len = CLCertificate(ZZ, (12, 18), (0,), (27, 0))
        assert cl_check(bad_len) == (
            "exponent and coefficient counts must match the element count"
        )
        negative = CLCertificate(ZZ, (12, 18), (0, -2), (27, 0))
        assert cl_check(negative) == "exponents must be nonnegative"
        wrong = CLCertificate(ModularRing(12), (2,), (2,), (1,))
        assert cl_check(wrong) == (
            "membership identity does not hold for the stated coefficients"
        )

    def test_values_outside_the_ring_fail(self):
        # Each identity holds in Python arithmetic, 1 == 1/2 * 2 and
        # 1 == 2 * 1/2, but 1/2 is not in ZZ.
        assert cl_check(CLCertificate(ZZ, (2,), (0,), (Fraction(1, 2),))) == (
            "coefficient Fraction(1, 2) is not in ZZ"
        )
        assert cl_check(CLCertificate(ZZ, (Fraction(1, 2),), (0,), (2,))) == (
            "element Fraction(1, 2) is not in ZZ"
        )
        assert cl_check(CLCertificate(ModularRing(12), (2,), (2,), (14,))) == (
            "coefficient 14 is not in Zmod(12)"
        )
        with pytest.raises(ValueError, match="does not verify"):
            cl_to_submonic(CLCertificate(ZZ, (2,), (0,), (Fraction(1, 2),)))

    def test_json_roundtrip(self):
        cert = cl_search(ModularRing(12), (2,), 5)
        text = cert.to_json()
        back = CLCertificate.from_json(text)
        assert cl_verify(back)
        assert back.to_json() == text
        assert '"verified": true' in text

    def test_schema_keys(self):
        data = cl_search(ZZ, (12, 18), 4).to_dict()
        assert set(data) == {"ring", "elements", "exponents", "coeffs", "verified"}


class TestConversion:
    def test_mod_12_hand_built(self):
        cert = CLCertificate(ModularRing(12), (2,), (2,), (2,))
        sub = cl_to_submonic(cert)
        assert dict(sub.poly.terms) == {m((1, 2)): 1, m((1, 3)): 10}
        assert sub.trailing == m((1, 2))
        assert sub.verified and verify_certificate(sub)

    def test_integer_pair_matches_direct_search(self):
        cert = cl_search(ZZ, (12, 18), 4)
        sub = cl_to_submonic(cert)
        assert dict(sub.poly.terms) == {m((2, 2)): 1, m((1, 1)): -27}
        assert sub.trailing == m((2, 2))

    def test_quotient_pair(self):
        ring = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        x = parse_elem("x", ring)
        y = parse_elem("y", ring)
        sub = cl_to_submonic(cl_search(ring, (x, y), 3))
        assert sub.trailing == m((1, 1), (2, 1))
        assert verify_certificate(sub)

    def test_refuses_unverified(self):
        bad = CLCertificate(ModularRing(12), (2,), (2,), (1,))
        with pytest.raises(ValueError):
            cl_to_submonic(bad)

    def test_conversion_is_always_lex_submonic(self):
        ring = ModularRing(8)
        for a in range(8):
            for b in range(8):
                cert = cl_search(ring, (a, b), 8)
                assert isinstance(cert, CLCertificate)
                sub = cl_to_submonic(cert)
                assert verify_certificate(sub)
                assert sub.degree_bound >= sub.poly.total_degree()


class TestCrossRoute:
    """The paper's two routes agree: a boundary-ideal certificate, read as a
    lex-submonic relation, is a relation the direct lex search sees at the
    same degree bound, so the search's least trailing monomial is at most
    the converted one.  The Z/n searches stop their sweep as soon as the
    residue lattice is everything."""

    @staticmethod
    def _agree(ring, elems, maxexp):
        cert = cl_search(ring, elems, maxexp)
        assert isinstance(cert, CLCertificate)
        sub = cl_to_submonic(cert)
        verdict = search_submonic_relation(
            AlgebraConfig(ring, ring), elems, Lex(), sub.degree_bound
        )
        assert isinstance(verdict, Dependent)
        assert Lex().compare(verdict.certificate.trailing, sub.trailing) <= 0

    def test_residue_rings(self):
        tuples = 0
        for n in range(2, 31):
            ring = ModularRing(n)
            elems = list(ring.elements())
            pairs = list(product(elems, repeat=2)) if n <= 12 else []
            for tup in [(a,) for a in elems] + pairs:
                self._agree(ring, tup, 4)  # 4 >= every prime exponent of n <= 30
                tuples += 1
        assert tuples == 1113

    def test_quotient_pairs(self):
        ring = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        texts = ("x", "y", "x + 1", "x + y", "x^2 - y", "2*y + 1")
        elems = [parse_elem(t, ring) for t in texts]
        for pair in product(elems, repeat=2):
            self._agree(ring, pair, 3)


class TestResidueOracle:
    """cl_search over Z/n against an oracle that uses no trdeg linear algebra:
    the ideal (g_1..g_k) of Z/n is (gcd(g_1..g_k, n))."""

    @staticmethod
    def _least_exponents(n, elems, maxexp):
        """Least box vector, by total and then in cl_search's (lexicographic)
        order, whose target is 0 mod the gcd of its generators and n."""
        box = sorted(product(range(maxexp + 1), repeat=len(elems)), key=lambda e: (sum(e), e))
        for exps in box:
            running, gens = 1, []
            for a, m in zip(elems, exps):
                running = running * pow(a, m, n) % n
                gens.append(a * running % n)
            if running % gcd(*gens, n) == 0:
                return exps
        return None

    def test_residue_rings_match_gcd_oracle(self):
        # The cases of TestCrossRoute at bound 4, where every search succeeds,
        # and at bound 1, where some find nothing.
        seen = {"found": 0, "not found": 0}
        for n in range(2, 31):
            ring = ModularRing(n)
            tuples = [(a,) for a in range(n)]
            tuples += list(product(range(n), repeat=2)) if n <= 12 else []
            for elems in tuples:
                for maxexp in (1, 4):
                    outcome = cl_search(ring, elems, maxexp)
                    expected = self._least_exponents(n, elems, maxexp)
                    if expected is None:
                        assert outcome == NotFoundUpTo(maxexp), (n, elems, maxexp)
                        seen["not found"] += 1
                    else:
                        assert outcome.exponents == expected, (n, elems, maxexp)
                        seen["found"] += 1
        assert sum(seen.values()) == 2 * 1113 and min(seen.values()) >= 10, seen


class TestFiniteRingDim:
    def test_every_residue_ring_is_zero_dimensional(self):
        for n in (4, 6, 12):
            result = finite_ring_dim_lt(ModularRing(n), 1)
            assert result.holds
            assert len(result.witnesses) == n
            assert result.failing is None
            for tup, cert in result.witnesses:
                assert cert.elements == tup
                assert cl_verify(cert)

    def test_pairs_also_hold(self):
        result = finite_ring_dim_lt(ModularRing(6), 2)
        assert result.holds and len(result.witnesses) == 36

    def test_tuple_cap(self):
        with pytest.raises(ResourceCapExceeded):
            finite_ring_dim_lt(ModularRing(30), 4)

    def test_infinite_ring_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            finite_ring_dim_lt(ZZ, 1)

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            finite_ring_dim_lt(ModularRing(4), 0)

    def test_failing_tuple_reported(self, monkeypatch):
        # A tuple that no exponent box up to 8|R| settles ends the enumeration.
        monkeypatch.setattr(
            coquand_lombardi, "cl_search", lambda ring, tup, bound, cap: NotFoundUpTo(bound)
        )
        result = finite_ring_dim_lt(ModularRing(4), 2)
        assert result.holds is False
        assert result.failing == (0, 0)
        assert result.witnesses == []
        assert result.to_dict()["failing"] == ["0", "0"]

    def test_to_dict_serializes(self):
        import json

        result = finite_ring_dim_lt(ModularRing(4), 1)
        data = result.to_dict()
        assert data["holds"] is True and data["arity"] == 1
        assert json.dumps(data)
