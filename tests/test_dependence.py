"""Submonic relation search, certificates, and the integer pair route."""

import copy
import json
import random
from fractions import Fraction

import pytest

from trdeg import dependence
from trdeg.dependence import (
    AlgebraConfig,
    Dependent,
    NoRelationUpTo,
    SubmonicCertificate,
    check_certificate,
    dependence_matrix,
    pid_pair_certificate,
    search_submonic_relation,
    verify_certificate,
)
from trdeg.errors import InternalInconsistencyError, ResourceCapExceeded, UnsupportedConfigError
from trdeg.harness import sample_element
from trdeg.linalg import solve_in_span, span_structure
from trdeg.monomials import ONE, Monomial, monomials_up_to_degree
from trdeg.orderings import GrevLex, Lex
from trdeg.parsing import parse_elem, parse_ring_text
from trdeg.polynomials import Polynomial
from trdeg.rings import QQ, ZZ, ModularRing, PolyRing, PrimeField


def m(*pairs):
    return Monomial(pairs)


ZZ_CFG = AlgebraConfig(ZZ, ZZ)


class TestAlgebraConfig:
    @pytest.mark.parametrize(
        "coeff, alg, kind",
        [
            ("ZZ", "ZZ", "zz"),
            ("ZZ", "Poly(ZZ; x)", "zz"),
            ("ZZ", "Zmod(12)", "zmod"),
            ("Zmod(6)", "Zmod(6)", "zmod"),
            ("QQ", "QQ", "field"),
            ("GF(7)", "GF(7)", "field"),
            ("QQ", "Poly(QQ; x,y)", "field"),
            ("GF(5)", "Quot(Poly(GF(5); a,b); [a*b])", "field"),
            ("Poly(QQ; x,y)", "Poly(QQ; x,y)", "ideal"),
            ("Quot(Poly(QQ; x,y); [x*y])", "Quot(Poly(QQ; x,y); [x*y])", "ideal"),
        ],
    )
    def test_supported(self, coeff, alg, kind):
        cfg = AlgebraConfig(parse_ring_text(coeff), parse_ring_text(alg))
        assert cfg.kind == kind

    @pytest.mark.parametrize(
        "coeff, alg",
        [
            ("ZZ", "QQ"),
            ("ZZ", "GF(7)"),  # prime fields take the field route, not Z -> Z/p
            ("QQ", "ZZ"),
            ("Zmod(6)", "Zmod(12)"),
            ("Zmod(6)", "ZZ"),
            ("QQ", "Poly(ZZ; x)"),
            ("GF(7)", "Poly(QQ; x,y)"),
            ("Poly(ZZ; x)", "Poly(ZZ; x)"),  # base must be a field for the ideal route
            ("GF(7)", "Zmod(7)"),
        ],
    )
    def test_rejected(self, coeff, alg):
        with pytest.raises(UnsupportedConfigError):
            AlgebraConfig(parse_ring_text(coeff), parse_ring_text(alg))


class TestSearchIntegers:
    def test_pair_12_18(self):
        verdict = search_submonic_relation(ZZ_CFG, (12, 18), Lex(), 3)
        assert isinstance(verdict, Dependent)
        cert = verdict.certificate
        assert dict(cert.poly.terms) == {m((2, 2)): 1, m((1, 1)): -27}
        assert cert.trailing == m((2, 2))
        assert cert.verified
        # 18^2 = 324 = 27 * 12
        assert cert.evaluate() == 0

    def test_single_unit_and_zero(self):
        for a, expected in [(0, {m((1, 1)): 1}), (1, {ONE: 1, m((1, 1)): -1}),
                            (-1, {ONE: 1, m((1, 1)): 1})]:
            verdict = search_submonic_relation(ZZ_CFG, (a,), Lex(), 2)
            assert isinstance(verdict, Dependent)
            assert dict(verdict.certificate.poly.terms) == expected

    def test_single_nonunit_has_no_relation(self):
        verdict = search_submonic_relation(ZZ_CFG, (2,), Lex(), 6)
        assert verdict == NoRelationUpTo(6)

    def test_integer_singletons_depend_exactly_on_units_and_zero(self):
        for a in range(-6, 7):
            verdict = search_submonic_relation(ZZ_CFG, (a,), GrevLex(), 5)
            assert isinstance(verdict, Dependent) == (a in (-1, 0, 1))

    def test_monotone_in_degree_bound(self):
        rng = random.Random(19)
        for _ in range(40):
            elems = (rng.randint(-20, 20), rng.randint(-20, 20))
            low = search_submonic_relation(ZZ_CFG, elems, Lex(), 3)
            high = search_submonic_relation(ZZ_CFG, elems, Lex(), 5)
            if isinstance(low, Dependent):
                assert isinstance(high, Dependent)
                t_low = low.certificate.trailing
                t_high = high.certificate.trailing
                assert Lex().compare(t_high, t_low) <= 0

    def test_cap_is_a_distinct_outcome(self):
        with pytest.raises(ResourceCapExceeded):
            search_submonic_relation(ZZ_CFG, (2, 3), Lex(), 10, cap=5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            search_submonic_relation(ZZ_CFG, (), Lex(), 3)
        with pytest.raises(ValueError):
            search_submonic_relation(ZZ_CFG, (2,), Lex(), -1)


class TestSearchOtherConfigs:
    def test_mod6_single(self):
        cfg = AlgebraConfig(ModularRing(6), ModularRing(6))
        verdict = search_submonic_relation(cfg, (2,), Lex(), 3)
        assert isinstance(verdict, Dependent)
        assert dict(verdict.certificate.poly.terms) == {m((1, 1)): 1, m((1, 3)): 5}

    def test_integers_into_mod12(self):
        cfg = AlgebraConfig(ZZ, ModularRing(12))
        verdict = search_submonic_relation(cfg, (2,), Lex(), 4)
        assert isinstance(verdict, Dependent)
        assert verify_certificate(verdict.certificate)

    def test_polynomials_over_zz_coefficient_route(self):
        ring = parse_ring_text("Poly(ZZ; x)")
        cfg = AlgebraConfig(ZZ, ring)
        x = parse_elem("x", ring)
        verdict = search_submonic_relation(cfg, (x, x * x), GrevLex(), 2)
        assert isinstance(verdict, Dependent)
        assert dict(verdict.certificate.poly.terms) == {m((2, 1)): 1, m((1, 2)): -1}

    def test_field_coefficient_route(self):
        ring = parse_ring_text("Poly(GF(7); t1,t2)")
        cfg = AlgebraConfig(PrimeField(7), ring)
        t1 = parse_elem("t1", ring)
        verdict = search_submonic_relation(cfg, (t1, t1 + ring.one()), Lex(), 1)
        assert isinstance(verdict, Dependent)
        cert = verdict.certificate
        assert cert.evaluate().is_zero()
        assert verify_certificate(cert)

    def test_ideal_route_ordering_changes_the_verdict(self):
        ring = parse_ring_text("Poly(GF(7); t1,t2)")
        cfg = AlgebraConfig(ring, ring)
        t1 = parse_elem("t1", ring)
        t1t2 = parse_elem("t1*t2", ring)
        fwd = search_submonic_relation(cfg, (t1, t1t2), Lex(), 1)
        assert isinstance(fwd, Dependent)
        assert dict(fwd.certificate.poly.terms) == {
            m((2, 1)): parse_elem("1", ring),
            m((1, 1)): parse_elem("-t2", ring),
        }
        rev = search_submonic_relation(cfg, (t1, t1t2), Lex((2, 1)), 4)
        assert rev == NoRelationUpTo(4)

    def test_quotient_ring_pair(self):
        ring = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        cfg = AlgebraConfig(ring, ring)
        x = parse_elem("x", ring)
        y = parse_elem("y", ring)
        verdict = search_submonic_relation(cfg, (x, y), GrevLex(), 2)
        assert isinstance(verdict, Dependent)
        assert verify_certificate(verdict.certificate)

    def test_plain_field_single_element(self):
        cfg = AlgebraConfig(QQ, QQ)
        verdict = search_submonic_relation(cfg, (QQ.from_int(5),), Lex(), 1)
        assert isinstance(verdict, Dependent)


def _span_vectors(cfg, elems, mons):
    """The coefficient vector of each candidate's value, as the search builds them."""
    algebra = cfg.algebra
    values = []
    for mon in mons:
        value = algebra.one()
        for i, e in mon.exps:
            for _ in range(e):
                value = algebra.mul(value, elems[i - 1])
        values.append(value)
    if isinstance(algebra, PolyRing):
        basis = sorted({b for v in values for b in v.terms}, key=Monomial.natural_key)
        return [[v.coeff(b) for b in basis] for v in values]
    return [[v] for v in values]


def _full_solve_trailing(cfg, elems, mons):
    """The least candidate that solve_in_span puts in the span of all greater values."""
    vecs = _span_vectors(cfg, elems, mons)
    return next(
        (mons[i] for i in range(len(mons)) if solve_in_span(vecs[i], vecs[i + 1 :], ZZ) is not None),
        None,
    )


def _shortest_spanning_prefix(target, gens):
    lattice = span_structure(ZZ, len(target))
    for k, g in enumerate(gens):
        if copy.deepcopy(lattice).add(target):
            return k
        lattice.add(g)
    return len(gens)


class TestZZPrefixSolve:
    """Over ZZ the coefficients come from 1, 2, 4, ... of the greater values."""

    def test_failed_full_solve_still_raises(self, monkeypatch):
        ring = PolyRing(ZZ, ("x",))
        cfg = AlgebraConfig(ZZ, ring)
        x = parse_elem("x", ring)
        elems = (x + ring.one(), x * x)
        trailing = search_submonic_relation(cfg, elems, GrevLex(), 4).certificate.trailing
        mons = GrevLex().sort(monomials_up_to_degree(2, 4))
        full = len(mons) - 1 - mons.index(trailing)
        sizes = []

        def refuse(target, gens, scalars):
            sizes.append(len(gens))
            return None

        monkeypatch.setattr(dependence, "solve_in_span", refuse)
        with pytest.raises(InternalInconsistencyError, match="disagreed"):
            search_submonic_relation(cfg, elems, GrevLex(), 4)
        assert full > 4
        assert sizes == [min(2**i, full) for i in range(len(sizes))]
        assert sizes[-1] == full

    def test_prefix_lengths_certificates_and_verdicts(self, monkeypatch):
        calls = []

        def recording(target, gens, scalars):
            calls.append((target, gens))
            return solve_in_span(target, gens, scalars)

        monkeypatch.setattr(dependence, "solve_in_span", recording)
        poly_cfg = AlgebraConfig(ZZ, PolyRing(ZZ, ("x",)))
        rng = random.Random(61)
        dependent = 0
        for k in range(200):
            cfg, bound = (ZZ_CFG, 30) if k % 2 else (poly_cfg, 5)
            arity, maxdeg = rng.randint(1, 3), rng.randint(2, 6)
            ordering = rng.choice([Lex(), GrevLex()])
            elems = tuple(sample_element(rng, cfg.algebra, 2, bound) for _ in range(arity))
            calls.clear()
            verdict = search_submonic_relation(cfg, elems, ordering, maxdeg)
            mons = ordering.sort(monomials_up_to_degree(arity, maxdeg))
            expected = _full_solve_trailing(cfg, elems, mons)
            if not isinstance(verdict, Dependent):
                assert verdict == NoRelationUpTo(maxdeg) and expected is None
                assert calls == []
                continue
            dependent += 1
            cert = verdict.certificate
            assert cert.trailing == expected
            assert verify_certificate(cert)
            full = len(mons) - 1 - mons.index(cert.trailing)
            sizes = [len(gens) for _, gens in calls]
            assert sizes == [min(2**i, full) for i in range(len(sizes))]
            shortest = _shortest_spanning_prefix(*calls[-1])
            assert all(size < shortest for size in sizes[:-1])
            assert sizes[-1] == full or sizes[-1] < 2 * shortest
        assert dependent >= 100


class TestFieldPrefixSolve:
    """Fields solve on the same 1, 2, 4, ... prefixes and get a full solve's coefficients."""

    @pytest.mark.parametrize("coeff, alg", [("QQ", "Poly(QQ; x)"), ("GF(7)", "Poly(GF(7); x)")])
    def test_prefix_lengths_and_full_solve_coefficients(self, monkeypatch, coeff, alg):
        cfg = AlgebraConfig(parse_ring_text(coeff), parse_ring_text(alg))
        r = cfg.coeff_ring
        calls = []

        def recording(target, gens, scalars):
            coeffs = solve_in_span(target, gens, scalars)
            calls.append((len(gens), coeffs))
            return coeffs

        monkeypatch.setattr(dependence, "solve_in_span", recording)
        rng = random.Random(f"{coeff} {alg} prefixes")
        dependent = 0
        for _ in range(40):
            arity, maxdeg = rng.randint(1, 3), rng.randint(1, 4)
            ordering = rng.choice([Lex(), GrevLex()])
            elems = tuple(sample_element(rng, cfg.algebra, 2, 3) for _ in range(arity))
            calls.clear()
            verdict = search_submonic_relation(cfg, elems, ordering, maxdeg)
            if not isinstance(verdict, Dependent):
                assert calls == []
                continue
            dependent += 1
            cert = verdict.certificate
            mons = ordering.sort(monomials_up_to_degree(arity, maxdeg))
            hit = mons.index(cert.trailing)
            vecs = _span_vectors(cfg, elems, mons)
            full = solve_in_span(vecs[hit], vecs[hit + 1 :], r)
            sizes = [size for size, _ in calls]
            assert sizes == [min(2**i, len(full)) for i in range(len(sizes))]
            assert all(coeffs is None for _, coeffs in calls[:-1])
            terms = {cert.trailing: r.one()}
            terms.update((s, r.neg(c)) for s, c in zip(mons[hit + 1 :], full) if c)
            assert cert.poly == Polynomial(r, terms)
        assert dependent >= 20


class TestCrossRingMetamorphic:
    """A ZZ relation holds over QQ and, mod 7, over GF(7): the trailing monomial can only fall."""

    def test_zz_relations_over_qq_and_gf7(self):
        zz_cfg = AlgebraConfig(ZZ, PolyRing(ZZ, ("x",)))
        qq_cfg = AlgebraConfig(QQ, PolyRing(QQ, ("x",)))
        gf7 = PrimeField(7)
        gf7_cfg = AlgebraConfig(gf7, PolyRing(gf7, ("x",)))
        rng = random.Random(67)
        dependent, smaller = 0, {"QQ": 0, "GF(7)": 0}
        for _ in range(60):
            arity, maxdeg = rng.randint(1, 3), rng.randint(2, 4)
            ordering = rng.choice([Lex(), GrevLex()])
            elems = tuple(sample_element(rng, zz_cfg.algebra, 2, 3) for _ in range(arity))
            verdict = search_submonic_relation(zz_cfg, elems, ordering, maxdeg)
            if not isinstance(verdict, Dependent):
                continue
            dependent += 1
            trailing = verdict.certificate.trailing
            images = {
                "QQ": (qq_cfg, [Polynomial(QQ, {m: Fraction(c) for m, c in e.terms.items()})
                                for e in elems]),
                "GF(7)": (gf7_cfg, [Polynomial(gf7, {m: c % 7 for m, c in e.terms.items()})
                                    for e in elems]),
            }
            for name, (cfg, image) in images.items():
                other = search_submonic_relation(cfg, tuple(image), ordering, maxdeg)
                assert isinstance(other, Dependent)
                step = ordering.compare(other.certificate.trailing, trailing)
                assert step <= 0
                smaller[name] += step < 0
        assert dependent >= 10
        # The seed reaches the strict case over both fields, not only equality.
        assert min(smaller.values()) >= 1


class TestDegreeBoundMetamorphic:
    """Raising maxdeg by one keeps every relation: the least trailing monomial can only fall."""

    @pytest.mark.parametrize(
        "coeff, alg, bound, searches",
        [
            ("ZZ", "ZZ", 30, 150),
            ("ZZ", "Poly(ZZ; x)", 3, 60),
            ("QQ", "Poly(QQ; x)", 3, 30),
            ("GF(7)", "Poly(GF(7); x)", 3, 100),
            ("Zmod(12)", "Zmod(12)", 12, 100),
            ("ZZ", "Zmod(30)", 30, 100),
        ],
    )
    def test_raising_the_degree_bound(self, coeff, alg, bound, searches):
        cfg = AlgebraConfig(parse_ring_text(coeff), parse_ring_text(alg))
        rng = random.Random(f"{coeff} {alg}")
        for _ in range(searches):
            arity, maxdeg = rng.randint(1, 3), rng.randint(0, 4)
            ordering = rng.choice([Lex(), GrevLex()])
            degree = rng.randint(1, 2)
            elems = tuple(sample_element(rng, cfg.algebra, degree, bound) for _ in range(arity))
            low = search_submonic_relation(cfg, elems, ordering, maxdeg)
            high = search_submonic_relation(cfg, elems, ordering, maxdeg + 1)
            if isinstance(low, Dependent):
                assert isinstance(high, Dependent)
                assert ordering.compare(high.certificate.trailing, low.certificate.trailing) <= 0


class TestPidPair:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (12, 18, {m((2, 2)): 1, m((1, 1)): -27}),
            (-12, 18, {m((2, 2)): 1, m((1, 1)): 27}),
            (12, -18, {m((2, 2)): 1, m((1, 1)): -27}),
            (-4, -6, {m((2, 2)): 1, m((1, 1)): 9}),
            (-1, 7, {ONE: 1, m((1, 1)): 1}),
            (30, -30, {m((2, 1)): 1, m((1, 1)): 1}),
        ],
    )
    def test_pinned_relations(self, a, b, expected):
        cert = pid_pair_certificate(a, b)
        assert dict(cert.poly.terms) == expected
        assert cert.verified
        assert verify_certificate(cert)

    def test_agrees_with_search_on_trailing(self):
        rng = random.Random(43)
        for _ in range(40):
            a = rng.choice([i for i in range(-30, 31) if i])
            b = rng.choice([i for i in range(-30, 31) if i])
            cert = pid_pair_certificate(a, b)
            searched = search_submonic_relation(
                ZZ_CFG, (a, b), Lex(), cert.degree_bound
            )
            assert isinstance(searched, Dependent)
            assert searched.certificate.trailing == cert.trailing

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pid_pair_certificate(0, 5)
        with pytest.raises(ValueError):
            pid_pair_certificate(5, 0)


class TestCertificateSerialization:
    def pinned_cert(self):
        verdict = search_submonic_relation(ZZ_CFG, (12, 18), Lex(), 3)
        return verdict.certificate

    def test_json_roundtrip_is_bit_exact(self):
        cert = self.pinned_cert()
        text = cert.to_json()
        back = SubmonicCertificate.from_json(text)
        assert back.verified
        assert back.to_json() == text

    def test_schema_keys(self):
        data = self.pinned_cert().to_dict()
        assert set(data) == {
            "ring", "coeff_ring", "ordering", "elements", "poly",
            "trailing", "degree_bound", "verified",
        }
        assert data["ring"] == "ZZ" and data["ordering"] == "lex"
        assert data["elements"] == ["12", "18"]

    def test_roundtrip_across_configs(self):
        poly = parse_ring_text("Poly(GF(7); t1,t2)")
        quot = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        # The second is a field into a quotient over it: the span route with
        # the QuotRing structure map.  (x + 1)*y = y modulo x*y.
        cases = [
            (AlgebraConfig(poly, poly), ("t1", "t1*t2"), Lex(), 1, "x2 - t2*x1"),
            (AlgebraConfig(QQ, quot), ("x+1", "y"), GrevLex(), 3, "x2 - x1*x2"),
        ]
        for cfg, texts, ordering, maxdeg, relation in cases:
            elems = tuple(parse_elem(t, cfg.algebra) for t in texts)
            verdict = search_submonic_relation(cfg, elems, ordering, maxdeg)
            cert = verdict.certificate
            assert cert.verified
            names = PolyRing(cfg.coeff_ring, ("x1", "x2"))
            assert cert.poly == parse_elem(relation, names)
            text = cert.to_json()
            back = SubmonicCertificate.from_json(text)
            assert back.verified and back.to_json() == text
            assert back.config == cfg and back.elements == elems

    def test_tampering_each_check(self):
        cert = self.pinned_cert()

        def reload(**edits):
            data = cert.to_dict()
            data.update(edits)
            return SubmonicCertificate.from_dict(data)

        zeroed = reload(poly=[])
        assert check_certificate(zeroed) == "polynomial is zero"

        extra_var = reload(poly=[["1", [[3, 1]]]])
        assert "only 2 elements" in check_certificate(extra_var)

        shrunk = reload(degree_bound=1)
        assert "exceeds the stated bound" in check_certificate(shrunk)

        moved = reload(trailing=[[1, 1]])
        assert check_certificate(moved) == (
            "stated trailing monomial differs from the computed one"
        )

        rescaled = reload(poly=[["2", [[2, 2]]], ["-54", [[1, 1]]]],
                          trailing=[[2, 2]])
        assert check_certificate(rescaled) == "trailing coefficient is not 1"

        wrong = reload(poly=[["1", [[2, 2]]], ["-26", [[1, 1]]]])
        assert check_certificate(wrong) == "relation does not evaluate to zero"

        ok = reload()
        assert check_certificate(ok) is None and ok.verified


class TestDependenceMatrix:
    def test_small_integer_pool_all_pairs_dependent(self):
        report = dependence_matrix(ZZ_CFG, range(2, 11), 2, Lex(), 4)
        assert report.counts == {"dependent": 36, "no_relation": 0,
                                   "resource_exceeded": 0}
        assert report.independent_candidates == []
        for entry in report.entries:
            assert verify_certificate(entry.certificate)

    def test_every_residue_is_dependent_mod_12(self):
        ring = ModularRing(12)
        cfg = AlgebraConfig(ring, ring)
        report = dependence_matrix(cfg, ring.elements(), 1, Lex(), 13)
        assert report.counts["dependent"] == 12

    def test_independent_candidates_flagged(self):
        report = dependence_matrix(ZZ_CFG, [2], 1, Lex(), 6)
        assert report.independent_candidates == [(2,)]

    def test_tuple_cap(self):
        with pytest.raises(ResourceCapExceeded):
            dependence_matrix(ZZ_CFG, range(200), 3, Lex(), 2, max_tuples=100)

    def test_to_dict_counts(self):
        report = dependence_matrix(ZZ_CFG, [2, 4], 2, Lex(), 4)
        data = report.to_dict(ZZ)
        assert data["counts"]["dependent"] == 1
        assert json.dumps(data)  # serializable
