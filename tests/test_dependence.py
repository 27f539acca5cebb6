"""Submonic relation search, certificates, and the integer pair route."""

import copy
import json
import math
import random
from fractions import Fraction

import pytest

from propcheck import check_plain_eval, checked_completions
from trdeg import dependence, groebner, linalg
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
from trdeg.groebner import GroebnerBasis, buchberger, membership_cofactors
from trdeg.harness import ExperimentSpec, run_experiment, sample_element
from trdeg.linalg import solve_in_span, span_structure
from trdeg.monomials import ONE, Monomial, monomials_up_to_degree
from trdeg.orderings import GrevLex, Lex
from trdeg.parsing import parse_elem, parse_ring_text
from trdeg.polynomials import Polynomial
from trdeg.rings import QQ, ZZ, ModularRing, PolyRing, PrimeField


def m(*pairs):
    return Monomial(pairs)


ZZ_CFG = AlgebraConfig(ZZ, ZZ)


@pytest.fixture(autouse=True)
def _checked():
    # A wrong pair update fails the ideal sweep here instead of growing a basis for minutes.
    with checked_completions():
        yield


class TestAlgebraConfig:
    @pytest.mark.parametrize(
        "coeff, alg, route",
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
    def test_supported(self, coeff, alg, route):
        r, a = parse_ring_text(coeff), parse_ring_text(alg)
        # An integer span runs over ZZ, a residue span over the algebra Z/n, a
        # field span over the coefficient field; ideal membership has none.
        scalars = {"zz": ZZ, "zmod": a, "field": r, "ideal": None}[route]
        assert AlgebraConfig(r, a).scalars == scalars

    def test_equality_and_hashing(self):
        a = AlgebraConfig(QQ, parse_ring_text("Poly(QQ; x,y)"))
        b = AlgebraConfig(parse_ring_text("QQ"), PolyRing(QQ, ("x", "y")))
        assert a == b and hash(a) == hash(b)
        assert {a: "field"}[b] == "field"
        assert a != AlgebraConfig(QQ, PolyRing(QQ, ("x",)))
        assert a != ZZ_CFG and AlgebraConfig(ZZ, ZZ) == ZZ_CFG
        assert len({a, b, ZZ_CFG, AlgebraConfig(ZZ, ZZ)}) == 2

    def test_unsupported_message(self):
        with pytest.raises(UnsupportedConfigError) as exc:
            AlgebraConfig(ZZ, QQ)
        assert str(exc.value) == "unsupported (coefficient ring, algebra) pair: (ZZ, QQ)"

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

    @pytest.mark.parametrize(
        "ring_text", ["Quot(Poly(QQ; x); [1])", "Quot(Poly(QQ; x); [x, x - 1])"]
    )
    def test_zero_ring_refused_on_the_ideal_route(self, ring_text):
        # 1 = 0 there, so no relation has trailing coefficient 1.
        ring = parse_ring_text(ring_text)
        with pytest.raises(UnsupportedConfigError, match="zero ring"):
            AlgebraConfig(ring, ring)
        verdict = search_submonic_relation(AlgebraConfig(QQ, ring), (ring.one(),), GrevLex(), 1)
        assert verdict.certificate.poly == Polynomial(QQ, {ONE: QQ.one()})


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

    def test_cap_is_a_distinct_outcome(self, monkeypatch):
        monkeypatch.setenv("TRDEG_MONOMIAL_CAP", "5")
        with pytest.raises(ResourceCapExceeded):
            search_submonic_relation(ZZ_CFG, (2, 3), Lex(), 10)

    def test_candidate_lists_are_cached_after_the_cap_check(self, monkeypatch):
        dependence._candidates.cache_clear()
        search_submonic_relation(ZZ_CFG, (2, 3), Lex(), 3)
        search_submonic_relation(ZZ_CFG, (4, 9), Lex(), 3)
        info = dependence._candidates.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 1, dependence._CANDIDATE_LISTS)
        mons = dependence._candidates(2, 3, Lex())
        assert mons == tuple(Lex().sort(monomials_up_to_degree(2, 3)))
        monkeypatch.setenv("TRDEG_MONOMIAL_CAP", "5")
        with pytest.raises(ResourceCapExceeded):
            search_submonic_relation(ZZ_CFG, (2, 3), Lex(), 7)
        assert dependence._candidates.cache_info().misses == 1  # never looked up

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
        assert not cert.evaluate()
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

    @pytest.mark.parametrize("route", ["span", "ideal"])
    def test_quotient_element_not_in_normal_form_is_refused(self, route):
        # x*y is 1 in this ring; unreduced, the values built from it would
        # not be normal forms, and the answer would depend on the spelling.
        ring = parse_ring_text("Quot(Poly(QQ; x,y); [x*y - 1])")
        cfg = AlgebraConfig(QQ if route == "span" else ring, ring)
        xy = parse_elem("x*y", ring.poly_ring)
        with pytest.raises(UnsupportedConfigError, match=r"x\*y is not in normal form in Quot\(Poly\(QQ; x,y\)"):
            search_submonic_relation(cfg, (xy,), Lex(), 2)
        # Reduced, the element is 1 and the relation is 1 - x1.
        cert = search_submonic_relation(cfg, (parse_elem("x*y", ring),), Lex(), 2).certificate
        r = cfg.coeff_ring
        assert dict(cert.poly.terms) == {ONE: r.one(), m((1, 1)): r.from_int(-1)}

    @pytest.mark.parametrize(
        "config, elems, shown",
        [
            # Unchecked, each could give a relation that holds in Python
            # arithmetic but not in the ring: 1 - 2*x1 vanishes at 1/2.
            (ZZ_CFG, (Fraction(1, 2), 3), r"Fraction\(1, 2\) is not an element of ZZ"),
            (ZZ_CFG, (2.0, 3), r"2\.0 is not an element of ZZ"),
            (ZZ_CFG, (True, 3), r"True is not an element of ZZ"),
            (ZZ_CFG, ("2", 3), r"'2' is not an element of ZZ"),
            (AlgebraConfig(ModularRing(6), ModularRing(6)), (7,), r"7 is not an element of Zmod\(6\)"),
            (AlgebraConfig(ZZ, ModularRing(6)), (2, 7), r"7 is not an element of Zmod\(6\)"),
        ],
    )
    def test_element_outside_the_algebra_is_refused(self, config, elems, shown):
        with pytest.raises(UnsupportedConfigError, match=shown):
            search_submonic_relation(config, elems, GrevLex(), 2)

    def test_polynomial_over_another_base_is_refused(self):
        pq, pz = parse_ring_text("Poly(QQ; x,y)"), parse_ring_text("Poly(ZZ; x,y)")
        elems = (parse_elem("x", pz), parse_elem("y", pz))
        for cfg in (AlgebraConfig(QQ, pq), AlgebraConfig(pq, pq)):
            with pytest.raises(UnsupportedConfigError, match=r"is not an element of Poly\(QQ; x,y\)"):
                search_submonic_relation(cfg, elems, GrevLex(), 2)

    def test_matrix_pool_element_outside_the_algebra_is_refused(self):
        with pytest.raises(UnsupportedConfigError, match=r"Fraction\(1, 2\) is not an element of ZZ"):
            dependence_matrix(ZZ_CFG, [2, 3, Fraction(1, 2)], 2, GrevLex(), 2)

    def test_certificate_over_elements_outside_the_algebra_fails(self):
        # 1 - 2*x1 vanishes at 1/2 in Python arithmetic, but 1/2 is not in ZZ.
        cert = SubmonicCertificate(
            config=ZZ_CFG,
            elements=(Fraction(1, 2), 3),
            ordering=GrevLex(),
            poly=Polynomial(ZZ, {ONE: 1, m((1, 1)): -2}),
            trailing=ONE,
            degree_bound=2,
        )
        assert check_certificate(cert) == "element Fraction(1, 2) is not in ZZ"
        cert.elements = (2, 3)
        assert check_certificate(cert) == "relation does not evaluate to zero"

    def test_certificate_with_coefficients_outside_the_ring_fails(self):
        # 1 - 1/2*x1 vanishes at 2, but 1/2 is not in ZZ: no ZZ relation.
        cert = SubmonicCertificate(
            config=ZZ_CFG,
            elements=(2,),
            ordering=GrevLex(),
            poly=Polynomial(ZZ, {ONE: 1, m((1, 1)): Fraction(-1, 2)}),
            trailing=ONE,
            degree_bound=2,
        )
        assert check_certificate(cert) == "coefficient Fraction(-1, 2) is not in ZZ"
        cert.poly = Polynomial(QQ, {ONE: 1, m((1, 1)): Fraction(-1, 2)})
        assert check_certificate(cert) == "polynomial is over QQ, not ZZ"
        cert.poly = Polynomial(ZZ, {ONE: 1, m((1, 2)): -1})
        cert.elements = (1,)
        assert check_certificate(cert) is None

    def test_plain_field_single_element(self):
        cfg = AlgebraConfig(QQ, QQ)
        verdict = search_submonic_relation(cfg, (QQ.from_int(5),), Lex(), 1)
        assert isinstance(verdict, Dependent)


def _monomial_values(algebra, elems, mons):
    """The value of each candidate at the elements, by repeated multiplication."""
    values = []
    for mon in mons:
        value = algebra.one()
        for i, e in mon.exps:
            for _ in range(e):
                value = algebra.mul(value, elems[i - 1])
        values.append(value)
    return values


def _span_vectors(cfg, elems, mons):
    """The coefficient vector of each candidate's value, as the search builds them."""
    algebra = cfg.algebra
    values = _monomial_values(algebra, elems, mons)
    if isinstance(algebra, PolyRing):
        basis = sorted({b for v in values for b in v.terms}, key=Monomial.natural_key)
        return [[v.terms.get(b, v.ring.zero()) for b in basis] for v in values]
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
    """Over ZZ the coefficients come from the shortest prefix of the greater
    values that spans the hit."""

    def test_failed_full_solve_still_raises(self, monkeypatch):
        ring = PolyRing(ZZ, ("x",))
        cfg = AlgebraConfig(ZZ, ring)
        x = parse_elem("x", ring)
        elems = (x + ring.one(), x * x)
        trailing = search_submonic_relation(cfg, elems, GrevLex(), 4).certificate.trailing
        mons = GrevLex().sort(monomials_up_to_degree(2, 4))
        full = len(mons) - 1 - mons.index(trailing)
        add, probes = linalg.IntLattice.add, []

        def no_member_probes(self, vec, insert=True):
            # The sweep inserts as before; every probe of the hit fails.
            if insert:
                return add(self, vec)
            probes.append(self.adds)
            return False

        monkeypatch.setattr(linalg.IntLattice, "add", no_member_probes)
        with pytest.raises(InternalInconsistencyError, match="disagreed"):
            search_submonic_relation(cfg, elems, GrevLex(), 4)
        assert full > 4
        assert probes == list(range(full + 1))

    def test_shortest_prefix_certificates_and_verdicts(self):
        poly_cfg = AlgebraConfig(ZZ, PolyRing(ZZ, ("x",)))
        rng = random.Random(61)
        dependent = 0
        for k in range(200):
            cfg, bound = (ZZ_CFG, 30) if k % 2 else (poly_cfg, 5)
            arity, maxdeg = rng.randint(1, 3), rng.randint(2, 6)
            ordering = rng.choice([Lex(), GrevLex()])
            elems = tuple(sample_element(rng, cfg.algebra, 2, bound) for _ in range(arity))
            verdict = search_submonic_relation(cfg, elems, ordering, maxdeg)
            mons = ordering.sort(monomials_up_to_degree(arity, maxdeg))
            expected = _full_solve_trailing(cfg, elems, mons)
            if not isinstance(verdict, Dependent):
                assert verdict == NoRelationUpTo(maxdeg) and expected is None
                continue
            dependent += 1
            cert = verdict.certificate
            assert cert.trailing == expected
            assert verify_certificate(cert)
            hit = mons.index(cert.trailing)
            vecs = _span_vectors(cfg, elems, mons)
            shortest = _shortest_spanning_prefix(vecs[hit], vecs[hit + 1 :])
            # Every other term is among the first `shortest` greater
            # monomials, and the last of them has a nonzero coefficient,
            # since the hit is outside the span of the ones before it.
            used = {mons.index(m) for m in cert.poly.terms} - {hit}
            assert used <= set(range(hit + 1, hit + 1 + shortest))
            assert (hit + shortest in used) == (shortest > 0)
        assert dependent >= 100

    def test_certificate_size_guard(self):
        # Over the first 40 seeds of the default experiment (ZZ into ZZ[x],
        # arity 3, grevlex, maxdeg 6) the largest certificate coefficient was
        # this 151-bit one when the ZZ solve ran a batch Hermite elimination
        # on 1, 2, 4, ... of the greater values; the shortest prefix must
        # not give a larger one.
        batch_largest = 2727362209591492049574806323751554980061606837
        largest = max(
            abs(c)
            for seed in range(40)
            for rec in run_experiment(ExperimentSpec(seed=seed, trials=1)).records
            if rec.certificate is not None
            for c in rec.certificate.poly.terms.values()
        )
        assert largest <= batch_largest


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


def _random_element(rng, base, nvars):
    """Zero, a constant, or up to four terms in x1..x_nvars of degree <= 2 each,
    with negative coefficients and, over QQ, fractions."""
    kind = rng.random()
    terms = {}
    if kind < 0.1:
        pass
    elif kind < 0.25:
        terms[ONE] = rng.choice([-1, 1]) * rng.randint(1, 300)
    else:
        for _ in range(rng.randint(1, 4)):
            mon = Monomial((j, rng.randint(0, 2)) for j in range(1, nvars + 1))
            c = rng.randint(-9, 9)
            terms[mon] = Fraction(c, rng.randint(1, 6)) if base == QQ else c
    if isinstance(base, ModularRing):
        terms = {mon: c % base.modulus for mon, c in terms.items()}
    return Polynomial(base, terms)


def _minkowski_columns(elems, maxdeg):
    """The monomials of (1 + supp(a_1) + ... + supp(a_n))^maxdeg, in
    Monomial.natural_key order: the products of at most maxdeg support
    monomials, which hold the support of every candidate's value."""
    step = {ONE} | {b for a in elems for b in a.terms}
    cols = {ONE}
    for _ in range(maxdeg):
        cols = {c * b for c in cols for b in step}
    return sorted(cols, key=Monomial.natural_key)


class TestPackedSpanVectors:
    """The span pass packs Poly(ZZ / QQ / GF(p)) values into ints; its rows,
    over the Minkowski-support columns, equal the coefficient vectors of the
    Polynomial products."""

    BASES = {"ZZ": ZZ, "QQ": QQ, "GF(2)": PrimeField(2), "GF(7)": PrimeField(7)}

    @pytest.mark.parametrize("name", list(BASES))
    def test_matches_polynomial_products(self, name):
        base = self.BASES[name]
        rng = random.Random(f"packed {name}")
        packed = 0
        for _ in range(80):
            nvars, arity, maxdeg = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 4)
            cfg = AlgebraConfig(base, PolyRing(base, tuple("xyz"[:nvars])))
            elems = tuple(_random_element(rng, base, nvars) for _ in range(arity))
            mons = GrevLex().sort(monomials_up_to_degree(arity, maxdeg))
            want = _span_vectors(cfg, elems, mons)
            got = dependence._packed_vectors(mons, elems, base)
            assert list(dependence._span_vectors(mons, elems, cfg)) == list(got or want)
            if got is None:
                continue
            packed += 1
            got = list(got)
            values = _monomial_values(cfg.algebra, elems, mons)
            exact = sorted({b for v in values for b in v.terms}, key=Monomial.natural_key)
            cols = _minkowski_columns(elems, maxdeg)
            # The columns are the Minkowski support, which holds every exact column.
            assert all(len(row) == len(cols) for row in got)
            assert set(exact) <= set(cols)
            # On the exact columns the rows are the Polynomial products, types too.
            on_exact = [[row[cols.index(b)] for b in exact] for row in got]
            assert on_exact == want
            assert [list(map(type, v)) for v in on_exact] == [list(map(type, v)) for v in want]
            # Every extra column is zero in every row.
            extra = [k for k, b in enumerate(cols) if b not in set(exact)]
            assert not any(row[k] for row in got for k in extra)
            if cols == exact:
                assert got == want
        # Sparse three-variable inputs may decline to pack; most inputs pack.
        assert packed >= 60

    @pytest.mark.parametrize("base", ["ZZ", "QQ", "GF(7)"])
    def test_rows_are_built_on_demand(self, monkeypatch, base):
        # The values of the six greatest of the 21 candidates, x^k (x + 1)^(5 - k),
        # are unitriangular (as in TestSpanSweep), so the sweep stops after
        # their rows and the hit is 1; the solve reads the row of 1 and
        # those of x2 and x1: 9 rows are built, each once.
        ring = parse_ring_text(f"Poly({base}; x)")
        cfg = AlgebraConfig(ring.base, ring)
        elems = tuple(parse_elem(t, ring) for t in ("x", "x + 1"))
        built = []

        class Counting(dependence._LazyRows):
            def __init__(self, keys, build):
                super().__init__(keys, lambda mon: built.append(mon) or build(mon))

        monkeypatch.setattr(dependence, "_LazyRows", Counting)
        cert = search_submonic_relation(cfg, elems, GrevLex(), 5).certificate
        mons = GrevLex().sort(monomials_up_to_degree(2, 5))
        assert cert.trailing == ONE
        assert built == mons[:-7:-1] + mons[:3]
        monkeypatch.setattr(dependence, "_packed_vectors", lambda *args: None)
        plain = search_submonic_relation(cfg, elems, GrevLex(), 5).certificate
        assert cert.to_json() == plain.to_json()

    @pytest.mark.parametrize("texts", [("x^2 + x",), ("x^2 + x", "1")])
    def test_columns_wider_than_the_values(self, monkeypatch, texts):
        # Over GF(2), (x^2 + x)^2 = x^4 + x^2: the Minkowski columns are
        # 1, x, ..., x^4, but x^3 is zero in every row, so the span is never
        # full; the verdict and certificate are the Polynomial path's.
        ring = parse_ring_text("Poly(GF(2); x)")
        cfg = AlgebraConfig(ring.base, ring)
        elems = tuple(parse_elem(t, ring) for t in texts)
        mons = GrevLex().sort(monomials_up_to_degree(len(elems), 2))
        rows = list(dependence._packed_vectors(mons, elems, ring.base))
        assert _minkowski_columns(elems, 2) == [m((1, e)) for e in range(5)]
        assert [[row[k] for k in (0, 1, 2, 4)] for row in rows] == _span_vectors(cfg, elems, mons)
        assert not any(row[3] for row in rows)
        if len(elems) == 1:
            assert rows == [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 0, 1]]
        packed = search_submonic_relation(cfg, elems, GrevLex(), 2)
        monkeypatch.setattr(dependence, "_packed_vectors", lambda *args: None)
        plain = search_submonic_relation(cfg, elems, GrevLex(), 2)
        assert type(packed) is type(plain)
        if isinstance(plain, Dependent):
            assert packed.certificate.to_json() == plain.certificate.to_json()
        else:
            assert packed == plain == NoRelationUpTo(2)

    @pytest.mark.parametrize(
        "coeff, elem, other",
        [
            ("ZZ", "255", "x"),
            ("ZZ", "-255", "x - 1"),
            ("ZZ", "-255*x^2", "x"),
            ("QQ", "-255/4", "1/2*x"),
            ("QQ", "255*x", "-1"),
            ("GF(257)", "255", "x"),
        ],
    )
    @pytest.mark.parametrize("maxdeg", [1, 2, 3])
    def test_slots_reach_the_bound(self, coeff, elem, other, maxdeg):
        # One term of absolute value N (after clearing denominators) makes the
        # value of x1^maxdeg a single slot of absolute value N^maxdeg, the
        # proven bound; 255^maxdeg fills whole bytes, so no rounding slack
        # hides a slot that is too narrow.
        base = parse_ring_text(coeff)
        cfg = AlgebraConfig(base, PolyRing(base, ("x",)))
        elems = (parse_elem(elem, cfg.algebra), parse_elem(other, cfg.algebra))
        mons = GrevLex().sort(monomials_up_to_degree(2, maxdeg))
        assert list(dependence._packed_vectors(mons, elems, base)) == _span_vectors(cfg, elems, mons)

    def test_five_variables_decode_only_the_simplex(self, monkeypatch):
        # The values have total degree <= 2, so of the 3^5 slots of the box
        # only the C(7, 5) cells of degree <= 2 are decoded.
        ring = parse_ring_text("Poly(ZZ; a,b,c,d,e)")
        cfg = AlgebraConfig(ZZ, ring)
        elems = tuple(parse_elem(t, ring) for t in ("1 + a + b + c", "1 + c - d + e", "a - e"))
        mons = GrevLex().sort(monomials_up_to_degree(3, 2))
        box_cells, decoded = dependence._box_cells, []

        def recording(radix, top):
            decoded.append((math.prod(radix), box_cells(radix, top)))
            return decoded[-1][1]

        monkeypatch.setattr(dependence, "_box_cells", recording)
        assert list(dependence._packed_vectors(mons, elems, ZZ)) == _span_vectors(cfg, elems, mons)
        [(slots, cells)] = decoded
        assert (slots, len(cells)) == (3**5, math.comb(7, 5))
        assert cells == sorted(monomials_up_to_degree(5, 2), key=Monomial.natural_key)

    def test_box_far_larger_than_the_values_is_not_packed(self):
        # Dense degree-2 elements in six variables at degree bound 6 would
        # pack into 13^6 slots per value for at most C(18, 6) terms; one
        # degree-9 monomial would pack into 19^3 slots for a single term.
        rng = random.Random(6)
        six = parse_ring_text("Poly(ZZ; a,b,c,d,e,f)")
        dense = tuple(sample_element(rng, six, 2, 5) for _ in range(3))
        mons = GrevLex().sort(monomials_up_to_degree(3, 6))
        assert dependence._packed_vectors(mons, dense, ZZ) is None
        three = parse_ring_text("Poly(ZZ; a,b,c)")
        sparse = (parse_elem("2*a^3*b^3*c^3", three), parse_elem("a", three))
        mons = GrevLex().sort(monomials_up_to_degree(2, 6))
        assert dependence._packed_vectors(mons, sparse, ZZ) is None
        cfg = AlgebraConfig(ZZ, three)
        assert list(dependence._span_vectors(mons, sparse, cfg)) == _span_vectors(cfg, sparse, mons)

    def test_variables_beyond_the_ring(self):
        # A library caller's polynomials may use variables the ring does not name.
        ring = PolyRing(ZZ, ("x",))
        cfg = AlgebraConfig(ZZ, ring)
        elems = (
            Polynomial(ZZ, {m((3, 2)): -4, m((1, 1)): 1, ONE: 1}),
            Polynomial(ZZ, {m((1, 1), (2, 1)): 3, m((3, 1)): 1}),
        )
        mons = GrevLex().sort(monomials_up_to_degree(2, 2))
        assert list(dependence._packed_vectors(mons, elems, ZZ)) == _span_vectors(cfg, elems, mons)

    def test_certificate_check_does_not_pack(self, monkeypatch):
        cfg = AlgebraConfig(QQ, parse_ring_text("Poly(QQ; x)"))
        elems = (parse_elem("1/2*x^2 - 3", cfg.algebra), parse_elem("x + 1", cfg.algebra))
        cert = search_submonic_relation(cfg, elems, GrevLex(), 2).certificate
        text = cert.to_json()

        def broken(*args):
            raise AssertionError("packing called")

        monkeypatch.setattr(dependence, "_packed_vectors", broken)
        assert verify_certificate(cert)
        back = SubmonicCertificate.from_json(text)
        assert back.verified and back.to_json() == text

    def test_packing_fault_is_an_internal_error(self, monkeypatch):
        # A wrong vector for the candidate 1 gives a relation that
        # check_certificate refuses: it still lies in the full-rank span.
        packed = dependence._packed_vectors

        def off_by_one(mons, elems, base):
            vecs = packed(mons, elems, base)
            vecs[mons.index(ONE)][0] += 1
            return vecs

        monkeypatch.setattr(dependence, "_packed_vectors", off_by_one)
        cfg = AlgebraConfig(QQ, parse_ring_text("Poly(QQ; x)"))
        elems = (parse_elem("1/2*x^2 - 3", cfg.algebra), parse_elem("x + 1", cfg.algebra))
        with pytest.raises(InternalInconsistencyError, match="invalid certificate"):
            search_submonic_relation(cfg, elems, GrevLex(), 2)


class TestScalarSpanVectors:
    """A ring as its own algebra reads its 1-vectors off a power table; they
    equal the values built by repeated multiplication."""

    RINGS = {
        "ZZ": ZZ,
        "QQ": QQ,
        "GF(7)": PrimeField(7),
        **{f"Zmod({n})": ModularRing(n) for n in (6, 8, 12, 30)},
    }

    @staticmethod
    def _element_kinds(ring):
        """Zero, one, units and non-units of the ring (non-units include
        the zero divisors and nilpotents of Z/n)."""
        if ring == ZZ:
            return [[0], [1], [-1], [2, -3, 6, 12]]
        if ring == QQ:
            return [[0], [1], [-1, Fraction(2, 3), Fraction(-5, 4), 7]]
        n = ring.modulus
        units = [a for a in range(2, n) if math.gcd(a, n) == 1]
        others = [a for a in range(2, n) if math.gcd(a, n) > 1]
        return [[0], [1]] + [kind for kind in (units, others) if kind]

    @pytest.mark.parametrize("name", list(RINGS))
    def test_matches_repeated_multiplication(self, name):
        ring = self.RINGS[name]
        cfg = AlgebraConfig(ring, ring)
        top = ring.modulus + 1 if isinstance(ring, ModularRing) else 8
        kinds = self._element_kinds(ring)
        rng = random.Random(f"scalar rows {name}")
        for _ in range(30):
            arity, maxdeg = rng.randint(1, 3), rng.randint(0, top)
            elems = tuple(rng.choice(rng.choice(kinds)) for _ in range(arity))
            ordering = rng.choice([Lex(), GrevLex()])
            mons = ordering.sort(monomials_up_to_degree(arity, maxdeg))
            want = _span_vectors(cfg, elems, mons)
            got = list(dependence._span_vectors(mons, elems, cfg))
            assert got == want
            assert [list(map(type, v)) for v in got] == [list(map(type, v)) for v in want]

    def test_rows_are_built_on_demand(self, monkeypatch):
        # The six values of degree 5, 2^k 3^(5 - k), hold the coprime 2^5 and
        # 3^5, so the sweep stops after their rows and the hit is 1; the solve
        # reads the row of 1 and those of x2 and x1: 9 of the 21 rows are
        # built, each once.
        built = []

        class Counting(dependence._LazyRows):
            def __init__(self, keys, build):
                super().__init__(keys, lambda mon: built.append(mon) or build(mon))

        monkeypatch.setattr(dependence, "_LazyRows", Counting)
        cert = search_submonic_relation(ZZ_CFG, (2, 3), GrevLex(), 5).certificate
        mons = GrevLex().sort(monomials_up_to_degree(2, 5))
        assert cert.trailing == ONE
        assert built == mons[:-7:-1] + mons[:3]
        monkeypatch.setattr(
            dependence, "_span_vectors", lambda mons, elems, cfg: _span_vectors(cfg, elems, mons)
        )
        plain = search_submonic_relation(ZZ_CFG, (2, 3), GrevLex(), 5).certificate
        assert cert.to_json() == plain.to_json()


class TestSpanSweep:
    """The span route's reverse sweep stops once the greater values span everything."""

    @pytest.mark.parametrize("base", ["QQ", "ZZ"])
    def test_full_span_partway_stops_the_sweep(self, monkeypatch, base):
        # Greatest first, the values are x^k * (x + 1)^(3 - k), k = 0..3:
        # unitriangular on 1, x, x^2, x^3, so over ZZ too the four greatest
        # of the ten candidates span everything and 1 is the hit.
        ring = parse_ring_text(f"Poly({base}; x)")
        cfg = AlgebraConfig(ring.base, ring)
        x = parse_elem("x", ring)
        elems = (x, x + ring.one())
        adds = []

        def counting(scalars, dim):
            # The sweep's structure only: a field solve adds to one of its own.
            span = span_structure(scalars, dim)
            span.add = lambda vec, add=span.add: adds.append(vec) or add(vec)
            return span

        monkeypatch.setattr(dependence, "span_structure", counting)
        with monkeypatch.context() as never_full:
            structure = type(span_structure(cfg.scalars, 1))
            never_full.setattr(structure, "is_full", lambda span: False)
            every = search_submonic_relation(cfg, elems, GrevLex(), 3).certificate
        assert len(adds) == math.comb(5, 2)
        adds.clear()
        cert = search_submonic_relation(cfg, elems, GrevLex(), 3).certificate
        assert len(adds) == 4
        assert cert.trailing == ONE
        assert cert.to_json() == every.to_json()


def _in_span(target, gens, scalars):
    """Reference span membership.  Over Z/n it is the ZZ solve with the
    modulus rows n * e_j joined: solve_in_span over Z/n runs the residue
    lattice, the structure these tests check."""
    if isinstance(scalars, ModularRing) and not scalars.is_field:
        dim = len(target)
        moduli = [[scalars.modulus * (i == j) for i in range(dim)] for j in range(dim)]
        return solve_in_span(target, list(gens) + moduli, ZZ) is not None
    return solve_in_span(target, gens, scalars) is not None


def _spans_everything(vecs, scalars, dim):
    """Reference for is_full: every unit vector is in the span of vecs."""
    units = ([int(i == j) for i in range(dim)] for j in range(dim))
    return all(_in_span(e, vecs, scalars) for e in units)


class TestLeastMember:
    """_least_member against one reference membership test per candidate,
    least first."""

    CONFIGS = [
        ("ZZ", "ZZ"),
        ("QQ", "QQ"),
        ("GF(7)", "GF(7)"),
        ("Zmod(6)", "Zmod(6)"),
        ("Zmod(12)", "Zmod(12)"),
        ("ZZ", "Zmod(12)"),
        ("ZZ", "Poly(ZZ; x)"),
        ("QQ", "Poly(QQ; x,y)"),
        ("GF(7)", "Poly(GF(7); x)"),
    ]

    def test_matches_per_candidate_solves(self):
        rng = random.Random("least member")
        stops = {"partway": 0, "at 0": 0, "never": 0}
        for coeff, alg in self.CONFIGS:
            cfg = AlgebraConfig(parse_ring_text(coeff), parse_ring_text(alg))
            scalars, algebra = cfg.scalars, cfg.algebra
            for _ in range(25):
                arity, maxdeg = rng.randint(1, 2), rng.randint(1, 3)
                if isinstance(algebra, PolyRing):
                    elems = tuple(
                        _random_element(rng, scalars, algebra.nvars) for _ in range(arity)
                    )
                else:
                    elems = tuple(sample_element(rng, algebra, 1, 8) for _ in range(arity))
                ordering = rng.choice([Lex(), GrevLex()])
                mons = ordering.sort(monomials_up_to_degree(arity, maxdeg))
                vecs = dependence._span_vectors(mons, elems, cfg)
                dim = len(vecs[0])
                expected = next(
                    (
                        i
                        for i in range(len(vecs))
                        if _in_span(vecs[i], vecs[i + 1 :], scalars)
                    ),
                    None,
                )
                full_from = next(
                    (
                        i
                        for i in range(len(vecs) - 1, -1, -1)
                        if _spans_everything(vecs[i:], scalars, dim)
                    ),
                    None,
                )
                structure = span_structure(scalars, dim)
                adds = []
                structure.add = lambda vec, add=structure.add: adds.append(vec) or add(vec)
                assert dependence._least_member(structure, vecs) == expected
                if full_from is None:
                    stops["never"] += 1
                elif full_from == 0:
                    stops["at 0"] += 1
                else:
                    stops["partway"] += 1
                    assert expected == 0
                assert len(adds) == len(vecs) - (full_from or 0)
        assert min(stops.values()) >= 5, stops


class TestZmodLatticeCoefficients:
    """Over Z/n the sweep's lattice records the hit's coefficients: the search
    solves nothing and builds no row past the sweep's stop."""

    CONFIGS = [(f"Zmod({n})", f"Zmod({n})") for n in (6, 8, 12, 30)]
    CONFIGS += [("ZZ", f"Zmod({n})") for n in (12, 30)]

    def test_no_solve_no_unread_rows(self, monkeypatch):
        built, adds = [], []

        class Counting(dependence._LazyRows):
            def __init__(self, keys, build):
                super().__init__(keys, lambda mon: built.append(mon) or build(mon))

        def counting(scalars, dim):
            span = span_structure(scalars, dim)
            span.add = lambda vec, add=span.add: adds.append(vec) or add(vec)
            return span

        def refuse(target, gens, scalars):
            raise AssertionError("solve_in_span called")

        monkeypatch.setattr(dependence, "_LazyRows", Counting)
        monkeypatch.setattr(dependence, "span_structure", counting)
        monkeypatch.setattr(dependence, "solve_in_span", refuse)
        rng = random.Random("zmod lattice coefficients")
        stops = {"unit": 0, "partway": 0, "none": 0}
        for coeff, alg in self.CONFIGS:
            cfg = AlgebraConfig(parse_ring_text(coeff), parse_ring_text(alg))
            n = cfg.algebra.modulus
            cases = [((a,), Lex(), n + 1) for a in range(n)]
            cases += [
                (tuple(rng.randrange(n) for _ in range(2)), rng.choice([Lex(), GrevLex()]), rng.randint(1, 3))
                for _ in range(15)
            ]
            for elems, ordering, maxdeg in cases:
                built.clear()
                adds.clear()
                verdict = search_submonic_relation(cfg, elems, ordering, maxdeg)
                mons = ordering.sort(monomials_up_to_degree(len(elems), maxdeg))
                vecs = _span_vectors(cfg, elems, mons)
                expected = next(
                    (
                        i
                        for i in range(len(vecs))
                        if _in_span(vecs[i], vecs[i + 1 :], cfg.scalars)
                    ),
                    None,
                )
                full_from = next(
                    (i for i in range(len(vecs) - 1, 0, -1) if _spans_everything(vecs[i:], cfg.scalars, 1)),
                    None,
                )
                if full_from is None:
                    # The sweep reads every row, greatest first.
                    assert built == list(mons[::-1])
                else:
                    # It stops at full_from, and the search adds only items[0].
                    assert built == list(mons[: full_from - 1 : -1]) + [mons[0]]
                assert adds == [vecs[mons.index(mon)] for mon in built]
                if math.gcd(elems[0], n) == 1 and len(elems) == 1:
                    stops["unit"] += 1
                    assert len(built) == 2
                else:
                    stops["none" if full_from is None else "partway"] += 1
                if expected is None:
                    assert verdict == NoRelationUpTo(maxdeg)
                    continue
                cert = verdict.certificate
                assert cert.trailing == mons[expected]
                assert check_certificate(cert) is None and cert.verified
        assert min(stops.values()) >= 5, stops

    def test_sweep_adds_go_through_the_class_method(self, monkeypatch):
        # perfbench's tracer times the linalg.lattice_add layer by wrapping
        # IntLattice.add on the class, so the Z/n search must call it there,
        # the extra add after a stop at is_full included.
        calls = []
        add = linalg.IntLattice.add
        monkeypatch.setattr(
            linalg.IntLattice, "add", lambda self, vec: calls.append(list(vec)) or add(self, vec)
        )
        cfg = AlgebraConfig(ModularRing(6), ModularRing(6))
        search_submonic_relation(cfg, (2,), Lex(), 3)
        assert calls == [[2], [4], [2], [1]]
        calls.clear()
        search_submonic_relation(cfg, (5,), Lex(), 3)
        assert calls == [[5], [1]]


def _per_candidate_ideal_search(cfg, elems, ordering, maxdeg):
    """(trailing monomial, relation) from one membership_cofactors call per
    candidate, least first; (None, None) when no candidate is a member."""
    algebra = cfg.algebra
    mons = ordering.sort(monomials_up_to_degree(len(elems), maxdeg))
    values = _monomial_values(algebra, elems, mons)
    for i, t in enumerate(mons):
        cof = membership_cofactors(values[i], values[i + 1 :], algebra, GrevLex())
        if cof is not None:
            terms = {t: algebra.one()} | {s: algebra.neg(c) for s, c in zip(mons[i + 1 :], cof)}
            return t, Polynomial(algebra, terms)
    return None, None


def _sparse_element(rng, ring):
    """One or two terms of degree at most 2 with small nonzero coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        x, y = (rng.choice([ONE, Monomial.var(rng.randint(1, 2))]) for _ in range(2))
        terms[x * y] = rng.choice([-2, -1, 1, 2])
    return ring.reduce(Polynomial(QQ, terms))


class TestIdealSweep:
    """The reverse sweep over the nested candidate ideals against one tracked
    membership test per candidate."""

    @pytest.mark.parametrize(
        "ring_text", ["Poly(QQ; x,y)", "Quot(Poly(QQ; x,y); [x*y])"]
    )
    def test_matches_per_candidate_membership(self, ring_text):
        ring = parse_ring_text(ring_text)
        cfg = AlgebraConfig(ring, ring)
        rng = random.Random(ring_text)
        verdicts = {"dependent": 0, "none": 0}
        for _ in range(60):
            arity = rng.randint(1, 3)
            maxdeg = rng.randint(1, 4 if arity < 3 else 2)
            ordering = rng.choice([GrevLex(), Lex()])
            elems = tuple(_sparse_element(rng, ring) for _ in range(arity))
            verdict = search_submonic_relation(cfg, elems, ordering, maxdeg)
            trailing, relation = _per_candidate_ideal_search(cfg, elems, ordering, maxdeg)
            if trailing is None:
                assert verdict == NoRelationUpTo(maxdeg)
                verdicts["none"] += 1
            else:
                assert verdict.certificate.trailing == trailing
                assert verdict.certificate.poly == relation
                verdicts["dependent"] += 1
        assert min(verdicts.values()) >= 5

    def test_quotient_relations_join_the_ideal(self):
        # y = y*(x + 1) - x*y: y lies in the ideal of x + 1 only modulo x*y.
        ring = parse_ring_text("Quot(Poly(QQ; x,y); [x*y])")
        cfg = AlgebraConfig(ring, ring)
        elems = (parse_elem("x + 1", ring), parse_elem("y", ring))
        verdict = search_submonic_relation(cfg, elems, Lex(), 1)
        assert verdict.certificate.trailing == m((2, 1))
        assert _per_candidate_ideal_search(cfg, elems, Lex(), 1)[1] == verdict.certificate.poly

    def test_unit_ideal_partway_stops_the_sweep(self, monkeypatch):
        # Greatest first, the values are x^2, x^2 + x, x^2 + 2x + 1: with the
        # first two they generate 1, so every smaller candidate is a member.
        ring = parse_ring_text("Poly(QQ; x)")
        cfg = AlgebraConfig(ring, ring)
        x = parse_elem("x", ring)
        elems = (x, x + ring.one())
        mons = GrevLex().sort(monomials_up_to_degree(2, 2))
        values = _monomial_values(ring, elems, mons)
        assert buchberger(values[3:], GrevLex(), QQ).is_full()
        sizes = []
        original = GroebnerBasis.add

        def recording(basis, p):
            sizes.append(len(basis.polys))
            return original(basis, p)

        monkeypatch.setattr(GroebnerBasis, "add", recording)
        verdict = search_submonic_relation(cfg, elems, GrevLex(), 2)
        assert verdict.certificate.trailing == ONE
        assert len(sizes) == 3  # the three greatest candidates only
        assert _per_candidate_ideal_search(cfg, elems, GrevLex(), 2)[1] == verdict.certificate.poly

    def test_failed_cofactor_search_still_raises(self, monkeypatch):
        ring = parse_ring_text("Poly(QQ; x,y,z)")
        cfg = AlgebraConfig(ring, ring)
        elems = tuple(parse_elem(t, ring) for t in ("x*y", "x", "y"))
        assert isinstance(search_submonic_relation(cfg, elems, GrevLex(), 2), Dependent)
        monkeypatch.setattr(dependence, "membership_cofactors", lambda target, gens, ring, ordering: None)
        with pytest.raises(InternalInconsistencyError, match="disagreed"):
            search_submonic_relation(cfg, elems, GrevLex(), 2)

    def test_three_binomials_at_maxdeg_4(self):
        # A hard input for the sweep's untracked basis: it grows far past the
        # generators and many pairs are pruned or reduce to zero.
        ring = parse_ring_text("Poly(QQ; x,y,z)")
        cfg = AlgebraConfig(ring, ring)
        elems = tuple(parse_elem(t, ring) for t in ("y*z + 3*x*y", "y + 3*x^2", "x*z + x"))
        assert search_submonic_relation(cfg, elems, GrevLex(), 4) == NoRelationUpTo(4)
        assert _per_candidate_ideal_search(cfg, elems, GrevLex(), 4) == (None, None)

    def test_three_binomials_sweep_coefficients_stay_small(self, monkeypatch):
        # The sweep's basis over QQ keeps primitive integer elements, and its
        # divisions scale the work to stay integral.  On the hard input at
        # maxdeg 4 the 144 elements' largest coefficient has 9 bits, as the
        # numerators of the monic elements had; content left in, or a scale
        # left on an element, would show here first.
        bases = []

        class Recording(GroebnerBasis):
            def __init__(self, *args):
                super().__init__(*args)
                bases.append(self)

        monkeypatch.setattr(dependence, "GroebnerBasis", Recording)
        ring = parse_ring_text("Poly(QQ; x,y,z)")
        elems = tuple(parse_elem(t, ring) for t in ("y*z + 3*x*y", "y + 3*x^2", "x*z + x"))
        verdict = search_submonic_relation(AlgebraConfig(ring, ring), elems, GrevLex(), 4)
        assert verdict == NoRelationUpTo(4)
        (basis,) = bases
        coeffs = [c for g in basis.polys for c in g.terms.values()]
        assert len(basis.polys) == 144 and all(type(c) is int for c in coeffs)
        assert max(abs(c).bit_length() for c in coeffs) <= 9


class TestIdealRouteValues:
    """The ideal route reads each value off the power table the first time
    the sweep or the cofactor solve asks for it; it equals the value built
    by repeated multiplication."""

    @staticmethod
    def _element(rng, ring):
        """One or two terms of degree at most 2 in the ring's variables."""
        nvars = ring.poly_ring.nvars
        terms = {}
        for _ in range(rng.randint(1, 2)):
            x, y = (rng.choice([ONE, Monomial.var(rng.randint(1, nvars))]) for _ in range(2))
            terms[x * y] = rng.choice([-2, -1, 1, 2])
        return ring.reduce(Polynomial(QQ, terms))

    @pytest.mark.parametrize("ring_text", ["Poly(QQ; x,y,z)", "Quot(Poly(QQ; x,y); [x*y])"])
    def test_values_match_repeated_multiplication(self, monkeypatch, ring_text):
        ring = parse_ring_text(ring_text)
        cfg = AlgebraConfig(ring, ring)
        built, added = [], []

        class Counting(dependence._LazyRows):
            def __init__(self, keys, build):
                super().__init__(keys, lambda mon: built.append((mon, build(mon))) or built[-1][1])

        class Recording(GroebnerBasis):
            def add(self, p):
                added.append(p)
                return super().add(p)

        monkeypatch.setattr(dependence, "_LazyRows", Counting)
        monkeypatch.setattr(dependence, "GroebnerBasis", Recording)
        rng = random.Random(f"ideal values {ring_text}")
        verdicts = {"dependent": 0, "none": 0}
        for _ in range(30):
            arity = rng.randint(1, 3)
            maxdeg = rng.randint(1, 3 if arity < 3 else 2)
            ordering = rng.choice([GrevLex(), Lex()])
            elems = tuple(self._element(rng, ring) for _ in range(arity))
            built.clear()
            added.clear()
            verdict = search_submonic_relation(cfg, elems, ordering, maxdeg)
            mons = ordering.sort(monomials_up_to_degree(arity, maxdeg))
            want = dict(zip(mons, _monomial_values(ring, elems, mons)))
            built_mons = [mon for mon, _ in built]
            # The sweep adds values greatest first, after the ring's relations,
            # and reads them all unless the ideal is full, when the hit is 1
            # and the cofactor solve reads the rest: every value is built,
            # once, and equals the reference.
            swept = added[len(ring.relations) :]
            assert built_mons[: len(swept)] == mons[: -len(swept) - 1 : -1]
            assert swept == [want[mon] for mon in built_mons[: len(swept)]]
            assert len(built_mons) == len(set(built_mons)) == len(mons)
            assert all(value == want[mon] for mon, value in built)
            verdicts["dependent" if isinstance(verdict, Dependent) else "none"] += 1
        assert min(verdicts.values()) >= 3, verdicts


class TestIdealSearchCost:
    """A tracked (cofactor) basis is built only for the hit."""

    def _tracked_runs(self, monkeypatch, ring_text, texts, ordering, maxdeg):
        ring = parse_ring_text(ring_text)
        calls = []

        def counting(gens, ordering, field, track=False):
            calls.append(track)
            return buchberger(gens, ordering, field, track)

        monkeypatch.setattr(groebner, "buchberger", counting)
        elems = tuple(parse_elem(t, ring) for t in texts)
        verdict = search_submonic_relation(AlgebraConfig(ring, ring), elems, ordering, maxdeg)
        return verdict, calls.count(True)

    def test_no_relation_builds_no_tracked_basis(self, monkeypatch):
        verdict, tracked = self._tracked_runs(
            monkeypatch, "Poly(QQ; x,y,z)", ["x*y", "y*z", "x*z"], GrevLex(), 3
        )
        assert verdict == NoRelationUpTo(3)
        assert tracked == 0

    def test_dependent_builds_one_tracked_basis(self, monkeypatch):
        verdict, tracked = self._tracked_runs(
            monkeypatch, "Poly(GF(7); t1,t2)", ["t1", "t1*t2"], Lex(), 2
        )
        assert verdict.certificate.trailing == m((2, 1))
        assert tracked == 1


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


class TestPlainEvaluation:
    def test_search_certificates_hold_in_plain_arithmetic(self):
        # ZZ[x], QQ[x], GF(7)[x], Z/12 and QQ[x,y]/(x*y), re-checked without
        # Polynomial or Ring arithmetic; each must fail with one coefficient changed.
        assert check_plain_eval(random.Random(2024), 210) == 210


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

        # A monomial listed twice counts with the sum of its coefficients.
        split = reload(poly=[["1", [[2, 2]]], ["-20", [[1, 1]]], ["-7", [[1, 1]]]])
        assert split.verified and split.poly == cert.poly


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
            dependence_matrix(ZZ_CFG, range(200), 3, Lex(), 2)

    def test_monomial_cap_entries(self, monkeypatch):
        monkeypatch.setenv("TRDEG_MONOMIAL_CAP", "5")
        report = dependence_matrix(ZZ_CFG, [2, 4, 6], 2, Lex(), 4)
        assert report.counts == {"dependent": 0, "no_relation": 0,
                                 "resource_exceeded": 3}
        assert all(e.certificate is None for e in report.entries)
        data = report.to_dict(ZZ)
        assert data["counts"] == report.counts
        assert [e["verdict"] for e in data["entries"]] == ["resource_exceeded"] * 3
        assert data["independent_candidates"] == []

    def test_to_dict_counts(self):
        report = dependence_matrix(ZZ_CFG, [2, 4], 2, Lex(), 4)
        data = report.to_dict(ZZ)
        assert data["counts"]["dependent"] == 1
        assert json.dumps(data)  # serializable
