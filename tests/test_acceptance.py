"""Acceptance gate: eight criteria, exact equality, pinned runtime budgets.

Each test prints one "criterion N: PASS/FAIL" line on the real terminal.
Expensive workloads are computed once and shared across criteria.
"""

import hashlib
import random
from functools import lru_cache
from time import perf_counter

from propcheck import (
    check_certificate_roundtrip,
    check_hnf_postconditions,
    check_ordering_axioms,
    check_spoly_reduction,
    ordering_families,
    random_monomial,
)
from trdeg.coquand_lombardi import (
    CLCertificate,
    cl_search,
    cl_to_submonic,
    finite_ring_dim_lt,
)
from trdeg.dependence import (
    AlgebraConfig,
    Dependent,
    NoRelationUpTo,
    pid_pair_certificate,
    search_submonic_relation,
    verify_certificate,
)
from trdeg.groebner import staircase_dimension
from trdeg.harness import ExperimentSpec, known_dim, run_experiment
from trdeg.monomials import monomials_up_to_degree
from trdeg.orderings import GrevLex, Lex, is_submonic, separating_weights
from trdeg.parsing import parse_elem, parse_ring_text
from trdeg.rings import GF, QQ, ZZ, ModularRing, PolyRing

ZZ_CFG = AlgebraConfig(ZZ, ZZ)


def announce(capsys, n, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {n}: PASS")


@lru_cache(maxsize=1)
def finite_ring_workload():
    """Singleton searches and the full dimension check for Z/n, n = 2..30."""
    start = perf_counter()
    rows = []
    cl_certs = []
    for n in range(2, 31):
        ring = ModularRing(n)
        cfg = AlgebraConfig(ring, ring)
        verdicts = [
            search_submonic_relation(cfg, (a,), Lex(), n + 1)
            for a in ring.elements()
        ]
        result = finite_ring_dim_lt(ring, 1)
        rows.append((n, verdicts, result))
        cl_certs.extend(cert for _, cert in result.witnesses)
    return perf_counter() - start, rows, cl_certs


@lru_cache(maxsize=1)
def integer_pair_workload():
    """pid route, generic lex search, and boundary-ideal search on all pairs."""
    start = perf_counter()
    rows = []
    cl_outcomes = []
    values = [v for v in range(-30, 31) if v]
    for a in values:
        for b in values:
            pid = pid_pair_certificate(a, b)
            searched = search_submonic_relation(ZZ_CFG, (a, b), Lex(), pid.degree_bound)
            cl = cl_search(ZZ, (a, b), 8)
            rows.append((a, b, pid, searched))
            cl_outcomes.append((a, b, cl))
    return perf_counter() - start, rows, cl_outcomes


def seed42_spec(coeffs):
    """The criterion-7 experiment: 1000 trials, coeffs into coeffs[x]."""
    return ExperimentSpec(
        seed=42,
        trials=1000,
        arity=3,
        elem_degree_bound=2,
        coeff_bound=5,
        search_degree_bound=6,
        ordering=GrevLex(),
        coeff_ring=coeffs,
        ambient=PolyRing(coeffs, ("x",)),
    )


@lru_cache(maxsize=1)
def experiment_workload():
    spec = seed42_spec(ZZ)
    start = perf_counter()
    first = run_experiment(spec)
    second = run_experiment(spec)
    return perf_counter() - start, first, second


def test_criterion_1_finite_rings_are_zero_dimensional(capsys):
    def body():
        elapsed, rows, _ = finite_ring_workload()
        assert len(rows) == 29
        for n, verdicts, result in rows:
            assert len(verdicts) == n
            for verdict in verdicts:
                assert isinstance(verdict, Dependent)
                assert verify_certificate(verdict.certificate)
            assert result.holds is True
            assert result.failing is None
            assert len(result.witnesses) == n
        assert elapsed < 30.0, f"finite ring sweep took {elapsed:.1f}s"

    announce(capsys, 1, body)


def test_criterion_2_integer_pairs_and_the_lone_prime(capsys):
    def body():
        elapsed, rows, cl_outcomes = integer_pair_workload()
        assert len(rows) == 3600
        for a, b, pid, searched in rows:
            assert verify_certificate(pid)
            assert isinstance(searched, Dependent)
            assert verify_certificate(searched.certificate)
            # both routes use the minimal exponent, hence the same trailing monomial
            assert searched.certificate.trailing == pid.trailing
        assert search_submonic_relation(ZZ_CFG, (2,), Lex(), 6) == NoRelationUpTo(6)
        for a, b, cl in cl_outcomes:
            assert isinstance(cl, CLCertificate), f"no membership for ({a}, {b})"
            assert verify_certificate(cl_to_submonic(cl))
        assert elapsed < 120.0, f"integer pair sweep took {elapsed:.1f}s"

    announce(capsys, 2, body)


def test_criterion_3_ordering_asymmetry(capsys):
    def body():
        start = perf_counter()
        ring = parse_ring_text("Poly(GF(7); t1,t2)")
        cfg = AlgebraConfig(ring, ring)
        elems = (parse_elem("t1", ring), parse_elem("t1*t2", ring))
        fwd = search_submonic_relation(cfg, elems, Lex(), 1)
        assert isinstance(fwd, Dependent)
        assert verify_certificate(fwd.certificate)
        rev = search_submonic_relation(cfg, elems, Lex((2, 1)), 4)
        assert rev == NoRelationUpTo(4)
        elapsed = perf_counter() - start
        assert elapsed < 10.0, f"asymmetry check took {elapsed:.1f}s"

    announce(capsys, 3, body)


def test_criterion_4_all_membership_certificates_convert(capsys):
    def body():
        _, _, finite_certs = finite_ring_workload()
        _, _, pair_outcomes = integer_pair_workload()
        certs = list(finite_certs)
        certs.extend(cl for _, _, cl in pair_outcomes if isinstance(cl, CLCertificate))
        assert certs, "suites 1 and 2 must produce membership certificates"
        converted = 0
        for cert in certs:
            sub = cl_to_submonic(cert)
            assert isinstance(sub.ordering, Lex) and not sub.ordering.priority
            assert is_submonic(sub.poly, sub.ordering)
            assert verify_certificate(sub)
            converted += 1
        assert converted == len(certs)

    announce(capsys, 4, body)


def test_criterion_5_dimension_oracle(capsys):
    def body():
        r2 = parse_ring_text("Poly(QQ; x,y)")
        r3 = parse_ring_text("Poly(QQ; x,y,z)")

        def dim(ring, nvars, *texts):
            gens = [parse_elem(t, ring) for t in texts]
            return staircase_dimension(gens, nvars, GrevLex(), QQ)

        assert dim(r2, 2, "x*y") == 1
        assert dim(r2, 2, "x^2", "x*y", "y^2") == 0
        assert dim(r3, 3, "x*z", "y*z") == 2
        assert dim(r2, 2, "1") == -1
        assert known_dim(ZZ) == 1
        assert known_dim(parse_ring_text("Poly(ZZ; x)")) == 2

    announce(capsys, 5, body)


def test_criterion_6_weight_separation(capsys):
    def body():
        start = perf_counter()
        rng = random.Random(2026)
        for _ in range(500):
            nvars = rng.randint(2, 4)
            ordering = rng.choice(ordering_families(nvars))
            trailing = random_monomial(rng, nvars, 4)
            pool = [
                mon
                for mon in monomials_up_to_degree(nvars, 6)
                if ordering.key(trailing) < ordering.key(mon)
            ]
            # enough strictly larger monomials always exist: every multiple
            # trailing*m with 1 <= deg(m) <= 2 qualifies
            assert len(pool) >= 5
            above = rng.sample(pool, 5)
            weights = separating_weights(trailing, above, ordering)
            assert all(isinstance(w, int) and w >= 1 for w in weights)

            def weigh(mon):
                return sum(weights[i - 1] * e for i, e in mon)

            for mon in above:
                assert weigh(trailing) < weigh(mon)
        elapsed = perf_counter() - start
        assert elapsed < 30.0, f"500 separations took {elapsed:.1f}s"

    announce(capsys, 6, body)


def test_criterion_7_seeded_experiment_reproduces(capsys):
    def body():
        elapsed, first, second = experiment_workload()
        assert len(first.records) == 1000
        for rec in first.records:
            if rec.verdict == "dependent":
                assert rec.certificate is not None
                assert verify_certificate(rec.certificate)
        assert first.canonical_json() == second.canonical_json()
        digest = hashlib.sha256(first.canonical_json().encode()).hexdigest()
        assert digest == "1f9050aa5ccdc476db653839a14fb9431333e60f2756d31b3abd99680cad55ab"
        report = first.to_dict(include_timing=False)
        assert report["unresolved_trials"] == first.unresolved_trials
        counts = first.summary
        assert sum(counts.values()) == 1000
        # unresolved trials are reported, never a failure: the question is open
        assert elapsed < 600.0, f"double experiment took {elapsed:.1f}s"

    announce(capsys, 7, body)


def test_seeded_rational_experiment_pinned():
    report = run_experiment(seed42_spec(QQ))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == "9452e1ac3e908821519caca57c462e3692d07254507f6149b993f6ffb31de1d3"


def test_seeded_gf_experiment_pinned():
    report = run_experiment(seed42_spec(GF(7)))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == "f7c5c9bed162703cb44778c82696e8c1a4013f3df8a8b722dfb21ddd89d5fad4"


def test_criterion_8_property_suites(capsys):
    def body():
        rng = random.Random(808)
        for ordering in ordering_families(5):
            assert check_ordering_axioms(ordering, rng, 10_000) == 10_000
        assert check_hnf_postconditions(rng, 500) == 500
        assert check_spoly_reduction(rng, 60) == 60
        assert check_certificate_roundtrip(rng, 40) == 40

    announce(capsys, 8, body)
