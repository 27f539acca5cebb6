"""Experiment harness: sampling, determinism, reporting."""

import csv
import io
import json
import random

import pytest

from trdeg import harness
from trdeg.errors import InternalInconsistencyError, TrdegError
from trdeg.harness import (
    ExperimentSpec,
    known_dim,
    run_experiment,
    sample_element,
    trial_rng,
)
from trdeg.orderings import Lex
from trdeg.parsing import parse_ring_text
from trdeg.polynomials import Polynomial
from trdeg.rings import QQ, ZZ, ModularRing, PolyRing, PrimeField


class TestKnownDim:
    @pytest.mark.parametrize(
        "text, dim",
        [
            ("ZZ", 1),
            ("QQ", 0),
            ("Zmod(12)", 0),
            ("GF(7)", 0),
            ("Poly(QQ; x,y)", 2),
            ("Poly(GF(7); t1,t2,t3)", 3),
            ("Poly(ZZ; x)", 2),
            ("Quot(Poly(QQ; x,y); [x*y])", 1),
            ("Quot(Poly(GF(5); a,b); [a^2, a*b])", 1),
            ("Quot(Poly(QQ; x,y); [1])", -1),
        ],
    )
    def test_catalog(self, text, dim):
        assert known_dim(parse_ring_text(text)) == dim

    def test_uncataloged_base_raises(self):
        with pytest.raises(TrdegError):
            known_dim(PolyRing(ModularRing(4), ("x",)))


class TestTrialRng:
    def test_deterministic_per_index(self):
        a = [trial_rng(7, i).randint(0, 10**9) for i in range(5)]
        b = [trial_rng(7, i).randint(0, 10**9) for i in range(5)]
        assert a == b

    def test_streams_differ_across_indices_and_seeds(self):
        draws = {trial_rng(s, i).randint(0, 10**12) for s in range(3) for i in range(3)}
        assert len(draws) == 9


class TestSampling:
    def test_polynomial_samples_respect_bounds(self):
        ambient = PolyRing(ZZ, ("x", "y"))
        rng = random.Random(99)
        for _ in range(100):
            p = sample_element(rng, ambient, 2, 5)
            assert isinstance(p, Polynomial) and p
            assert p.total_degree() <= 2
            assert all(-5 <= c <= 5 for c in p.terms.values())

    def test_scalar_samples_are_nonzero(self):
        rng = random.Random(3)
        for _ in range(50):
            a = sample_element(rng, ModularRing(12), 2, 20)
            assert a != 0 and 0 < a < 12
            b = sample_element(rng, ZZ, 2, 5)
            assert b != 0 and -5 <= b <= 5


class TestSpec:
    def test_roundtrip(self):
        spec = ExperimentSpec(seed=3, trials=7, arity=2, elem_degree_bound=1,
                              coeff_bound=4, search_degree_bound=5)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_sampling_law_is_recorded(self):
        data = ExperimentSpec().to_dict()
        assert "uniformly" in data["sampling_law"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(trials=0).validate()
        with pytest.raises(ValueError):
            ExperimentSpec(arity=0).validate()
        with pytest.raises(ValueError):
            ExperimentSpec(coeff_bound=0).validate()
        # unsupported coefficient/ambient pair surfaces during validation
        from trdeg.errors import UnsupportedConfigError

        with pytest.raises(UnsupportedConfigError):
            ExperimentSpec(coeff_ring=QQ, ambient=PolyRing(ZZ, ("x",))).validate()


class TestRunExperiment:
    def small_spec(self, **kw):
        base = dict(seed=5, trials=20, arity=3, elem_degree_bound=2,
                    coeff_bound=5, search_degree_bound=6)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_unverified_certificate_is_an_internal_error(self, monkeypatch):
        real_search = harness.search_submonic_relation

        def unverified(*args):
            outcome = real_search(*args)
            outcome.certificate.verified = False
            return outcome

        monkeypatch.setattr(harness, "search_submonic_relation", unverified)
        with pytest.raises(InternalInconsistencyError, match="unverified certificate"):
            run_experiment(self.small_spec(trials=1))

    def test_summary_counts_all_trials(self):
        report = run_experiment(self.small_spec())
        assert sum(report.summary.values()) == 20
        assert len(report.records) == 20

    def test_deterministic_across_runs(self):
        spec = self.small_spec()
        a = run_experiment(spec).canonical_json()
        b = run_experiment(spec).canonical_json()
        assert a == b

    def test_records_do_not_depend_on_trial_count(self):
        short = run_experiment(self.small_spec(trials=8))
        long = run_experiment(self.small_spec(trials=16))
        for a, b in zip(short.records, long.records):
            assert a.elements == b.elements
            assert a.verdict == b.verdict

    def test_three_univariate_polys_always_depend(self):
        # trdeg of ZZ[x] over ZZ is 2, so triples resolve at modest degree
        report = run_experiment(self.small_spec(trials=30))
        assert report.summary["dependent"] == 30
        for rec in report.records:
            assert rec.certificate is not None
            assert rec.cert_degree <= 6

    def test_unresolved_and_hint_agree(self):
        # lone non-unit integers admit no relation at any degree
        spec = self.small_spec(trials=12, arity=1, ambient=ZZ,
                               elem_degree_bound=0, search_degree_bound=4,
                               ordering=Lex())
        report = run_experiment(spec)
        data = report.to_dict()
        assert ("hint" in data) == bool(report.unresolved_trials)
        for rec in report.records:
            expected = "dependent" if rec.elements[0] in (-1, 1) else "unresolved"
            assert rec.verdict == expected

    def test_monomial_cap_marks_trials(self, monkeypatch):
        # comb(6 + 3, 3) = 84 candidate monomials exceed a cap of 10.
        monkeypatch.setenv("TRDEG_MONOMIAL_CAP", "10")
        report = run_experiment(ExperimentSpec(trials=3))
        assert report.summary == {"dependent": 0, "unresolved": 0, "resource_exceeded": 3}
        trials = json.loads(report.canonical_json())["trials"]
        assert [t["certificate"] for t in trials] == [None] * 3
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert [row[2:4] for row in rows[1:]] == [["resource_exceeded", ""]] * 3

    def test_csv_shape(self):
        report = run_experiment(self.small_spec(trials=6))
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["trial", "arity", "verdict", "cert_degree", "millis"]
        assert len(rows) == 7
        for i, row in enumerate(rows[1:]):
            assert row[0] == str(i) and row[1] == "3"
            float(row[4])  # timing parses

    def test_canonical_json_is_timing_free(self):
        report = run_experiment(self.small_spec(trials=4))
        assert "millis" not in report.canonical_json()
        assert "millis" in report.to_json()

    def test_prime_field_ambient(self):
        spec = self.small_spec(
            trials=10, arity=2, coeff_ring=PrimeField(5),
            ambient=PolyRing(PrimeField(5), ("t",)), search_degree_bound=5,
        )
        report = run_experiment(spec)
        assert report.summary["dependent"] == 10
