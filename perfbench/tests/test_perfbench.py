"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent


@pytest.fixture(scope="module")
def mods():
    return wl.load_trdeg(ROOT)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_fingerprint_follows_the_seed(mods, workload):
    reference = wl.load_reference(workload)
    first = wl.fingerprint(wl.build(workload, 7, mods, reference))
    again = wl.fingerprint(wl.build(workload, 7, mods, reference))
    other = wl.fingerprint(wl.build(workload, 8, mods, reference))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_pass_holds_the_same_jobs(mods, workload):
    jobs = wl.build(workload, 3, mods, wl.load_reference(workload))
    size = wl.pass_length(workload)
    assert len(jobs) % size == 0
    passes = [jobs[i : i + size] for i in range(0, len(jobs), size)]
    if size > 1:
        first = sorted(job.key for job in passes[0])
        assert all(sorted(job.key for job in p) == first for p in passes)
        assert [job.key for job in passes[0]] != [job.key for job in passes[1]]


def test_incomplete_beta_known_values():
    assert worker.betainc(1.0, 1.0, 0.3) == pytest.approx(0.3)
    assert worker.betainc(3.0, 1.0, 0.5) == pytest.approx(0.125)  # x^a
    assert worker.betainc(1.0, 4.0, 0.5) == pytest.approx(1 - 0.5**4)
    assert worker.betainc(50.5, 50.5, 0.5) == pytest.approx(0.5)
    a, b, x = 900.9, 100.1, 0.88
    assert worker.betainc(a, b, x) == pytest.approx(1 - worker.betainc(b, a, 1 - x))


def test_percentile_is_a_smooth_estimate():
    assert worker.percentile_ms([0.002] * 150, 0.9) == pytest.approx(2.0)
    values = [i / 1000 for i in range(1, 102)]  # 1..101 ms
    assert worker.percentile_ms(values, 0.5) == pytest.approx(51.0)
    # a gap at the median: the estimate lies between the two sides, and
    # swapping which side holds one more job moves it a little, not across
    low = [0.010] * 50 + [0.020] * 51
    high = [0.010] * 51 + [0.020] * 50
    p_low, p_high = worker.percentile_ms(low, 0.5), worker.percentile_ms(high, 0.5)
    assert 10.0 < p_high < p_low < 20.0
    assert p_low - p_high < 2.0


def test_calibration_block_is_deterministic():
    assert calibrate.block() == calibrate.block()
    assert calibrate.burst(1) > 0


def _certificate(mods):
    dep = mods["dependence"]
    zz = mods["parsing"].parse_ring_text("ZZ")
    lex = mods["orderings"].ordering_from_text("lex")
    verdict = dep.search_submonic_relation(dep.AlgebraConfig(zz, zz), (12, 18), lex, 3)
    poly, trailing = check.plain_certificate(verdict.certificate, 0)
    return poly, trailing, [{(): 12}, {(): 18}]


def test_checker_accepts_a_true_certificate(mods):
    poly, trailing, elements = _certificate(mods)
    assert check.check_relation(poly, trailing, elements, 0, "lex", 3) is None


def test_checker_rejects_a_flipped_coefficient(mods):
    poly, trailing, elements = _certificate(mods)
    mon = next(m for m in poly if m != trailing)
    poly[mon] = {(): -poly[mon][()]}
    assert check.check_relation(poly, trailing, elements, 0, "lex", 3) == (
        "relation does not evaluate to zero"
    )


def test_checker_rejects_a_wrong_trailing_monomial(mods):
    poly, trailing, elements = _certificate(mods)
    wrong = next(m for m in poly if m != trailing)
    reason = check.check_relation(poly, wrong, elements, 0, "lex", 3)
    assert reason is not None and "not the least monomial" in reason


def test_grevlex_key_matches_the_definition():
    # equal degree: the last differing exponent decides, smaller is greater
    key = check.ORDER_KEYS["grevlex"]
    assert key((1, 0, 1)) < key((2, 0, 0))  # x*z < x^2
    assert key((0, 1, 1)) < key((1, 0, 1))  # y*z < x*z
    assert key((2, 0, 0)) < key((0, 0, 3))  # degree first


def test_evaluate_over_qq_polynomials():
    # x2*x3 - x1^2 vanishes at x*y, x^2, y^2 in QQ[x,y,z]
    elements = [{(1, 1, 0): Fraction(1)}, {(2, 0, 0): 1}, {(0, 2, 0): 1}]
    poly = {(2, 0, 0): {(0, 0, 0): -1}, (0, 1, 1): {(0, 0, 0): 1}}
    assert check.check_relation(poly, (0, 1, 1), elements, 3, "grevlex", 3) is None


def test_cl_identity_mod_n():
    # 2^2 = 11 * 2^3 in Z/12
    assert check.cl_identity_holds((2,), (2,), (11,), 12)
    assert not check.cl_identity_holds((2,), (2,), (10,), 12)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["job", 0.0, 10.0, -1, 0],
        ["search", 1.0, 9.0, 0, 0],
        ["add", 2.0, 3.0, 1, 0],
        ["add", 4.0, 6.0, 1, 0],
        ["hnf", 6.5, 8.5, 1, 0],
        ["hnf", 7.0, 8.0, 4, 0],  # nested in a span of the same name
    ]
    totals = tracing.span_totals(spans)
    assert totals["job"]["self"] == pytest.approx(2.0)
    assert totals["search"]["self"] == pytest.approx(3.0)
    assert totals["add"] == {"calls": 2, "total": pytest.approx(3.0), "self": pytest.approx(3.0)}
    assert totals["hnf"]["calls"] == 2
    assert totals["hnf"]["total"] == pytest.approx(2.0)
    assert totals["hnf"]["self"] == pytest.approx(1.0 + 1.0)


def test_missing_hook_is_reported_absent_and_patches_are_undone(mods):
    linalg = sys.modules["trdeg.linalg"]
    dependence = sys.modules["trdeg.dependence"]
    original = linalg.solve_in_span
    hooks = [
        ("linalg.solve_in_span", tracing.SPAN, "trdeg.linalg", "solve_in_span", None),
        ("linalg.hnf", tracing.SPAN, "trdeg.linalg", "no_such_function", None),
        ("monomials.lcm", tracing.COUNT, "trdeg.monomials", "Monomial.no_such_method", None),
    ]
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        assert linalg.solve_in_span is not original
        assert dependence.solve_in_span is linalg.solve_in_span
        assert set(tracer.absent) == {"linalg.hnf", "monomials.lcm"}
    finally:
        tracer.uninstall()
    assert linalg.solve_in_span is original and dependence.solve_in_span is original
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["linalg.hnf.ms_per_job"]["value"] is None
    assert "no_such_function" in metrics["linalg.hnf.ms_per_job"]["absent"]
    assert metrics["linalg.solve_in_span.calls_per_job"]["value"] == 0
