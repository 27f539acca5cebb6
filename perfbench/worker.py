"""Run one workload in this process and print its result as one JSON line.

Started by run.py, once per measured run and a few times more with
--setup-only to sample set-up time:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --t0 T

--t0 is the launcher's perf_counter() just before it started this process
(the clock is system-wide), so set-up time covers interpreter start,
`import trdeg`, ring parsing, input generation and loading the reference.

The loop is closed and single-client: one job at a time, the next one
started when the previous returns.  It runs for --seconds and at least
MIN_JOBS jobs, so p90 has ten samples beyond it, and then to the end of the
pass it is in (workloads.pass_length).  Untraced, job times are scaled to a
reference machine speed by the calibration bursts of calibrate.py, which run
off the clock.  With --trace 1 the loop runs with the hooks of tracing.py
installed for half of --seconds, and the same jobs run again untraced to
measure the overhead; those times are as measured.
"""

from __future__ import annotations

import argparse
from array import array
import gzip
import json
import math
import resource
import sys
import time
from pathlib import Path

import calibrate
import check
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_JOBS = 100
# A traced run spends this share of --seconds traced, in TRACE_ROUNDS rounds
# each followed by an untraced replay, so it takes about as long as an
# untraced run.
TRACED_SHARE = 0.5
TRACE_ROUNDS = 5
# Seconds of jobs between two calibration bursts of an untraced run.
CALIBRATE_EVERY_S = 0.05


class Tally:
    """Checker verdicts of a run, kept as counts so memory stays flat."""

    def __init__(self):
        self.attempted = self.failed = self.bits = 0
        self.reasons: list[str] = []
        self._pid_trailing: dict = {}

    def add(self, job, raw, reference) -> None:
        out = check.check(job, raw, reference)
        if out.reason is None and job.key.startswith("pair:"):
            if job.kind == "pid":
                self._pid_trailing[job.key] = out.trailing
            elif job.kind == "search" and out.trailing != self._pid_trailing.get(job.key):
                out.reason = "lex and pid trailing monomials disagree"
        if out.reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"job {self.attempted} {job.kind} {job.key}: {out.reason}")
        self.attempted += 1
        self.bits = max(self.bits, out.bits)


def run_loop(
    mods, jobs, reference, tally, seconds=0.0, count=0, min_jobs=0, start=0, tracer=None,
    calibrate_every=0.0, pass_len=1,
):
    """Run jobs from index `start` back to back for `seconds` and at least
    `min_jobs` jobs, or for exactly `count` jobs, never stopping before a job
    that takes the previous one's result nor, when timed, off a boundary of
    `pass_len` jobs.

    Each result is checked into `tally` as soon as its job returns and then
    dropped, so memory does not grow with the number of jobs; the clock stops
    while the checker runs.  With `calibrate_every` > 0 a calibration burst
    (calibrate.py) runs before the first job and after every `calibrate_every`
    seconds of jobs, off the clock, and each job's times are scaled to the
    reference speed by the mean of the two bursts around it.  Returns (jobs
    run, latencies in s, loop seconds, loop seconds at the reference speed);
    without calibration the last equals the third and latencies are as
    measured.
    """
    latencies = array("d")
    pending = array("d")  # latencies since the last burst
    previous = None
    elapsed = scaled = segment = 0.0
    before = calibrate.burst() if calibrate_every else 0.0

    def rescale():
        nonlocal before, scaled, segment
        after = calibrate.burst()
        factor = calibrate.REFERENCE_BLOCK_S / ((before + after) / 2)
        latencies.extend(x * factor for x in pending)
        scaled += segment * factor
        del pending[:]
        before, segment = after, 0.0

    i = start
    while (
        i - start < count if count else (i - start < min_jobs or elapsed < seconds or (i - start) % pass_len)
    ) or jobs[i % len(jobs)].chained:
        began = time.perf_counter()
        job = jobs[i % len(jobs)]
        if tracer is not None:
            tracer.job = i
            span = tracer.open(tracing.JOB)
        t = time.perf_counter()
        try:
            previous = wl.call(mods, job, previous)
        except Exception as exc:  # a failed job; the checker reports it
            previous = exc
        pending.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.close(span)
        took = time.perf_counter() - began
        elapsed += took
        segment += took
        tally.add(job, previous, reference)
        i += 1
        if calibrate_every and segment >= calibrate_every:
            rescale()
    if calibrate_every:
        rescale()
    else:
        latencies, scaled = pending, elapsed
    return i - start, latencies, elapsed, scaled


def percentile_ms(latencies, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, in milliseconds.

    A weighted mean of the order statistics with Beta(q(n+1), (1-q)(n+1))
    weights.  Job costs leave gaps in the latency distribution, and a single
    order statistic jumps across a gap when two neighbouring jobs swap places;
    this estimate moves smoothly.  Order statistics more than twelve standard
    deviations of the quantile away carry no weight and are skipped.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    sd = math.sqrt(q * (1 - q) / (n + 2))
    lo = max(0, math.floor((q - 12 * sd) * n))
    hi = min(n, math.ceil((q + 12 * sd) * n))
    total = 0.0
    cdf = betainc(a, b, lo / n)
    for i in range(lo, hi):
        upper = betainc(a, b, (i + 1) / n)
        total += (upper - cdf) * ordered[i]
        cdf = upper
    return 1000.0 * total


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (Numerical Recipes, 6.4)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    tiny = 1e-300

    def nonzero(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 100000):
        for aa in (
            m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m)),
        ):
            d = 1.0 / nonzero(1.0 + aa * d)
            c = nonzero(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def untraced(mods, jobs, reference, seconds: float, pass_len: int) -> dict:
    tally = Tally()
    _, latencies, wall, scaled = run_loop(
        mods, jobs, reference, tally, seconds=seconds, min_jobs=MIN_JOBS,
        calibrate_every=CALIBRATE_EVERY_S, pass_len=pass_len,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "wall_jobs_per_s": tally.attempted / wall,
        "speed": scaled / wall,
        "metrics": {
            "jobs_per_s": {"value": tally.attempted / scaled, "unit": "1/s"},
            "job_ms_p50": {"value": percentile_ms(latencies, 0.5), "unit": "ms"},
            "job_ms_p90": {"value": percentile_ms(latencies, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "cert_bits_max": {"value": tally.bits, "unit": "bits"},
        },
    }


def traced(mods, jobs, reference, seconds: float, spans_path: Path) -> dict:
    """Alternate traced rounds with untraced replays of the same jobs, so that
    drift in machine speed falls on both sides of the overhead ratio."""
    tracer = tracing.Tracer()
    tally, replay = Tally(), Tally()
    traced_wall = untraced_wall = 0.0
    position = 0
    for _ in range(TRACE_ROUNDS):
        tracer.install()
        try:
            ran, _, wall, _ = run_loop(
                mods, jobs, reference, tally, seconds=seconds * TRACED_SHARE / TRACE_ROUNDS,
                start=position, tracer=tracer,
            )
        finally:
            tracer.uninstall()
        traced_wall += wall
        untraced_wall += run_loop(mods, jobs, reference, replay, count=ran, start=position)[2]
        position += ran
    metrics = tracing.layer_metrics(tracer, tally.attempted)
    metrics["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall, "unit": "ratio"}
    spans_path.parent.mkdir(exist_ok=True)
    with gzip.open(spans_path, "wt") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "job"],
                "jobs": [f"{job.kind} {job.key}" for job in jobs],  # job i is jobs[i % len(jobs)]
                "spans": tracer.spans(),
            },
            fh,
        )
    return {
        "attempted": tally.attempted + replay.attempted,
        "failed": tally.failed + replay.failed,
        "reasons": (tally.reasons + replay.reasons)[:5],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mods = wl.load_trdeg(ROOT)
    reference = wl.load_reference(args.workload)
    jobs = wl.build(args.workload, args.seed, mods, reference)
    setup_s = time.perf_counter() - args.t0
    out = {"setup_s": setup_s, "fingerprint": wl.fingerprint(jobs)}
    if not args.setup_only:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
            out.update(traced(mods, jobs, reference, args.seconds, spans_path))
        else:
            out.update(untraced(mods, jobs, reference, args.seconds, wl.pass_length(args.workload)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
