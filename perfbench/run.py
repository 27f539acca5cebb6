"""trdeg benchmark: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see workloads.py and
BENCHMARK.json): experiment_zz, experiment_qq, ideal_qq, scalar_sweep.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics: setup_s (median over SETUP_RUNS fresh processes),
jobs_per_s, job_ms_p50, job_ms_p90, peak_rss_mb and cert_bits_max.  Job
times are scaled to a reference machine speed (calibrate.py), so that drift
in the host's speed cancels; the wall-clock throughput is printed above the
result line.  setup_s is wall-clock time.  With
--trace 1 it holds the per-layer metrics of tracing.PER_LAYER and
trace.overhead_ratio, and the spans are written to perfbench/out/.  Every job
is checked (check.py); `failed` counts the jobs that did not pass and
`correct` is true only when none failed.

Exits 2 without a result when the trdeg sources are missing or a worker
fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0


class WorkerError(Exception):
    pass


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    cmd += ["--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.perf_counter())
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker ran out of time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trdeg" / "__init__.py").is_file():
        print(f"error: no trdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(args, ["--setup-only"], deadline)["setup_s"])
        result = run_worker(args, [], deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(result["setup_s"])

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        print(
            f"wall clock: {result['wall_jobs_per_s']:.6g} jobs/s; "
            f"host speed {result['speed']:.3f} x reference"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, inputs fingerprint {result['fingerprint']}")
    print(f"jobs attempted {attempted} (latency samples), failed {failed}, failed_share {failed / attempted:.4f}")
    for reason in result["reasons"]:
        print(f"  failed: {reason}")
    for name, metric in metrics.items():
        shown = metric.get("absent") if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name} = {shown} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
