"""Regenerate perfbench/reference/<workload>.json from the program in src/.

The reference holds, for every job any seed can draw, the verdict and the
trailing monomial (coefficients are not unique and are not stored), plus the
experiment elements that the checker evaluates certificates at.  Every
certificate met while generating is put through the independent checks, so a
reference never records a result that fails them.

Run from the repository root, one workload at a time if preferred:

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import check
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]


def _trailing(result) -> list:
    cert = result.certificate
    return list(check.plain_monomial(cert.trailing, len(cert.elements)))


def _search_entry(result) -> dict:
    if type(result).__name__ == "Dependent":
        return {"verdict": "dependent", "trailing": _trailing(result)}
    return {"verdict": "no_relation"}


def _dense(poly) -> list:
    """Coefficients of a univariate element by ascending degree."""
    coeffs = [0] * (poly.total_degree() + 1)
    for (d,), c in check.plain_value(poly, 1).items():
        if int(c) != c:
            raise SystemExit(f"non-integral sampled coefficient {c}")
        coeffs[d] = int(c)
    return coeffs


def _checked(job, result, entries: dict) -> None:
    out = check.check(job, result, entries)
    if out.reason:
        raise SystemExit(f"{job.kind} {job.key}: {out.reason}")


def _experiment(workload: str, mods: dict) -> dict:
    entries = {}
    for job in wl.pool_jobs(workload, mods):
        report = wl.call(mods, job, None)
        (rec,) = report.records
        entry = {"elements": [_dense(e) for e in rec.elements], "verdict": rec.verdict}
        if rec.certificate is not None:
            entry["trailing"] = list(check.plain_monomial(rec.certificate.trailing, 3))
        entries[job.key] = entry
        _checked(job, report, entries)
    return entries


def _ideal(mods: dict) -> dict:
    entries = {}
    for job in wl.pool_jobs("ideal_qq", mods):
        result = wl.call(mods, job, None)
        if job.kind == "staircase":
            known = wl.STAIRCASE[job.key.split(":")[1]][2]
            if result != known:
                raise SystemExit(f"{job.key}: dimension {result}, literature {known}")
            entries[job.key] = {"dimension": result}
        else:
            entries[job.key] = _search_entry(result)
        _checked(job, result, entries)
    return entries


def _scalar(mods: dict) -> dict:
    entries = {}
    for job in wl.pool_jobs("scalar_sweep", mods):
        result = wl.call(mods, job, None)
        if job.kind == "finite_dim":
            entries[job.key] = {"holds": result.holds}
        elif job.kind == "search":
            entries[job.key] = _search_entry(result)
        else:  # the depmatrix over the whole range covers every pool pair
            for entry in result.entries:
                a, b = entry.elements
                row = {"verdict": entry.verdict}
                if entry.certificate is not None:
                    row["trailing"] = list(check.plain_monomial(entry.certificate.trailing, 2))
                entries[f"dm:{a},{b}"] = row
        _checked(job, result, entries)
    for a in wl.SCALAR_PAIR_VALUES:
        for b in wl.SCALAR_PAIR_VALUES:
            pid = mods["dependence"].pid_pair_certificate(a, b)
            key = f"pair:{a},{b}"
            trailing = list(check.plain_monomial(pid.trailing, 2))
            entries[key] = {"pid": {"trailing": trailing, "degree": pid.degree_bound}}
            previous = None
            for job in wl.pair_jobs(a, b, pid.degree_bound, mods):
                result = pid if job.kind == "pid" else wl.call(mods, job, previous)
                if job.kind == "search":
                    entries[key]["lex"] = _search_entry(result)
                elif job.kind == "cl":
                    exps = list(result.exponents) if hasattr(result, "exponents") else None
                    entries[key]["cl"] = {"exponents": exps}
                _checked(job, result, entries)
                previous = result
            if entries[key]["lex"].get("trailing") != entries[key]["pid"]["trailing"]:
                raise SystemExit(f"{key}: pid and lex trailing monomials disagree")
    return entries


def main(argv: list[str]) -> int:
    mods = wl.load_trdeg(ROOT)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or wl.WORKLOADS:
        start = time.perf_counter()
        if workload in wl.EXPERIMENT_POOL:
            entries = _experiment(workload, mods)
        elif workload == "ideal_qq":
            entries = _ideal(mods)
        else:
            entries = _scalar(mods)
        meta = {"workload": workload, "jobs": len(entries)}
        with open(wl.REFERENCE_DIR / f"{workload}.json", "w") as fh:
            json.dump({"meta": meta, "entries": entries}, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(entries)} entries in {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
