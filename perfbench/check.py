"""Independent correctness checks for benchmark jobs.

Certificates are re-evaluated with the small dict-based arithmetic below
(plain polynomials over ints or Fractions, reduced mod n where the ring is
Z/n), the least monomial is recomputed from exponent tuples, and verdicts and
trailing monomials are compared with the committed reference.  Nothing here
calls trdeg's own checking, evaluation or ordering code; program objects are
read only through their public attributes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional

# A plain polynomial maps exponent tuples (all of one length k) to nonzero
# int or Fraction coefficients; k = 0 gives the scalars.

ORDER_KEYS = {
    "lex": lambda e: e,
    "grevlex": lambda e: (sum(e), tuple(-x for x in reversed(e))),
}


def _reduce(p: dict, mod: Optional[int]) -> dict:
    if mod:
        return {e: c % mod for e, c in p.items() if c % mod}
    return {e: c for e, c in p.items() if c}


def p_mul(p: dict, q: dict, mod: Optional[int] = None) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _reduce(out, mod)


def evaluate(poly: dict, elements: list, k: int, mod: Optional[int] = None) -> dict:
    """sum_m coeff_m * prod_i elements[i]^m_i, coefficients given as plain
    polynomials in the k algebra variables."""
    one = {(0,) * k: 1}
    powers = [[one] for _ in elements]

    def power(i: int, e: int) -> dict:
        cache = powers[i]
        while len(cache) <= e:
            cache.append(p_mul(cache[-1], elements[i], mod))
        return cache[e]

    total: dict = {}
    for mon, coeff in poly.items():
        term = coeff
        for i, e in enumerate(mon):
            if e:
                term = p_mul(term, power(i, e), mod)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return _reduce(total, mod)


def check_relation(
    poly: dict, trailing: tuple, elements: list, k: int, order: str, maxdeg: int, mod: Optional[int] = None
) -> Optional[str]:
    """None when poly is a submonic relation with the stated trailing monomial."""
    if not poly:
        return "relation is the zero polynomial"
    if any(len(m) != len(elements) for m in poly):
        return "relation uses the wrong number of variables"
    if max(sum(m) for m in poly) > maxdeg:
        return f"relation degree exceeds the bound {maxdeg}"
    least = min(poly, key=ORDER_KEYS[order])
    if least != trailing:
        return f"stated trailing monomial {trailing} is not the least monomial {least}"
    if _reduce(poly[least], mod) != {(0,) * k: 1}:
        return "trailing coefficient is not 1"
    if evaluate(poly, elements, k, mod):
        return "relation does not evaluate to zero"
    return None


def cl_identity_holds(elems: tuple, exps: tuple, coeffs: tuple, mod: Optional[int] = None) -> bool:
    """prod a_i^m_i == sum_j r_j * a_j * prod_{i<=j} a_i^m_i, in ZZ or Z/mod."""
    if len(exps) != len(elems) or len(coeffs) != len(elems) or min(exps) < 0:
        return False
    running, total = 1, 0
    for a, m, r in zip(elems, exps, coeffs):
        running *= pow(a, m, mod) if mod else a**m
        total += r * a * running
    diff = running - total
    return diff % mod == 0 if mod else diff == 0


def coeff_bits(c) -> int:
    if isinstance(c, dict):
        return max((coeff_bits(v) for v in c.values()), default=0)
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


# -- reading program objects -------------------------------------------------


def plain_monomial(mon, n: int) -> tuple:
    out = [0] * n
    for i, e in mon:
        if not 1 <= i <= n:
            raise ValueError(f"monomial uses x{i} outside x1..x{n}")
        out[i - 1] = e
    return tuple(out)


def plain_value(value, k: int) -> dict:
    """A program value (scalar or Polynomial in k variables) as a plain polynomial."""
    if hasattr(value, "terms"):
        return {plain_monomial(m, k): c for m, c in value.terms.items()}
    return {(0,) * k: value} if value else {}


def plain_certificate(cert, k: int) -> tuple[dict, tuple]:
    """(relation with plain coefficients, stated trailing monomial)."""
    n = len(cert.elements)
    poly = {plain_monomial(m, n): plain_value(c, k) for m, c in cert.poly.terms.items()}
    return poly, plain_monomial(cert.trailing, n)


# -- per-job checks ----------------------------------------------------------


class Outcome:
    """What the checker found for one job."""

    __slots__ = ("reason", "bits", "trailing")

    def __init__(self, reason: Optional[str] = None, bits: int = 0, trailing=None):
        self.reason, self.bits, self.trailing = reason, bits, trailing


def _check_cert(cert, elements: list, k: int, order: str, maxdeg: int, mod, expected) -> Outcome:
    if cert.ordering.to_text() != order:
        return Outcome(f"certificate states ordering {cert.ordering.to_text()}, expected {order}")
    if [plain_value(a, k) for a in cert.elements] != [_reduce(e, mod) for e in elements]:
        return Outcome("certificate elements differ from the job's inputs")
    poly, trailing = plain_certificate(cert, k)
    bits = max(coeff_bits(c) for c in poly.values()) if poly else 0
    reason = check_relation(poly, trailing, elements, k, order, maxdeg, mod)
    if reason is None and list(trailing) != list(expected):
        reason = f"trailing monomial {list(trailing)} differs from the reference {expected}"
    return Outcome(reason, bits, trailing)


def _verdict(raw) -> str:
    name = type(raw).__name__
    if name == "Dependent":
        return "dependent"
    if name == "NoRelationUpTo":
        return "no_relation"
    if name == "ResourceCapExceeded":
        return "resource_exceeded"
    return f"unexpected {name}"


def _search(raw, ref: dict, elements: list, k: int, order: str, maxdeg: int, mod) -> Outcome:
    verdict = _verdict(raw)
    if verdict != ref["verdict"]:
        return Outcome(f"verdict {verdict}, reference {ref['verdict']}")
    if verdict != "dependent":
        return Outcome()
    return _check_cert(raw.certificate, elements, k, order, maxdeg, mod, ref["trailing"])


def _scalars(values) -> list:
    return [{(): v} if v else {} for v in values]


def _elements_of(plain: tuple) -> tuple[list, int, Optional[int]]:
    """(plain elements, algebra variable count, modulus) of a search job."""
    domain, elems = plain[2], plain[3]
    if domain == "QQ[x,y,z]":
        return [{mon: Fraction(c) for mon, c in terms} for terms in elems], 3, None
    if domain.startswith("Z/"):
        return _scalars(elems), 0, int(domain[2:])
    return _scalars(elems), 0, None


def check(job, raw, reference: dict) -> Outcome:
    """Check one job's result (or the exception it raised) against the
    reference and the independent arithmetic above."""
    # ResourceCapExceeded is a documented search verdict; any other exception fails.
    documented = job.kind == "search" and type(raw).__name__ == "ResourceCapExceeded"
    if isinstance(raw, BaseException) and not documented:
        return Outcome(f"raised {type(raw).__name__}: {raw}")
    try:
        return _CHECKS[job.kind](job, raw, reference)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return Outcome(f"malformed result: {type(exc).__name__}: {exc}")


def _check_experiment(job, raw, reference) -> Outcome:
    order, maxdeg, _, _ = job.plain
    ref = reference[job.key]
    (rec,) = raw.records
    if rec.verdict != ref["verdict"]:
        return Outcome(f"verdict {rec.verdict}, reference {ref['verdict']}")
    if rec.verdict != "dependent":
        return Outcome()
    elements = [{(d,): c for d, c in enumerate(coeffs) if c} for coeffs in ref["elements"]]
    return _check_cert(rec.certificate, elements, 1, order, maxdeg, None, ref["trailing"])


def _check_search(job, raw, reference) -> Outcome:
    order, maxdeg = job.plain[0], job.plain[1]
    ref = reference[job.key]
    if job.key.startswith("pair:"):
        ref = ref["lex"]
    elements, k, mod = _elements_of(job.plain)
    return _search(raw, ref, elements, k, order, maxdeg, mod)


def _check_pid(job, raw, reference) -> Outcome:
    ref = reference[job.key]["pid"]
    if raw.degree_bound != ref["degree"]:
        return Outcome(f"pid degree {raw.degree_bound}, reference {ref['degree']}")
    return _check_cert(raw, _scalars(job.plain), 0, "lex", raw.degree_bound, None, ref["trailing"])


def _check_cl(job, raw, reference) -> Outcome:
    a, b, _ = job.plain
    expected = reference[job.key]["cl"]["exponents"]
    exps = list(raw.exponents) if hasattr(raw, "exponents") else None
    if exps != expected:
        return Outcome(f"exponents {exps}, reference {expected}")
    if exps is None:
        return Outcome()
    if tuple(raw.elements) != (a, b) or not cl_identity_holds((a, b), raw.exponents, raw.coeffs):
        return Outcome("membership identity does not hold")
    return Outcome(None, max(coeff_bits(r) for r in raw.coeffs), tuple(exps))


def _check_cl_submonic(job, raw, reference) -> Outcome:
    expected = reference[job.key]["cl"]["exponents"]
    return _check_cert(raw, _scalars(job.plain), 0, "lex", raw.degree_bound, None, expected)


def _check_finite(job, raw, reference) -> Outcome:
    (n,) = job.plain
    if raw.holds != reference[job.key]["holds"] or raw.failing is not None:
        return Outcome(f"dim(Z/{n}) < 1 reported as {raw.holds}")
    if sorted(tup for tup, _ in raw.witnesses) != [(a,) for a in range(n)]:
        return Outcome("witnesses do not cover every element once")
    bits = 0
    for tup, cert in raw.witnesses:
        if tuple(cert.elements) != tup or not cl_identity_holds(tup, cert.exponents, cert.coeffs, n):
            return Outcome(f"witness for {tup} does not hold mod {n}")
        bits = max(bits, max(coeff_bits(r) for r in cert.coeffs))
    return Outcome(None, bits)


def _check_depmatrix(job, raw, reference) -> Outcome:
    order, maxdeg, pool = job.plain
    pairs = list(combinations(pool, 2))
    if len(raw.entries) != len(pairs):
        return Outcome(f"{len(raw.entries)} entries for {len(pairs)} pairs")
    bits = 0
    for entry, (a, b) in zip(raw.entries, pairs):
        if tuple(entry.elements) != (a, b):
            return Outcome(f"entry {entry.elements} out of order, expected {(a, b)}")
        ref = reference[f"dm:{a},{b}"]
        if entry.verdict != ref["verdict"]:
            return Outcome(f"({a}, {b}): verdict {entry.verdict}, reference {ref['verdict']}")
        if entry.verdict == "dependent":
            out = _check_cert(entry.certificate, _scalars((a, b)), 0, order, maxdeg, None, ref["trailing"])
            if out.reason:
                return Outcome(f"({a}, {b}): {out.reason}")
            bits = max(bits, out.bits)
    return Outcome(None, bits)


def _check_staircase(job, raw, reference) -> Outcome:
    expected = reference[job.key]["dimension"]
    if raw != expected:
        return Outcome(f"dimension {raw}, reference {expected}")
    return Outcome()


_CHECKS = {
    "experiment": _check_experiment,
    "search": _check_search,
    "pid": _check_pid,
    "cl": _check_cl,
    "cl_submonic": _check_cl_submonic,
    "finite_dim": _check_finite,
    "depmatrix": _check_depmatrix,
    "staircase": _check_staircase,
}
