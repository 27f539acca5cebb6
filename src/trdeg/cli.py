"""Command-line front end.

Exit codes: 0 for a positive answer (relation found, membership holds,
certificate verifies, report written); 1 when the subcommand demanded a
positive answer and got a negative one (no relation within the bound, not a
member, verification failure); 2 for usage, parse, and configuration errors,
including resource-cap bailouts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .coquand_lombardi import (
    CLCertificate,
    NotFoundUpTo,
    cl_check,
    cl_search,
    cl_to_submonic,
)
from .dependence import (
    AlgebraConfig,
    Dependent,
    SubmonicCertificate,
    check_certificate,
    dependence_matrix,
    search_submonic_relation,
)
from .errors import ParseError, TrdegError
from .groebner import reduce_with_cofactors
from .harness import ExperimentSpec, known_dim, run_experiment
from .monomials import Monomial
from .orderings import ordering_from_text, separating_weights
from .parsing import parse_elem, parse_ring_text
from .rings import PolyRing, QuotRing


def _split_elems(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"empty element in list: {text!r}")
    return parts


def _parse_monomial(text: str) -> Monomial:
    """Exponent-vector syntax: "0,2" means x2^2."""
    return Monomial(enumerate((int(p.strip()) for p in text.split(",")), 1))


def _print_submonic(cert: SubmonicCertificate, as_json: bool) -> None:
    if as_json:
        print(cert.to_json())
        return
    r = cert.config.coeff_ring
    names = tuple(f"x{i + 1}" for i in range(len(cert.elements)))
    shown = PolyRing(r, names).format_elem(cert.poly)
    print(f"dependent: f = {shown}")
    print(f"trailing monomial: {cert.trailing!r} under {cert.ordering.to_text()}")
    print(f"degree bound: {cert.degree_bound}")


def _print_cl(cert: CLCertificate, as_json: bool) -> None:
    if as_json:
        print(cert.to_json())
        return
    ring = cert.ring
    exps = ",".join(str(m) for m in cert.exponents)
    coeffs = ", ".join(ring.format_elem(r) for r in cert.coeffs)
    print(f"membership holds with exponents ({exps}) and coefficients ({coeffs})")


def _cmd_dep(args) -> int:
    coeff_ring = parse_ring_text(args.coeffs)
    algebra = parse_ring_text(args.ring)
    config = AlgebraConfig(coeff_ring, algebra)
    elems = [parse_elem(t, algebra) for t in _split_elems(args.elems)]
    ordering = ordering_from_text(args.order)
    verdict = search_submonic_relation(config, elems, ordering, args.maxdeg)
    if isinstance(verdict, Dependent):
        _print_submonic(verdict.certificate, args.json)
        return 0
    print(f"no relation up to degree {verdict.degree_bound}")
    return 1


def _cmd_cl(args) -> int:
    ring = parse_ring_text(args.ring)
    elems = [parse_elem(t, ring) for t in _split_elems(args.elems)]
    outcome = cl_search(ring, elems, args.maxexp)
    if isinstance(outcome, NotFoundUpTo):
        print(f"no exponent vector up to {outcome.exponent_bound} worked")
        return 1
    _print_cl(outcome, args.json)
    if args.submonic:
        _print_submonic(cl_to_submonic(outcome), args.json)
    return 0


def _cmd_dim(args) -> int:
    ring = parse_ring_text(args.ring)
    print(known_dim(ring))
    return 0


def _cmd_member(args) -> int:
    ring = parse_ring_text(args.ring)
    if not isinstance(ring, (PolyRing, QuotRing)) or not ring.poly_ring.base.is_field:
        raise TrdegError("membership needs a polynomial ring over a field")
    ordering = ordering_from_text(args.order)
    gens = [parse_elem(t, ring) for t in _split_elems(args.gens)]
    target = parse_elem(args.elem, ring)
    remainder, cof = reduce_with_cofactors(target, gens, ring, ordering)
    if cof is None:
        print(f"not a member; normal form {ring.format_elem(remainder)}")
        return 1
    shown = [ring.format_elem(c) for c in cof]
    if args.json:
        print(json.dumps({"member": True, "cofactors": shown}, indent=2))
    else:
        print("member")
        for g, c in zip(_split_elems(args.gens), shown):
            print(f"  ({c}) * ({g})")
    return 0


def _cmd_weights(args) -> int:
    ordering = ordering_from_text(args.order)
    trailing = _parse_monomial(args.trailing)
    above = {_parse_monomial(t) for t in args.above.split(";") if t.strip()}
    weights = separating_weights(trailing, above, ordering)
    print(",".join(str(w) for w in weights))
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        seed=args.seed,
        trials=args.trials,
        arity=args.arity,
        elem_degree_bound=args.elem_deg,
        coeff_bound=args.coeff_bound,
        search_degree_bound=args.maxdeg,
        ordering=ordering_from_text(args.order),
        coeff_ring=parse_ring_text(args.coeffs),
        ambient=parse_ring_text(args.ring),
    )
    report = run_experiment(spec)
    if args.csv:
        out = report.to_csv()
    elif args.canonical:
        out = report.canonical_json()
    else:
        out = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
        counts = report.summary
        print(
            f"wrote {args.out}: {counts['dependent']} dependent, "
            f"{counts['unresolved']} unresolved, "
            f"{counts['resource_exceeded']} resource-exceeded"
        )
    else:
        print(out, end="" if args.csv else "\n")
    return 0


def _cmd_verify(args) -> int:
    with open(args.cert) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        shape = type(data).__name__
        raise TrdegError(f"malformed certificate: expected a JSON object, not {shape}")
    if "poly" in data:
        kind, check = SubmonicCertificate, check_certificate
    elif "exponents" in data:
        kind, check = CLCertificate, cl_check
    else:
        raise TrdegError("unrecognized certificate shape: expected 'poly' or 'exponents'")
    try:
        cert = kind.from_dict(data)
    except KeyError as exc:
        raise TrdegError(f"malformed certificate: missing key {exc}") from exc
    except (ParseError, TypeError) as exc:
        raise TrdegError(f"malformed certificate: {exc}") from exc
    # a submonic certificate was already checked by from_dict
    reason = None if kind is SubmonicCertificate and cert.verified else check(cert)
    if reason is None:
        print("verified")
        return 0
    print(f"verification failed: {reason}")
    return 1


def _cmd_depmatrix(args) -> int:
    coeff_ring = parse_ring_text(args.coeffs)
    algebra = parse_ring_text(args.ring)
    config = AlgebraConfig(coeff_ring, algebra)
    pool = [parse_elem(t, algebra) for t in _split_elems(args.elems)]
    ordering = ordering_from_text(args.order)
    report = dependence_matrix(config, pool, args.size, ordering, args.maxdeg)
    if args.json:
        print(json.dumps(report.to_dict(algebra), indent=2))
    else:
        counts = report.counts
        print(
            f"{len(report.entries)} tuples of size {args.size}: "
            f"{counts['dependent']} dependent, {counts['no_relation']} without a "
            f"relation up to degree {args.maxdeg}, "
            f"{counts['resource_exceeded']} resource-exceeded"
        )
        for tup in report.independent_candidates:
            shown = ", ".join(algebra.format_elem(v) for v in tup)
            print(f"  independent candidate: ({shown})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trdeg",
        description="bounded-degree algebraic dependence, dependence certificates, "
        "and the boundary-ideal dimension criterion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dep = sub.add_parser("dep", help="search for a submonic relation")
    dep.add_argument("--coeffs", default="ZZ", help="coefficient ring R")
    dep.add_argument("--ring", default="ZZ", help="ambient algebra A")
    dep.add_argument("--elems", required=True, help="comma-separated elements of A")
    dep.add_argument("--order", default="grevlex", help="monomial ordering")
    dep.add_argument("--maxdeg", type=int, default=6, help="total degree bound")
    dep.add_argument("--json", action="store_true", help="emit certificate JSON")
    dep.set_defaults(func=_cmd_dep)

    cl = sub.add_parser("cl", help="boundary-ideal membership search")
    cl.add_argument("--ring", default="ZZ")
    cl.add_argument("--elems", required=True)
    cl.add_argument("--maxexp", type=int, default=8, help="per-exponent box bound")
    cl.add_argument("--submonic", action="store_true", help="also print the converted relation")
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(func=_cmd_cl)

    dim = sub.add_parser("dim", help="Krull dimension of a cataloged ring")
    dim.add_argument("--ring", required=True)
    dim.set_defaults(func=_cmd_dim)

    member = sub.add_parser("member", help="ideal membership with cofactors")
    member.add_argument("--ring", required=True, help="polynomial ring over a field")
    member.add_argument("--gens", required=True, help="comma-separated generators")
    member.add_argument("--elem", required=True, help="element to test")
    member.add_argument("--order", default="grevlex")
    member.add_argument("--json", action="store_true")
    member.set_defaults(func=_cmd_member)

    weights = sub.add_parser("weights", help="separating weight vector")
    weights.add_argument("--order", required=True)
    weights.add_argument("--trailing", required=True, help='exponent vector, e.g. "0,2"')
    weights.add_argument(
        "--above", required=True, help='semicolon-separated exponent vectors, e.g. "1,0;0,3"'
    )
    weights.set_defaults(func=_cmd_weights)

    exp = sub.add_parser("experiment", help="seeded randomized dependence sweep")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--trials", type=int, default=1000)
    exp.add_argument("--arity", type=int, default=3)
    exp.add_argument("--elem-deg", type=int, default=2, help="degree bound for sampled elements")
    exp.add_argument("--coeff-bound", type=int, default=5)
    exp.add_argument("--maxdeg", type=int, default=6, help="search degree bound")
    exp.add_argument("--order", default="grevlex")
    exp.add_argument("--coeffs", default="ZZ")
    exp.add_argument("--ring", default="Poly(ZZ; x)")
    exp.add_argument("--csv", action="store_true", help="CSV summary instead of JSON")
    exp.add_argument("--canonical", action="store_true", help="timing-free reproducible JSON")
    exp.add_argument("--out", help="write the report to a file")
    exp.set_defaults(func=_cmd_experiment)

    verify = sub.add_parser("verify", help="re-check a certificate file")
    verify.add_argument("--cert", required=True, help="path to certificate JSON")
    verify.set_defaults(func=_cmd_verify)

    mat = sub.add_parser("depmatrix", help="verdicts for all tuples from a pool")
    mat.add_argument("--coeffs", default="ZZ")
    mat.add_argument("--ring", default="ZZ")
    mat.add_argument("--elems", required=True, help="comma-separated pool")
    mat.add_argument("--size", type=int, default=2, help="tuple arity")
    mat.add_argument("--order", default="grevlex")
    mat.add_argument("--maxdeg", type=int, default=6)
    mat.add_argument("--json", action="store_true")
    mat.set_defaults(func=_cmd_depmatrix)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrdegError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
