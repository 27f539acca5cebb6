"""Randomized reproduction harness.

Samples element tuples from an ambient algebra, runs the bounded submonic
search on each, and emits reports whose canonical form is byte-identical
across runs with the same seed.  Per-trial generators are derived by hashing
(seed, index), so trial k is reproducible in isolation and the trial order
never shifts results.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .dependence import (
    AlgebraConfig,
    Dependent,
    NoRelationUpTo,
    SubmonicCertificate,
    search_submonic_relation,
)
from .errors import (
    InternalInconsistencyError,
    ResourceCapExceeded,
    TrdegError,
    UnsupportedConfigError,
)
from .groebner import staircase_dimension_from_gb
from .monomials import monomials_up_to_degree
from .orderings import GrevLex, MonomialOrdering, ordering_from_text
from .parsing import parse_ring_text
from .polynomials import Polynomial
from .rings import (
    IntegerRing,
    ModularRing,
    PolyRing,
    QuotRing,
    RationalRing,
    Ring,
    ZZ,
)

SAMPLING_LAW = (
    "coefficients drawn uniformly from the integer box [-coeff_bound, coeff_bound]"
    " on every monomial of degree <= elem_degree_bound, in ascending monomial"
    " order; an all-zero draw is redrawn"
)


def known_dim(ring: Ring) -> int:
    """Krull dimension for the cataloged ring shapes.

    ZZ -> 1, fields and Z/n -> 0, k[x1..xk] -> k, ZZ[x1..xk] -> k + 1,
    quotients -> staircase dimension of the relation ideal (zero ring -> -1).
    """
    if isinstance(ring, IntegerRing):
        return 1
    if isinstance(ring, RationalRing):
        return 0
    if isinstance(ring, ModularRing):
        # covers PrimeField too: finite rings are zero-dimensional
        return 0
    if isinstance(ring, PolyRing):
        if ring.base.is_field:
            return ring.nvars
        if isinstance(ring.base, IntegerRing):
            return ring.nvars + 1
        raise TrdegError(f"no dimension catalog entry for {ring!r}")
    if isinstance(ring, QuotRing):
        return staircase_dimension_from_gb(ring.groebner_basis, ring.poly_ring.nvars)
    raise TrdegError(f"no dimension catalog entry for {ring!r}")


def trial_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"trdeg:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass
class ExperimentSpec:
    seed: int = 0
    trials: int = 1000
    arity: int = 3
    elem_degree_bound: int = 2
    coeff_bound: int = 5
    search_degree_bound: int = 6
    ordering: MonomialOrdering = field(default_factory=GrevLex)
    coeff_ring: Ring = field(default_factory=lambda: ZZ)
    ambient: Ring = field(default_factory=lambda: PolyRing(ZZ, ("x",)))

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.elem_degree_bound < 0:
            raise ValueError("element degree bound must be >= 0")
        if self.coeff_bound < 1:
            raise ValueError("coefficient bound must be >= 1")
        if self.search_degree_bound < 0:
            raise ValueError("search degree bound must be >= 0")
        AlgebraConfig(self.coeff_ring, self.ambient)
        _sampled_ring(self.ambient)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "arity": self.arity,
            "elem_degree_bound": self.elem_degree_bound,
            "coeff_bound": self.coeff_bound,
            "search_degree_bound": self.search_degree_bound,
            "ordering": self.ordering.to_text(),
            "coeff_ring": str(self.coeff_ring),
            "ambient": str(self.ambient),
            "sampling_law": SAMPLING_LAW,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        out = cls(
            seed=int(data["seed"]),
            trials=int(data["trials"]),
            arity=int(data["arity"]),
            elem_degree_bound=int(data["elem_degree_bound"]),
            coeff_bound=int(data["coeff_bound"]),
            search_degree_bound=int(data["search_degree_bound"]),
            ordering=ordering_from_text(data["ordering"]),
            coeff_ring=parse_ring_text(data["coeff_ring"]),
            ambient=parse_ring_text(data["ambient"]),
        )
        out.validate()
        return out


def _sampled_ring(ambient: Ring) -> Ring:
    """The ring sample_element draws scalars from: a PolyRing's coefficient
    ring, else the ambient itself; only ZZ, QQ and Z/n have a rule."""
    drawn = ambient.base if isinstance(ambient, PolyRing) else ambient
    if not isinstance(drawn, (IntegerRing, RationalRing, ModularRing)):
        raise UnsupportedConfigError(f"no sampling rule for coefficients in {drawn}")
    return drawn


def _sample_scalar(rng: random.Random, base: Ring, bound: int):
    c = rng.randint(-bound, bound)
    return c % base.modulus if isinstance(base, ModularRing) else c


def sample_element(rng: random.Random, ambient: Ring, degree_bound: int, coeff_bound: int):
    """One nonzero element; polynomial ambients get dense random coefficients."""
    base = _sampled_ring(ambient)
    if isinstance(ambient, PolyRing):
        mons = monomials_up_to_degree(ambient.nvars, degree_bound)
        while True:
            coeffs = [_sample_scalar(rng, base, coeff_bound) for _ in mons]
            p = Polynomial(base, dict(zip(mons, coeffs)))
            if p:
                return p
    while True:
        a = _sample_scalar(rng, base, coeff_bound)
        if a:
            return a


@dataclass
class TrialRecord:
    index: int
    elements: tuple
    verdict: str  # dependent | unresolved | resource_exceeded
    certificate: Optional[SubmonicCertificate]
    millis: float

    @property
    def cert_degree(self) -> Optional[int]:
        if self.certificate is None:
            return None
        return self.certificate.poly.total_degree()


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    records: list[TrialRecord]

    @property
    def summary(self) -> dict:
        out = {"dependent": 0, "unresolved": 0, "resource_exceeded": 0}
        for rec in self.records:
            out[rec.verdict] += 1
        return out

    @property
    def unresolved_trials(self) -> list[int]:
        return [rec.index for rec in self.records if rec.verdict == "unresolved"]

    def to_dict(self, include_timing: bool = True) -> dict:
        trials = []
        for rec in self.records:
            ambient = self.spec.ambient
            row = {
                "trial": rec.index,
                "elements": [ambient.format_elem(a) for a in rec.elements],
                "verdict": rec.verdict,
                "certificate": rec.certificate.to_dict() if rec.certificate else None,
            }
            if include_timing:
                row["millis"] = rec.millis
            trials.append(row)
        out = {
            "spec": self.spec.to_dict(),
            "summary": self.summary,
            "unresolved_trials": self.unresolved_trials,
            "trials": trials,
        }
        if self.unresolved_trials:
            out["hint"] = (
                "unresolved trials mean no relation exists up to degree "
                f"{self.spec.search_degree_bound}; re-run with a larger "
                "search_degree_bound to extend the search"
            )
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(include_timing=True), indent=2)

    def canonical_json(self) -> str:
        """Timing-free serialization; byte-identical for equal seeds."""
        return json.dumps(
            self.to_dict(include_timing=False), indent=2, sort_keys=True
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trial", "arity", "verdict", "cert_degree", "millis"])
        for rec in self.records:
            degree = rec.cert_degree
            writer.writerow(
                [
                    rec.index,
                    self.spec.arity,
                    rec.verdict,
                    "" if degree is None else degree,
                    f"{rec.millis:.3f}",
                ]
            )
        return buf.getvalue()


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    spec.validate()
    config = AlgebraConfig(spec.coeff_ring, spec.ambient)
    records = []
    for index in range(spec.trials):
        rng = trial_rng(spec.seed, index)
        elements = tuple(
            sample_element(rng, spec.ambient, spec.elem_degree_bound, spec.coeff_bound)
            for _ in range(spec.arity)
        )
        start = time.perf_counter()
        cert = None
        try:
            outcome = search_submonic_relation(
                config, elements, spec.ordering, spec.search_degree_bound
            )
        except ResourceCapExceeded:
            verdict = "resource_exceeded"
        else:
            if isinstance(outcome, Dependent):
                verdict = "dependent"
                cert = outcome.certificate
                if not cert.verified:
                    raise InternalInconsistencyError(
                        f"trial {index} returned an unverified certificate"
                    )
            elif isinstance(outcome, NoRelationUpTo):
                verdict = "unresolved"
            else:
                raise InternalInconsistencyError(f"trial {index}: unknown outcome {outcome!r}")
        millis = (time.perf_counter() - start) * 1000.0
        records.append(TrialRecord(index, elements, verdict, cert, millis))
    report = ExperimentReport(spec, records)
    counts = report.summary
    if sum(counts.values()) != spec.trials:
        raise InternalInconsistencyError(
            f"verdict counts {counts} do not add up to {spec.trials} trials"
        )
    return report
