"""Seeded job lists for the four benchmark workloads.

A job is one call into a public trdeg entry function.  Each job carries the
program's inputs (`args`, built with trdeg's own parsers) and a plain
description of the same inputs (`plain`) that the independent checker and the
input fingerprint use.  Jobs whose inputs come from a finite pool draw from it
with a seeded generator, so every job of every seed has a committed reference
entry (see make_reference.py).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

WORKLOADS = ("experiment_zz", "experiment_qq", "ideal_qq", "scalar_sweep")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Every workload draws its inputs from a fixed pool in a seeded order.  The
# experiment and ideal job lists are made of passes: each pass holds the same
# jobs, in an order of its own drawn from the seed, and a timed run ends on a
# pass boundary (pass_length).  Job costs spread widely, so a run that ended
# anywhere would mix cheap and dear jobs differently from seed to seed; whole
# passes keep latency, throughput and the largest certificate steady.  A pass
# takes about ten seconds.
EXPERIMENT_POOL = {"experiment_zz": 120, "experiment_qq": 60}
PASSES = 4  # passes in a job list; a run goes round the list if it needs more
EXPERIMENT_BASE = {"experiment_zz": "ZZ", "experiment_qq": "QQ"}

IDEAL_RING = "Poly(QQ; x,y,z)"
IDEAL_MAXDEG = 3
# Monomials of degree 1..2 in x,y,z, as exponent vectors.
IDEAL_MONOMIALS = sorted(
    ((a, b, c) for a in range(3) for b in range(3) for c in range(3) if 1 <= a + b + c <= 2),
    key=lambda e: (sum(e), e),
)
# A pass is IDEAL_BLOCKS blocks, each of the fixed case, the two staircase
# jobs, IDEAL_TRIPLES_PER_BLOCK triples and IDEAL_BINOMIALS_PER_BLOCK pairs,
# so that it uses every triple and every pair once.
IDEAL_BLOCKS = 5
IDEAL_TRIPLES_PER_BLOCK = 3
IDEAL_BINOMIALS_PER_BLOCK = 4
TRIPLE_POOL_SIZE = IDEAL_BLOCKS * IDEAL_TRIPLES_PER_BLOCK
BINOMIAL_POOL_SIZE = IDEAL_BLOCKS * IDEAL_BINOMIALS_PER_BLOCK
STAIRCASE = {
    # name: (ring, generators, Krull dimension from the literature)
    "cyclic4": (
        "Poly(QQ; a,b,c,d)",
        ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1"),
        1,
    ),
    "katsura3": (
        "Poly(QQ; w,x,y,z)",
        (
            "w+2*x+2*y+2*z-1",
            "w^2+2*x^2+2*y^2+2*z^2-w",
            "2*w*x+2*x*y+2*y*z-x",
            "x^2+2*w*y+2*x*z-y",
        ),
        0,
    ),
}

SCALAR_MODULI = range(2, 31)
SCALAR_PAIR_VALUES = [v for v in range(-30, 31) if v]
SCALAR_PAIRS_PER_MODULUS = 4
SCALAR_CL_BOUND = 8
DEPMATRIX_RANGE = range(2, 31)
DEPMATRIX_POOL = 9
DEPMATRIX_MAXDEG = 4
SCALAR_CYCLES = 20


@dataclass(frozen=True)
class Job:
    key: str  # reference entry
    kind: str  # entry function, see ENTRIES
    args: tuple  # program inputs; empty for chained jobs
    plain: tuple  # checker's view of the inputs
    chained: bool = False  # the input is the previous job's result


# kind -> (trdeg module, function).  Looked up on every call, so a traced run
# sees the patched names.
ENTRIES = {
    "experiment": ("harness", "run_experiment"),
    "search": ("dependence", "search_submonic_relation"),
    "pid": ("dependence", "pid_pair_certificate"),
    "depmatrix": ("dependence", "dependence_matrix"),
    "cl": ("coquand_lombardi", "cl_search"),
    "cl_submonic": ("coquand_lombardi", "cl_to_submonic"),
    "finite_dim": ("coquand_lombardi", "finite_ring_dim_lt"),
    "staircase": ("groebner", "staircase_dimension"),
}


def load_trdeg(root: Path):
    """Import trdeg from the checkout's src/ directory."""
    import importlib
    import sys

    src = root / "src"
    if not (src / "trdeg" / "__init__.py").is_file():
        raise FileNotFoundError(f"no trdeg sources under {src}")
    sys.path.insert(0, str(src))
    importlib.import_module("trdeg")
    return {
        name: importlib.import_module(f"trdeg.{name}")
        for name in ("harness", "dependence", "coquand_lombardi", "groebner", "parsing", "orderings")
    }


def call(mods: dict, job: Job, previous):
    module, func = ENTRIES[job.kind]
    fn = getattr(mods[module], func)
    if job.chained:
        return fn(previous)
    return fn(*job.args)


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["entries"]


def fingerprint(jobs: list[Job]) -> str:
    text = json.dumps([[j.key, j.kind, list(j.plain), j.chained] for j in jobs], default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(workload: str, seed: int, mods: dict, reference: dict) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload in EXPERIMENT_POOL:
        return _experiment_jobs(workload, rng, mods)
    if workload == "ideal_qq":
        return _ideal_jobs(rng, mods)
    if workload == "scalar_sweep":
        return _scalar_jobs(rng, mods, reference)
    raise ValueError(f"unknown workload {workload!r}")


def pass_length(workload: str) -> int:
    """Jobs in one pass of the workload's job list; 1 where a run may end
    after any job."""
    if workload in EXPERIMENT_POOL:
        return EXPERIMENT_POOL[workload]
    if workload == "ideal_qq":
        return IDEAL_BLOCKS * (1 + len(STAIRCASE) + IDEAL_TRIPLES_PER_BLOCK + IDEAL_BINOMIALS_PER_BLOCK)
    return 1


def pool_jobs(workload: str, mods: dict) -> list[Job]:
    """Every job a seed can draw, once each, except the integer-pair chains,
    which make_reference.py runs itself because the lex search takes the
    degree the pid route found."""
    if workload in EXPERIMENT_POOL:
        return [
            _experiment_job(workload, s, mods) for s in range(EXPERIMENT_POOL[workload])
        ]
    if workload == "ideal_qq":
        ring = _parse_ring(mods, IDEAL_RING)
        jobs = [_ideal_search("fixed", ((1, 1, 0), (0, 1, 1), (1, 0, 1)), ring, mods)]
        jobs += [_ideal_search(_triple_key(t), t, ring, mods) for t in triple_pool()]
        jobs += [
            _ideal_search(f"binomial:{i}", pair, ring, mods)
            for i, pair in enumerate(binomial_pool())
        ]
        jobs += [_staircase_job(name, mods) for name in STAIRCASE]
        return jobs
    if workload == "scalar_sweep":
        jobs = []
        for n in SCALAR_MODULI:
            jobs += [_zmod_job(n, a, mods) for a in range(n)]
            jobs.append(_finite_job(n, mods))
        jobs.append(_depmatrix_job(list(DEPMATRIX_RANGE), mods))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def _parse_ring(mods: dict, text: str):
    return mods["parsing"].parse_ring_text(text)


def _experiment_job(workload: str, trial_seed: int, mods: dict) -> Job:
    harness = mods["harness"]
    base = EXPERIMENT_BASE[workload]
    spec = harness.ExperimentSpec(
        seed=trial_seed,
        trials=1,
        arity=3,
        elem_degree_bound=2,
        coeff_bound=5,
        search_degree_bound=6,
        ordering=mods["orderings"].ordering_from_text("grevlex"),
        coeff_ring=_parse_ring(mods, base),
        ambient=_parse_ring(mods, f"Poly({base}; x)"),
    )
    return Job(str(trial_seed), "experiment", (spec,), ("grevlex", 6, base, trial_seed))


def _experiment_jobs(workload: str, rng: random.Random, mods: dict) -> list[Job]:
    pool = [_experiment_job(workload, s, mods) for s in range(EXPERIMENT_POOL[workload])]
    return [job for _ in range(PASSES) for job in rng.sample(pool, len(pool))]


def monomial_text(exps: tuple) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", exps) if e]
    return "*".join(parts) or "1"


def triple_pool() -> list[tuple]:
    """Triples of distinct monomials of degree 1..2 in x,y,z."""
    triples = list(combinations(IDEAL_MONOMIALS, 3))
    return random.Random("ideal_qq:triple-pool").sample(triples, TRIPLE_POOL_SIZE)


def binomial_pool() -> list[tuple]:
    """Pairs of binomials m1 + c*m2 in x,y,z, as (exponents, coefficient) terms.

    Pairs that use a single variable between them are redrawn: they are
    dependent for the trivial reason that trdeg(QQ[z]) = 1, and this job class
    is meant to end in NoRelationUpTo.
    """
    rng = random.Random("ideal_qq:binomial-pool")
    pool = []
    while len(pool) < BINOMIAL_POOL_SIZE:
        pair = []
        for _ in range(2):
            m1, m2 = rng.sample(IDEAL_MONOMIALS, 2)
            pair.append(((m1, 1), (m2, rng.choice((-3, -2, -1, 1, 2, 3)))))
        variables = {i for terms in pair for mon, _ in terms for i, e in enumerate(mon) if e}
        if len(variables) > 1:
            pool.append(tuple(pair))
    return pool


def _as_terms(elem) -> tuple:
    """A bare monomial or a tuple of (monomial, coefficient) terms."""
    if isinstance(elem[0], int):
        return ((elem, 1),)
    return elem


def _elem_text(terms: tuple) -> str:
    out = ""
    for mon, c in terms:
        sign = "-" if c < 0 else "+"
        body = monomial_text(mon) if abs(c) == 1 else f"{abs(c)}*{monomial_text(mon)}"
        out += f" {sign} {body}" if out else ("-" if c < 0 else "") + body
    return out


def _triple_key(triple: tuple) -> str:
    return "monomials:" + "|".join(",".join(map(str, m)) for m in triple)


def _ideal_search(key: str, elems: tuple, ring, mods: dict) -> Job:
    terms = tuple(_as_terms(e) for e in elems)
    parsed = tuple(mods["parsing"].parse_elem(_elem_text(t), ring) for t in terms)
    config = mods["dependence"].AlgebraConfig(ring, ring)
    ordering = mods["orderings"].ordering_from_text("grevlex")
    return Job(
        key,
        "search",
        (config, parsed, ordering, IDEAL_MAXDEG),
        ("grevlex", IDEAL_MAXDEG, "QQ[x,y,z]", terms),
    )


def _staircase_job(name: str, mods: dict) -> Job:
    ring_text, gens, _ = STAIRCASE[name]
    ring = _parse_ring(mods, ring_text)
    polys = [mods["parsing"].parse_elem(g, ring) for g in gens]
    field = ring.base
    ordering = mods["orderings"].ordering_from_text("grevlex")
    return Job(
        f"staircase:{name}", "staircase", (polys, ring.nvars, ordering, field), (ring_text, gens)
    )


def _ideal_jobs(rng: random.Random, mods: dict) -> list[Job]:
    ring = _parse_ring(mods, IDEAL_RING)
    triples = [_ideal_search(_triple_key(t), t, ring, mods) for t in triple_pool()]
    pairs = [
        _ideal_search(f"binomial:{i}", pair, ring, mods) for i, pair in enumerate(binomial_pool())
    ]
    fixed = _ideal_search("fixed", ((1, 1, 0), (0, 1, 1), (1, 0, 1)), ring, mods)
    stairs = [_staircase_job(name, mods) for name in STAIRCASE]
    jobs = []
    for _ in range(PASSES):
        rng.shuffle(triples)
        rng.shuffle(pairs)
        for b in range(IDEAL_BLOCKS):
            block = [
                fixed,
                *stairs,
                *triples[b * IDEAL_TRIPLES_PER_BLOCK : (b + 1) * IDEAL_TRIPLES_PER_BLOCK],
                *pairs[b * IDEAL_BINOMIALS_PER_BLOCK : (b + 1) * IDEAL_BINOMIALS_PER_BLOCK],
            ]
            rng.shuffle(block)
            jobs += block
    return jobs


def _zmod_job(n: int, a: int, mods: dict) -> Job:
    ring = _parse_ring(mods, f"Zmod({n})")
    config = mods["dependence"].AlgebraConfig(ring, ring)
    ordering = mods["orderings"].ordering_from_text("lex")
    return Job(f"zmod:{n}:{a}", "search", (config, (a,), ordering, n + 1), ("lex", n + 1, f"Z/{n}", (a,)))


def _finite_job(n: int, mods: dict) -> Job:
    return Job(f"finite:{n}", "finite_dim", (_parse_ring(mods, f"Zmod({n})"), 1), (n,))


def pair_jobs(a: int, b: int, pid_degree: int, mods: dict) -> list[Job]:
    """pid route, lex search at the pid degree, boundary-ideal search, conversion."""
    zz = _parse_ring(mods, "ZZ")
    config = mods["dependence"].AlgebraConfig(zz, zz)
    lex = mods["orderings"].ordering_from_text("lex")
    key = f"pair:{a},{b}"
    return [
        Job(key, "pid", (a, b), (a, b)),
        Job(key, "search", (config, (a, b), lex, pid_degree), ("lex", pid_degree, "ZZ", (a, b))),
        Job(key, "cl", (zz, (a, b), SCALAR_CL_BOUND), (a, b, SCALAR_CL_BOUND)),
        Job(key, "cl_submonic", (), (a, b), chained=True),
    ]


def _depmatrix_job(pool: list[int], mods: dict) -> Job:
    zz = _parse_ring(mods, "ZZ")
    config = mods["dependence"].AlgebraConfig(zz, zz)
    lex = mods["orderings"].ordering_from_text("lex")
    return Job(
        "depmatrix",
        "depmatrix",
        (config, pool, 2, lex, DEPMATRIX_MAXDEG),
        ("lex", DEPMATRIX_MAXDEG, tuple(pool)),
    )


def _scalar_jobs(rng: random.Random, mods: dict, reference: dict) -> list[Job]:
    zmod = {n: [_zmod_job(n, a, mods) for a in range(n)] for n in SCALAR_MODULI}
    finite = {n: _finite_job(n, mods) for n in SCALAR_MODULI}
    jobs = []
    for _ in range(SCALAR_CYCLES):
        for n in rng.sample(list(SCALAR_MODULI), len(SCALAR_MODULI)):
            jobs += rng.sample(zmod[n], n)
            jobs.append(finite[n])
            for _ in range(SCALAR_PAIRS_PER_MODULUS):
                a, b = rng.choice(SCALAR_PAIR_VALUES), rng.choice(SCALAR_PAIR_VALUES)
                degree = reference[f"pair:{a},{b}"]["pid"]["degree"]
                jobs += pair_jobs(a, b, degree, mods)
        pool = sorted(rng.sample(list(DEPMATRIX_RANGE), DEPMATRIX_POOL))
        jobs.append(_depmatrix_job(pool, mods))
    return jobs
