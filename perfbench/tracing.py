"""Spans and counters around trdeg's layers, installed by patching names.

A traced run wraps the functions and methods in HOOKS.  Span hooks record
(name, start, end, parent, job) in memory; count hooks only bump a counter,
because they sit on methods called millions of times.  A function is patched
under every trdeg module name that refers to it (for example
`trdeg.dependence.solve_in_span` as well as `trdeg.linalg.solve_in_span`),
and a method on its class and on every subclass that overrides it.  Every
patch is undone by `uninstall`.

A hook whose target no longer exists marks its layer absent with the reason;
the run goes on and the metrics of that layer are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

SPAN, COUNT, TIMED_COUNT = "span", "count", "timed_count"


def _rows(tracer, args, result):
    tracer.observe_max("linalg.hnf.rows", len(args[0]))


def _basis_size(tracer, args, result):
    tracer.observe_max("groebner.buchberger.basis_size", len(result.polys))


def _membership_hit(tracer, args, result):
    tracer.hits["groebner.membership_cofactors"] += result is not None


def _cl_hit(tracer, args, result):
    tracer.hits["coquand_lombardi.cl_search"] += hasattr(result, "exponents")


# (layer, kind, module, "function" or "Class.method", observer)
HOOKS = [
    ("harness.run_experiment", SPAN, "trdeg.harness", "run_experiment", None),
    ("dependence.search", SPAN, "trdeg.dependence", "search_submonic_relation", None),
    ("dependence.check_certificate", SPAN, "trdeg.dependence", "check_certificate", None),
    ("linalg.solve_in_span", SPAN, "trdeg.linalg", "solve_in_span", None),
    ("linalg.hnf", SPAN, "trdeg.linalg", "hnf", _rows),
    ("linalg.lattice_add", SPAN, "trdeg.linalg", "IntLattice.add", None),
    ("linalg.echelon_add", SPAN, "trdeg.linalg", "FieldEchelon.add", None),
    ("groebner.buchberger", SPAN, "trdeg.groebner", "buchberger", _basis_size),
    ("groebner.membership_cofactors", SPAN, "trdeg.groebner", "membership_cofactors", _membership_hit),
    ("groebner.normal_form", SPAN, "trdeg.groebner", "normal_form", None),
    ("groebner.normal_form", SPAN, "trdeg.groebner", "normal_form_with_quotients", None),
    ("coquand_lombardi.cl_search", SPAN, "trdeg.coquand_lombardi", "cl_search", _cl_hit),
    ("coquand_lombardi.cl_verify", SPAN, "trdeg.coquand_lombardi", "cl_verify", None),
    ("orderings.sort", SPAN, "trdeg.orderings", "MonomialOrdering.sort", None),
    ("monomials.constructions", COUNT, "trdeg.monomials", "Monomial.__init__", None),
    ("monomials.lcm", COUNT, "trdeg.monomials", "Monomial.lcm", None),
    ("orderings.compare", COUNT, "trdeg.orderings", "MonomialOrdering.compare", None),
    ("polynomials.mul", TIMED_COUNT, "trdeg.polynomials", "Polynomial.__mul__", None),
    ("coquand_lombardi.membership_attempts", COUNT, "trdeg.coquand_lombardi", "_membership", None),
]

JOB = "job"  # root span of every job, recorded by the benchmark loop


class Tracer:
    def __init__(self):
        # Spans in columns; arrays are not tracked by the garbage collector,
        # so a long trace does not slow the collections of the code it watches.
        self.names: list[str] = []
        self.starts, self.ends = array("d"), array("d")
        self.parents, self.jobs = array("q"), array("q")
        self._open: list[int] = []
        self.job = -1
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()  # timed counters, outermost calls only
        self.hits: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.absent: dict[str, str] = {}
        self._undo: list[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._open.pop()

    def spans(self) -> list[tuple]:
        """(name, start, end, parent index, job) of every span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.jobs))

    def observe_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    # -- patching -----------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        for layer, kind, module, target, observe in hooks:
            try:
                self._install(layer, kind, module, target, observe)
            except (ImportError, AttributeError) as exc:
                self.absent.setdefault(layer, f"hook target {module}.{target} is missing ({exc})")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _install(self, layer, kind, module, target, observe) -> None:
        mod = importlib.import_module(module)
        if "." in target:
            cls_name, method = target.split(".")
            cls = getattr(mod, cls_name)
            owners = [c for c in _with_subclasses(cls) if method in vars(c)]
            if not owners:
                raise AttributeError(f"no class defines {target}")
            for owner in owners:
                self._patch(owner, method, self._wrap(layer, kind, vars(owner)[method], observe))
            return
        original = getattr(mod, target)
        wrapper = self._wrap(layer, kind, original, observe)
        for name, other in list(sys.modules.items()):
            if name.split(".")[0] == "trdeg" and other is not None:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr) if not isinstance(owner, type) else vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _wrap(self, layer: str, kind: str, fn, observe: Optional[Callable]):
        tracer = self
        if kind == COUNT:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == TIMED_COUNT:
            depth = [0]

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                tracer.calls[layer] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.seconds[layer] += perf_counter() - start
                    depth[0] = 0

            return timed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return spanned


def _with_subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


# -- analysis -----------------------------------------------------------------


def span_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    Totals count only the outermost span of a name, so recursion is not
    counted twice.  Self time is a span's duration minus the part of it that
    its child spans cover.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        stats = out[name]
        stats["calls"] += 1
        duration = end - start
        if not _inside_same_name(spans, parent, name):
            stats["total"] += duration
        stats["self"] += duration - _covered(start, end, children.get(index, ()))
    return dict(out)


def _inside_same_name(spans: list, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _covered(start: float, end: float, kids) -> float:
    covered, reach = 0.0, start
    for _, s, e, _, _ in sorted(kids, key=lambda k: k[1]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


# (metric, unit, layer, quantity)
PER_LAYER = [
    ("linalg.hnf.ms_per_job", "ms/job", "linalg.hnf", "ms"),
    ("linalg.hnf.rows_max", "rows", "linalg.hnf", "max:linalg.hnf.rows"),
    ("linalg.solve_in_span.calls_per_job", "calls/job", "linalg.solve_in_span", "calls"),
    ("linalg.solve_in_span.ms_per_job", "ms/job", "linalg.solve_in_span", "ms"),
    ("linalg.lattice_add.calls_per_job", "calls/job", "linalg.lattice_add", "calls"),
    ("linalg.lattice_add.ms_per_job", "ms/job", "linalg.lattice_add", "ms"),
    ("linalg.echelon_add.calls_per_job", "calls/job", "linalg.echelon_add", "calls"),
    ("linalg.echelon_add.ms_per_job", "ms/job", "linalg.echelon_add", "ms"),
    ("dependence.check_certificate.calls_per_job", "calls/job", "dependence.check_certificate", "calls"),
    ("dependence.check_certificate.ms_per_job", "ms/job", "dependence.check_certificate", "ms"),
    ("dependence.search.self_ms_per_job", "ms/job", "dependence.search", "self_ms"),
    ("polynomials.mul.calls_per_job", "calls/job", "polynomials.mul", "count"),
    ("polynomials.mul.ms_per_job", "ms/job", "polynomials.mul", "count_ms"),
    ("harness.run_experiment.self_ms_per_job", "ms/job", "harness.run_experiment", "self_ms"),
    ("groebner.buchberger.calls_per_job", "calls/job", "groebner.buchberger", "calls"),
    ("groebner.buchberger.ms_per_job", "ms/job", "groebner.buchberger", "ms"),
    ("groebner.buchberger.basis_size_max", "polys", "groebner.buchberger", "max:groebner.buchberger.basis_size"),
    ("groebner.membership_cofactors.hit_ratio", "ratio", "groebner.membership_cofactors", "hit_ratio"),
    ("groebner.normal_form.ms_per_job", "ms/job", "groebner.normal_form", "ms"),
    ("monomials.lcm.calls_per_job", "calls/job", "monomials.lcm", "count"),
    ("monomials.constructions_per_job", "calls/job", "monomials.constructions", "count"),
    ("orderings.compare.calls_per_job", "calls/job", "orderings.compare", "count"),
    ("orderings.sort.ms_per_job", "ms/job", "orderings.sort", "ms"),
    ("coquand_lombardi.cl_search.ms_per_job", "ms/job", "coquand_lombardi.cl_search", "ms"),
    ("coquand_lombardi.attempts_per_hit", "ratio", "coquand_lombardi.membership_attempts", "attempts_per_hit"),
    ("coquand_lombardi.cl_verify.ms_per_job", "ms/job", "coquand_lombardi.cl_verify", "ms"),
]


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, dict]:
    """Every PER_LAYER metric, normalized per traced job.

    A ratio whose layer saw no calls reads 0.  A metric whose hook target is
    missing is reported with value None and the reason.
    """
    totals = span_totals(tracer.spans())
    empty = {"calls": 0, "total": 0.0, "self": 0.0}
    out = {}
    for metric, unit, layer, quantity in PER_LAYER:
        absent = tracer.absent.get(layer)
        if quantity == "attempts_per_hit":
            absent = absent or tracer.absent.get("coquand_lombardi.cl_search")
        if absent:
            out[metric] = {"value": None, "unit": unit, "absent": absent}
            continue
        stats = totals.get(layer, empty)
        if quantity == "ms":
            value = 1000.0 * stats["total"] / jobs
        elif quantity == "self_ms":
            value = 1000.0 * stats["self"] / jobs
        elif quantity == "calls":
            value = stats["calls"] / jobs
        elif quantity == "count":
            value = tracer.calls[layer] / jobs
        elif quantity == "count_ms":
            value = 1000.0 * tracer.seconds[layer] / jobs
        elif quantity.startswith("max:"):
            value = tracer.maxima.get(quantity[4:], 0)
        elif quantity == "hit_ratio":
            value = tracer.hits[layer] / stats["calls"] if stats["calls"] else 0.0
        else:  # attempts_per_hit
            hits = tracer.hits["coquand_lombardi.cl_search"]
            value = tracer.calls[layer] / hits if hits else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
