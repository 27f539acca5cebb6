"""Source-level guards on the trdeg package."""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import trdeg
from trdeg.dependence import AlgebraConfig, Dependent
from trdeg.monomials import Monomial
from trdeg.orderings import GrevLex
from trdeg.parsing import parse_elem, parse_ring_text
from trdeg.polynomials import Polynomial
from trdeg.rings import GF, QQ, ZZ, PolyRing, Ring, Zmod


def test_no_assert_in_package():
    # python -O strips assert statements, so an internal check written as one
    # silently disappears; checks raise InternalInconsistencyError instead.
    # A bare AssertionError would also escape the CLI's TrdegError handler.
    sources = sorted(Path(trdeg.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert found == []


def test_monomials_are_built_only_through_the_intern_table():
    # Monomials compare by identity, which holds only while every one comes
    # from the intern table of monomials.py, keyed by packed code.  Outside
    # monomials.py no module may allocate one with object.__new__, give the
    # class an equality of its own, subclass it, or assign a .code.
    found = []
    for path in sorted(Path(trdeg.__file__).parent.glob("*.py")):
        if path.name == "monomials.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) and t.attr == "code":
                            found.append(f"{path.name}:{node.lineno}: assigns .code")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and any(isinstance(a, ast.Name) and a.id == "Monomial" for a in node.args)
            ):
                found.append(f"{path.name}:{node.lineno}: __new__(Monomial)")
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute)
                and t.attr in ("__eq__", "__hash__", "__ne__")
                and isinstance(t.value, ast.Name)
                and t.value.id == "Monomial"
                for t in node.targets
            ):
                found.append(f"{path.name}:{node.lineno}: Monomial equality")
            elif isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "Monomial" for b in node.bases
            ):
                found.append(f"{path.name}:{node.lineno}: subclass of Monomial")
    assert found == []
    assert "__eq__" not in vars(Monomial) and "__hash__" not in vars(Monomial)
    assert Monomial.__eq__ is object.__eq__ and Monomial.__hash__ is object.__hash__


def test_private_functions_are_used():
    # A module-level private function that nothing else in the package names
    # is dead code: no caller, and not part of the public surface.
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(trdeg.__file__).parent.glob("*.py"))
    }
    defs = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.alias):
                used = node.name
            else:
                continue
            uses.setdefault(used, []).append((name, node.lineno))
    unused = [
        f"{module}:{node.lineno}: {node.name}"
        for module, node in defs
        if not any(
            where != module or not node.lineno <= line <= node.end_lineno
            for where, line in uses.get(node.name, [])
        )
    ]
    assert unused == []


def test_module_imports_are_used():
    # A module-level import that its module never names is left behind by a
    # deletion.  The package __init__ only re-exports, and __future__ imports
    # are directives.
    unused = []
    for path in sorted(Path(trdeg.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in named:
                        unused.append(f"{path.name}:{node.lineno}: {bound}")
    assert unused == []


def test_all_lists_exactly_the_imported_names():
    # Every name the package imports is public, and nothing else is.
    tree = ast.parse(Path(trdeg.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(trdeg.__all__) == sorted(imported)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_ring_class_prints_its_descriptor():
    # Each ring class prints the descriptor that parses back to it; a new
    # class needs a sample here and its own __repr__.
    samples = [
        ZZ,
        QQ,
        Zmod(12),
        GF(7),
        PolyRing(QQ, ("x", "y")),
        PolyRing(PolyRing(GF(5), ("t",)), ("x",)),
        parse_ring_text("Quot(Poly(QQ; x,y); [x*y - 1, x^2 + 1/2*y])"),
    ]
    assert set(_subclasses(Ring)) == {type(r) for r in samples}
    for ring in samples:
        assert parse_ring_text(repr(ring)) == ring


def test_readme_library_example_runs():
    # The README's python block runs as written, and its comments hold.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(block, namespace)
    cert, cl, sub = namespace["cert"], namespace["cl"], namespace["sub"]
    x1, x2 = Monomial.var(1), Monomial.var(2)
    assert cert.poly == Polynomial(ZZ, {x2 * x2: 1, x1: -27})
    assert cert.trailing == x2 * x2 and cert.verified
    assert (cl.exponents, cl.coeffs) == ((2,), (11,))
    assert sub.poly == Polynomial(Zmod(12), {x1 * x1 * x1: 1, x1 * x1: 1})
    assert sub.trailing == x1 * x1 and sub.verified


def test_benchmark_tracing_hooks_find_their_targets():
    # A benchmark hook whose target was renamed or deleted reports its layer
    # as absent, and a traced run then prints null for that layer's metrics.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    search = trdeg.dependence.search_submonic_relation
    tracer = tracing.Tracer()
    tracer.install(tracing.HOOKS)
    try:
        assert trdeg.dependence.search_submonic_relation is not search
        assert tracer.absent == {}
    finally:
        tracer.uninstall()
    assert trdeg.dependence.search_submonic_relation is search


def test_benchmark_hooks_see_the_membership_calls():
    # A hook whose target exists but that the code no longer calls (a route
    # rerouted around the hooked name) would read 0 in a traced run.  One
    # ideal-route search with a hit, one Z/n and one ZZ cl_search must reach
    # each membership layer.
    tracing = _perfbench_module("tracing")
    tracer = tracing.Tracer()
    tracer.install(tracing.HOOKS)
    try:
        ring = parse_ring_text("Poly(QQ; x,y,z)")
        elems = tuple(parse_elem(t, ring) for t in ("x*y", "x", "y"))
        verdict = trdeg.dependence.search_submonic_relation(AlgebraConfig(ring, ring), elems, GrevLex(), 2)
        assert isinstance(verdict, Dependent)
        start = len(tracer.names)
        trdeg.coquand_lombardi.cl_search(Zmod(12), (2,), 5)
        zmod = Counter(tracer.names[start:])
        trdeg.coquand_lombardi.cl_search(ZZ, (12, 18), 4)
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names)
    for layer in ("groebner.membership_cofactors", "groebner.normal_form", "linalg.solve_in_span"):
        assert spans[layer] > 0, layer
    assert tracer.hits["groebner.membership_cofactors"] > 0
    assert tracer.calls["coquand_lombardi.membership_attempts"] > 0
    assert zmod["linalg.lattice_add"] > 0


def _perfbench_module(name):
    """perfbench/<name>.py, loaded by path: perfbench is not a package.  It is
    in sys.modules while it runs, where its dataclasses look themselves up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_targets_resolve_in_trdeg():
    # The benchmark calls trdeg through workloads.ENTRIES and times its layers
    # through tracing.HOOKS; every target must name a callable of the package.
    tracing, workloads = _perfbench_module("tracing"), _perfbench_module("workloads")
    targets = [(module, target) for _, _, module, target, _ in tracing.HOOKS]
    targets += [(f"trdeg.{module}", func) for module, func in workloads.ENTRIES.values()]
    assert tracing.HOOKS and workloads.ENTRIES
    missing = []
    for module, target in targets:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        for attr in target.split("."):
            owner = getattr(owner, attr, None)
        if module.split(".")[0] != "trdeg" or not callable(owner):
            missing.append(f"{module}.{target}")
    assert missing == []
