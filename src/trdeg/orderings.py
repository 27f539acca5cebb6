"""Global monomial orderings and weight separation.

Every ordering here satisfies the global-ordering axioms: it is a total order
on monomials, 1 is least, and s < t implies s*u < t*u.  Each ordering is given
by one sort key: s < t exactly when key(s) < key(t) as Python tuples, and
comparing, sorting, min and max all derive from that key.

Lex, GrLex and GrevLex take an optional priority permutation of a prefix
x1..xk.  Variables beyond the declared prefix rank after all declared ones,
among themselves by ascending index, so each ordering extends to arbitrarily
many variables: under Lex and GrLex a monomial that reaches a later variable
is greater on a tie of the earlier ones, and under GrevLex, at equal degree,
the monomial whose last variable is later is smaller.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import neg
from typing import Iterable, Optional, Sequence

from .errors import InternalInconsistencyError, ParseError
from .linalg import FieldEchelon
from .monomials import Monomial
from .polynomials import Polynomial, trailing_term
from .rings import QQ


class MonomialOrdering:
    """A global monomial ordering, defined by its sort key.

    Subclasses define key(m), a tuple with s < t exactly when
    key(s) < key(t); comparison, sorting, min and max follow from it.
    """

    def key(self, m: Monomial) -> tuple:
        raise NotImplementedError

    def compare(self, s: Monomial, t: Monomial) -> int:
        """-1, 0 or 1 as s <, ==, > t."""
        ks, kt = self.key(s), self.key(t)
        return (ks > kt) - (ks < kt)

    def sort(self, monomials: Iterable[Monomial]) -> list[Monomial]:
        """Ascending: least monomial first."""
        return sorted(monomials, key=self.key)

    def min(self, monomials: Iterable[Monomial]) -> Monomial:
        return min(monomials, key=self.key)

    def max(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)

    def to_text(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_text()


def _check_priority(priority: Sequence[int]) -> tuple[int, ...]:
    priority = tuple(priority)
    if sorted(priority) != list(range(1, len(priority) + 1)):
        raise ValueError(f"priority must be a permutation of 1..k, got {priority}")
    return priority


class _PriorityOrdering(MonomialOrdering):
    name = ""

    def __init__(self, priority: Sequence[int] = ()):
        self.priority = _check_priority(priority)

    def _exponents(self, m: Monomial) -> tuple[int, ...]:
        """Exponents of x(p1)..x(pk), then of x(k+1) up to m's last variable.

        The tuple has length max(k, m.max_index()), so when it runs past the
        prefix its last entry is nonzero and a shorter tuple is a lesser one.
        """
        exps = m.vector
        k = len(self.priority)
        if k:
            exps += (0,) * (k - len(exps))
            exps = tuple([exps[p - 1] for p in self.priority]) + exps[k:]
        return exps

    def to_text(self) -> str:
        if not self.priority:
            return self.name
        return f"{self.name}:{'>'.join(f'x{i}' for i in self.priority)}"

    def __eq__(self, other):
        return type(other) is type(self) and other.priority == self.priority

    def __hash__(self):
        return hash((self.name, self.priority))


class Lex(_PriorityOrdering):
    name = "lex"

    def key(self, m: Monomial) -> tuple:
        return self._exponents(m)


class GrLex(_PriorityOrdering):
    name = "grlex"

    def key(self, m: Monomial) -> tuple:
        return (m.degree, self._exponents(m))


class GrevLex(_PriorityOrdering):
    name = "grevlex"

    def key(self, m: Monomial) -> tuple:
        # Equal degree: the last position where they differ decides, and the
        # monomial with the smaller exponent there is the greater one.  A
        # longer exponent tuple has a nonzero entry where the shorter one has
        # none, so it ranks lower.
        exps = self._exponents(m)
        return (m.degree, len(self.priority) - len(exps), tuple(map(neg, reversed(exps))))


class WeightedLex(MonomialOrdering):
    """Compare by total weight, ties broken by Lex.

    Declared weights must be positive rationals; variables beyond the declared
    vector get weight 1.
    """

    def __init__(self, weights: Sequence, priority: Sequence[int] = ()):
        ws = tuple(Fraction(w) for w in weights)
        if not ws:
            raise ValueError("need at least one weight")
        if any(w <= 0 for w in ws):
            raise ValueError(f"weights must be positive, got {ws}")
        self.weights = ws
        self.tiebreak = Lex(priority)

    def weight(self, m: Monomial) -> Fraction:
        total = Fraction(0)
        for i, e in m:
            w = self.weights[i - 1] if i <= len(self.weights) else Fraction(1)
            total += w * e
        return total

    def key(self, m: Monomial) -> tuple:
        return (self.weight(m), self.tiebreak.key(m))

    def to_text(self) -> str:
        body = ",".join(str(w) for w in self.weights)
        if self.tiebreak.priority:
            body += ":" + ">".join(f"x{i}" for i in self.tiebreak.priority)
        return f"wlex:{body}"

    def __eq__(self, other):
        return (
            type(other) is WeightedLex
            and other.weights == self.weights
            and other.tiebreak == self.tiebreak
        )

    def __hash__(self):
        return hash(("wlex", self.weights, self.tiebreak))


class MatrixOrder(MonomialOrdering):
    """Rational matrix rows applied lexicographically to exponent vectors.

    Construction enforces the global axioms: the first nonzero entry of every
    column must be positive (so 1 is least) and the columns must be linearly
    independent over Q (so the order is total).  A monomial mentioning a
    variable beyond the declared columns has no key: key, and with it every
    comparison or sort involving it, raises ValueError.
    """

    def __init__(self, rows: Sequence[Sequence]):
        mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not mat or not mat[0]:
            raise ValueError("matrix must be nonempty")
        ncols = len(mat[0])
        if any(len(row) != ncols for row in mat):
            raise ValueError("ragged matrix")
        for j in range(ncols):
            col = [row[j] for row in mat]
            first = next((x for x in col if x != 0), None)
            if first is None or first < 0:
                raise ValueError(
                    f"column {j + 1}: first nonzero entry must be positive"
                )
        echelon = FieldEchelon(ncols, QQ)
        for row in mat:
            echelon.add(row)
        if echelon.rank != ncols:
            raise ValueError("matrix columns must be linearly independent")
        self.rows = mat
        self.ncols = ncols

    def key(self, m: Monomial) -> tuple:
        if m.max_index() > self.ncols:
            raise ValueError(
                f"monomial uses x{m.max_index()} but the ordering matrix has {self.ncols} columns"
            )
        return tuple(sum(row[i - 1] * e for i, e in m) for row in self.rows)

    def to_text(self) -> str:
        body = ",".join("[" + ",".join(str(x) for x in row) + "]" for row in self.rows)
        return f"matrix:[{body}]"

    def __eq__(self, other):
        return type(other) is MatrixOrder and other.rows == self.rows

    def __hash__(self):
        return hash(("matrix", self.rows))


def is_submonic(f: Polynomial, ordering: MonomialOrdering) -> bool:
    """True when f is nonzero and its ordering-least monomial has coefficient 1."""
    if not f:
        return False
    _, c = trailing_term(f, ordering)
    return f.ring.is_one(c)


def is_weight_graded(ordering: MonomialOrdering, nvars: int) -> Optional[tuple[int, ...]]:
    """Positive integer weights the ordering refines, or None when none exist.

    GrLex and GrevLex are graded by total degree; WeightedLex by its own
    weights (scaled to integers); Lex is not weight-graded (x2^k below x1 for
    every k forces a nonpositive weight); a Matrix ordering is graded by its
    first row exactly when that row is strictly positive.
    """
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if isinstance(ordering, (GrLex, GrevLex)):
        return (1,) * nvars
    if isinstance(ordering, WeightedLex):
        ws = [
            ordering.weights[i] if i < len(ordering.weights) else Fraction(1)
            for i in range(nvars)
        ]
        return _scale_to_integers(ws)
    if isinstance(ordering, MatrixOrder):
        if nvars > ordering.ncols:
            raise ValueError(
                f"ordering matrix has {ordering.ncols} columns, asked about {nvars} variables"
            )
        row = list(ordering.rows[0][:nvars])
        if all(x > 0 for x in row):
            return _scale_to_integers(row)
        return None
    return None


def _scale_to_integers(ws: list[Fraction]) -> tuple[int, ...]:
    scale = math.lcm(*(w.denominator for w in ws))
    return tuple(int(w * scale) for w in ws)


def ordering_from_text(text: str) -> MonomialOrdering:
    """Parse the CLI ordering syntax.

    Forms: "lex", "grlex", "grevlex", optionally with a priority suffix
    ":x2>x1"; "wlex:2,3" with positive rational weights (optional priority as
    a second suffix); "matrix:[[1,1],[1,0]]" with rational entries.
    """
    if not isinstance(text, str):
        raise ParseError(f"an ordering is text, not {type(text).__name__}", 0)
    s = text.strip()
    m = re.fullmatch(r"(lex|grlex|grevlex)(?::([xX\d>\s]+))?", s)
    if m:
        cls = {"lex": Lex, "grlex": GrLex, "grevlex": GrevLex}[m.group(1)]
        try:
            return cls(_parse_priority(m.group(2)) if m.group(2) else ())
        except ValueError as exc:
            raise ParseError(str(exc), 0) from None
    m = re.fullmatch(r"wlex:([\d,/\s]+)(?::([xX\d>\s]+))?", s)
    if m:
        try:
            weights = tuple(Fraction(x.strip()) for x in m.group(1).split(","))
            priority = _parse_priority(m.group(2)) if m.group(2) else ()
            return WeightedLex(weights, priority)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), 0) from None
    m = re.fullmatch(r"matrix:\[(.*)\]", s)
    if m:
        body = m.group(1)
        row = r"\[([^\[\]]*)\]"
        rows = re.findall(row, body)
        if not rows:
            raise ParseError(f"no rows in {text!r}", 0)
        if not re.fullmatch(r"[\s,]*", re.sub(row, "", body)):
            raise ParseError(f"text outside the rows of {text!r}", 0)
        try:
            parsed = [[Fraction(x.strip()) for x in row.split(",")] for row in rows]
            return MatrixOrder(parsed)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), 0) from None
    raise ParseError(f"unknown ordering {text!r}", 0)


def _parse_priority(body: str) -> tuple[int, ...]:
    parts = [p.strip() for p in body.split(">")]
    priority = []
    for p in parts:
        if not p or p[0] not in "xX" or not p[1:].isdigit():
            raise ValueError(f"bad priority entry {p!r}; expected x<index>")
        priority.append(int(p[1:]))
    return tuple(priority)


# Weight separation: find positive integer weights w with
# w(trailing) < w(m) for every m in above, minimizing max(w) and then
# lexicographically least.  _box_lex_min answers for one cap on max(w), and
# feasibility only grows with the cap: caps 1, 2, 4, ... are tried until one
# is feasible, then the least feasible cap is binary-searched.  The doubling
# stops at (n*D)^n with D = max(1, max|delta|): a vertex v of
# {w >= 1, delta.w >= 1} solves A v = 1 for a nonsingular integer n x n
# matrix A, so |det A| v is an integer solution whose entries are Cramer
# determinants, at most (sqrt(n)*D)^n by Hadamard's inequality.  If that cap
# is infeasible, no weights exist.


def separating_weights(
    trailing: Monomial, above: Sequence[Monomial], ordering: MonomialOrdering
) -> tuple[int, ...]:
    for m in above:
        if ordering.compare(trailing, m) >= 0:
            raise ValueError(
                f"precondition violated: {m} is not strictly above {trailing}"
            )
    n = max(
        [trailing.max_index()] + [m.max_index() for m in above] + [1]
    )
    # Integer exponent gaps; separation means dot(delta, w) >= 1 for each row.
    deltas = []
    for m in above:
        deltas.append([m.exponent(i) - trailing.exponent(i) for i in range(1, n + 1)])
    bound = (n * max([1] + [abs(x) for d in deltas for x in d])) ** n

    # Every cap below lo is infeasible; found is the answer at cap hi.
    lo = hi = 1
    found = _box_lex_min(deltas, n, hi)
    while found is None:
        if hi >= bound:
            raise InternalInconsistencyError(
                "no separating weights exist although the ordering ranks the "
                "monomials strictly; global orderings make this impossible"
            )
        lo, hi = hi + 1, min(2 * hi, bound)
        found = _box_lex_min(deltas, n, hi)
    while lo < hi:
        mid = (lo + hi) // 2
        at_mid = _box_lex_min(deltas, n, mid)
        if at_mid is None:
            lo = mid + 1
        else:
            hi, found = mid, at_mid
    return tuple(found)


def _box_lex_min(deltas: list[list[int]], n: int, cap: int) -> Optional[list[int]]:
    """Lexicographically least w in [1, cap]^n with dot(delta, w) >= 1 for all
    rows, or None.  Depth-first with an optimistic interval bound per row."""
    assigned = [1] * n

    def remaining_max(row: list[int], depth: int) -> int:
        total = sum(row[i] * assigned[i] for i in range(depth))
        for i in range(depth, n):
            total += row[i] * (cap if row[i] > 0 else 1)
        return total

    def dfs(depth: int) -> bool:
        if depth == n:
            return all(
                sum(row[i] * assigned[i] for i in range(n)) >= 1 for row in deltas
            )
        for v in range(1, cap + 1):
            assigned[depth] = v
            if all(remaining_max(row, depth + 1) >= 1 for row in deltas):
                if dfs(depth + 1):
                    return True
        assigned[depth] = 1
        return False

    return list(assigned) if dfs(0) else None
