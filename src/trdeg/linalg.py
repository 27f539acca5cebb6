"""Exact linear algebra over ZZ, QQ, GF(p) and Z/n.

Everything here is deterministic and exact: integer rows are handled by a
row-style Hermite normal form, field rows by Gaussian elimination on
Fractions or residues, and Z/n by lifting to ZZ with explicit modulus rows.
The Hermite form is computed with a log of its row operations (swap, negate,
subtract a multiple of another row).  hnf replays the log on the identity to
build the unimodular transform; the span solver replays it backwards onto
one coefficient vector and never builds the transform.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import UnsupportedConfigError
from .intmath import ext_gcd
from .rings import IntegerRing, ModularRing, Ring


def _hnf_ops(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[tuple]]:
    """Row Hermite normal form H of rows, with the log of row operations.

    Each log entry is ("swap", i, j), ("neg", i) or ("sub", i, r, k) for
    row_i -= k * row_r; applying the entries in order to rows gives H.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    h = [list(map(int, r)) for r in rows]
    ops: list[tuple] = []

    r = 0
    for col in range(n):
        if r == m:
            break
        # Rows r.. are zero before col, so operations with pivot row r touch
        # only columns col.. of a row.
        live = (i for i in range(r, m) if h[i][col] != 0)
        best = min(live, key=lambda i: abs(h[i][col]), default=None)
        while best is not None:
            if best != r:
                h[r], h[best] = h[best], h[r]
                ops.append(("swap", r, best))
            if h[r][col] < 0:
                h[r][col:] = [-x for x in h[r][col:]]
                ops.append(("neg", r))
            p, tail = h[r][col], h[r][col:]
            # The next pivot is the least nonzero remainder, first row on ties.
            best, least = None, p
            for i in range(r + 1, m):
                row = h[i]
                if row[col] != 0:
                    q = row[col] // p
                    row[col:] = [a - q * b for a, b in zip(row[col:], tail)]
                    ops.append(("sub", i, r, q))
                    if 0 < row[col] < least:
                        best, least = i, row[col]
        if h[r][col] != 0:
            p, tail = h[r][col], h[r][col:]
            for i in range(r):
                q = h[i][col] // p
                if q:
                    h[i][col:] = [a - q * b for a, b in zip(h[i][col:], tail)]
                    ops.append(("sub", i, r, q))
            r += 1
    return h, ops


def hnf(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A == H, pivot columns strictly
    increasing, pivots positive, entries above each pivot reduced into
    [0, pivot).  Zero rows sink to the bottom.  Pivot selection takes the
    least |value| (ties by row index) to keep intermediate entries small.
    H and the log of row operations come from _hnf_ops; U is that log
    replayed, operation by operation, on the m x m identity.
    """
    h, ops = _hnf_ops(rows)
    m = len(h)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for op in ops:
        if op[0] == "swap":
            u[op[1]], u[op[2]] = u[op[2]], u[op[1]]
        elif op[0] == "neg":
            u[op[1]] = [-x for x in u[op[1]]]
        else:
            _, i, r, k = op
            u[i] = [a - k * b for a, b in zip(u[i], u[r])]
    return h, u


def det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix, exact over Q."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square")
    a = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / p
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return sign * result


def solve_in_span(target: Sequence, gens: Sequence[Sequence], scalars: Ring) -> Optional[list]:
    """Coefficients c with sum(c_i * gens_i) == target over the scalar ring.

    Returns None when target is outside the span.  Supported scalar rings:
    ZZ (Hermite normal form route), any field (Gaussian elimination), and
    Z/n (lift to ZZ with modulus rows).  The answer is deterministic but not
    unique in general.
    """
    dim = len(target)
    if any(len(g) != dim for g in gens):
        raise ValueError("generator dimension mismatch")
    if isinstance(scalars, IntegerRing):
        return _solve_int(list(target), [list(g) for g in gens])
    if scalars.is_field:
        return _solve_field(list(target), [list(g) for g in gens], scalars)
    if isinstance(scalars, ModularRing):
        return _solve_zmod(list(target), [list(g) for g in gens], scalars)
    raise UnsupportedConfigError(f"no span solver over {scalars}")


def _solve_int(target: list[int], gens: list[list[int]]) -> Optional[list[int]]:
    h, ops = _hnf_ops(gens)
    y = list(target)
    w = [0] * len(gens)
    for k, row in enumerate(h):
        pivot_col = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot_col is None:
            continue
        if y[pivot_col] % row[pivot_col] != 0:
            return None
        q = y[pivot_col] // row[pivot_col]
        if q:
            y = [a - q * b for a, b in zip(y, row)]
        w[k] = q
    if any(y):
        return None
    # The coefficients are w^T U for H = U * gens.  U is the log's row
    # operations applied in order, so w^T U applies their transposes to w
    # in reverse: row_i -= k * row_r becomes w_r -= k * w_i.
    for op in reversed(ops):
        if op[0] == "swap":
            w[op[1]], w[op[2]] = w[op[2]], w[op[1]]
        elif op[0] == "neg":
            w[op[1]] = -w[op[1]]
        else:
            _, i, r, k = op
            w[r] -= k * w[i]
    return w


def _solve_field(target: list, gens: list[list], field: Ring) -> Optional[list]:
    # Elimination over all generators makes each one independent of the
    # earlier ones a pivot and gives every other a zero coefficient.  The
    # answer is the unique solution on those pivots, which is zero past the
    # first few that span the target: eliminate only on that prefix.
    echelon = FieldEchelon(len(target), field)
    prefix: list[int] = []
    spanned = echelon.contains(target)
    for j, g in enumerate(gens):
        if spanned:
            break
        if not echelon.add(g):
            prefix.append(j)
            spanned = echelon.contains(target)
    if not spanned:
        return None
    dim = len(target)
    # Columns are the prefix generators: row-reduce [G^T | target].
    aug = [[gens[j][i] for j in prefix] + [target[i]] for i in range(dim)]
    ncols = len(prefix)
    for col in range(ncols):
        pivot = next(r for r in range(col, dim) if not field.is_zero(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.div(field.one(), aug[col][col])
        aug[col] = [field.mul(inv, x) for x in aug[col]]
        for r in range(dim):
            if r != col and not field.is_zero(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(aug[r], aug[col])
                ]
    coeffs = [field.zero()] * len(gens)
    for r, j in enumerate(prefix):
        coeffs[j] = aug[r][ncols]
    return coeffs


def _solve_zmod(target: list[int], gens: list[list[int]], ring: ModularRing) -> Optional[list[int]]:
    n = ring.modulus
    dim = len(target)
    lifted = [list(g) for g in gens]
    for j in range(dim):
        unit = [0] * dim
        unit[j] = n
        lifted.append(unit)
    sol = _solve_int(list(target), lifted)
    if sol is None:
        return None
    return [c % n for c in sol[: len(gens)]]


class IntLattice:
    """Incremental integer row span in Hermite-like form.

    Rows keep strictly increasing pivot columns with positive pivots, so
    membership is a divisibility walk.  add() reports whether the vector was
    already in the span before insertion.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []  # sorted by pivot column
        self._pivot_cols: list[int] = []

    def _leading(self, v: list[int]) -> Optional[int]:
        return next((j for j, x in enumerate(v) if x != 0), None)

    def contains(self, vec: Sequence[int]) -> bool:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        for row, c in zip(self.rows, self._pivot_cols):
            lead = self._leading(v)
            if lead is None:
                return True
            if lead < c:
                return False
            if v[c] != 0:
                if v[c] % row[c] != 0:
                    return False
                q = v[c] // row[c]
                v = [a - q * b for a, b in zip(v, row)]
        return self._leading(v) is None

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns True when it already belonged to the span."""
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        member = True
        while True:
            lead = self._leading(v)
            if lead is None:
                return member
            k = next(
                (i for i, c in enumerate(self._pivot_cols) if c == lead), None
            )
            if k is None:
                member = False
                if v[lead] < 0:
                    v = [-x for x in v]
                pos = next(
                    (i for i, c in enumerate(self._pivot_cols) if c > lead),
                    len(self.rows),
                )
                self.rows.insert(pos, v)
                self._pivot_cols.insert(pos, lead)
                self._reduce_column(pos)
                return False
            row = self.rows[k]
            p, q_ = row[lead], v[lead]
            if q_ % p == 0:
                q = q_ // p
                v = [a - q * b for a, b in zip(v, row)]
            else:
                # Unimodular 2x2 update replaces the pivot row with the gcd
                # combination; the leftover row has a strictly later pivot.
                member = False
                g, x, y = ext_gcd(p, q_)
                new_row = [x * a + y * b for a, b in zip(row, v)]
                leftover = [(-(q_ // g)) * a + (p // g) * b for a, b in zip(row, v)]
                self.rows[k] = new_row
                self._reduce_column(k)
                v = leftover

    def _reduce_column(self, k: int) -> None:
        # Keep entries above/below the pivot of row k small.
        row = self.rows[k]
        c = self._pivot_cols[k]
        for i, other in enumerate(self.rows):
            if i != k and other[c] != 0:
                q = other[c] // row[c]
                if q:
                    self.rows[i] = [a - q * b for a, b in zip(other, row)]

    @property
    def rank(self) -> int:
        return len(self.rows)


class FieldEchelon:
    """Incremental reduced row echelon form over a field ring."""

    def __init__(self, dim: int, field: Ring):
        if not field.is_field:
            raise ValueError(f"{field} is not a field")
        self.dim = dim
        self.field = field
        self.rows: list[list] = []
        self._pivot_cols: list[int] = []

    def _reduce(self, vec: Sequence) -> list:
        f = self.field
        v = list(vec)
        for row, c in zip(self.rows, self._pivot_cols):
            if not f.is_zero(v[c]):
                factor = v[c]
                v = [f.sub(a, f.mul(factor, b)) for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return all(self.field.is_zero(x) for x in self._reduce(vec))

    def add(self, vec: Sequence) -> bool:
        f = self.field
        v = self._reduce(vec)
        lead = next((j for j, x in enumerate(v) if not f.is_zero(x)), None)
        if lead is None:
            return True
        inv = f.div(f.one(), v[lead])
        v = [f.mul(inv, x) for x in v]
        pos = next(
            (i for i, c in enumerate(self._pivot_cols) if c > lead), len(self.rows)
        )
        self.rows.insert(pos, v)
        self._pivot_cols.insert(pos, lead)
        for i, other in enumerate(self.rows):
            if i != pos and not f.is_zero(other[lead]):
                factor = other[lead]
                self.rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(other, v)]
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)
