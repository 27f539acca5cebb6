"""Exact linear algebra over ZZ, QQ, GF(p) and Z/n.

Everything here is deterministic and exact.  One row-style Hermite
elimination, _hnf_ops, serves every integer need: hnf, the span solve and
the incremental lattice.  One field elimination, FieldEchelon, serves every
field need: span membership, and the span solve on the transposed system.
Its rows are plain ints, residues mod p over GF(p) and primitive integer
multiples of the reduced-echelon rows over QQ, so Fractions appear only in
a solve's answer, each coefficient the ratio of two row entries.
Z/n lifts to ZZ with explicit modulus rows.  The Hermite form is computed
with a log of its row operations (swap, negate, subtract a multiple of
another row).  hnf replays the log on the identity to build the unimodular
transform; the span solver replays it backwards onto one coefficient vector
and never builds the transform; IntLattice keeps only the form itself.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import UnsupportedConfigError
from .intmath import modinv
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


def solve_in_span(target: Sequence, gens: Sequence[Sequence], scalars: Ring) -> Optional[list]:
    """Coefficients c with sum(c_i * gens_i) == target over the scalar ring.

    Returns None when target is outside the span.  Supported scalar rings:
    ZZ (Hermite normal form route), any field (reduced echelon form), and
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


def _pivot_quotients(h: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[list[int]]:
    """Quotients w with sum(w_k * h_k) == target for h in row Hermite form.

    None when target is outside the row span of h: some pivot does not divide
    what is left in its column, or something is left past the last pivot.
    """
    y = list(target)
    w = [0] * len(h)
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
    return None if any(y) else w


def _solve_int(target: list[int], gens: list[list[int]]) -> Optional[list[int]]:
    h, ops = _hnf_ops(gens)
    w = _pivot_quotients(h, target)
    if w is None:
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
    # Reduced echelon form of [G^T | target]: column j has a pivot exactly when
    # gens[j] is independent of the earlier generators, and a pivot in the
    # last column means target is outside the span.  Otherwise the last column
    # of the reduced-echelon row with pivot j, row[k] / row[j] (FieldEchelon
    # keeps a multiple of it), is the unique coefficient of gens[j]; the
    # generators without a pivot get 0.
    k = len(gens)
    echelon = FieldEchelon(k + 1, field)
    for i, t in enumerate(target):
        echelon.add([g[i] for g in gens] + [t])
    if k in echelon.rows:
        return None
    coeffs = [field.zero()] * k
    for j, row in echelon.rows.items():
        coeffs[j] = field.div(row[k], row[j])
    return coeffs


def _solve_zmod(target: list[int], gens: list[list[int]], ring: ModularRing) -> Optional[list[int]]:
    n = ring.modulus
    sol = _solve_int(target, gens + _modulus_rows(n, len(target)))
    if sol is None:
        return None
    return [c % n for c in sol[: len(gens)]]


def _modulus_rows(n: int, dim: int) -> list[list[int]]:
    """The rows n * e_j, whose integer span is the kernel of ZZ^dim -> (Z/n)^dim."""
    return [[n if i == j else 0 for i in range(dim)] for j in range(dim)]


class IntLattice:
    """Incremental integer row span, kept as the nonzero rows of its Hermite form.

    Membership is the pivot-quotient walk.  add() reports whether the vector
    was already in the span before insertion.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns True when it already belonged to the span."""
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        if _pivot_quotients(self.rows, v) is not None:
            return True
        h, _ = _hnf_ops(self.rows + [v])
        self.rows = [row for row in h if any(row)]
        return False


class FieldEchelon:
    """Incremental reduced row echelon form over QQ or GF(p), on plain-int rows.

    rows maps each pivot column c to a row that is 0 in every other pivot
    column, so reducing by the rows in any order gives the same result.
    Each row is a nonzero multiple of its reduced-echelon row r (the one with
    r[c] = 1), so r[k] = row[k] / row[c] in the field.  The multiple is fixed:
      - GF(p): row = r itself, entries in range(p);
      - QQ: row is the unique primitive integer multiple of r with
        row[c] > 0.  add() clears the input's denominators, which leaves its
        QQ-span alone, and eliminates without fractions (Bareiss, Math.
        Comp. 1968): v = row[c]*v - v[c]*row, then divide by the gcd.
    Both fields share the elimination loop and differ only in how
    _eliminate and _normalise keep a row canonical.  This is the one field
    elimination: the search adds the candidate values to test span
    membership, and the span solve adds the rows of [G^T | target].
    """

    def __init__(self, dim: int, field: Ring):
        if not field.is_field:
            raise ValueError(f"{field} is not a field")
        self.dim = dim
        self.field = field
        self._p = field.modulus if isinstance(field, ModularRing) else 0  # 0: QQ
        self.rows: dict[int, list[int]] = {}  # pivot column -> row

    def add(self, vec: Sequence) -> bool:
        """Insert vec; returns True when it already belonged to the span."""
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        p = self._p
        if p:
            v = [x % p for x in vec]
        else:
            d = lcm(*(x.denominator for x in vec))
            v = [x.numerator * (d // x.denominator) for x in vec]
        rows = self.rows
        for c, row in rows.items():
            if v[c]:
                v = self._eliminate(v, row, c)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return True
        v = self._normalise(v, lead)
        for c, other in rows.items():
            if other[lead]:
                rows[c] = self._eliminate(other, v, lead)
        rows[lead] = v
        return False

    def _eliminate(self, v: list[int], row: list[int], c: int) -> list[int]:
        """row[c]*v - v[c]*row, which is 0 in column c, made mod p or primitive.

        row[c] > 0, so the sign of every other pivot of v is kept.
        """
        s, f = row[c], v[c]
        w = [s * a - f * b for a, b in zip(v, row)]
        p = self._p
        if p:
            return [x % p for x in w]
        g = gcd(*w)
        return [x // g for x in w] if g > 1 else w

    def _normalise(self, v: list[int], lead: int) -> list[int]:
        """The stored multiple of v, whose first nonzero entry is v[lead]."""
        p = self._p
        if p:
            inv = modinv(v[lead], p)
            return [x * inv % p for x in v]
        g = gcd(*v) if v[lead] > 0 else -gcd(*v)
        return [x // g for x in v] if g != 1 else v

    @property
    def rank(self) -> int:
        return len(self.rows)


def span_structure(scalars: Ring, dim: int) -> Union[IntLattice, FieldEchelon]:
    """An incremental span of dim-vectors over the scalar ring, spanning 0.

    Dispatches like solve_in_span: ZZ gives an IntLattice, a field a
    FieldEchelon, and Z/n an IntLattice seeded with the modulus rows, so that
    add() answers membership modulo n.
    """
    if isinstance(scalars, IntegerRing):
        return IntLattice(dim)
    if scalars.is_field:
        return FieldEchelon(dim, scalars)
    if isinstance(scalars, ModularRing):
        lattice = IntLattice(dim)
        lattice.rows = _modulus_rows(scalars.modulus, dim)
        return lattice
    raise UnsupportedConfigError(f"no span structure over {scalars}")
