"""Exact linear algebra over ZZ, QQ, GF(p) and Z/n.

Everything here is deterministic and exact.  _hnf_ops, a row-style Hermite
elimination with a log of its row operations, serves hnf, which replays the
log on the identity, and the ZZ span solve, which replays it backwards onto
one coefficient vector.  IntLattice, the incremental lattice, keeps a
triangular basis instead and inserts each vector with one walk over its
columns; seeded with the modulus rows it is the one Z/n elimination, behind
the search's sweep and the Z/n span solve.  FieldEchelon, the one field
elimination, makes the same walk over an echelon form that is not reduced;
it serves span membership and the span solve on the transposed system, which
reads its coefficients by back substitution.  Its rows are plain ints
(residues mod p, or primitive integer rows over QQ), so Fractions appear
only in a solve's answer.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import UnsupportedConfigError
from .intmath import ext_gcd, modinv
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
            u[i] = [x - k * y for x, y in zip(u[i], u[r])]
    return h, u


def solve_in_span(target: Sequence, gens: Sequence[Sequence], scalars: Ring) -> Optional[list]:
    """Coefficients c with sum(c_i * gens_i) == target over the scalar ring.

    Returns None when target is outside the span.  Supported scalar rings:
    ZZ (Hermite normal form route), any field (echelon form and back
    substitution), and Z/n (the residue lattice: the generators, then the
    target, go into one IntLattice, which gives a member's coefficients in
    range(n)).  The answer is deterministic but not unique in general.
    """
    dim = len(target)
    if any(len(g) != dim for g in gens):
        raise ValueError("generator dimension mismatch")
    if isinstance(scalars, IntegerRing):
        return _solve_int(list(target), [list(g) for g in gens])
    if scalars.is_field:
        return _solve_field(list(target), [list(g) for g in gens], scalars)
    if isinstance(scalars, ModularRing):
        lattice = IntLattice(dim, scalars.modulus)
        for g in gens:
            lattice.add(g)
        return lattice.member if lattice.add(target) else None
    raise UnsupportedConfigError(f"no span solver over {scalars}")


def _solve_int(target: list[int], gens: list[list[int]]) -> Optional[list[int]]:
    h, ops = _hnf_ops(gens)
    # Pivot quotients w with sum(w_k * h_k) == target, or None: a pivot does
    # not divide what is left in its column, or something is left at the end.
    y, w = target, [0] * len(h)
    for k, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            break  # zero rows sink to the bottom
        if y[c] % row[c]:
            return None
        w[k] = q = y[c] // row[c]
        y = [a - q * b for a, b in zip(y, row)] if q else y
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
    # Echelon form of [G^T | target]: column j has a pivot exactly when
    # gens[j] is independent of the earlier generators, and a pivot in the
    # last column means target is outside the span.  Otherwise the generators
    # with a pivot have unique coefficients, read by back substitution from
    # the last pivot up; the generators without a pivot get 0.
    k = len(gens)
    echelon = FieldEchelon(k + 1, field)
    for i, t in enumerate(target):
        echelon.add([g[i] for g in gens] + [t])
    rows = echelon.rows
    if k in rows:
        return None
    coeffs = [field.zero()] * k
    for j in sorted(rows, reverse=True):
        row = rows[j]
        coeffs[j] = field.div(row[k] - sum(row[l] * coeffs[l] for l in range(j + 1, k)), row[j])
    return coeffs


class IntLattice:
    """Incremental integer row span, kept as a triangular basis.

    rows maps each pivot column c to a row that is 0 left of c with row[c] > 0;
    membership and is_full need no canonical (Hermite) basis.  add(v) walks
    v's columns once: where a pivot divides v's entry it takes that multiple
    of the row off v, elsewhere an extended-gcd step makes the row (a zero row
    at a free column) the gcd row and carries v on with the column cleared.
    A walk that changed no row found a member.  Otherwise, bottom-up, each
    changed row is size-reduced against the rows below it, and each other row
    above only at the changed pivots, or one that stays put (say at pivot 1)
    would keep entries reduced against larger, older pivots.  Over Z/n the
    lattice starts from the modulus rows, so add() answers membership mod n,
    and the same steps update each row's combination mod n of the adds so far
    (add index -> coefficient; 0 for a modulus row).  Over ZZ they blow up.
    """

    def __init__(self, dim: int, modulus: int = 0):
        self.dim = dim
        self.modulus = modulus
        # Over Z/n the rows n * e_j: their span is the kernel of ZZ^dim -> (Z/n)^dim.
        self.rows = {c: [modulus * (i == c) for i in range(dim)] for c in range(dim if modulus else 0)}
        self.combos: dict[int, dict[int, int]] = {c: {} for c in self.rows}
        self.adds = 0
        self._member: tuple = 0, []

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns True when it already belonged to the span."""
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        t, self.adds = self.adds, self.adds + 1
        rows, combos, n = self.rows, self.combos, self.modulus
        # Over Z/n, v's combination of the adds as terms (k, combo), mixed only
        # when a row takes it; combos' dicts are replaced, never changed.
        cv = [(1, {t: 1})]
        changed = []
        for c in range(self.dim):
            x = v[c]
            if not x:
                continue
            row = rows.get(c) or [0] * self.dim
            p = row[c]
            if p and not x % p:
                q = x // p
                v = [y - q * r for y, r in zip(v, row)]
                if n:
                    cv.append((-q, combos[c]))
                continue
            # [s u; a -b] is unimodular and sends (row, v) to (gcd row, v with
            # column c cleared).
            g, s, u = ext_gcd(p, x)
            a, b = x // g, p // g
            rows[c], v = [s * r + u * y for r, y in zip(row, v)], [a * r - b * y for r, y in zip(row, v)]
            if n:
                cr = combos.get(c, {})
                combos[c] = _mix([(s, cr)] + [(u * k, d) for k, d in cv], n)
                cv = [(a, cr)] + [(-b * k, d) for k, d in cv]
            changed.append(c)
        if not changed:
            self._member = t, cv
            return True
        pivots = sorted(rows)
        for c in reversed(pivots[: pivots.index(changed[-1]) + 1]):
            row = rows[c]
            for d in pivots if c in changed else changed:
                if d > c and (q := row[d] // rows[d][d]):
                    row = [y - q * r for y, r in zip(row, rows[d])]
                    if n:
                        combos[c] = _mix([(1, combos[c]), (-q, combos[d])], n)
            rows[c] = row
        return False

    @property
    def member(self) -> list[int]:
        """Over Z/n, the last member add's coefficients in range(n) over the
        adds before it: v minus its multiples of the rows is 0."""
        t, cv = self._member
        combo = _mix([(-k, d) for k, d in cv[1:]], self.modulus)
        return [combo.get(j, 0) for j in range(t)]

    def is_full(self) -> bool:
        """Span is ZZ^dim: dim rows and every pivot 1 (full rank is not enough)."""
        return len(self.rows) == self.dim and all(row[c] == 1 for c, row in self.rows.items())


def _mix(terms: Sequence[tuple[int, dict[int, int]]], n: int) -> dict[int, int]:
    """The sum of k * combo over terms, mod n, as add index -> coefficient."""
    out: dict[int, int] = {}
    for k, combo in terms:
        for j, x in combo.items():
            out[j] = out.get(j, 0) + k * x
    return {j: x % n for j, x in out.items()}


class FieldEchelon:
    """Incremental row echelon form over QQ or GF(p), on plain-int rows.

    rows maps each pivot column c to a row that is 0 left of c; the form is
    not reduced, and a stored row never changes.  Its multiple is fixed:
      - GF(p): row[c] = 1, entries in range(p);
      - QQ: row is primitive with row[c] > 0.  add() clears the input's
        denominators, which leaves its QQ-span alone, and eliminates without
        fractions (Bareiss, Math. Comp. 1968).
    add(v) walks v's columns once, as IntLattice.add does: a zero entry is
    skipped, at a pivot column v is eliminated by that row, and at the first
    nonzero free column v is stored as that column's row.  A walk that stores
    nothing found a member.  This is the one field elimination: the search
    adds the candidate values to test span membership, and the span solve
    adds the rows of [G^T | target].
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
        for c in range(self.dim):
            f = v[c]
            if not f:
                continue
            row = rows.get(c)
            if row is None:
                if p:
                    inv = modinv(f, p)
                    rows[c] = [x * inv % p for x in v]
                else:
                    g = gcd(*v) if f > 0 else -gcd(*v)
                    rows[c] = [x // g for x in v]
                return False
            if p:
                v = [(x - f * y) % p for x, y in zip(v, row)]
            else:
                # (row[c]*v - f*row) / gcd(row[c], f): only stored rows are
                # made primitive.
                g = gcd(row[c], f)
                s, f = row[c] // g, f // g
                v = [s * x - f * y for x, y in zip(v, row)]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.dim


def span_structure(scalars: Ring, dim: int) -> Union[IntLattice, FieldEchelon]:
    """An incremental span of dim-vectors over the scalar ring, spanning 0.

    Dispatches like solve_in_span: ZZ gives an IntLattice, a field a
    FieldEchelon, and Z/n an IntLattice seeded with the modulus rows, so that
    add() answers membership modulo n and member holds a member's coefficients.
    """
    if isinstance(scalars, IntegerRing):
        return IntLattice(dim)
    if scalars.is_field:
        return FieldEchelon(dim, scalars)
    if isinstance(scalars, ModularRing):
        return IntLattice(dim, scalars.modulus)
    raise UnsupportedConfigError(f"no span structure over {scalars}")
