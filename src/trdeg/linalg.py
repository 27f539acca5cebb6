"""Exact linear algebra over ZZ, QQ, GF(p) and Z/n.

Everything here is deterministic and exact.  IntLattice, the one integer
elimination, keeps a triangular basis and inserts each vector with one walk
over its columns.  Seeded with the modulus rows it answers membership mod n.
Tracked, it keeps each row's combination of the vectors added, which gives
a member's coefficients: the ZZ and Z/n span solves add the generators and
then test the target, and hnf adds the rows and reduces the basis to the
Hermite form, reading U off the combinations.  The search's ZZ sweep does
not track.  FieldEchelon, the one field elimination, makes the same walk over
an echelon form that is not reduced; it serves span membership and the span
solve on the transposed system, which adds only that system's nonzero rows
and reads its coefficients by back substitution.  Its rows are plain ints
(residues mod p, or primitive integer rows over QQ): a QQ vector of ints is
taken as it is and only one that holds a Fraction has its denominators
cleared, so Fractions appear only in a solve's answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import UnsupportedConfigError
from .intmath import ext_gcd, modinv
from .rings import IntegerRing, ModularRing, Ring


def hnf(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A == H, pivot columns strictly
    increasing, pivots positive, entries above each pivot reduced into
    [0, pivot).  Zero rows sink to the bottom.  The rows go, in order, into
    one tracked IntLattice, whose rows are then reduced above every pivot.
    U is the pivot rows' combinations followed by, for each add that opened
    no pivot, the combination its vector was left with: a kernel vector.
    U is not unique when the rows are dependent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    lattice, kernel = IntLattice(n, track=True), []  # add() refuses a ragged row
    for row in rows:
        rank = len(lattice.rows)
        lattice.add(row)
        if len(lattice.rows) == rank:
            kernel.append(_mix(lattice._left, 0))
    pivots = sorted(lattice.rows)
    if pivots:
        lattice._reduce(pivots)
    h = [lattice.rows[c] for c in pivots] + [[0] * n for _ in kernel]
    combos = [lattice.combos[c] for c in pivots] + kernel
    return h, [[combo.get(j, 0) for j in range(m)] for combo in combos]


def solve_in_span(target: Sequence, gens: Sequence[Sequence], scalars: Ring) -> Optional[list]:
    """Coefficients c with sum(c_i * gens_i) == target over the scalar ring.

    Returns None when target is outside the span.  Supported scalar rings:
    any field (echelon form and back substitution), and ZZ and Z/n (the
    generators, then the target, go into one tracked IntLattice, and a member
    target's coefficients are the lattice's member; over Z/n they lie in
    range(n)).  The answer is deterministic but not unique in general.
    """
    dim = len(target)
    if any(len(g) != dim for g in gens):
        raise ValueError("generator dimension mismatch")
    if scalars.is_field:
        return _solve_field(list(target), [list(g) for g in gens], scalars)
    if isinstance(scalars, (IntegerRing, ModularRing)):
        modulus = scalars.modulus if isinstance(scalars, ModularRing) else 0
        lattice = IntLattice(dim, modulus, track=True)
        for g in gens:
            lattice.add(g)
        return lattice.member if lattice.add(target, insert=False) else None
    raise UnsupportedConfigError(f"no span solver over {scalars}")


def _solve_field(target: list, gens: list[list], field: Ring) -> Optional[list]:
    # Echelon form of [G^T | target]: column j has a pivot exactly when
    # gens[j] is independent of the earlier generators, and a pivot in the
    # last column means target is outside the span.  Otherwise the generators
    # with a pivot have unique coefficients, read by back substitution from
    # the last pivot up; the generators without a pivot get 0.  A zero row is
    # a member and changes nothing, so it is not added.
    k = len(gens)
    echelon = FieldEchelon(k + 1, field)
    for i, t in enumerate(target):
        row = [g[i] for g in gens] + [t]
        if any(row):
            echelon.add(row)
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
    lattice starts from the modulus rows, so add() answers membership mod n.
    A tracked lattice (every Z/n one) keeps each row's combination of the
    adds (add index -> coefficient, mod n; none for a modulus row), updated
    by the same steps.  Over ZZ they grow with the run, so only the span
    solves and hnf track, not the search's sweep.
    """

    def __init__(self, dim: int, modulus: int = 0, track: bool = False):
        self.dim = dim
        self.modulus = modulus
        self.track = track or bool(modulus)
        # Over Z/n the rows n * e_j: their span is the kernel of ZZ^dim -> (Z/n)^dim.
        self.rows = {c: [modulus * (i == c) for i in range(dim)] for c in range(dim if modulus else 0)}
        self.combos: dict[int, dict[int, int]] = {c: {} for c in self.rows}
        self.adds = 0
        self._member: tuple = 0, []
        self._left: list = []

    def add(self, vec: Sequence[int], insert: bool = True) -> bool:
        """Insert vec; returns True when it already belonged to the span.

        With insert=False nothing changes: the walk stops at the first step
        that would change a row, and a member is still recorded in member.
        """
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        t = self.adds
        rows, combos, n, track = self.rows, self.combos, self.modulus, self.track
        # Tracked, v's combination of the adds as terms (k, combo), mixed only
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
                if track:
                    cv.append((-q, combos[c]))
                continue
            if not insert:
                return False
            # [s u; a -b] is unimodular and sends (row, v) to (gcd row, v with
            # column c cleared).
            g, s, u = ext_gcd(p, x)
            a, b = x // g, p // g
            rows[c], v = [s * r + u * y for r, y in zip(row, v)], [a * r - b * y for r, y in zip(row, v)]
            if track:
                cr = combos.get(c, {})
                combos[c] = _mix([(s, cr)] + [(u * k, d) for k, d in cv], n)
                cv = [(a, cr)] + [(-b * k, d) for k, d in cv]
            changed.append(c)
        if insert:
            self.adds += 1
        self._left = cv
        if not changed:
            self._member = t, cv
            return True
        self._reduce(changed)
        return False

    def _reduce(self, changed: list[int]) -> None:
        # The size reduction after add() changed the rows at changed pivots.
        rows, combos, n, track = self.rows, self.combos, self.modulus, self.track
        pivots = sorted(rows)
        for c in reversed(pivots[: pivots.index(changed[-1]) + 1]):
            row = rows[c]
            for d in pivots if c in changed else changed:
                if d > c and (q := row[d] // rows[d][d]):
                    row = [y - q * r for y, r in zip(row, rows[d])]
                    if track:
                        combos[c] = _mix([(1, combos[c]), (-q, combos[d])], n)
            rows[c] = row

    @property
    def member(self) -> list[int]:
        """In a tracked lattice, the last member add's coefficients over the
        adds before it (in range(n) over Z/n): v minus its multiples of the
        rows is 0."""
        t, cv = self._member
        combo = _mix([(-k, d) for k, d in cv[1:]], self.modulus)
        return [combo.get(j, 0) for j in range(t)]

    def is_full(self) -> bool:
        """Span is ZZ^dim: dim rows and every pivot 1 (full rank is not enough)."""
        return len(self.rows) == self.dim and all(row[c] == 1 for c, row in self.rows.items())


def _mix(terms: Sequence[tuple[int, dict[int, int]]], n: int) -> dict[int, int]:
    """The sum of k * combo over terms, mod n unless n is 0, as add index ->
    coefficient."""
    out: dict[int, int] = {}
    for k, combo in terms:
        for j, x in combo.items():
            out[j] = out.get(j, 0) + k * x
    return {j: x % n for j, x in out.items()} if n else out


class FieldEchelon:
    """Incremental row echelon form over QQ or GF(p), on plain-int rows.

    rows maps each pivot column c to a row that is 0 left of c; the form is
    not reduced, and a stored row never changes.  Its multiple is fixed:
      - GF(p): row[c] = 1, entries in range(p);
      - QQ: row is primitive with row[c] > 0.  add() takes a vector of ints
        as it is and clears the denominators of one that holds a Fraction,
        which leaves its QQ-span alone; it eliminates without fractions
        (Bareiss, Math. Comp. 1968).
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
        elif Fraction in map(type, vec):
            d = lcm(*(x.denominator for x in vec))
            v = [x.numerator * (d // x.denominator) for x in vec]
        else:
            v = vec
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

    ZZ gives an untracked IntLattice, a field a FieldEchelon, and Z/n an
    IntLattice seeded with the modulus rows, so that add() answers membership
    modulo n and member holds a member's coefficients.
    """
    if isinstance(scalars, IntegerRing):
        return IntLattice(dim)
    if scalars.is_field:
        return FieldEchelon(dim, scalars)
    if isinstance(scalars, ModularRing):
        return IntLattice(dim, scalars.modulus)
    raise UnsupportedConfigError(f"no span structure over {scalars}")
