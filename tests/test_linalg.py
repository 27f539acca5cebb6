"""Exact linear algebra: HNF, span membership, incremental structures."""

import copy
import itertools
import math
import random
from fractions import Fraction

import pytest

from propcheck import (
    ReferenceFieldEchelon,
    _reduced,
    check_field_echelon_reference,
    check_hnf_postconditions,
    det,
    reference_solve_field,
)
from trdeg import linalg
from trdeg.linalg import FieldEchelon, IntLattice, _solve_field, hnf, solve_in_span, span_structure
from trdeg.rings import QQ, ZZ, ModularRing, PrimeField


def assert_combination(coeffs, target, gens, ring):
    """The returned coefficients must reproduce the target exactly."""
    assert coeffs is not None
    assert len(coeffs) == len(gens)
    n = len(target)
    total = [ring.zero()] * n
    for c, g in zip(coeffs, gens):
        for i in range(n):
            total[i] = ring.add(total[i], ring.mul(c, g[i]))
    assert not any(ring.sub(total[i], target[i]) for i in range(n))


def nonzero_hnf(rows):
    return [row for row in hnf(rows)[0] if any(row)]


def assert_triangular(lat):
    """IntLattice's basis: one row per pivot column, zero left of its pivot,
    positive pivot."""
    for c, row in lat.rows.items():
        assert len(row) == lat.dim
        assert not any(row[:c]) and row[c] > 0, (c, row)


class TestHNF:
    def test_pinned_single_column(self):
        h, u = hnf([[4], [10]])
        assert h == [[2], [0]]
        assert abs(det(u)) == 1

    def test_pinned_transforms_with_ties_and_zero_rows(self):
        # U is not unique for rank-deficient input; the span solver's
        # coefficients, and so every certificate, depend on this one.
        a = [[4, 1, 3], [-2, 3, 0], [2, 5, 1], [6, -1, 2], [0, 0, 0], [-2, 3, 0]]
        h, u = hnf(a)
        assert h == [[2, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
        # The last two rows are the kernel vectors left by the adds of the
        # zero row and of the repeated row, which opened no pivot.
        assert u == [
            [5, -17, 7, -11, 0, 0],
            [7, -22, 9, -15, 0, 0],
            [0, 2, -1, 1, 0, 0],
            [8, -25, 10, -17, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [-16, 49, -20, 34, 0, 1],
        ]
        assert solve_in_span([8, 6, 7], a, ZZ) == [62, -186, 75, -127, 0, 0]
        # The gcd step of the second add leaves 4 * row 0 - 3 * row 1; the
        # third add is a member.
        assert hnf([[-3], [-4], [-4]]) == ([[1], [0], [0]], [[1, -1, 0], [4, -3, 0], [4, -4, 1]])

    def test_identity_fixed(self):
        h, _ = hnf([[1, 0], [0, 1]])
        assert h == [[1, 0], [0, 1]]

    def test_zero_matrix(self):
        h, u = hnf([[0, 0], [0, 0]])
        assert h == [[0, 0], [0, 0]]
        assert abs(det(u)) == 1

    def test_pivots_positive_and_reduced(self):
        h, _ = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        pivots = []
        for row in h:
            nz = [(j, x) for j, x in enumerate(row) if x]
            if nz:
                pivots.append(nz[0])
        assert pivots, "matrix has full zero HNF only for zero input"
        for _, p in pivots:
            assert p > 0
        # entries above a pivot lie in [0, pivot)
        for r, (j, p) in enumerate(pivots):
            for above in range(r):
                assert 0 <= h[above][j] < p

    def test_postconditions_random(self):
        assert check_hnf_postconditions(random.Random(11), 300) == 300

    def test_det_pinned(self):
        assert det([[1, 2], [3, 4]]) == -2
        assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert det([[1]]) == 1
        assert det([[1, 1], [1, 1]]) == 0


class TestSolveInSpanZZ:
    def test_member(self):
        coeffs = solve_in_span([6], [[4], [10]], ZZ)
        assert_combination(coeffs, [6], [[4], [10]], ZZ)

    def test_nonmember(self):
        assert solve_in_span([3], [[6], [10]], ZZ) is None

    def test_standard_basis(self):
        gens = [[1, 0], [0, 1]]
        assert solve_in_span([2, 2], gens, ZZ) == [2, 2]

    def test_empty_generators(self):
        assert solve_in_span([1], [], ZZ) is None
        assert solve_in_span([0, 0], [], ZZ) == []

    def test_one_dim_membership_is_gcd_divisibility(self):
        rng = random.Random(5)
        for _ in range(300):
            gens = [[rng.randint(-40, 40)] for _ in range(rng.randint(1, 4))]
            t = rng.randint(-60, 60)
            g = 0
            for (x,) in gens:
                g = math.gcd(g, x)
            coeffs = solve_in_span([t], gens, ZZ)
            if t == 0 or (g != 0 and t % g == 0):
                assert_combination(coeffs, [t], gens, ZZ)
            else:
                assert coeffs is None

    def test_random_combinations_are_members(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(1, 4)
            gens = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 5))]
            picked = [rng.randint(-5, 5) for _ in gens]
            target = [sum(c * g[i] for c, g in zip(picked, gens)) for i in range(n)]
            assert_combination(solve_in_span(target, gens, ZZ), target, gens, ZZ)


class TestSolveInSpanField:
    @pytest.mark.parametrize("ring", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    def test_membership_iff_already_in_echelon_span(self, ring):
        rng = random.Random(31)

        def scalar():
            if ring is QQ:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.randrange(7)

        for _ in range(150):
            n = rng.randint(1, 4)
            gens = [[scalar() for _ in range(n)] for _ in range(rng.randint(0, 4))]
            target = [scalar() for _ in range(n)]
            coeffs = solve_in_span(target, gens, ring)
            ech = FieldEchelon(n, ring)
            for g in gens:
                ech.add(g)
            if coeffs is not None:
                assert ech.add(target)
                assert_combination(coeffs, target, gens, ring)
            else:
                assert not ech.add(target)

    def test_rational_pinned(self):
        coeffs = solve_in_span(
            [Fraction(1), Fraction(0)],
            [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
            QQ,
        )
        assert coeffs == [Fraction(1, 2), Fraction(0)]


class TestFieldBackSubstitution:
    """The field solve reads its coefficients off the unreduced echelon form
    of [G^T | target] by back substitution."""

    @pytest.mark.parametrize(
        "ring, third", [(QQ, Fraction(1, 3)), (PrimeField(7), 5)], ids=["QQ", "GF(7)"]
    )
    def test_dependent_generator_gets_zero(self, ring, third):
        # gens[1] = 2 * gens[0] has no pivot; 1/3 is 5 mod 7.
        gens = [[ring.from_int(x) for x in g] for g in ([1, 0], [2, 0], [0, 3])]
        target = [ring.one(), ring.one()]
        coeffs = solve_in_span(target, gens, ring)
        assert coeffs == [ring.one(), ring.zero(), third]
        assert_combination(coeffs, target, gens, ring)

    @pytest.mark.parametrize("ring", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    def test_sweep_shaped_systems_match_reference(self, ring):
        # Dimension and generator count up to 13 and entries up to 20 bits,
        # the shape of the experiment's solves; some generators and targets
        # are combinations of others.
        rng = random.Random(83)

        def scalar():
            x = rng.randint(-(1 << 20), 1 << 20)
            return ring.from_int(x) if ring is QQ else x % ring.modulus

        def combination(rows, dim):
            out = [ring.zero()] * dim
            for r in rows:
                c = scalar()
                out = [ring.add(a, ring.mul(c, b)) for a, b in zip(out, r)]
            return out

        outcomes = set()
        for _ in range(200):
            dim = rng.randint(1, 13)
            gens = []
            for _ in range(rng.randint(1, 13)):
                if gens and rng.random() < 0.3:
                    gens.append(combination(rng.sample(gens, rng.randint(1, len(gens))), dim))
                else:
                    gens.append([scalar() for _ in range(dim)])
            target = combination(gens, dim) if rng.random() < 0.5 else [scalar() for _ in range(dim)]
            got = solve_in_span(target, gens, ring)
            assert got == reference_solve_field(target, gens, ring)
            outcomes.add(got is None)
        assert outcomes == {True, False}


class TestSolveInSpanZmod:
    def test_zero_divisor_cases(self):
        ring = ModularRing(6)
        assert_combination(solve_in_span([3], [[3]], ring), [3], [[3]], ring)
        # 4*2 = 8 = 2 in Z/6, so 2 lies in the span of 4
        assert_combination(solve_in_span([2], [[4]], ring), [2], [[4]], ring)
        assert solve_in_span([1], [[2]], ring) is None

    def test_random_substitution_and_refutation(self):
        rng = random.Random(47)
        for _ in range(200):
            mod = rng.choice([4, 6, 9, 12])
            ring = ModularRing(mod)
            n = rng.randint(1, 3)
            gens = [[rng.randrange(mod) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            target = [rng.randrange(mod) for _ in range(n)]
            coeffs = solve_in_span(target, gens, ring)
            if coeffs is not None:
                assert_combination(coeffs, target, gens, ring)
            elif mod ** len(gens) <= 1296:
                for combo in itertools.product(range(mod), repeat=len(gens)):
                    got = [
                        sum(c * g[i] for c, g in zip(combo, gens)) % mod
                        for i in range(n)
                    ]
                    assert got != target

    def test_members_found(self):
        rng = random.Random(53)
        for _ in range(150):
            mod = rng.choice([4, 6, 8, 12])
            ring = ModularRing(mod)
            n = rng.randint(1, 3)
            gens = [[rng.randrange(mod) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            picked = [rng.randrange(mod) for _ in gens]
            target = [sum(c * g[i] for c, g in zip(picked, gens)) % mod for i in range(n)]
            assert_combination(solve_in_span(target, gens, ring), target, gens, ring)


class TestIncremental:
    def test_int_lattice_matches_solver(self):
        # After every add the lattice's rows span what it has seen (over Z/n
        # that includes the modulus rows n * e_j it starts from): both have
        # the same nonzero Hermite rows.  The rows stay a triangular basis.
        # Membership is checked against the ZZ solve over the same rows, since
        # solve_in_span over Z/n runs this lattice.
        rng = random.Random(61)
        cases = [(ZZ, rng.randint(1, 5), 8) for _ in range(150)]
        cases += [(ZZ, rng.randint(1, 3), 60) for _ in range(50)]
        cases += [(ModularRing(n), rng.randint(1, 4), n) for n in range(2, 13) for _ in range(20)]
        for ring, dim, bound in cases:
            integers = ring == ZZ
            lat = span_structure(ring, dim)
            base = [] if integers else [[ring.modulus * (i == j) for i in range(dim)] for j in range(dim)]
            seen = []
            for _ in range(rng.randint(1, 8)):
                kind = rng.random()
                if kind < 0.1 or not seen:
                    v = [0] * dim if kind < 0.05 else [rng.randint(-bound, bound) for _ in range(dim)]
                elif kind < 0.25:
                    v = list(rng.choice(seen))
                elif kind < 0.45:
                    picked = [rng.randint(-3, 3) for _ in seen]
                    v = [sum(c * g[i] for c, g in zip(picked, seen)) for i in range(dim)]
                else:
                    v = [rng.randint(-bound, bound) for _ in range(dim)]
                if not integers:
                    v = [x % ring.modulus for x in v]
                was_member = lat.add(v)
                assert was_member == (solve_in_span(v, seen + base, ZZ) is not None)
                seen.append(v)
                assert nonzero_hnf(list(lat.rows.values())) == nonzero_hnf(base + seen)
                assert_triangular(lat)

    @pytest.mark.parametrize("n", [0, 4, 6, 9, 12, 30])
    def test_residue_lattice_records_member_combinations(self, n):
        # In a tracked lattice a member add leaves its coefficients over the
        # earlier adds, in add order, and they give the vector back: mod n
        # over Z/n, with coefficients in range(n), and exactly over ZZ (n = 0).
        rng = random.Random(f"member combinations {n}")
        members = 0
        for _ in range(60):
            dim = rng.randint(1, 3)
            lat = IntLattice(dim, n, track=True)
            seen = []
            for _ in range(rng.randint(1, 10)):
                if n and seen and rng.random() < 0.4:
                    picked = [rng.randrange(n) for _ in seen]
                    v = [sum(c * g[i] for c, g in zip(picked, seen)) % n for i in range(dim)]
                elif n:
                    v = [rng.randrange(n) for _ in range(dim)]
                elif seen and rng.random() < 0.4:
                    picked = [rng.randint(-5, 5) for _ in seen]
                    v = [sum(c * g[i] for c, g in zip(picked, seen)) for i in range(dim)]
                else:
                    v = [rng.randint(-12, 12) for _ in range(dim)]
                if lat.add(v):
                    members += 1
                    coeffs = lat.member
                    assert len(coeffs) == len(seen)
                    total = [sum(c * g[i] for c, g in zip(coeffs, seen)) for i in range(dim)]
                    if n:
                        assert all(c in range(n) for c in coeffs)
                        total = [x % n for x in total]
                    assert total == v
                seen.append(v)
        assert members >= 50

    @pytest.mark.parametrize("n", [0, 6, 12])
    def test_probe_without_insert(self, n):
        # add(v, insert=False) answers membership like add(v), changes no
        # row, combination or add count, and on a member records member as
        # an inserting add would.
        rng = random.Random(f"probe {n}")
        outcomes = set()
        for _ in range(80):
            dim = rng.randint(1, 3)
            lat, seen = IntLattice(dim, n, track=True), []
            for _ in range(rng.randint(1, 8)):
                v = [rng.randint(-9, 9) for _ in range(dim)]
                v = [x % n for x in v] if n else v
                before = copy.deepcopy((lat.rows, lat.combos, lat.adds))
                member = lat.add(v, insert=False)
                assert (lat.rows, lat.combos, lat.adds) == before
                probed = lat.member if member else None
                twin = copy.deepcopy(lat)
                assert twin.add(v) == member
                if member:
                    assert probed == twin.member
                    total = [sum(c * g[i] for c, g in zip(probed, seen)) for i in range(dim)]
                    assert [x % n if n else x for x in total] == v
                outcomes.add(member)
                lat.add(v)
                seen.append(v)
        assert outcomes == {True, False}

    def test_int_lattice_entries_stay_near_the_hermite_form(self):
        # The basis is not reduced to the Hermite form, but its entries must
        # not grow past it: no entry is longer than twice the longest entry
        # of hnf over the same vectors.  A lattice that skips the size
        # reduction, or reduces only the rows that changed, fails within the
        # first ten adds.
        def longest(rows):
            return max((abs(x).bit_length() for row in rows for x in row), default=0)

        rng = random.Random(97)
        for dim in range(2, 15):
            for rank in range(1, dim + 1):
                basis = [[rng.randint(-50, 50) for _ in range(dim)] for _ in range(rank)]
                lat, seen = IntLattice(dim), []
                for k in range(60):
                    picked = [rng.randint(-40, 40) for _ in basis]
                    seen.append([sum(c * b[i] for c, b in zip(picked, basis)) for i in range(dim)])
                    lat.add(seen[-1])
                    if k % 10 == 9:
                        bound = 2 * longest(hnf(seen)[0])
                        assert longest(lat.rows.values()) <= bound, (dim, rank, k)
                assert_triangular(lat)

    def test_int_lattice_gcd_saturation(self):
        lat = IntLattice(3)
        assert lat.add([0, 0, 0]) is True
        assert lat.add([2, 0, 0]) is False
        assert lat.add([4, 0, 0]) is True
        assert lat.add([3, 0, 0]) is False  # gcd(2, 3) = 1 extends the span
        assert lat.add([1, 0, 0]) is True

    def test_field_echelon_membership(self):
        ech = FieldEchelon(2, QQ)
        assert ech.add([Fraction(1), Fraction(2)]) is False
        assert ech.add([Fraction(2), Fraction(4)]) is True
        assert ech.add([Fraction(0), Fraction(1)]) is False
        assert ech.add([Fraction(5), Fraction(-3)]) is True  # rank 2 is everything
        assert ech.rank == 2

    def test_field_echelon_rejects_nonfield(self):
        with pytest.raises(ValueError):
            FieldEchelon(2, ModularRing(6))

    @pytest.mark.parametrize(
        "ring", [ZZ, ModularRing(6), QQ, PrimeField(7)], ids=["ZZ", "Z/6", "QQ", "GF(7)"]
    )
    def test_add_rejects_wrong_length(self, ring):
        # zip would truncate a short vector: [1] would be taken for a member
        # of the span of [1, 0], and a first short add would break later ones.
        span = span_structure(ring, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            span.add([1])
        assert span.add([1, 0]) is False
        for wrong in ([1], [1, 0, 0], []):
            with pytest.raises(ValueError, match="dimension mismatch"):
                span.add(wrong)
        assert span.add([0, 1]) is False
        assert span.add([1, 1]) is True

    def test_field_echelon_matches_reference(self):
        assert check_field_echelon_reference(random.Random(71), 400) == 400

    def test_field_echelon_rows_are_primitive_over_qq(self):
        # Each input is stored as it arrives, as its primitive integer multiple
        # with a positive pivot; the older row keeps its entry in column 1.
        ech = FieldEchelon(3, QQ)
        ech.add([Fraction(-1, 2), Fraction(-1, 3), Fraction(0)])
        assert ech.rows == {0: [3, 2, 0]}
        ech.add([Fraction(0), Fraction(1), Fraction(5, 2)])
        assert ech.rows == {0: [3, 2, 0], 1: [0, 2, 5]}


class TestIsFull:
    """is_full: the span is the whole space, the stop of the search's sweep."""

    def test_int_lattice_needs_index_one(self):
        lat = IntLattice(1)
        assert not lat.is_full()
        lat.add([2])
        assert not lat.is_full()  # full rank, index 2
        lat.add([3])
        assert lat.is_full()

    def test_int_lattice_full_rank_with_a_non_unit_pivot(self):
        lat = IntLattice(2)
        lat.add([1, 0])
        lat.add([0, 2])
        assert lat.rows == {0: [1, 0], 1: [0, 2]}
        assert not lat.is_full()
        lat.add([1, 1])
        assert lat.is_full()

    def test_residue_lattice_full_after_a_unit(self):
        lat = span_structure(ModularRing(6), 1)
        assert not lat.is_full()  # the modulus row [6] alone
        lat.add([2])
        assert not lat.is_full()
        lat.add([5])
        assert lat.is_full()

    @pytest.mark.parametrize("ring", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    def test_field_echelon_full_at_rank_dim(self, ring):
        ech = FieldEchelon(3, ring)
        for vec in ([1, 2, 0], [2, 4, 0], [0, 1, 1]):
            ech.add([ring.from_int(x) for x in vec])
            assert not ech.is_full()
        ech.add([ring.from_int(x) for x in (1, 0, 4)])
        assert ech.rank == 3 and ech.is_full()


def hnf_transform_solution(target, gens):
    """sum(q_k * U[k]) from the public hnf's (H, U), q the pivot quotients."""
    if not gens:
        return [] if not any(target) else None
    h, u = hnf(gens)
    y = list(target)
    coeffs = [0] * len(gens)
    for row, u_row in zip(h, u):
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        if y[pivot] % row[pivot]:
            return None
        q = y[pivot] // row[pivot]
        y = [a - q * b for a, b in zip(y, row)]
        coeffs = [c + q * x for c, x in zip(coeffs, u_row)]
    return None if any(y) else coeffs


def full_gauss_jordan_solution(target, gens, field):
    """Gauss-Jordan on every generator column; non-pivot columns get zero."""
    if not gens:
        return [] if not any(target) else None
    dim = len(target)
    aug = [[gens[j][i] for j in range(len(gens))] + [target[i]] for i in range(dim)]
    ncols = len(gens)
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, dim) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = field.div(field.one(), aug[row][col])
        aug[row] = [field.mul(inv, x) for x in aug[row]]
        for r in range(dim):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(aug[r], aug[row])
                ]
        pivots.append((row, col))
        row += 1
    for r in range(row, dim):
        if aug[r][ncols]:
            return None
    coeffs = [field.zero()] * ncols
    for r, c in pivots:
        coeffs[c] = aug[r][ncols]
    return coeffs


def seeded_systems(rng, count, scalar, zero, combine):
    """(target, gens) pairs: zero, repeated and dependent rows, one column,
    negative leading entries, zero targets, members and non-members."""
    for t in range(count):
        ncols = 1 if t % 5 == 0 else rng.randint(2, 5)
        nbase = rng.randint(1, 4)
        base = [[scalar() for _ in range(ncols)] for _ in range(nbase)]
        gens = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.randrange(5)
            if kind == 0:
                gens.append([zero] * ncols)
            elif kind == 1 and gens:
                gens.append(list(rng.choice(gens)))
            elif kind == 2:
                gens.append(combine([scalar() for _ in base], base, ncols))
            else:
                gens.append([scalar() for _ in range(ncols)])
        kind = t % 3
        if kind == 0:
            target = combine([scalar() for _ in gens], gens, ncols)
        elif kind == 1:
            target = [zero] * ncols
        else:
            target = [scalar() for _ in range(ncols)]
        yield target, gens


def int_combination(coeffs, rows, ncols):
    return [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(ncols)]


class TestSolveEqualsReference:
    """solve_in_span returns exactly what the full-transform solvers did."""

    def test_integers_match_hnf_transform(self):
        rng = random.Random(71)
        outcomes = set()
        systems = seeded_systems(
            rng, 600, lambda: rng.randint(-12, 12), 0, int_combination
        )
        for target, gens in systems:
            got = solve_in_span(target, gens, ZZ)
            assert got == hnf_transform_solution(target, gens)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_negative_pivots_and_repeated_rows(self):
        gens = [[-3, 5], [-3, 5], [0, 0], [-6, 4], [9, -15]]
        for target in ([3, -5], [0, 6], [0, 0], [1, 0]):
            assert solve_in_span(target, gens, ZZ) == hnf_transform_solution(target, gens)

    def test_residues_match_lifted_hnf_transform(self):
        # The lifted transform decides membership; a hit's coefficients are
        # the residue lattice's, any combination with entries in range(n).
        rng = random.Random(73)
        outcomes = set()
        for modulus in (4, 6, 9, 12, 30):
            ring = ModularRing(modulus)
            systems = seeded_systems(
                rng, 120, lambda: rng.randrange(modulus), 0,
                lambda c, rows, n: [x % modulus for x in int_combination(c, rows, n)],
            )
            for target, gens in systems:
                dim = len(target)
                moduli = [[modulus if i == j else 0 for i in range(dim)] for j in range(dim)]
                lifted = hnf_transform_solution(target, gens + moduli)
                got = solve_in_span(target, gens, ring)
                assert (got is None) == (lifted is None)
                if got is not None:
                    assert all(c in range(modulus) for c in got)
                    assert_combination(got, target, gens, ring)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("ring", [QQ, PrimeField(7), PrimeField(2)],
                             ids=["QQ", "GF(7)", "GF(2)"])
    def test_fields_match_full_gauss_jordan(self, ring):
        rng = random.Random(79)

        def scalar():
            if ring is QQ:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.randrange(ring.modulus)

        def combine(coeffs, rows, ncols):
            out = [ring.zero()] * ncols
            for c, r in zip(coeffs, rows):
                out = [ring.add(a, ring.mul(c, b)) for a, b in zip(out, r)]
            return out

        outcomes = set()
        for target, gens in seeded_systems(rng, 300, scalar, ring.zero(), combine):
            got = solve_in_span(target, gens, ring)
            assert got == full_gauss_jordan_solution(target, gens, ring)
            outcomes.add(got is None)
        assert outcomes == {True, False}


def vector_kind(v):
    """'int', 'fraction' or 'mixed' by the types of a QQ vector's entries."""
    types = set(map(type, v))
    return "int" if types <= {int} else "fraction" if types == {Fraction} else "mixed"


class TestFieldEchelonIntRows:
    """Over QQ, FieldEchelon takes a vector of ints as it is and clears the
    denominators only of a vector that holds a Fraction."""

    def test_int_fraction_and_mixed_vectors_match_reference(self):
        rng = random.Random(73)

        def entry(kind):
            if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                return rng.randint(-9, 9)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

        def vector(kind, dim):
            v = [entry(kind) for _ in range(dim)]
            if kind == "mixed":
                v[rng.randrange(dim)] = rng.randint(-9, 9)
                v[rng.randrange(dim)] = Fraction(rng.randint(-9, 9), rng.randint(2, 6))
            return v

        def combination(vecs, dim, kind):
            # Int coefficients keep a combination of int vectors all-int.
            total = [0] * dim
            for g in vecs:
                c = entry(kind)
                total = [t + c * x for t, x in zip(total, g)]
            return total

        adds = {(kind, member): 0 for kind in ("int", "fraction", "mixed") for member in (0, 1)}
        for _ in range(300):
            dim = rng.randint(1, 6)
            echelon, reference = FieldEchelon(dim, QQ), ReferenceFieldEchelon(QQ)
            seen: list[list] = []
            for _ in range(rng.randint(1, 10)):
                kind, r = rng.choice(("int", "fraction", "mixed")), rng.random()
                if r < 0.1:
                    v = [0 if kind == "int" else Fraction(0)] * dim
                elif r < 0.5 and seen:
                    v = combination(rng.sample(seen, rng.randint(1, len(seen))), dim, kind)
                else:
                    v = vector(kind, dim)
                member = echelon.add(v)
                assert member == reference.add(v), "member flag"
                assert echelon.rank == reference.rank, "rank"
                assert echelon.rows.keys() == reference.rows.keys(), "pivot columns"
                assert _reduced(echelon.rows, QQ) == reference.rows, "reduced rows"
                adds[vector_kind(v), member] += 1
                seen.append(v)
                target = (
                    combination(seen, dim, kind) if rng.random() < 0.5 else vector(kind, dim)
                )
                assert solve_in_span(target, seen, QQ) == reference_solve_field(
                    target, seen, QQ
                ), "solve_in_span"
        # Every kind was added both as a member and as a new row.
        assert min(adds.values()) >= 20, adds

    def test_int_vectors_do_not_reach_lcm(self, monkeypatch):
        class LcmCalled(Exception):
            pass

        def refuse(*args):
            raise LcmCalled(args)

        monkeypatch.setattr(linalg, "lcm", refuse)
        ech = FieldEchelon(3, QQ)
        assert ech.add([2, 4, 6]) is False
        assert ech.add([-1, -2, -3]) is True
        assert ech.add([0, 0, 5]) is False
        assert ech.rows == {0: [1, 2, 3], 2: [0, 0, 1]}
        assert solve_in_span([3, 6, 10], [[1, 2, 3], [0, 0, 2]], QQ) == [3, Fraction(1, 2)]
        assert solve_in_span([1, 0, 0], [[0, 1, 0]], QQ) is None
        # A vector that holds a Fraction is still cleared.
        with pytest.raises(LcmCalled):
            ech.add([Fraction(1, 2), 0, 0])
        with pytest.raises(LcmCalled):
            solve_in_span([Fraction(1, 2), 0, 0], [[1, 0, 0]], QQ)


class TestFieldSolveSkipsZeroRows:
    """A zero row of [G^T | target] is a member that changes nothing, so the
    field solve does not add it."""

    @pytest.mark.parametrize("ring", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    def test_shared_zero_coordinates_match_reference(self, ring, monkeypatch):
        added = []
        add = FieldEchelon.add

        def recording(self, vec):
            added.append(list(vec))
            return add(self, vec)

        monkeypatch.setattr(FieldEchelon, "add", recording)
        rng = random.Random(89)

        def scalar():
            if ring is QQ:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            return rng.randrange(7)

        zero_rows, outcomes = 0, set()
        for _ in range(200):
            dim = rng.randint(1, 8)
            zeros = set(rng.sample(range(dim), rng.randint(0, dim)))

            def vector():
                return [ring.zero() if i in zeros else scalar() for i in range(dim)]

            gens = [vector() for _ in range(rng.randint(0, 5))]
            if gens and rng.random() < 0.5:
                target = [ring.zero()] * dim
                for g in gens:
                    c = scalar()
                    target = [ring.add(t, ring.mul(c, x)) for t, x in zip(target, g)]
            else:
                target = vector()
            added.clear()
            got = _solve_field(target, gens, ring)
            assert got == reference_solve_field(target, gens, ring)
            assert all(any(row) for row in added), "a zero row was added"
            zero_rows += sum(not any([g[i] for g in gens] + [target[i]]) for i in range(dim))
            outcomes.add(got is None)
        assert outcomes == {True, False}
        assert zero_rows >= 200
