"""Monomial orderings: pinned comparisons, axioms, weights."""

import hashlib
import random
from fractions import Fraction

import pytest

from propcheck import (
    check_ordering_axioms,
    check_univariate_agreement,
    check_weight_graded_consistency,
    ordering_families,
    random_monomial,
)
from trdeg.errors import InternalInconsistencyError, ParseError
from trdeg.monomials import ONE, Monomial, monomials_up_to_degree
from trdeg.orderings import (
    GrevLex,
    GrLex,
    Lex,
    MatrixOrder,
    MonomialOrdering,
    WeightedLex,
    is_submonic,
    is_weight_graded,
    ordering_from_text,
    separating_weights,
)
from trdeg.polynomials import Polynomial
from trdeg.rings import ZZ


def m(*pairs):
    return Monomial(pairs)


class TestPinnedComparisons:
    def test_lex_prefers_earlier_variable_at_any_power(self):
        lex = Lex()
        for k in range(1, 9):
            assert lex.key(m((2, k))) < lex.key(m((1, 1)))
        assert lex.key(m((1, 1))) < lex.key(m((1, 2)))

    def test_lex_priority_flip(self):
        flipped = Lex((2, 1))
        assert flipped.key(m((1, 5))) < flipped.key(m((2, 1)))

    def test_grlex_degree_first_then_lex(self):
        g = GrLex()
        assert g.key(m((1, 1))) < g.key(m((2, 2)))  # degree decides
        assert g.key(m((1, 1), (2, 2))) < g.key(m((1, 2), (2, 1)))  # ties by lex

    def test_grlex_grevlex_disagree_on_textbook_pair(self):
        a = m((1, 2), (3, 1))  # x1^2*x3
        b = m((1, 1), (2, 2))  # x1*x2^2
        assert GrLex().compare(a, b) == 1
        assert GrevLex().compare(a, b) == -1

    def test_grevlex_smaller_last_exponent_wins(self):
        assert GrevLex().key(m((1, 1), (3, 1))) < GrevLex().key(m((2, 2)))  # x1x3 < x2^2

    def test_weighted_lex(self):
        w = WeightedLex((2, 3))
        assert w.key(m((1, 1))) < w.key(m((2, 1)))  # weights 2 < 3
        assert w.compare(m((1, 3)), m((2, 2))) == 1  # 6 = 6, lex breaks the tie
        assert w.weight(m((1, 1), (3, 2))) == Fraction(4)  # undeclared vars weigh 1

    def test_matrix_order(self):
        mo = MatrixOrder([[1, 1], [1, 0]])
        assert mo.compare(m((1, 1)), m((2, 1))) == 1
        assert mo.key(m((2, 2))) < mo.key(m((1, 1), (2, 1)))
        frac = MatrixOrder([[Fraction(1, 2), Fraction(1, 3)], [1, 0]])
        assert frac.compare(m((1, 1)), m((2, 1))) == 1  # 1/2 > 1/3
        assert frac.key(m((2, 3))) < frac.key(m((1, 2)))  # 1 = 1, then 0 < 2

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            MatrixOrder([[-1, 1], [1, 0]])  # first nonzero in column 1 negative
        with pytest.raises(ValueError):
            MatrixOrder([[1, 1]])  # rank 1 < 2 columns
        with pytest.raises(ValueError):
            MatrixOrder([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="linearly independent"):
            MatrixOrder([[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(2, 3)]])  # rank 1
        with pytest.raises(ValueError):
            MatrixOrder([])

    def test_matrix_rejects_out_of_range_variables(self):
        mo = MatrixOrder([[1, 1], [1, 0]])
        with pytest.raises(ValueError):
            mo.compare(m((3, 1)), ONE)
        with pytest.raises(ValueError):
            mo.key(m((3, 1)))
        with pytest.raises(ValueError):
            mo.sort([ONE, m((3, 1))])

    @pytest.mark.parametrize("ordering", [Lex((2, 1)), GrLex((2, 1)), GrevLex((2, 1))], ids=str)
    def test_variables_beyond_priority_prefix(self, ordering):
        x1, x3, x4 = m((1, 1)), m((3, 1)), m((4, 1))
        assert ordering.compare(x3, x1) == -1
        assert ordering.compare(x4, x3) == -1
        assert ordering.compare(m((1, 1), (4, 1)), m((2, 1), (3, 1))) == -1
        # Lex and GrLex reach x1 before x3 and x4; GrevLex looks at x4 first.
        expected = 1 if isinstance(ordering, GrevLex) else -1
        assert ordering.compare(m((3, 2)), m((1, 1), (4, 1))) == expected

    def test_priority_validation(self):
        with pytest.raises(ValueError):
            Lex((2, 2))
        with pytest.raises(ValueError):
            Lex((0, 1))


# Partial priorities exercise the rule for variables beyond the declared prefix.
BEYOND_PREFIX = [Lex((2, 1)), GrLex((3, 1, 2)), GrevLex((2, 1)), GrevLex()]


class TestAxioms:
    @pytest.mark.parametrize(
        "ordering", ordering_families(5) + BEYOND_PREFIX, ids=lambda o: o.to_text()
    )
    def test_global_ordering_axioms(self, ordering):
        rng = random.Random(ordering.to_text())
        assert check_ordering_axioms(ordering, rng, 1500) == 1500

    def test_univariate_agreement(self):
        assert check_univariate_agreement(random.Random(3), 400) == 400

    def test_keys_pinned(self):
        # The repr of every key of every monomial of degree <= 4 in 4 variables.
        mons = monomials_up_to_degree(4, 4)
        text = "\n".join(
            f"{o.to_text()} {[o.key(x) for x in mons]!r}"
            for o in ordering_families(4) + BEYOND_PREFIX
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "cc4859808d75fa6cb93f2513d91509cc942813023d29e9f8e7d4c4213db8bc69"

    def test_sort_min_max(self):
        lex = Lex()
        mons = [m((1, 1)), ONE, m((2, 3)), m((1, 1), (2, 1))]
        ordered = lex.sort(mons)
        assert ordered[0] == ONE and ordered[-1] == m((1, 1), (2, 1))
        assert lex.min(mons) == ONE
        assert lex.max(mons) == m((1, 1), (2, 1))


class TestSubmonic:
    def test_pid_shape_is_submonic_under_lex(self):
        # x2^n - c*x1 - d*x2^(n+1) with n=2, c=27, d=0
        f = Polynomial(ZZ, {m((2, 2)): 1, m((1, 1)): -27})
        assert is_submonic(f, Lex())

    def test_one_minus_x_times_g(self):
        # 1 - x*g(x) has trailing monomial 1 with coefficient 1
        f = Polynomial(ZZ, {ONE: 1, m((1, 1)): -3, m((1, 3)): 2})
        for ordering in (Lex(), GrLex(), GrevLex()):
            assert is_submonic(f, ordering)

    def test_trailing_flips_with_ordering(self):
        f = Polynomial(ZZ, {m((1, 1)): 2, m((2, 1)): 1})  # 2*x1 + x2
        assert is_submonic(f, Lex())          # trailing x2, coeff 1
        assert not is_submonic(f, Lex((2, 1)))  # trailing x1, coeff 2

    def test_zero_is_not_submonic(self):
        assert not is_submonic(Polynomial(ZZ), Lex())


class TestWeightGraded:
    def test_catalog(self):
        assert is_weight_graded(GrLex(), 3) == (1, 1, 1)
        assert is_weight_graded(GrevLex((2, 1)), 2) == (1, 1)
        assert is_weight_graded(Lex(), 2) is None
        assert is_weight_graded(WeightedLex((2, 3)), 2) == (2, 3)
        assert is_weight_graded(WeightedLex((Fraction(1, 2), 3)), 2) == (1, 6)
        assert is_weight_graded(MatrixOrder([[2, 3], [1, 0]]), 2) == (2, 3)
        assert is_weight_graded(MatrixOrder([[1, 0], [0, 1]]), 2) is None

    def test_weight_respects_comparisons(self):
        assert check_weight_graded_consistency(random.Random(17), 300) == 300


class TestSeparatingWeights:
    def test_lex_oracle(self):
        got = separating_weights(m((2, 2)), [m((1, 1))], Lex())
        assert got == (3, 1)

    def test_grevlex_degree_separation(self):
        got = separating_weights(m((1, 1), (2, 1)), [m((1, 3)), m((2, 3))], GrevLex())
        assert got == (1, 1)

    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            separating_weights(m((1, 2)), [m((1, 1))], Lex())

    def test_empty_above_gives_unit_weights(self):
        assert separating_weights(m((1, 1)), [], Lex()) == (1,)

    def test_strict_inequalities_always_hold(self):
        rng = random.Random(41)
        results = []
        for _ in range(200):
            ordering = rng.choice(ordering_families(3))
            trailing = random_monomial(rng, 3, 4)
            above = set()
            attempts = 0
            while len(above) < 3 and attempts < 500:
                cand = random_monomial(rng, 3, 6)
                attempts += 1
                if ordering.key(trailing) < ordering.key(cand):
                    above.add(cand)
            if not above:
                continue
            w = separating_weights(trailing, sorted(above, key=Monomial.natural_key), ordering)
            results.append(w)
            assert all(x >= 1 for x in w)

            def weigh(mon):
                return sum(w[i - 1] * e for i, e in mon)

            for cand in above:
                assert weigh(trailing) < weigh(cand)
        # the least-cap, lexicographically least weights of every case
        assert len(results) == 200
        assert self._digest(results) == (
            "102467a01a974220a3e3f72f2f41bba9d15226b6d41a7fa1557f5cd70fb3c02f"
        )

    @staticmethod
    def _digest(results):
        text = "\n".join(",".join(map(str, w)) for w in results)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_criterion_6_distribution_pinned(self):
        # the seed-2026 inputs of acceptance criterion 6; the hash pins the
        # least-cap, lexicographically least weights of every case
        rng = random.Random(2026)
        results = []
        for _ in range(500):
            nvars = rng.randint(2, 4)
            ordering = rng.choice(ordering_families(nvars))
            trailing = random_monomial(rng, nvars, 4)
            pool = [
                mon
                for mon in monomials_up_to_degree(nvars, 6)
                if ordering.key(trailing) < ordering.key(mon)
            ]
            results.append(separating_weights(trailing, rng.sample(pool, 5), ordering))
        assert self._digest(results) == (
            "3c3460bfb1dfc8add96832d000d5356dfbf04516492ccea38c494e206186a606"
        )

    def test_least_cap_between_powers_of_two(self):
        # w1 + w3 >= 4*w2 + 1: the least cap is 3, where (2, 1, 3) is least;
        # cap 4 would allow the lexicographically smaller (1, 1, 4)
        got = separating_weights(m((2, 4)), [m((1, 1), (3, 1))], WeightedLex((2, 1, 3)))
        assert got == (2, 1, 3)

    def test_chained_gaps_exceed_n_times_d(self):
        # w1 >= 2*w2 + 1 and w2 >= 2*w3 + 1 need w1 = 7 > n*D = 6
        got = separating_weights(m((2, 2), (3, 2)), [m((1, 1), (3, 2)), m((2, 3))], Lex())
        assert got == (7, 3, 1)

    def test_non_global_ordering_has_no_weights(self):
        class NegDegree(MonomialOrdering):
            # 1 is greatest here, so no positive weight puts x1 below it
            def key(self, mon):
                return (-mon.degree,)

        with pytest.raises(InternalInconsistencyError):
            separating_weights(m((1, 1)), [ONE], NegDegree())


class TestOrderingText:
    @pytest.mark.parametrize(
        "text",
        ["lex", "grlex", "grevlex", "lex:x2>x1", "grevlex:x3>x1>x2",
         "wlex:2,3", "wlex:1/2,3:x2>x1", "matrix:[[1,1],[1,0]]"],
    )
    def test_roundtrip(self, text):
        ordering = ordering_from_text(text)
        assert ordering.to_text() == text
        assert ordering_from_text(ordering.to_text()) == ordering

    def test_errors(self):
        for bad in ["", "lexx", "lex:y1", "wlex:", "wlex:0,1", "wlex:-1,2",
                    "matrix:[]", "matrix:[[1,2],[2,4]]", "matrix:[[1,0]junk[0,1]]"]:
            with pytest.raises(ParseError):
                ordering_from_text(bad)
