from fractions import Fraction
from itertools import combinations

import pytest

import goldens
from combinv.core import (
    Filling,
    compositions,
    last_part_sum,
    multiset_diff,
    partitions,
    sort_comp,
)
from combinv.framework import build_A, build_B
from combinv.brick import (
    enumerate_obt,
    obt_system,
    part_decrements,
    sub_multisets_of_size,
)
from oracles import (
    all_fillings,
    brick_B_closed,
    brick_local_g,
    brick_tabloids,
    centralizer_order,
    check_sorting_condition,
    is_obt,
    local_lhs,
    marked_brick_bijection,
    marked_brick_bijection_inv,
    obt_split,
    obt_unsplit,
    square_fold_B,
    tabloid_weight,
    w_of,
)


class TestObtEnumeration:
    def test_examples(self):
        assert len(enumerate_obt((4, 3), (2, 1, 1, 3))) == 3
        assert len(enumerate_obt((3, 3, 2), (2, 1, 3, 2))) == 4
        assert len(enumerate_obt((1, 1, 1, 1), (1, 1, 1, 1))) == 24
        with pytest.raises(ValueError):
            enumerate_obt((2,), (1,))
        with pytest.raises(ValueError, match="not a partition"):
            enumerate_obt((1, 2), (2, 1))

    def test_objects_are_valid(self):
        for n in range(1, 6):
            for lam in partitions(n):
                for beta in compositions(n):
                    for filling in enumerate_obt(lam, beta):
                        assert is_obt(filling, lam, beta)

    def test_validator_matches_enumeration(self):
        # every filling of a partition shape with n <= 5, e.g. [[1, 1], [1]]
        # (one label in two rows) is rejected
        assert not is_obt(Filling(((1, 1), (1,))), (2, 1), (3,))
        for n in range(6):
            for lam, filling in all_fillings(n):
                beta = filling.content()
                expected = filling in enumerate_obt(lam, beta)
                assert is_obt(filling, lam, beta) == expected, filling

    def test_validator_checks_shape_and_content(self):
        assert is_obt(Filling(((1, 2),)), (2,), (1, 1))
        assert not is_obt(Filling(((1, 2),)), (1, 1), (1, 1))
        assert not is_obt(Filling(((1, 2),)), (2,), (2,))
        assert not is_obt(Filling(((1, 3),)), (2,), (1, 0, 1))  # no label 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_order_is_by_brick_rows(self, n):
        # ascending in (row of brick 1, row of brick 2, ...), read off each
        # filling; the enumerate digests pin this order only up to n = 5
        for lam in partitions(n):
            for beta in compositions(n):
                assignments = []
                for filling in enumerate_obt(lam, beta):
                    row_of = {v: r for r, row in enumerate(filling.rows) for v in row}
                    assignments.append(tuple(row_of[k] for k in range(1, len(beta) + 1)))
                assert assignments == sorted(set(assignments))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_matrix(self, n):
        matrix = build_A(obt_system(), n)
        for lam in partitions(n):
            for beta in compositions(n):
                assert len(enumerate_obt(lam, beta)) == matrix.entry(lam, beta)

    def test_sorting_condition(self):
        for n in range(1, 8):
            assert check_sorting_condition(build_A(obt_system(), n))


class TestSplitBijection:
    def test_worked_example(self):
        t1 = Filling(((2, 4, 4), (3, 3, 3), (1, 1)))
        t2 = Filling(((3, 3, 3), (2, 4, 4), (1, 1)))
        t3 = Filling(((1, 1, 2), (3, 3, 3), (4, 4)))
        t4 = Filling(((3, 3, 3), (1, 1, 2), (4, 4)))
        t5 = Filling(((3, 3, 3), (1, 1), (2,)))
        t6 = Filling(((1, 1, 2), (3, 3, 3)))
        t7 = Filling(((3, 3, 3), (1, 1, 2)))
        assert obt_split(t1) == (1, t5)
        assert obt_split(t2) == (2, t5)
        assert obt_split(t3) == (1, t6)
        assert obt_split(t4) == (1, t7)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, n):
        for lam in partitions(n):
            for beta in compositions(n):
                for filling in enumerate_obt(lam, beta):
                    k, smaller = obt_split(filling)
                    assert obt_unsplit(lam, k, smaller) == filling

    def test_unsplit_bounds(self):
        with pytest.raises(ValueError):
            obt_unsplit((2, 2), 3, Filling(((1, 1),)))


class TestBrickTabloids:
    def test_worked_example(self):
        tabloids = brick_tabloids((3, 1, 2), (2, 2, 1, 1))
        assert sorted(tabloids) == sorted(
            [((2, 1), (1,), (2,)), ((1, 2), (1,), (2,))]
        )
        assert sorted(tabloid_weight(t) for t in tabloids) == [2, 4]
        assert w_of((3, 1, 2), (2, 2, 1, 1)) == 6

    def test_row_permutation_invariance(self):
        assert w_of((1, 3, 2), (2, 2, 1, 1)) == 6
        for beta in compositions(6):
            for mu in partitions(6):
                assert w_of(beta, mu) == w_of(sort_comp(beta), mu)

    def test_single_row_reduces_to_last_part_sum(self):
        for n in range(1, 9):
            for mu in partitions(n):
                assert w_of((n,), mu) == last_part_sum(mu)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_splitting_recursion(self, n):
        for beta in compositions(n):
            if len(beta) < 2:
                continue
            head, last = beta[:-1], beta[-1]
            for mu in partitions(n):
                total = sum(
                    w_of((last,), multiset_diff(mu, delta)) * w_of(head, delta)
                    for delta in sub_multisets_of_size(mu, last)
                )
                assert w_of(beta, mu) == total


class TestSystemPieces:
    def test_part_decrement_weights(self):
        system = obt_system()
        succ = part_decrements((3, 3, 2), 2)
        assert set(succ) == {(3, 2, 1), (3, 3)}
        assert system.weight_a((3, 3, 2), (3, 2, 1)) == 2
        assert system.weight_a((3, 3, 2), (3, 3)) == 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_part_decrements_replace_one_part(self, n):
        system = obt_system()
        for lam in partitions(n):
            for length in range(1, n + 1):
                decrements = [
                    (i, sort_comp(lam[:r] + lam[r + 1 :] + (i - length,) * (i > length)))
                    for r, i in enumerate(lam)
                    if i >= length
                ]
                succ = part_decrements(lam, length)
                assert len(succ) == len(set(succ))
                assert set(succ) == {gamma for _, gamma in decrements}
                # largest decremented part first
                parts = [next(i for i, g in decrements if g == gamma) for gamma in succ]
                assert parts == sorted(parts, reverse=True)
                for gamma in succ:
                    rows = sum(1 for _, g in decrements if g == gamma)
                    assert system.weight_a(lam, gamma) == rows

    def test_sub_multisets(self):
        assert set(sub_multisets_of_size((2, 1, 1), 2)) == {(2,), (1, 1)}
        assert sub_multisets_of_size((2, 1), 4) == []

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sub_multisets_match_brute_force(self, n):
        # the distinct deleted sub-multisets among all combinations of parts,
        # ordered by the number of each distinct part deleted, larger parts
        # varying slowest, most first
        for mu in partitions(n):
            values = sorted(set(mu), reverse=True)
            deleted = {d for r in range(len(mu) + 1) for d in combinations(mu, r)}
            for removed in range(1, n + 2):
                listed = sorted(
                    (d for d in deleted if sum(d) == removed),
                    key=lambda d: [d.count(v) for v in values],
                    reverse=True,
                )
                expected = [multiset_diff(mu, d) for d in listed]
                assert sub_multisets_of_size(mu, removed) == expected, (mu, removed)

    @pytest.mark.parametrize("n", range(8))
    def test_closed_b_matches_recursion(self, n):
        assert brick_B_closed(n) == build_B(obt_system(), n)

    def test_closed_b_entries(self):
        b4 = brick_B_closed(4)
        assert b4.entry((1, 1, 2), (2, 1, 1)) == Fraction(1, 4)
        assert b4.entry((1, 3), (3, 1)) == Fraction(3, 4)
        for n in range(1, 7):
            assert brick_B_closed(n).entry((n,), (n,)) == 1


class TestMarkedBijection:
    def test_worked_example(self):
        alpha = (3, 2, 1, 2, 3)
        swapped, brick, cell = marked_brick_bijection(alpha, 4)
        assert swapped == (3, 3, 1, 2, 2)
        assert brick == 2
        assert cell == 10

    def test_mark_in_last_brick(self):
        alpha = (2, 3)
        swapped, brick, cell = marked_brick_bijection(alpha, 4)
        assert swapped == alpha and brick == 2 and cell == 4

    def test_round_trip_exhaustive(self):
        for alpha in [(2, 1), (1, 2), (1, 1, 1), (3, 2, 1, 2, 3), (2, 2)]:
            n = sum(alpha)
            for cell in range(1, n + 1):
                image = marked_brick_bijection(alpha, cell)
                assert marked_brick_bijection_inv(*image) == (alpha, cell)

    def test_inverse_is_surjective(self):
        # every (tiling, marked brick, cell-in-last-brick) arises exactly once
        from itertools import permutations

        mu = (2, 1, 1)
        tilings = sorted(set(permutations(mu)))
        images = set()
        for alpha in tilings:
            for cell in range(1, sum(mu) + 1):
                images.add(marked_brick_bijection(alpha, cell))
        expected = {
            (alpha, brick, cell)
            for alpha in tilings
            for brick in range(1, len(alpha) + 1)
            for cell in range(sum(mu) - alpha[-1] + 1, sum(mu) + 1)
        }
        assert images == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            marked_brick_bijection((2, 1), 4)
        with pytest.raises(ValueError):
            marked_brick_bijection_inv((2, 1), 1, 1)


class TestLocalEvaluation:
    def test_worked_example(self):
        terms, total = brick_local_g((5, 2, 2, 1), (3, 2, 2, 1, 1, 1))
        assert {g for g, _ in terms} == {(2, 2, 1), (3, 2, 2, 1), (2, 2, 1, 1)}
        assert total == 0
        values = {g: t for g, t in terms}
        assert values[(2, 2, 1)] == Fraction(5, 10)
        assert values[(3, 2, 2, 1)] == Fraction(-1, 10)
        assert values[(2, 2, 1, 1)] == Fraction(-4, 10)

    def test_diagonal(self):
        for n in range(1, 8):
            for lam in partitions(n):
                terms, total = brick_local_g(lam, lam)
                assert total == 1
                assert {g for g, _ in terms} == {
                    multiset_diff(lam, (i,)) for i in set(lam)
                }

    def test_two_part_difference_is_empty(self):
        terms, total = brick_local_g((4, 4, 1), (3, 3, 2, 1))
        assert terms == [] and total == 0

    def test_non_partition(self):
        with pytest.raises(ValueError, match="not a partition"):
            brick_local_g((2, 1), (1, 2))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_framework(self, n):
        system = obt_system()
        for lam in partitions(n):
            for mu in partitions(n):
                _, total = brick_local_g(lam, mu)
                assert total == local_lhs(system, lam, mu)


class TestSquareFormula:
    def test_square_tables(self):
        assert square_fold_B(goldens.BRICK_B4) == goldens.BRICK_B4_SQUARE

    @pytest.mark.parametrize("n", range(1, 8))
    def test_folded_entries_formula(self, n):
        folded = square_fold_B(build_B(obt_system(), n))
        for nu in partitions(n):
            for mu in partitions(n):
                sign = -1 if (len(mu) - len(nu)) % 2 else 1
                assert folded.entry(nu, mu) == Fraction(
                    sign * w_of(nu, mu), centralizer_order(nu)
                )
