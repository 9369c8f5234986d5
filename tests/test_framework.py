import json
from dataclasses import replace
from fractions import Fraction

import pytest

import goldens
from combinv.core import compositions, partitions
from combinv.framework import (
    IndexedMatrix,
    build_A,
    build_B,
    check_sorting_condition,
    key_string,
    local_lhs,
    local_terms,
    square_fold_B,
    square_restrict_A,
    verify_inversion,
    verify_local,
)
from combinv.kostka import kostka_system
from combinv.refine import refine_system, weighted_system
from combinv.rimhook import rimhook_system
from combinv.brick import obt_system

ALL_SYSTEMS = [kostka_system, rimhook_system, refine_system, weighted_system, obt_system]


class TestIndexedMatrix:
    def test_lookup_and_equality(self):
        m = goldens.KOSTKA_A4
        assert m.entry((3, 1), (2, 1, 1)) == 2
        assert m.entry((1, 1, 1, 1), (4,)) == 0
        assert m == goldens.KOSTKA_A4

    def test_identity(self):
        keys = partitions(4)
        assert IndexedMatrix.identity(keys).is_identity()

    def test_matmul_shape_check(self):
        with pytest.raises(ValueError):
            goldens.KOSTKA_A4.matmul(goldens.KOSTKA_A4)

    def test_json_round_trip(self):
        m = goldens.RIMHOOK_B4
        again = IndexedMatrix.from_json(json.loads(json.dumps(m.to_json())))
        assert again == m

    def test_csv_format(self):
        csv = goldens.RIMHOOK_B4.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == ",4,31,22,211,1111"
        assert lines[1] == "4,1/4,-1/4,0,1/4,-1/4"

    def test_key_string(self):
        assert key_string((2, 1, 1)) == "211"
        assert key_string(()) == "()"
        assert key_string((12, 1)) == "12.1"


class TestRecursionMatchesTables:
    def test_kostka_tables(self):
        system = kostka_system()
        assert build_A(system, 4) == goldens.KOSTKA_A4
        assert build_B(system, 4) == goldens.KOSTKA_B4

    def test_rimhook_tables(self):
        system = rimhook_system()
        assert build_A(system, 4) == goldens.RIMHOOK_A4
        assert build_B(system, 4) == goldens.RIMHOOK_B4

    def test_refine_tables(self):
        system = refine_system()
        assert build_A(system, 4) == goldens.REFINE_A4
        assert build_B(system, 4) == goldens.REFINE_B4

    def test_brick_tables(self):
        system = obt_system()
        assert build_A(system, 4) == goldens.BRICK_A4
        assert build_B(system, 4) == goldens.BRICK_B4

    def test_base_case(self):
        for make in ALL_SYSTEMS:
            system = make()
            assert build_A(system, 0).entries == [[Fraction(1)]]
            assert build_B(system, 0).entries == [[Fraction(1)]]


class TestInversionAndLocal:
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_inversion_small(self, make):
        system = make()
        for n in range(7):
            assert verify_inversion(system, n)

    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_local_small(self, make):
        system = make()
        for n in range(1, 6):
            report = verify_local(system, n)
            assert report.passed
            assert report.pairs_checked == len(system.shapes(n)) ** 2

    def test_local_lhs_values(self):
        assert local_lhs(kostka_system(), (3, 1), (3, 1)) == 1
        assert local_lhs(
            rimhook_system(), (9, 8, 6, 6, 5, 4, 4, 2), (9, 9, 9, 7, 5, 3, 1, 1)
        ) == 0
        assert local_lhs(obt_system(), (5, 2, 2, 1), (3, 2, 2, 1, 1, 1)) == 0

    def test_local_lhs_size_mismatch(self):
        with pytest.raises(ValueError):
            local_lhs(kostka_system(), (2,), (1, 1, 1))

    @pytest.mark.parametrize("make", [kostka_system, rimhook_system, obt_system])
    def test_local_terms_reject_non_partitions(self, make):
        with pytest.raises(ValueError, match="not a partition"):
            local_terms(make(), (2, 1), (1, 2))

    def test_broken_system_fails_both_ways(self):
        # sabotage one weight: the local check and the product check must
        # both detect it, reflecting their equivalence
        system = kostka_system()
        good_weight = system.weight_b
        system.weight_b = lambda mu, delta: abs(good_weight(mu, delta))
        report = verify_local(system, 3)
        assert not report.passed
        assert any(lam != mu for lam, mu, _ in report.failures)
        assert not verify_inversion(system, 3)


class TestSortingAndSquares:
    def test_sorting_condition(self):
        assert check_sorting_condition(goldens.KOSTKA_A4)
        assert check_sorting_condition(goldens.RIMHOOK_A4)
        assert check_sorting_condition(goldens.BRICK_A4)
        assert not check_sorting_condition(goldens.REFINE_A4)

    def test_restrict_requires_sorting_condition(self):
        with pytest.raises(ValueError):
            square_restrict_A(goldens.REFINE_A4)

    def test_brick_squares_match_tables(self):
        assert square_restrict_A(goldens.BRICK_A4) == goldens.BRICK_A4_SQUARE
        assert square_fold_B(goldens.BRICK_B4) == goldens.BRICK_B4_SQUARE

    def test_kostka_restriction_triangular(self):
        square = square_restrict_A(goldens.KOSTKA_A4)
        keys = square.row_keys
        for i, lam in enumerate(keys):
            assert square.entry(lam, lam) == 1
            for mu in keys[:i]:
                assert square.entry(lam, mu) == 0

    @pytest.mark.parametrize("make", [kostka_system, rimhook_system, obt_system])
    def test_square_product_is_identity(self, make):
        system = make()
        for n in range(1, 8):
            a_square = square_restrict_A(build_A(system, n))
            b_square = square_fold_B(build_B(system, n))
            assert a_square.matmul(b_square).is_identity()

    def test_fold_on_zero(self):
        system = kostka_system()
        assert square_fold_B(build_B(system, 0)).entries == [[Fraction(1)]]


class TestOrderIndependence:
    def test_replaced_callbacks_are_used(self):
        # a copy made with dataclasses.replace must build from its own
        # callbacks, never from matrices built earlier for the original
        system = kostka_system()
        plain_a, plain_b = build_A(system, 3), build_B(system, 3)
        doubled_a = build_A(replace(system, weight_a=lambda *_: Fraction(2)), 3)
        negated_b = build_B(
            replace(system, weight_b=lambda mu, delta: -system.weight_b(mu, delta)), 3
        )
        for lam in partitions(3):
            for beta in compositions(3):
                scale = 2 ** len(beta)
                assert doubled_a.entry(lam, beta) == scale * plain_a.entry(lam, beta)
                sign = (-1) ** len(beta)
                assert negated_b.entry(beta, lam) == sign * plain_b.entry(beta, lam)

    def test_build_is_deterministic(self):
        first = build_A(kostka_system(), 5)
        second = build_A(kostka_system(), 5)
        assert first == second
        assert first.row_keys == partitions(5)
        assert first.col_keys == compositions(5)
