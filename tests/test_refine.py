from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

import goldens
from combinv.core import compositions
from combinv.framework import build_A, build_B, verify_inversion
from combinv.refine import cbt_find, refine_system, weighted_system
from oracles import (
    h_to_psi_matrix,
    incidence_matrix,
    is_identity_product,
    local_g_refine,
    local_lhs,
    mobius_matrix,
    partial_sum_product,
    psi_to_h_matrix,
    refines,
    row_compositions,
    self_inverse_matrix,
    weighted_factors,
    weighted_incidence_matrix,
    weighted_mobius_matrix,
)


@st.composite
def composition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=n))
        parts.append(p)
        n -= p
    return tuple(parts)


@st.composite
def refinement_pair(draw):
    """A composition together with a random refinement of it."""
    coarse = draw(composition_strategy())
    fine = []
    for part in coarse:
        remaining = part
        while remaining > 0:
            piece = draw(st.integers(min_value=1, max_value=remaining))
            fine.append(piece)
            remaining -= piece
    return tuple(fine), coarse


class TestRefines:
    def test_examples(self):
        assert refines((2, 1, 1, 2, 1, 3, 1, 1), (3, 4, 3, 2))
        assert refines((3, 1), (3, 1))
        assert not refines((1, 3), (3, 1))
        assert not refines((2, 2), (3,))

    @given(refinement_pair())
    def test_split_compositions_refine(self, pair):
        fine, coarse = pair
        assert refines(fine, coarse)
        found = cbt_find(coarse, fine)
        assert found is not None
        tiling, sign = found
        assert sign == (-1 if (len(fine) - len(coarse)) % 2 else 1)
        assert sum(map(len, row_compositions(tiling))) == len(fine)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partial_order(self, n):
        comps = compositions(n)
        for alpha in comps:
            assert refines(alpha, alpha)
        related = {
            (a, b) for a in comps for b in comps if refines(a, b)
        }
        for a, b in related:
            if a != b:
                assert (b, a) not in related
        for a, b in related:
            for c in comps:
                if (b, c) in related:
                    assert (a, c) in related


class TestCbt:
    def test_worked_example(self):
        found = cbt_find((4, 5, 5, 3), (3, 1, 3, 2, 5, 1, 2))
        assert found is not None
        tiling, sign = found
        assert sign == -1
        assert tiling.bricks == (
            (1, 1, 1, 3),
            (2, 1, 4, 1),
            (3, 2, 1, 3),
            (4, 2, 4, 2),
            (5, 3, 1, 5),
            (6, 4, 1, 1),
            (7, 4, 2, 2),
        )
        assert row_compositions(tiling) == ((3, 1), (3, 2), (5,), (1, 2))

    def test_trivial_and_missing(self):
        found = cbt_find((3, 1), (3, 1))
        assert found is not None and found[1] == 1
        assert cbt_find((3, 1), (1, 3)) is None
        with pytest.raises(ValueError):
            cbt_find((3, 1), (3, 2))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_existence_matches_refinement(self, n):
        for shape in compositions(n):
            for content in compositions(n):
                assert (cbt_find(shape, content) is not None) == refines(
                    content, shape
                )

    def test_json(self):
        tiling, _ = cbt_find((2, 1), (1, 1, 1))
        data = tiling.to_json()
        assert data["bricks"][0] == {"label": 1, "row": 1, "start_col": 1, "len": 1}


class TestMatrices:
    def test_closed_forms_match_tables(self):
        assert incidence_matrix(4) == goldens.REFINE_A4
        assert mobius_matrix(4) == goldens.REFINE_B4

    def test_specific_entries(self):
        assert goldens.REFINE_A4.entry((2, 1, 1), (2, 2)) == 1
        assert goldens.REFINE_B4.entry((2, 1, 1), (2, 2)) == -1

    @pytest.mark.parametrize("n", range(8))
    def test_recursion_equals_closed_form(self, n):
        system = refine_system()
        assert build_A(system, n) == incidence_matrix(n)
        assert build_B(system, n) == mobius_matrix(n)

    @pytest.mark.parametrize("n", range(8))
    def test_inversion(self, n):
        assert is_identity_product(incidence_matrix(n), mobius_matrix(n))

    @pytest.mark.parametrize("n", range(8))
    def test_self_inverse(self, n):
        twisted = self_inverse_matrix(n)
        assert is_identity_product(twisted, twisted)


class TestLocalG:
    def test_closing_example(self):
        assert local_g_refine((4, 1, 3, 2, 1, 3), (4, 1, 3, 6)) == [
            ((4, 1, 3), 1),
            ((4, 1, 3, 2), -1),
        ]
        assert local_g_refine((4, 1, 3, 6), (4, 1, 3, 6)) == [((4, 1, 3), 1)]
        assert local_g_refine((2, 2), (1, 3)) == []

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_successor_sets(self, n):
        system = refine_system()
        for lam in compositions(n):
            for mu in compositions(n):
                shared = []
                for length in range(1, n + 1):
                    common = set(system.succ_a(lam, length)) & set(
                        system.succ_b(mu, length)
                    )
                    shared.extend(common)
                result = local_g_refine(lam, mu)
                assert sorted(g for g, _ in result) == sorted(shared)
                if lam != mu and len(result) == 2:
                    assert result[0][1] == -result[1][1]


class TestWeighted:
    def test_worked_factors(self):
        z, length = weighted_factors((4, 5, 5, 3), (3, 1, 3, 2, 5, 1, 2))
        assert z == 2700
        assert length == 20

    def test_degenerate_shapes(self):
        beta = (3, 1, 2)
        assert weighted_factors(beta, beta) == (prod(beta), prod(beta))
        assert weighted_factors((6,), beta) == (partial_sum_product(beta), beta[-1])
        with pytest.raises(ValueError):
            weighted_factors((3, 1), (1, 3))

    @pytest.mark.parametrize("n", range(8))
    def test_recursion_equals_closed_form(self, n):
        system = weighted_system()
        assert build_A(system, n) == weighted_incidence_matrix(n)
        assert build_B(system, n) == weighted_mobius_matrix(n)

    @pytest.mark.parametrize("n", range(7))
    def test_inversion(self, n):
        assert verify_inversion(weighted_system(), n)

    def test_diagonal_entries(self):
        matrix_a = weighted_incidence_matrix(5)
        matrix_b = weighted_mobius_matrix(5)
        for lam in compositions(5):
            assert matrix_a.entry(lam, lam) == prod(lam)
            assert matrix_b.entry(lam, lam) == Fraction(1, prod(lam))

    def test_local_identity_factors(self):
        system = weighted_system()
        for lam in compositions(5):
            for mu in compositions(5):
                plain = sum(
                    (Fraction(s) for _, s in local_g_refine(lam, mu)),
                    start=Fraction(0),
                )
                assert local_lhs(system, lam, mu) == Fraction(lam[-1], mu[-1]) * plain

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sign_adjusted_pair_is_inverse(self, n):
        assert is_identity_product(psi_to_h_matrix(n), h_to_psi_matrix(n))
        assert is_identity_product(h_to_psi_matrix(n), psi_to_h_matrix(n))

    def test_sign_adjusted_entries_relate_to_weighted_pair(self):
        n = 5
        weighted_b = weighted_mobius_matrix(n)
        unsigned = h_to_psi_matrix(n)
        for beta in compositions(n):
            for lam in compositions(n):
                assert unsigned.entry(beta, lam) == abs(weighted_b.entry(lam, beta))
