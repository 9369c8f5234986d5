import re
from fractions import Fraction
from itertools import permutations as all_permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

import goldens
from combinv.core import (
    chain_of,
    compositions,
    is_rim_hook,
    partitions,
    sort_comp,
)
from combinv.framework import build_A, build_B
from combinv.kostka import rht_sign, srh_removals
from combinv.rimhook import (
    Abacus,
    Permutation,
    abacus_from_partition,
    abacus_move_bead,
    border_hook,
    border_number_of_hook,
    cyc_comp,
    cyc_part,
    enumerate_rht,
    hook_removals,
    hook_successors,
    hook_table,
    is_rht,
    rimhook_pair,
    rimhook_system,
)
from oracles import (
    border_number_by_cell,
    cell_at,
    centralizer_order,
    check_sorting_condition,
    count_by_cyc_comp,
    diagram,
    factorial_scaled_b,
    hook_sign,
    is_hook_removal,
    is_identity_product,
    is_rim_hook_cells,
    is_special_rim_hook,
    shape_contains,
    square_fold_B,
    square_restrict_A,
)


@st.composite
def partition_strategy(draw, max_n=14):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=n))
        parts.append(p)
        n -= p
    return tuple(sorted(parts, reverse=True))


def canonical_cycle_lengths(mapping):
    """Independent oracle for the cycle composition of a permutation dict."""
    cycles = []
    seen = set()
    for start in sorted(mapping):
        if start in seen:
            continue
        length, y = 0, start
        while y not in seen:
            seen.add(y)
            length += 1
            y = mapping[y]
        cycles.append((start, length))
    cycles.sort(key=lambda c: -c[0])
    return tuple(length for _, length in cycles)


def brute_g_rimhook(lam, mu):
    """Oracle for shared intermediates via cell-set predicates only."""
    n = sum(lam)
    out = []
    for length in range(1, n + 1):
        for gamma in partitions(n - length):
            if not (shape_contains(lam, gamma) and shape_contains(mu, gamma)):
                continue
            first = diagram(lam) - diagram(gamma)
            second = diagram(mu) - diagram(gamma)
            if is_rim_hook_cells(first) and is_rim_hook_cells(second):
                out.append((gamma, hook_sign(first) * hook_sign(second)))
    return out


def subshapes(lam):
    """Every partition gamma with dg(gamma) inside dg(lam), the empty one and
    lam itself included."""
    return [
        gamma
        for k in range(sum(lam) + 1)
        for gamma in partitions(k)
        if shape_contains(lam, gamma)
    ]


class TestBorderHooks:
    def test_count_equals_size(self):
        for n in range(1, 9):
            for lam in partitions(n):
                removals = hook_removals(lam)
                assert len(removals) == n
                cell_sets = {diagram(lam) - diagram(g) for g, _, _ in removals}
                assert len(cell_sets) == n

    def test_removals_are_valid(self):
        for n in range(1, 9):
            for lam in partitions(n):
                for gamma, size, sign in hook_removals(lam):
                    assert shape_contains(lam, gamma)
                    cells = diagram(lam) - diagram(gamma)
                    assert is_rim_hook_cells(cells)
                    assert hook_sign(cells) == sign
                    assert len(cells) == size

    def test_figure_example(self):
        gamma, size, _ = border_hook((5, 5, 4, 4, 3), (2, 2))
        assert gamma == (5, 3, 3, 2, 1)
        assert size == 7
        assert diagram((5, 5, 4, 4, 3)) - diagram(gamma) == frozenset(
            {(2, 4), (2, 5), (3, 4), (4, 3), (4, 4), (5, 2), (5, 3)}
        )

    def test_single_row(self):
        gamma, size, sign = border_hook((6,), cell_at((6,), 1))
        assert gamma == () and size == 6 and sign == 1

    def test_choice_example(self):
        assert cell_at((5, 4, 4, 3, 2), 15) == (4, 2)
        gamma, size, _ = border_hook((5, 4, 4, 3, 2), cell_at((5, 4, 4, 3, 2), 15))
        assert gamma == (5, 4, 4, 1, 1)
        assert size == 3

    def test_number_round_trip(self):
        for n in range(1, 9):
            for lam in partitions(n):
                for number in range(1, n + 1):
                    gamma, _, _ = border_hook(lam, cell_at(lam, number))
                    assert border_number_of_hook(lam, gamma) == number

    def test_invalid_hook_rejected(self):
        # dg((2, 2)) - dg(()) is the 2x2 square, which no border hook removes
        with pytest.raises(ValueError):
            border_number_of_hook((2, 2), ())

    def test_non_partitions_are_refused(self):
        # (1, 3) used to list a size-0 "hook" leaving (2, 3) and to number
        # (1,) as hook 2 of it; (3, 1, 0) was an "empty hook" of (3, 1)
        with pytest.raises(ValueError, match=r"\(1, 3\) is not a partition"):
            hook_removals((1, 3))
        with pytest.raises(ValueError, match=r"\(1, 3\) is not a partition"):
            hook_table((1, 3))
        with pytest.raises(ValueError, match=r"\(1, 3\) is not a partition"):
            border_number_of_hook((1, 3), (1,))
        with pytest.raises(ValueError, match=r"\(3, 1, 0\) is not a partition"):
            border_number_of_hook((3, 1), (3, 1, 0))
        # the rule answers False on a shape with no hook table
        assert not is_rim_hook((1, 3), (1,))

    @pytest.mark.parametrize("n", range(0, 11))
    def test_hook_table_matches_cell_rule(self, n):
        """Hook k of the table is the border hook of the k-th cell, and every
        smaller partition gamma has the number the cell rule gives it, or
        the ValueError, message included, that the rule raises."""
        smaller = [gamma for m in range(n) for gamma in partitions(m)]
        for lam in partitions(n):
            hooks, numbers = hook_table(lam)
            assert hooks == tuple(border_hook(lam, cell_at(lam, k)) for k in range(1, n + 1))
            assert sorted(numbers.values()) == list(range(1, n + 1))
            for gamma in smaller:
                try:
                    expected = border_number_by_cell(lam, gamma)
                except ValueError as error:
                    assert gamma not in numbers
                    with pytest.raises(ValueError, match="^%s$" % re.escape(str(error))):
                        border_number_of_hook(lam, gamma)
                else:
                    assert numbers[gamma] == border_number_of_hook(lam, gamma) == expected

    def test_hook_table_is_read_only(self):
        hooks, numbers = hook_table((2, 1))
        with pytest.raises(TypeError):
            numbers[(9,)] = 1
        assert isinstance(hooks, tuple)

    def test_hook_removal_needs_containment(self):
        assert (1,) in hook_successors((2, 2), 3)
        assert is_rim_hook((2, 2), (1,))
        # each inner shape is smaller than the outer one but not inside it
        for outer, inner in [((3, 1), (1, 1, 1)), ((2, 2), (3,)), ((2, 2), (1, 1, 1)),
                             ((3, 1, 1), (4,)), ((3, 1, 1), (1, 1, 1, 1))]:
            length = sum(outer) - sum(inner)
            assert length > 0
            assert inner not in hook_successors(outer, length)
            assert not is_rim_hook(outer, inner)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_shape_predicates_match_cell_set_oracle(self, n):
        """Every gamma inside lam: is_hook_removal, membership in the
        hook_removals and srh_removals shapes, and border_number_of_hook
        agree with the cell-set oracles on dg(lam) - dg(gamma)."""
        for lam in partitions(n):
            hooks = {g: (size, sign) for g, size, sign in hook_removals(lam)}
            special = {g: (size, sign) for g, size, sign in srh_removals(lam)}
            assert len(hooks) == n and len(special) == len(lam)
            for gamma in subshapes(lam):
                cells = diagram(lam) - diagram(gamma)
                rim = is_rim_hook_cells(cells)
                assert is_hook_removal(lam, gamma) == rim, (lam, gamma)
                assert (gamma in hooks) == rim, (lam, gamma)
                assert (gamma in special) == is_special_rim_hook(cells), (lam, gamma)
                if gamma in special:
                    assert special[gamma] == (len(cells), hook_sign(cells))
                if rim:
                    assert hooks[gamma] == (len(cells), hook_sign(cells))
                    number = border_number_of_hook(lam, gamma)
                    assert border_hook(lam, cell_at(lam, number))[0] == gamma
                else:
                    with pytest.raises(ValueError):
                        border_number_of_hook(lam, gamma)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_hook_successors_match_filtered_removals(self, n):
        # the oracle builds every border hook and keeps those of size L
        for lam in partitions(n):
            removals = hook_removals(lam)
            for length in range(n + 2):
                expected = [g for g, size, _ in removals if size == length]
                assert hook_successors(lam, length) == expected, (lam, length)


class TestRht:
    def test_signed_example(self):
        tableaux = enumerate_rht((4, 3, 3, 1), (3, 4, 4))
        assert len(tableaux) == 2
        assert all(sign == -1 for _, sign in tableaux)

    def test_single_hook(self):
        tableaux = enumerate_rht((3, 1), (4,))
        assert len(tableaux) == 1 and tableaux[0][1] == -1
        row = enumerate_rht((5,), (5,))
        assert len(row) == 1 and row[0][1] == 1

    def test_validity_and_signs(self):
        for n in range(1, 6):
            for lam in partitions(n):
                for beta in compositions(n):
                    for filling, sign in enumerate_rht(lam, beta):
                        chain = chain_of(filling)
                        assert is_rht(chain, lam, beta)
                        assert rht_sign(chain) == sign

    @pytest.mark.parametrize("n", range(1, 8))
    def test_signed_sums_match_matrix(self, n):
        matrix = build_A(rimhook_system(), n)
        for lam in partitions(n):
            for beta in compositions(n):
                total = sum(sign for _, sign in enumerate_rht(lam, beta))
                assert matrix.entry(lam, beta) == total

    def test_b_is_scaled_transpose(self):
        a4, b4 = goldens.RIMHOOK_A4, goldens.RIMHOOK_B4
        for beta in b4.row_keys:
            z = 1
            acc = 0
            for part in beta:
                acc += part
                z *= acc
            for mu in b4.col_keys:
                assert b4.entry(beta, mu) == Fraction(a4.entry(mu, beta), z)

    def test_removable_hook_census(self):
        system = rimhook_system()
        for n in range(1, 9):
            for lam in partitions(n):
                total = sum(
                    len(system.succ_a(lam, length)) for length in range(1, n + 1)
                )
                assert total == n


class TestAbacus:
    def test_worked_word(self):
        abacus = abacus_from_partition((4, 3, 3, 2, 2, 1), 9)
        assert abacus.word_string(16) == "1110101101101000"

    def test_empty_partition(self):
        assert abacus_from_partition((), 3).word_string(6) == "111000"

    def test_round_trip(self):
        for n in range(11):
            for lam in partitions(n):
                for beads in (len(lam), len(lam) + 3):
                    assert abacus_from_partition(lam, beads).partition() == lam

    def test_too_few_beads(self):
        with pytest.raises(ValueError):
            abacus_from_partition((2, 1, 1), 2)

    def test_non_partition(self):
        with pytest.raises(ValueError, match="not a partition"):
            abacus_from_partition((2, 3), 3)

    def test_worked_removal(self):
        abacus = abacus_from_partition((4, 3, 3, 2, 2, 1), 9)
        moved, sign = abacus_move_bead(abacus, 10, 5)
        assert moved.partition() == (4, 2, 1, 1, 1, 1)
        assert sign == -1

    def test_adjacent_move_sign(self):
        abacus = abacus_from_partition((2, 1), 2)
        source = next(p for p in range(10) if abacus.bit(p) == 1 and abacus.bit(p - 1) == 0 and p > 0)
        _, sign = abacus_move_bead(abacus, source, source - 1)
        assert sign == 1

    def test_move_errors(self):
        abacus = abacus_from_partition((2,), 1)
        with pytest.raises(ValueError):
            abacus_move_bead(abacus, 0, 5)  # gap at source
        with pytest.raises(ValueError):
            abacus_move_bead(abacus, 2, 2)

    def test_json_round_trip(self):
        abacus = abacus_from_partition((3, 1), 4)
        assert Abacus.from_json(abacus.to_json()) == abacus

    def test_json_bead_count_is_an_int(self):
        # 2.7 is not read as 2 beads, nor "2" or True as a count
        for beads in [2.7, 2.0, "2", True, None]:
            with pytest.raises(ValueError, match="bead count must be an integer"):
                Abacus.from_json({"beads": beads, "word": "101"})
        assert Abacus.from_json({"beads": 2, "word": "101"}) == Abacus(2, (1, 0, 1))

    def test_words_are_binary(self):
        # a bead is a 1 and a gap a 0; any other entry is refused by both
        # constructors rather than read as a gap or a bead
        for word in [(2,), (1, 0, 2), (1, -1, 1)]:
            beads = sum(word)
            with pytest.raises(ValueError, match="0 or 1"):
                Abacus(beads, word)
        for text in ["2", "102", "1201"]:
            beads = sum(map(int, text))
            with pytest.raises(ValueError, match="0 or 1"):
                Abacus.from_json({"beads": beads, "word": text})
        for n in range(7):
            for lam in partitions(n):
                abacus = abacus_from_partition(lam, len(lam) + 2)
                assert Abacus.from_json(abacus.to_json()) == abacus

    @given(partition_strategy(), st.integers(min_value=0, max_value=5))
    def test_round_trip_property(self, lam, extra):
        beads = len(lam) + extra
        if beads == 0:
            beads = 1
        assert abacus_from_partition(lam, beads).partition() == lam

    @given(partition_strategy(), st.data())
    def test_random_moves_preserve_bead_count(self, lam, data):
        abacus = abacus_from_partition(lam, len(lam) + 3)
        horizon = len(abacus.word) + 4
        beads = [p for p in range(horizon) if abacus.bit(p) == 1]
        gaps = [p for p in range(horizon) if abacus.bit(p) == 0]
        source = data.draw(st.sampled_from(beads))
        target = data.draw(st.sampled_from(gaps))
        moved, sign = abacus_move_bead(abacus, source, target)
        assert sign in (-1, 1)
        assert moved.beads == abacus.beads
        assert sum(moved.word) == sum(abacus.word)
        back, back_sign = abacus_move_bead(moved, target, source)
        assert back == abacus and back_sign == sign

    def test_hook_removal_matches_bead_jump(self):
        for n in range(1, 9):
            for lam in partitions(n):
                beads = len(lam) + 2
                abacus = abacus_from_partition(lam, beads)
                padded = lam + (0,) * (beads - len(lam))
                for number in range(1, n + 1):
                    gamma, size, sign = border_hook(lam, cell_at(lam, number))
                    i, _ = cell_at(lam, number)
                    assert size == len(diagram(lam) - diagram(gamma))
                    source = beads - i + padded[i - 1]
                    moved, bead_sign = abacus_move_bead(abacus, source, source - size)
                    assert moved.partition() == gamma
                    assert bead_sign == sign


class TestPair:
    def test_two_way_example(self):
        pairing = rimhook_pair((9, 8, 6, 6, 5, 4, 4, 2), (9, 9, 9, 7, 5, 3, 1, 1))
        assert pairing.kind == "matched"
        assert pairing.members == (
            ((9, 8, 6, 6, 5, 3, 1, 1), 1),
            ((9, 8, 6, 4, 3, 3, 1, 1), -1),
        )

    def test_diagonal_census(self):
        pairing = rimhook_pair((2, 1), (2, 1))
        assert pairing.kind == "diagonal"
        assert len(pairing.members) == 3
        for n in range(1, 11):
            for lam in partitions(n):
                assert len(rimhook_pair(lam, lam).members) == n

    def test_signed_sum_cancels(self):
        pairing = rimhook_pair((4,), (2, 2))
        assert pairing.kind == "matched"
        assert sum(sign for _, sign in pairing.members) == 0

    def test_non_partition(self):
        with pytest.raises(ValueError, match="not a partition"):
            rimhook_pair((1, 2), (2, 1))
        with pytest.raises(ValueError, match="not a partition"):
            enumerate_rht((1, 3), (2, 2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exactness_against_brute_force(self, n):
        for lam in partitions(n):
            for mu in partitions(n):
                oracle = brute_g_rimhook(lam, mu)
                if lam == mu:
                    assert len(oracle) == n
                    continue
                pairing = rimhook_pair(lam, mu)
                if not oracle:
                    assert pairing.kind == "empty"
                    continue
                assert len(oracle) == 2
                assert sorted(s for _, s in oracle) == [-1, 1]
                assert sorted(pairing.members) == sorted(oracle)


class TestSquare:
    def test_square_inverse_formula(self):
        for n in range(1, 8):
            system = rimhook_system()
            a = build_A(system, n)
            assert check_sorting_condition(a)
            b_square = square_fold_B(build_B(system, n))
            for lam in partitions(n):
                for mu in partitions(n):
                    assert b_square.entry(lam, mu) == Fraction(
                        a.entry(mu, lam), centralizer_order(lam)
                    )
            assert is_identity_product(square_restrict_A(a), b_square)

    def test_scaled_b_is_integral(self):
        for n in range(6):
            matrix = factorial_scaled_b(n)
            assert all(e.denominator == 1 for row in matrix.entries for e in row)


class TestPermutations:
    def test_canonical_notation_example(self):
        sigma = Permutation.from_cycles([(5, 2, 1), (6, 4, 7), (9, 3), (8,)])
        assert sigma.canonical_cycles() == ((8,), (4, 7, 6), (3, 9), (1, 5, 2))
        assert cyc_comp(sigma) == (1, 3, 2, 3)
        assert cyc_part(sigma) == (3, 3, 2, 1)

    def test_identity(self):
        sigma = Permutation.identity(tuple(range(1, 6)))
        assert cyc_comp(sigma) == (1, 1, 1, 1, 1)

    def test_arbitrary_ground(self):
        sigma = Permutation.from_cycles([(5, 8, 6), (2, 10, 9, 4)])
        assert sigma.ground == (2, 4, 5, 6, 8, 9, 10)
        assert sigma.canonical_cycles() == ((5, 8, 6), (2, 10, 9, 4))
        assert cyc_comp(sigma) == (3, 4)

    def test_not_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation({1: 2, 2: 2})

    def test_json_round_trip(self):
        sigma = Permutation.from_cycles([(5, 2, 1), (6, 4, 7), (9, 3), (8,)])
        assert Permutation.from_json(sigma.to_json()) == sigma

    def test_canonical_cycles_are_a_plain_value(self):
        # worked out from the mapping alone: equal on every call, and the
        # same for a permutation read back from its JSON
        sigma = Permutation.from_cycles([(5, 2, 1), (6, 4, 7), (9, 3), (8,)])
        first = sigma.canonical_cycles()
        assert sigma.canonical_cycles() == first == ((8,), (4, 7, 6), (3, 9), (1, 5, 2))
        assert Permutation.from_json(sigma.to_json()).canonical_cycles() == first
        assert Permutation.__slots__ == ("ground", "mapping")


class TestCycleCounts:
    def test_known_values(self):
        assert count_by_cyc_comp(7, (3, 2, 2)) == 48
        assert count_by_cyc_comp(7, (2, 3, 2)) == 72
        assert count_by_cyc_comp(7, (2, 2, 3)) == 90
        assert count_by_cyc_comp(5, (1, 1, 1, 1, 1)) == 1
        assert count_by_cyc_comp(5, (2, 3)) == 12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            count_by_cyc_comp(4, (2, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_brute_force(self, n):
        counts = {}
        for perm in all_permutations(range(1, n + 1)):
            beta = canonical_cycle_lengths(dict(zip(range(1, n + 1), perm)))
            counts[beta] = counts.get(beta, 0) + 1
        for beta in compositions(n):
            assert count_by_cyc_comp(n, beta) == counts.get(beta, 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_sum(self, n):
        for lam in partitions(n):
            total = sum(
                count_by_cyc_comp(n, beta)
                for beta in compositions(n)
                if sort_comp(beta) == lam
            )
            assert total == factorial(n) // centralizer_order(lam)
