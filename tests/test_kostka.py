import pytest

from combinv.core import (
    Filling,
    chain_of,
    compositions,
    is_partition,
    partitions,
)
from combinv.framework import build_A, build_B
from combinv.kostka import (
    enumerate_ssyt,
    is_srht,
    is_ssyt,
    kostka_pair,
    kostka_system,
    srh_removals,
    rht_sign,
    srht_find,
    strip_removals,
)
from oracles import (
    cells_of,
    check_sorting_condition,
    diagram,
    hook_sign,
    is_horizontal_strip,
    is_rim_hook_cells,
    is_special_rim_hook,
    shape_contains,
)


def brute_force_ssyt(lam, beta):
    """Oracle: place labels cell by cell with direct constraint checks."""
    cells = sorted(diagram(lam))
    supply = []
    for k, count in enumerate(beta, start=1):
        supply.extend([k] * count)
    results = []

    def place(idx, grid):
        if idx == len(cells):
            rows = [[grid[(i, j)] for j in range(1, row + 1)] for i, row in enumerate(lam, 1)]
            results.append(Filling(rows))
            return
        i, j = cells[idx]
        tried = set()
        for v in set(supply):
            if v in tried or supply.count(v) - sum(1 for c in grid.values() if c == v) == 0:
                continue
            tried.add(v)
            if (i, j - 1) in grid and grid[(i, j - 1)] > v:
                continue
            if (i - 1, j) in grid and grid[(i - 1, j)] >= v:
                continue
            grid[(i, j)] = v
            place(idx + 1, grid)
            del grid[(i, j)]

    place(0, {})
    return results


def brute_g_kostka(lam, mu):
    """Oracle for the shared intermediates, via cell-set predicates only."""
    n = sum(lam)
    out = []
    for length in range(1, n + 1):
        for gamma in partitions(n - length):
            if not (shape_contains(lam, gamma) and shape_contains(mu, gamma)):
                continue
            strip = diagram(lam) - diagram(gamma)
            hook = diagram(mu) - diagram(gamma)
            if is_horizontal_strip(strip) and is_special_rim_hook(hook):
                out.append((gamma, hook_sign(hook)))
    return out


class TestPredicates:
    def test_horizontal_strip(self):
        assert is_horizontal_strip(frozenset({(1, 3), (2, 1), (2, 2)}))
        assert not is_horizontal_strip(frozenset({(1, 2), (2, 2)}))

    def test_rim_hook(self):
        assert is_rim_hook_cells(frozenset({(2, 1), (2, 2), (1, 2), (1, 3)}))
        assert not is_rim_hook_cells(frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
        assert not is_rim_hook_cells(frozenset({(1, 1), (1, 3)}))
        assert not is_rim_hook_cells(frozenset())

    def test_special_rim_hook(self):
        assert is_special_rim_hook(frozenset({(3, 1), (2, 1), (2, 2)}))
        assert not is_special_rim_hook(frozenset({(2, 2), (1, 2), (1, 3)}))

    def test_hook_sign(self):
        assert hook_sign(frozenset({(1, 1), (1, 2)})) == 1
        assert hook_sign(frozenset({(2, 1), (1, 1)})) == -1


class TestSsyt:
    def test_is_ssyt_examples(self):
        good = Filling(((1, 1, 2, 2), (2, 3, 3)))
        assert is_ssyt(chain_of(good), (4, 3), (2, 3, 2))
        assert is_ssyt(chain_of(Filling(((1,) * 5,))), (5,), (5,))
        assert not is_ssyt(chain_of(Filling(((1, 2), (1, 2)))), (2, 2), (2, 2))

    def test_enumerate_examples(self):
        assert len(enumerate_ssyt((4, 3), (2, 3, 2))) == 2
        assert len(enumerate_ssyt((3, 1), (2, 1, 1))) == 2
        assert enumerate_ssyt((1, 1, 1, 1), (4,)) == []
        with pytest.raises(ValueError):
            enumerate_ssyt((2, 1), (2, 2))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_enumeration_matches_brute_force(self, n):
        for lam in partitions(n):
            for beta in compositions(n):
                fast = enumerate_ssyt(lam, beta)
                slow = brute_force_ssyt(lam, beta)
                assert sorted(f.rows for f in fast) == sorted(f.rows for f in slow)
                assert all(is_ssyt(chain_of(f), lam, beta) for f in fast)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_matrix(self, n):
        matrix = build_A(kostka_system(), n)
        for lam in partitions(n):
            for beta in compositions(n):
                assert len(enumerate_ssyt(lam, beta)) == matrix.entry(lam, beta)

    def test_prefixes_are_partition_strips(self):
        for lam in partitions(5):
            for beta in compositions(5):
                for filling in enumerate_ssyt(lam, beta):
                    cells = set()
                    for k in range(1, len(beta) + 1):
                        layer = cells_of(filling, k)
                        assert is_horizontal_strip(layer)
                        cells |= layer
                        rows = [i for i, _ in cells]
                        prefix = tuple(rows.count(i) for i in range(1, max(rows) + 1))
                        assert is_partition(prefix) and diagram(prefix) == cells


class TestSrht:
    def test_find_examples(self):
        found = srht_find((3, 3, 3), (3, 2, 4))
        assert found is not None and found[1] == -1
        assert found[0] == Filling(((1, 1, 1), (2, 2, 3), (3, 3, 3)))
        found2 = srht_find((3, 3, 3), (2, 4, 3))
        assert found2 is not None and found2[1] == -1
        assert srht_find((3, 3, 3), (4, 2, 3)) is None
        found3 = srht_find((2, 1, 1), (2, 1, 1))
        assert found3 is not None and found3[1] == 1

    def test_found_objects_are_valid(self):
        for n in range(1, 7):
            for mu in partitions(n):
                for beta in compositions(n):
                    found = srht_find(mu, beta)
                    if found is not None:
                        chain = chain_of(found[0])
                        assert is_srht(chain, mu, beta)
                        assert rht_sign(chain) == found[1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_signed_sums_match_matrix(self, n):
        matrix = build_B(kostka_system(), n)
        for mu in partitions(n):
            for beta in compositions(n):
                found = srht_find(mu, beta)
                expected = found[1] if found else 0
                assert matrix.entry(beta, mu) == expected

    def test_removals_are_special_rim_hooks(self):
        for n in range(1, 9):
            for mu in partitions(n):
                removals = srh_removals(mu)
                assert len(removals) == len(mu)
                sizes = [size for _, size, _ in removals]
                assert sorted(sizes, reverse=True) == sizes
                assert len(set(sizes)) == len(sizes)
                for gamma, size, sign in removals:
                    assert is_partition(gamma) and shape_contains(mu, gamma)
                    cells = diagram(mu) - diagram(gamma)
                    assert is_special_rim_hook(cells)
                    assert hook_sign(cells) == sign
                    assert len(cells) == size


class TestSystemSets:
    def test_strip_removals_example(self):
        assert set(strip_removals((4, 3), 2)) == {(4, 1), (3, 2)}

    def test_srh_successor_example(self):
        system = kostka_system()
        assert system.succ_b((3, 3, 3), 4) == [(3, 2)]
        assert system.succ_b((3, 3, 3), 99) == []

    def test_sorting_condition(self):
        for n in range(1, 8):
            assert check_sorting_condition(build_A(kostka_system(), n))


class TestPair:
    def test_diagonal(self):
        pairing = kostka_pair((6, 4, 2, 1), (6, 4, 2, 1))
        assert pairing.kind == "diagonal"
        assert pairing.members == (((6, 4, 2), 1),)

    def test_running_example(self):
        pairing = kostka_pair((6, 4, 2, 1), (4, 3, 3, 3))
        assert pairing.kind == "matched"
        assert {g for g, _ in pairing.members} == {(4, 2, 2), (4, 3, 2)}

    def test_second_case_example(self):
        pairing = kostka_pair((7, 2), (4, 3, 2))
        assert pairing.kind == "matched"
        assert {g for g, _ in pairing.members} == {(2, 1), (4, 1)}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka_pair((2, 1), (2, 2))

    def test_non_partition(self):
        with pytest.raises(ValueError, match="not a partition"):
            kostka_pair((1, 2), (2, 1))
        with pytest.raises(ValueError, match="not a partition"):
            enumerate_ssyt((1, 2), (2, 1))
        with pytest.raises(ValueError, match="not a partition"):
            srht_find((1, 2), (3,))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exactness_against_brute_force(self, n):
        for lam in partitions(n):
            for mu in partitions(n):
                if lam == mu:
                    continue
                oracle = brute_g_kostka(lam, mu)
                pairing = kostka_pair(lam, mu)
                if not oracle:
                    assert pairing.kind == "empty"
                    continue
                assert len(oracle) == 2
                signs = sorted(s for _, s in oracle)
                assert signs == [-1, 1]
                assert pairing.kind == "matched"
                assert sorted(pairing.members) == sorted(oracle)
