import inspect
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

import goldens

from combinv.core import (
    Filling,
    chain_of,
    column_length,
    compositions,
    filling_of,
    is_partition,
    is_rim_hook,
    last_part_sum,
    multiplicity,
    multiset_diff,
    partitions,
    sort_comp,
    successors_by_size,
    walk_chains,
)
from combinv.brick import enumerate_obt, part_decrements, sub_multisets_of_size
from combinv.involutions import KostkaPair, kostka_survivor
from combinv.kostka import (
    _is_special_hook,
    _is_strip,
    enumerate_ssyt,
    is_srht,
    is_ssyt,
    kostka_pair,
    rht_sign,
    srh_removals,
    srh_successors,
    srht_find,
    strip_removals,
)
from combinv.refine import cbt_find
from combinv.rimhook import enumerate_rht, hook_removals, hook_successors, is_rht
from oracles import (
    all_fillings,
    cells_of,
    centralizer_order,
    diagram,
    hook_sign,
    is_hook_removal,
    is_horizontal_strip,
    is_rim_hook_cells,
    is_special_rim_hook,
    is_strip_removal,
    last_part_sum_multinomial,
    multiset_intersect,
    multiset_union,
    partial_sum_product,
)
from test_removal_tables import _module_caches


def brute_compositions(n):
    """Independent oracle: compositions from cut-point subsets."""
    if n == 0:
        return [()]
    out = []
    for mask in range(2 ** (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
        bounds = [0] + cuts + [n]
        out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def brute_partitions(n):
    return sorted({sort_comp(c) for c in brute_compositions(n)}, reverse=True)


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=n))
        parts.append(p)
        n -= p
    return tuple(sorted(parts, reverse=True))


class TestCompositions:
    def test_order_n4(self):
        assert compositions(4) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 3), (1, 2, 1), (1, 1, 2),
            (1, 1, 1, 1),
        ]

    def test_empty(self):
        assert compositions(0) == [()]

    def test_n5_against_oracle(self):
        expected = sorted(brute_compositions(5), reverse=True)
        got = compositions(5)
        assert got == expected
        assert len(got) == 16
        assert got[:4] == [(5,), (4, 1), (3, 2), (3, 1, 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_and_sorting(self, n):
        comps = compositions(n)
        assert len(comps) == 2 ** (n - 1)
        parts = set(partitions(n))
        assert all(sort_comp(c) in parts for c in comps)


class TestPartitions:
    def test_order_n4(self):
        assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_empty(self):
        assert partitions(0) == [()]

    def test_n6_against_oracle(self):
        got = partitions(6)
        assert got == brute_partitions(6)
        assert len(got) == 11
        assert got[0] == (6,) and got[-1] == (1,) * 6


class TestSortAndTruncate:
    def test_sort_examples(self):
        assert sort_comp((1, 3, 2, 3)) == (3, 3, 2, 1)
        assert sort_comp(()) == ()
        assert sort_comp((2, 1, 1, 2, 1, 3, 1, 1)) == (3, 2, 2, 1, 1, 1, 1, 1)

    @given(st.lists(st.integers(min_value=1, max_value=9), max_size=8))
    def test_sort_preserves_multiset(self, parts):
        alpha = tuple(parts)
        assert sorted(sort_comp(alpha)) == sorted(alpha)


class TestScalars:
    def test_partial_sum_product(self):
        assert partial_sum_product((3, 4, 4)) == 231
        assert partial_sum_product((4, 3, 4)) == 308
        assert partial_sum_product((7,)) == 7
        assert partial_sum_product(()) == 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_partial_sum_product_recursion(self, n):
        for beta in compositions(n):
            assert partial_sum_product(beta) == n * partial_sum_product(beta[:-1])

    def test_centralizer_order(self):
        assert centralizer_order((3, 2, 2)) == 24
        assert centralizer_order((5,)) == 5
        assert centralizer_order((1, 1, 1, 1)) == 24

    @pytest.mark.parametrize("n", range(1, 10))
    def test_harmonic_identity(self, n):
        # reciprocal partial-sum products over a sort class sum to
        # the reciprocal centralizer order
        by_class = {}
        for beta in compositions(n):
            by_class.setdefault(sort_comp(beta), Fraction(0))
            by_class[sort_comp(beta)] += Fraction(1, partial_sum_product(beta))
        for lam, total in by_class.items():
            assert total == Fraction(1, centralizer_order(lam))

    def test_class_sizes_against_brute_force(self):
        # n!/centralizer_order counts permutations of that cycle type
        for n in range(1, 6):
            counts = {}
            for perm in permutations(range(1, n + 1)):
                mapping = dict(zip(range(1, n + 1), perm))
                lengths = []
                seen = set()
                for x in mapping:
                    if x in seen:
                        continue
                    cyc, y = 0, x
                    while y not in seen:
                        seen.add(y)
                        cyc += 1
                        y = mapping[y]
                    lengths.append(cyc)
                key = tuple(sorted(lengths, reverse=True))
                counts[key] = counts.get(key, 0) + 1
            for lam in partitions(n):
                assert counts[lam] == factorial(n) // centralizer_order(lam)


class TestLastPartSum:
    def test_examples(self):
        assert last_part_sum((7,)) == 7
        assert last_part_sum((3, 1, 1)) == 5
        assert last_part_sum((3, 1)) == 4
        assert last_part_sum((1, 1)) == 1

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            last_part_sum(())

    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_form_equals_enumeration(self, n):
        for mu in partitions(n):
            rearrangements = [c for c in compositions(n) if sort_comp(c) == mu]
            assert last_part_sum(mu) == sum(c[-1] for c in rearrangements)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_multinomial_formula(self, n):
        for mu in partitions(n):
            assert last_part_sum(mu) == last_part_sum_multinomial(mu)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_deletion_recursion(self, n):
        for mu in partitions(n):
            if mu == (n,):
                continue
            total = sum(last_part_sum(multiset_diff(mu, (i,))) for i in set(mu))
            assert last_part_sum(mu) == total


class TestMultisets:
    def test_worked_example(self):
        lam, mu = (4, 2, 2, 1, 1, 1), (3, 2, 1, 1)
        assert multiset_intersect(lam, mu) == (2, 1, 1)
        assert multiset_diff(lam, mu) == (4, 2, 1)
        assert multiset_diff(mu, lam) == (3,)
        assert multiset_union(lam, mu) == (4, 3, 2, 2, 2, 1, 1, 1, 1, 1)

    def test_self(self):
        lam = (3, 2)
        assert multiset_diff(lam, lam) == ()

    def test_clamps_at_zero(self):
        assert multiset_diff((3, 1, 1), (2, 1, 1, 1)) == (3,)
        assert multiset_diff((2, 2), (3, 2, 2, 2)) == ()

    def test_unsorted_subtrahend(self):
        assert multiset_diff((4, 3, 1, 1), (1, 4, 2)) == (3, 1)
        assert multiset_diff((5, 2, 2, 1), (2, 1, 2)) == (5,)

    def test_multiplicity(self):
        assert multiplicity((3, 3, 2), 3) == 2
        assert multiplicity((3, 3, 2), 5) == 0
        assert multiplicity((5, 4, 4, 3, 2), 4) == 2

    @given(partition_strategy(), partition_strategy())
    def test_union_diff_multiplicities(self, lam, mu):
        values = set(lam) | set(mu) | {1}
        for v in values:
            assert multiplicity(multiset_union(lam, mu), v) == multiplicity(
                lam, v
            ) + multiplicity(mu, v)
            assert multiplicity(multiset_intersect(lam, mu), v) == min(
                multiplicity(lam, v), multiplicity(mu, v)
            )
            assert multiplicity(multiset_diff(lam, mu), v) == max(
                multiplicity(lam, v) - multiplicity(mu, v), 0
            )


class TestDiagrams:
    def test_column_length(self):
        assert column_length((5, 5, 4, 4, 3), 2) == 5
        assert column_length((5, 5, 4, 4, 3), 5) == 2
        assert column_length((5, 5, 4, 4, 3), 6) == 0


class TestSuccessorsBySize:
    def test_removals_run_once_per_shape(self):
        calls = []

        @successors_by_size
        def first_parts(shape):
            """The shape without its first part, a removal of that part's size."""
            calls.append(shape)
            return [(shape[1:], shape[0])] if shape else []

        shapes = [(), (1,), (4, 2), (5, 5, 1)]
        for shape in shapes:
            for length in range(sum(shape) + 2):
                expected = [shape[1:]] if shape and length == shape[0] else []
                assert first_parts(shape, length) == expected
        assert calls == shapes
        assert first_parts.cache_info().currsize == len(shapes)
        first_parts((4, 2), 4)
        assert calls == shapes
        first_parts.cache_clear()
        assert first_parts.cache_info().currsize == 0
        assert first_parts((4, 2), 4) == [(2,)]
        assert calls == shapes + [(4, 2)]
        assert first_parts.__name__ == "first_parts"
        assert first_parts.__doc__.startswith("The shape without its first part")

    def test_generator_removals_and_fresh_lists(self):
        @successors_by_size
        def rows(shape):
            """Each row, removed whole."""
            for i, part in enumerate(shape):
                yield shape[:i] + shape[i + 1 :], part

        assert rows((3, 1, 1), 1) == [(3, 1), (3, 1)]
        assert rows((3, 1, 1), 3) == [(1, 1)]
        assert rows((3, 1, 1), 2) == []
        answer = rows((3, 1, 1), 1)
        answer.clear()
        assert rows((3, 1, 1), 1) == [(3, 1), (3, 1)]

    def test_library_names_and_docs_are_kept(self):
        # goldens.SUCCESSOR_SHA256 and the benchmark tracer find them by name
        succs = [strip_removals, srh_successors, hook_successors,
                 part_decrements, sub_multisets_of_size]
        assert [succ.__name__ for succ in succs] == list(goldens.SUCCESSOR_SHA256)
        assert all(succ.__doc__ and succ.__qualname__ == succ.__name__ for succ in succs)
        # every one takes (shape, length), so lam=, mu= or removed= is a TypeError
        for succ in succs:
            assert list(inspect.signature(succ).parameters) == ["shape", "length"]
        with pytest.raises(TypeError):
            strip_removals(lam=(2, 1), length=1)

    def test_validators_list_no_tables(self):
        """Validators and kostka_pair ask each structure's rule on the two
        shapes, so they never list a shape's removals: the last prefix of
        the staircase survivor below has 2**30 horizontal strips.  No rule
        fills a module-level cache, is_rht's rim-hook rule included."""
        for cache in _module_caches():
            cache.cache_clear()
        stair = tuple(range(30, 0, -1))
        survivor = kostka_survivor(stair)
        assert KostkaPair.from_json(survivor.to_json()) == survivor
        assert kostka_pair(stair, (1,) * sum(stair)).kind == "empty"
        head = stair[:-3]
        matched = kostka_pair(stair, head + (2, 2, 2))
        assert matched.members == ((head + (2, 1), -1), (head + (2, 2), 1))
        column = filling_of(tuple((1,) * k for k in range(301)))
        chain, ones = chain_of(column), (1,) * 300
        assert is_ssyt(chain, column.shape, ones) and is_srht(chain, column.shape, ones)
        assert is_rht(chain, column.shape, ones)
        assert {cache.cache_info().currsize for cache in _module_caches()} == {0}

    @pytest.mark.parametrize("n", range(13))
    def test_tables_match_shape_predicates(self, n):
        """Every pair inner, outer with |inner| <= |outer| = n, L their size
        difference: membership in each successor table agrees with the
        closed shape rules and with srh_removals, and so does each
        structure's rule, _is_strip, _is_special_hook and is_rim_hook.  The
        inners include shapes longer than outer or not inside it.  Every
        rule refuses an inner with a zero part, an outer with a zero part
        and, for n >= 2, the reversed outer, which is no partition."""
        inners = [inner for m in range(n + 1) for inner in partitions(m)]
        rules = (_is_strip, _is_special_hook, is_rim_hook)
        for outer in partitions(n):
            special = [gamma for gamma, _, _ in srh_removals(outer)]
            for inner in inners:
                length = n - sum(inner)
                strip = inner in strip_removals(outer, length)
                assert strip == (length > 0 and is_strip_removal(outer, inner)), (outer, inner)
                hook = inner in hook_successors(outer, length)
                assert hook == is_hook_removal(outer, inner), (outer, inner)
                assert (inner in srh_successors(outer, length)) == (
                    inner in special
                ), (outer, inner)
                assert _is_strip(outer, inner) == strip, (outer, inner)
                assert is_rim_hook(outer, inner) == hook, (outer, inner)
                assert _is_special_hook(outer, inner) == (inner in special), (outer, inner)
                refused = [(outer, inner + (0,))]
                if outer != outer[::-1]:  # the reversed outer is no partition
                    refused.append((outer[::-1], inner))
                assert not any(rule(*pair) for rule in rules for pair in refused), (outer, inner)
                assert not any(rule(outer + (0,), inner) for rule in rules), (outer, inner)


# each removal structure's listing and its rule on two shapes share one shape
# contract: the listing refuses a shape that is no partition, checking it once
# per shape, and the rule answers False on it
NOT_PARTITIONS = [(2, 0), (3, 1, 0), (0,), (1, 3), (2, 3, 1), (2, 2, -1)]


@pytest.mark.parametrize(
    "listing, rule",
    [
        (lambda shape: strip_removals(shape, 1), _is_strip),
        (srh_removals, _is_special_hook),
        (lambda shape: srh_successors(shape, 1), _is_special_hook),
        (hook_removals, is_rim_hook),
    ],
    ids=["strip_removals", "srh_removals", "srh_successors", "hook_removals"],
)
@pytest.mark.parametrize("shape", NOT_PARTITIONS, ids=str)
def test_listing_and_rule_refuse_non_partitions(listing, rule, shape):
    with pytest.raises(ValueError, match=re.escape("%r is not a partition" % (shape,))):
        listing(shape)
    inners = [inner for m in range(sum(shape)) for inner in partitions(m)]
    assert not any(rule(shape, inner) for inner in inners), shape
    assert not rule(shape, shape[:1])


class TestFilling:
    def test_content_and_cells(self):
        f = Filling(((1, 1, 2), (2, 3)))
        assert f.shape == (3, 2)
        assert f.content() == (2, 2, 1)
        assert cells_of(f, 2) == frozenset({(1, 3), (2, 1)})
        assert f.max_label() == 3

    def test_json_round_trip(self):
        f = Filling(((1, 1), (2,)))
        assert Filling.from_json(f.to_json()) == f


def partition_of_cells(cells):
    """Oracle: the partition whose diagram is exactly `cells`, else None."""
    rows = Counter(i for i, _ in cells)
    shape = tuple(rows[i] for i in range(1, len(rows) + 1))
    return shape if is_partition(shape) and diagram(shape) == cells else None


def cell_set_tableau(filling, is_layer):
    """Oracle: every label class passes `is_layer` and every label prefix is
    a partition diagram, checked on cell sets only."""
    cells = frozenset()
    for k in range(1, filling.max_label() + 1):
        layer = cells_of(filling, k)
        cells |= layer
        if not is_layer(layer) or partition_of_cells(cells) is None:
            return False
    return True


class TestChains:
    def test_examples(self):
        f = Filling(((1, 1, 2), (2, 3)))
        chain = chain_of(f)
        assert chain == ((), (2,), (3, 1), (3, 2))
        assert filling_of(chain[:-1]) == Filling(((1, 1, 2), (2,)))
        assert filling_of(((),)) == Filling(())
        assert chain_of(Filling(())) == ((),)

    def test_filling_of_rows_that_keep_their_positions(self):
        # a chain of row-length tuples, as the brick walk builds it
        assert filling_of(((0, 0), (0, 2), (1, 2))) == Filling(((2,), (1, 1)))
        assert filling_of(((0, 0), (2, 0), (2, 1), (3, 1))) == Filling(
            ((1, 1, 3), (2,))
        )

    def test_non_partition_prefixes(self):
        assert chain_of(Filling(((1,), (2, 3)))) is None
        assert chain_of(Filling(((2, 1),))) is None
        assert chain_of(Filling(((2,), (1,)))) is None
        assert chain_of(Filling(((1, 1), (2, 2, 2)))) is None

    @pytest.mark.parametrize("validator", [is_ssyt, is_srht, is_rht])
    def test_validators_need_a_whole_chain(self, validator):
        assert validator(((), (1,), (2,)), (2,), (1, 1)) == (validator is not is_srht)
        assert not validator(((1,), (2,)), (2,), (1,))  # does not start at ()
        assert not validator(((), (1,), (2,)), (1, 1), (1, 1))  # another shape
        assert not validator(((), (1,), (2,)), (2,), (2,))  # another content
        # labels 1 and 3 of a row (1, 3): the empty step of label 2 is no tableau
        assert chain_of(Filling(((1, 3),))) == ((), (1,), (1,), (2,))
        assert not validator(((), (1,), (1,), (2,)), (2,), (1, 0, 1))

    def test_walk_rejects_parts_below_one(self):
        succ = lambda shape, length: [shape[:-1]] if shape[-1:] == (length,) else []
        assert walk_chains(succ, (1, 2), (1, 2)) == [((), (1,), (1, 2))]
        for shape, content in [((2, 0), (2,)), ((2,), (2, 0)), ((3, -1), (2,))]:
            with pytest.raises(ValueError, match="not a composition"):
                walk_chains(succ, shape, content)

    @pytest.mark.parametrize(
        "enumerate_", [enumerate_ssyt, srht_find, enumerate_rht, cbt_find, enumerate_obt]
    )
    def test_enumerators_reject_content_parts_below_one(self, enumerate_):
        # each walks its chains, so a zero or negative brick, strip or hook
        # is bad input, not an object of size 0
        for content in [(2, 0), (0, 2), (3, -1)]:
            with pytest.raises(ValueError, match="not a composition"):
                enumerate_((2,), content)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip(self, n):
        for lam in partitions(n):
            for beta in compositions(n):
                fillings = enumerate_ssyt(lam, beta)
                fillings += [f for f, _ in enumerate_rht(lam, beta)]
                for f in fillings:
                    chain = chain_of(f)
                    assert len(chain) == len(beta) + 1 and chain[-1] == lam
                    assert filling_of(chain) == f

    def test_validators_match_cell_set_oracle(self):
        count = 0
        for n in range(7):
            for lam, f in all_fillings(n):
                count += 1
                beta = f.content()
                ssyt = cell_set_tableau(f, is_horizontal_strip)
                srht = cell_set_tableau(f, is_special_rim_hook)
                rht = cell_set_tableau(f, is_rim_hook_cells)
                chain = chain_of(f)  # None: not a tableau, so every check rejects
                accepts = lambda valid: chain is not None and valid(chain, lam, beta)
                assert accepts(is_ssyt) == ssyt, f
                assert accepts(is_srht) == srht, f
                assert accepts(is_rht) == rht, f
                if rht:
                    expected = 1
                    for k in range(1, len(beta) + 1):
                        expected *= hook_sign(cells_of(f, k))
                    assert rht_sign(chain) == expected, f
        assert count == 55722
