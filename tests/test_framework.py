import importlib
import inspect
import io
import json
import pkgutil
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd, prod

import pytest

import combinv
import goldens
import oracles
from combinv import cli, framework
from combinv.core import compositions, format_rational, partitions, walk_chains
from combinv.framework import (
    IndexedMatrix,
    build_A,
    build_B,
    key_string,
    local_terms,
    verify,
    verify_inversion,
    verify_local,
)
from combinv.kostka import kostka_system
from combinv.refine import refine_system, weighted_system
from combinv.rimhook import rimhook_system
from combinv.brick import obt_system
from oracles import (
    check_sorting_condition,
    dense_product,
    fraction_recursion,
    is_identity_product,
    local_lhs,
    square_fold_B,
    square_restrict_A,
)

ALL_SYSTEMS = [kostka_system, rimhook_system, refine_system, weighted_system, obt_system]


class TestIndexedMatrix:
    def test_lookup_and_equality(self):
        m = goldens.KOSTKA_A4
        assert m.entry((3, 1), (2, 1, 1)) == 2
        assert m.entry((1, 1, 1, 1), (4,)) == 0
        assert m == goldens.KOSTKA_A4

    def test_json_round_trip(self):
        m = goldens.RIMHOOK_B4
        again = json.loads(m.to_json())
        assert again["rows"] == [list(k) for k in m.row_keys]
        assert again["cols"] == [list(k) for k in m.col_keys]
        assert again["entries"] == [
            [[e.numerator, e.denominator] for e in row] for row in m.entries
        ]

    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_json_text_equals_dumps(self, make):
        # the text is written from the grid; json.dumps of the dict is the
        # reference, on every side that builds
        system = make()
        for n in range(9):
            for build in (build_A, build_B):
                for square in (False, True):
                    try:
                        m = build(system, n, square=square)
                    except ValueError:  # refine's A breaks the sorting condition
                        assert build is build_A and square and n >= 3
                        continue
                    assert m.to_json() == json.dumps(oracles.matrix_json_object(m))

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

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_entries_sum_the_weights_of_chains(self, make, side):
        # M(s, beta) is the sum over the chains () = g0, ..., gk = s whose
        # step i removes a structure of size beta_i, of the steps' weights
        system = make()
        succ = getattr(system, "succ_" + side)
        weight = getattr(system, "weight_" + side)
        for n in range(7):
            table = framework._recursion(system, n, succ, weight)[0]
            assert list(table) == system.shapes(n)
            for shape, (e, row) in table.items():
                for beta in compositions(n):
                    total = sum(
                        prod(weight(outer, inner) for inner, outer in zip(c, c[1:]))
                        for c in walk_chains(succ, shape, beta)
                    )
                    assert Fraction(row.get(beta, 0), e) == total, (shape, beta)

    @pytest.mark.parametrize("side", ["A", "B", "Asq", "Bsq"])
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_each_column_key_is_computed_once(self, make, side):
        # the terms look their keys up in one key map per (size, L): the
        # key rule runs at most once per (size, L, beta), size = |beta|
        system = make()
        succ, weight, extend = framework._side(system, side)
        calls = Counter()

        def counted(beta, length):
            calls[beta, length] += 1
            return extend(beta, length)

        for n in range(9):
            calls.clear()
            table = framework._recursion(system, n, succ, weight, counted)
            assert table == framework._recursion(system, n, succ, weight, extend)
            assert set(calls.values()) <= {1}, n

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_int_rows_equal_the_fraction_recursion(self, make, side):
        # each row is (E, {beta: int}) with E its least denominator, and
        # int / E is the entry the recursion gives in Fractions
        system = make()
        succ = getattr(system, "succ_" + side)
        weight = getattr(system, "weight_" + side)
        for n in range(9):
            table = framework._recursion(system, n, succ, weight)[0]
            expected = fraction_recursion(system, n, succ, weight)
            assert list(table) == list(expected)
            for shape, (e, row) in table.items():
                assert type(e) is int and e >= 1
                assert all(type(v) is int and v for v in row.values())
                assert gcd(e, *row.values()) == 1
                assert {b: Fraction(v, e) for b, v in row.items()} == expected[shape]


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

    @pytest.mark.parametrize("make", [refine_system, weighted_system])
    @pytest.mark.parametrize("lam, mu", [((2, 0), (2,)), ((3, -1), (2,)), ((2,), (2, 0))])
    def test_local_terms_reject_non_compositions(self, make, lam, mu):
        with pytest.raises(ValueError, match="not a composition"):
            local_terms(make(), lam, mu)

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


def _shifted(system, side="b"):
    """The system with 1/3 added to every weight of one side at a two-part shape."""
    weight = getattr(system, "weight_" + side)

    def shifted(shape, gamma):
        return weight(shape, gamma) + (Fraction(1, 3) if len(shape) == 2 else 0)

    return replace(system, **{"weight_" + side: shifted})


def _pairwise_failures(system, n):
    """verify_local's failures the slow way: local_lhs at every shape pair."""
    shapes = system.shapes(n)
    pairs = [(lam, mu, local_lhs(system, lam, mu)) for lam in shapes for mu in shapes]
    return [(lam, mu, value) for lam, mu, value in pairs if value != int(lam == mu)]


class TestLocalProduct:
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    @pytest.mark.parametrize("perturb", [False, True])
    def test_failures_match_pairwise_local_lhs(self, make, perturb):
        system = _shifted(make()) if perturb else make()
        for n in range(1, 7):
            expected = _pairwise_failures(system, n)
            report = verify_local(system, n)
            assert report.failures == expected
            assert report.pairs_checked == len(system.shapes(n)) ** 2
            assert bool(expected) == (perturb and n > 1)

    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_failures_of_absolute_weights_are_in_shape_order(self, make):
        # with |weight_b| no pair cancels, so nearly every stored entry fails;
        # the product stores them out of order, and they are reported sorted
        system = make()
        weight_b = system.weight_b
        broken = replace(system, weight_b=lambda mu, delta: abs(weight_b(mu, delta)))
        for n in range(1, 7):
            assert verify_local(broken, n).failures == _pairwise_failures(broken, n)

    def test_unstored_diagonal_fails(self):
        # with no B-side steps the product stores nothing: every diagonal
        # entry is a zero that was never stored, and each must be reported
        system = replace(kostka_system(), succ_b=lambda mu, length: [])
        report = verify_local(system, 4)
        assert report.failures == [(lam, lam, 0) for lam in partitions(4)]

    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_successor_calls_are_linear_in_shapes(self, make, monkeypatch):
        # one call per (shape, L) on each side, not one per (lam, mu, L)
        system = make()
        calls = []

        def counted(succ):
            def wrapper(shape, length):
                calls.append((shape, length))
                return succ(shape, length)

            return wrapper

        def unused(*args):
            raise AssertionError("verify_local must not evaluate pairs one by one")

        monkeypatch.setattr(framework, "local_terms", unused)
        counting = replace(
            system, succ_a=counted(system.succ_a), succ_b=counted(system.succ_b)
        )
        n = 5
        assert verify_local(counting, n).passed
        assert len(calls) <= 2 * n * len(system.shapes(n))

    def test_duplicate_successor_is_rejected(self):
        system = kostka_system()
        succ_b = system.succ_b

        def doubled(mu, length):
            found = succ_b(mu, length)
            return found + found[:1] if mu == (2, 1) else found

        broken = replace(system, succ_b=doubled)
        message = r"successor \(2,\) of \(2, 1\) listed twice"
        assert succ_b((2, 1), 1) == [(2,)]
        with pytest.raises(ValueError, match=message):
            build_B(broken, 3)
        with pytest.raises(ValueError, match=message):
            verify_local(broken, 3)
        with pytest.raises(ValueError, match=message):
            local_terms(broken, (3,), (2, 1))

    def test_successor_of_wrong_size_is_rejected(self):
        # () under L=1 would be filed as a step of size 3 and build a
        # different matrix; it is a bad callback, not a failed identity
        system = kostka_system()
        succ_a = system.succ_a

        def oversized(lam, length):
            found = succ_a(lam, length)
            return found + [()] if (lam, length) == ((2, 1), 1) else found

        broken = replace(system, succ_a=oversized)
        message = r"successor \(\) of \(2, 1\) has size 0, not 2"
        with pytest.raises(ValueError, match=message):
            build_A(broken, 3)
        with pytest.raises(ValueError, match=message):
            verify_local(broken, 3)
        with pytest.raises(ValueError, match=message):
            local_terms(broken, (2, 1), (2, 1))

    def test_successor_outside_the_shapes_is_rejected(self):
        # (0, 2) has the right size but is no partition, so no row of R(2)
        system = kostka_system()
        succ_a = system.succ_a

        def stray(lam, length):
            found = succ_a(lam, length)
            return found + [(0, 2)] if (lam, length) == ((2, 1), 1) else found

        broken = replace(system, succ_a=stray)
        message = r"successor \(0, 2\) of \(2, 1\) is not in R\(2\)"
        with pytest.raises(ValueError, match=message):
            build_A(broken, 3)
        with pytest.raises(ValueError, match=message):
            verify_inversion(broken, 3)


B_CHANGES = {
    "third": lambda v: v + Fraction(1, 3),
    "plus_one": lambda v: v + 1,
    "negated": lambda v: -v,
    "abs": abs,
}


class TestSparseInversion:
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    @pytest.mark.parametrize("change", [None, *B_CHANGES])
    def test_matches_dense_product(self, make, change):
        system = make()
        if change is not None:
            weight_b, apply = system.weight_b, B_CHANGES[change]
            system = replace(system, weight_b=lambda mu, d: apply(weight_b(mu, d)))
        passed = []
        for n in range(7):
            dense = is_identity_product(build_A(system, n), build_B(system, n))
            assert verify_inversion(system, n) == dense
            passed.append(dense)
        assert all(passed) == (change is None)

    def test_cancelled_zeros_are_not_multiplied(self, monkeypatch):
        # the rimhook recursion cancels entries to zero; every level drops
        # them, so the product sees only nonzero entries
        operands = []
        off_identity = framework._off_identity

        def recording(left, right):
            operands.extend((left, right))
            return off_identity(left, right)

        monkeypatch.setattr(framework, "_off_identity", recording)
        system = rimhook_system()
        for n in range(8):
            assert verify_inversion(system, n)
        assert len(operands) == 16
        assert all(all(row.values()) for table in operands for _, row in table.values())


def _dense_step(system, n, side):
    """The one-step matrix of one side over R(n) x (R(0) + ... + R(n-1)),
    dense, straight from the callbacks."""
    succ = getattr(system, "succ_" + side)
    weight = getattr(system, "weight_" + side)
    lower = [g for m in range(n) for g in system.shapes(m)]
    rows = []
    for shape in system.shapes(n):
        steps = {g for length in range(1, n + 1) for g in succ(shape, length)}
        rows.append([weight(shape, g) if g in steps else 0 for g in lower])
    return IndexedMatrix(system.shapes(n), lower, rows)


def _transposed(matrix):
    columns = [list(column) for column in zip(*matrix.entries)]
    return IndexedMatrix(matrix.col_keys, matrix.row_keys, columns)


def _dense_failures(left, right):
    """The entries of left * right, by the dense product, where it differs
    from the identity, each with its exact type: an int when it is
    integral, a Fraction otherwise."""
    failures = []
    for i, row in enumerate(dense_product(left, right)):
        for j, value in enumerate(row):
            if value != (i == j):
                exact = value.numerator if value.denominator == 1 else value
                failures.append((left.row_keys[i], right.col_keys[j], exact))
    return failures


def _typed(failures):
    return [(lam, mu, type(v), v) for lam, mu, v in failures]


class TestScaledProduct:
    # the B weights of these systems divide, so their rows carry denominators
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("make", [rimhook_system, obt_system, weighted_system])
    def test_failure_values_match_dense_products(self, make, side):
        system = _shifted(make(), side)
        types = set()
        for n in range(1, 7):
            local = _dense_failures(
                _dense_step(system, n, "a"), _transposed(_dense_step(system, n, "b"))
            )
            assert _typed(verify_local(system, n).failures) == _typed(local)
            table_a = framework._recursion(system, n, system.succ_a, system.weight_a)[0]
            table_b = framework._recursion(system, n, system.succ_b, system.weight_b)[0]
            inversion = _dense_failures(build_A(system, n), build_B(system, n))
            assert _typed(framework._off_identity(table_a, table_b)) == _typed(inversion)
            types.update(type(v) for _, _, v in local + inversion)
        # a failure is an int where its scaled value divides, a Fraction
        # otherwise; the B-side shift gives both kinds, the A-side one only
        # Fractions
        assert types == ({int, Fraction} if side == "b" else {Fraction})

    def test_product_sees_only_ints(self, monkeypatch):
        off_identity = framework._off_identity

        def int_only(left, right):
            for table in (left, right):
                for e, row in table.values():
                    assert type(e) is int, e
                    assert all(type(v) is int for v in row.values()), row
            return off_identity(left, right)

        monkeypatch.setattr(framework, "_off_identity", int_only)
        for make in ALL_SYSTEMS:
            assert verify_inversion(make(), 6)
            assert verify_local(make(), 6).passed


class TestExactWeights:
    @pytest.mark.parametrize("make", [kostka_system, refine_system])
    def test_integral_systems_build_int_entries(self, make):
        system = make()
        for n in range(7):
            for matrix in (build_A(system, n), build_B(system, n)):
                assert all(type(e) is int for row in matrix.entries for e in row)

    @pytest.mark.parametrize("make", [rimhook_system, obt_system, weighted_system])
    def test_dividing_systems_build_int_a_entries(self, make):
        system = make()
        for n in range(7):
            matrix = build_A(system, n)
            assert all(type(e) is int for row in matrix.entries for e in row)

    @pytest.mark.parametrize("value", [1.0, True])
    @pytest.mark.parametrize("side", ["weight_a", "weight_b"])
    def test_inexact_weight_is_rejected(self, side, value):
        broken = replace(kostka_system(), **{side: lambda *_: value})
        message = r"weight at \(1,\), \(\) is %r, not an int or Fraction" % value
        with pytest.raises(TypeError, match=message):
            verify_inversion(broken, 1)
        with pytest.raises(TypeError, match=message):
            verify_local(broken, 1)
        with pytest.raises(TypeError, match=message):
            local_terms(broken, (1,), (1,))


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
            assert is_identity_product(a_square, b_square)

    def test_fold_on_zero(self):
        system = kostka_system()
        assert square_fold_B(build_B(system, 0)).entries == [[Fraction(1)]]


SQUARE_SYSTEMS = [kostka_system, rimhook_system, obt_system]


def _square_tables(system, n):
    """A_sq and B_fold, the tables verify_inversion multiplies on P(n)."""
    table_a = framework._recursion(
        system, n, system.succ_a, system.weight_a, framework._append_part
    )[0]
    table_b = framework._recursion(
        system, n, system.succ_b, system.weight_b, framework._insert_part
    )[0]
    return table_a, table_b


def _rectangular_failures(system, n):
    table_a = framework._recursion(system, n, system.succ_a, system.weight_a)[0]
    table_b = framework._recursion(system, n, system.succ_b, system.weight_b)[0]
    return framework._off_identity(table_a, table_b)


class TestSquareNative:
    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_tables_equal_restricted_and_folded(self, make):
        # the square sides against the conversions of the rectangular ones;
        # the square A is refused exactly where the restriction would lose
        # entries (refine and refine-weighted at n >= 3)
        system = make()
        for n in range(9):
            a = build_A(system, n)
            if check_sorting_condition(a):
                assert build_A(system, n, square=True) == square_restrict_A(a)
            else:
                with pytest.raises(ValueError, match="sorting condition violated"):
                    build_A(system, n, square=True)
            assert build_B(system, n, square=True) == square_fold_B(build_B(system, n))

    @pytest.mark.parametrize("make", SQUARE_SYSTEMS)
    def test_sorting_condition_at_n8(self, make):
        # the hypothesis under which A_sq * B_fold^T equals A * B^T
        assert check_sorting_condition(build_A(make(), 8))

    @pytest.mark.parametrize("make", SQUARE_SYSTEMS)
    @pytest.mark.parametrize("change", ["shifted", *B_CHANGES])
    def test_failures_match_rectangular(self, make, change):
        # a B-side change keeps A, so the sorting condition still holds and
        # both global checks see the same product, failure for failure
        system = make()
        if change == "shifted":
            system = _shifted(system)
        else:
            weight_b, apply = system.weight_b, B_CHANGES[change]
            system = replace(system, weight_b=lambda mu, d: apply(weight_b(mu, d)))
        failed = []
        for n in range(8):
            expected = _rectangular_failures(system, n)
            square = framework._off_identity(*_square_tables(system, n))
            assert _typed(square) == _typed(expected)
            assert verify_inversion(system, n) == (not expected)
            failed.append(bool(expected))
        assert any(failed)

    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_partition_apps_multiply_square_tables(self, make, monkeypatch):
        # verify_inversion picks the square rules exactly when R(n) is P(n)
        keys = set()
        off_identity = framework._off_identity

        def recording(left, right):
            keys.update(k for table in (left, right) for _, row in table.values() for k in row)
            return off_identity(left, right)

        monkeypatch.setattr(framework, "_off_identity", recording)
        system = make()
        assert verify_inversion(system, 5)
        square = system.shapes is partitions
        assert keys == set(partitions(5) if square else compositions(5))


def _verify_text(system, n):
    """`combinv verify`'s stdout, built from the two standalone checks."""
    inversion, report = verify_inversion(system, n), verify_local(system, n)
    text = "inversion n=%d: %s\n" % (n, "pass" if inversion else "FAIL")
    fmt = "local identities n=%d: %s (%d pairs)\n"
    text += fmt % (n, "pass" if report.passed else "FAIL", report.pairs_checked)
    for lam, mu, value in report.failures:
        text += "  violation at %r, %r: %s\n" % (lam, mu, format_rational(value))
    return text


class TestSharedStepRows:
    # one `combinv verify` builds each (side, level) step-row set once: the
    # global and the local check share the level-n rows
    @pytest.mark.parametrize("app", sorted(cli._SYSTEMS))
    def test_verify_asks_each_successor_list_once(self, app, monkeypatch):
        factory, n = cli._SYSTEMS[app], 6
        calls = Counter()

        def counted(side, succ):
            def wrapper(shape, length):
                calls[side, shape, length] += 1
                return succ(shape, length)

            return wrapper

        def counting():
            system = factory()
            return replace(
                system,
                succ_a=counted("a", system.succ_a),
                succ_b=counted("b", system.succ_b),
            )

        monkeypatch.setitem(cli._SYSTEMS, app, counting)
        assert cli.run(["verify", "--app", app, "--n", str(n)], io.StringIO()) == 0
        shapes = factory().shapes
        assert set(calls) == {
            (side, shape, length)
            for side in "ab"
            for m in range(1, n + 1)
            for shape in shapes(m)
            for length in range(1, m + 1)
        }
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_each_level_is_stepped_once_per_side(self, make, monkeypatch):
        # verify builds each (side, level) step-row set once and multiplies
        # twice, the local product and the global one; verify_inversion
        # steps as often and multiplies once, verify_local steps level n
        # once per side
        system = make()
        levels, products = Counter(), []
        step_rows, off_identity = framework._step_rows, framework._off_identity

        def counted_steps(system, m, succ, weight):
            levels[m, weight is system.weight_a] += 1
            return step_rows(system, m, succ, weight)

        def counted_product(left, right):
            products.append(None)
            return off_identity(left, right)

        monkeypatch.setattr(framework, "_step_rows", counted_steps)
        monkeypatch.setattr(framework, "_off_identity", counted_product)
        for n in range(7):
            every_level = Counter({(m, a): 1 for m in range(1, n + 1) for a in (True, False)})
            checks = [(verify, every_level, 2 if n else 1), (verify_inversion, every_level, 1)]
            if n:
                checks.append((verify_local, Counter({(n, True): 1, (n, False): 1}), 1))
            for check, steps, multiplied in checks:
                levels.clear()
                products.clear()
                check(system, n)
                assert (levels, len(products)) == (steps, multiplied), (check, n)

    @pytest.mark.parametrize("app", sorted(cli._SYSTEMS))
    @pytest.mark.parametrize("below", [0, 2])
    def test_verify_text_equals_the_standalone_checks(self, app, below, monkeypatch):
        # one B weight off by one at a shape of level n - below
        factory, n = cli._SYSTEMS[app], 6
        system = factory()
        shapes = system.shapes(n - below)
        target = shapes[len(shapes) // 2]
        gamma = next(
            g for length in range(1, n + 1) for g in system.succ_b(target, length)
        )
        weight_b = system.weight_b

        def off(mu, delta):
            return weight_b(mu, delta) + ((mu, delta) == (target, gamma))

        broken = replace(system, weight_b=off)
        monkeypatch.setitem(cli._SYSTEMS, app, lambda: broken)
        out = io.StringIO()
        assert cli.run(["verify", "--app", app, "--n", str(n)], out) == 1
        assert out.getvalue() == _verify_text(broken, n)
        assert ("violation" in out.getvalue()) == (below == 0)

    @pytest.mark.parametrize("make", ALL_SYSTEMS)
    def test_level_zero_has_no_local_report(self, make):
        assert verify(make(), 0) == (True, None)


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


def test_oracles_are_not_library_names():
    # the closed forms and cell-set predicates the library never runs live
    # only in the tests, so neither the package nor a submodule defines them
    names = {
        name
        for name, obj in vars(oracles).items()
        if inspect.isfunction(obj) and obj.__module__ == "oracles"
    }
    modules = [combinv] + [
        importlib.import_module("combinv." + info.name)
        for info in pkgutil.iter_modules(combinv.__path__)
    ]
    assert {"combinv.core", "combinv.refine", "combinv.brick", "combinv.rimhook"} <= {
        module.__name__ for module in modules
    }
    assert {"refines", "w_of", "partial_sum_product", "obt_split", "multiset_union"} <= names
    for module in modules:
        assert not names & set(vars(module)), module.__name__
