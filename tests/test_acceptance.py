"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass lines; every assertion is exact equality unless a runtime bound is
stated.
"""

import time
from fractions import Fraction
from itertools import permutations as all_permutations, product
from math import factorial

import goldens
from combinv.core import (
    Filling,
    compositions,
    last_part_sum,
    multiset_diff,
    partitions,
    sort_comp,
)
from combinv.framework import (
    build_A,
    build_B,
    verify_inversion,
    verify_local,
)
from combinv.kostka import enumerate_ssyt, kostka_pair, kostka_system, srht_find
from combinv.rimhook import (
    Permutation,
    abacus_from_partition,
    abacus_move_bead,
    cyc_comp,
    enumerate_rht,
    rimhook_pair,
    rimhook_system,
)
from combinv.refine import refine_system, weighted_system
from combinv.brick import enumerate_obt, obt_system
from combinv.involutions import (
    KostkaPair,
    RhtTriple,
    f_lambda,
    f_lambda_inv,
    f_mu_rho_inv,
    kostka_involution,
    rht_involution,
    verify_pairing,
)
from oracles import (
    brick_B_closed,
    brick_local_g,
    centralizer_order,
    check_sorting_condition,
    count_by_cyc_comp,
    incidence_matrix,
    is_identity_product,
    local_g_refine,
    mobius_matrix,
    partial_sum_product,
    square_fold_B,
    square_restrict_A,
    w_of,
    weighted_incidence_matrix,
    weighted_mobius_matrix,
)


def report(number, text):
    print("ACCEPTANCE %2d: PASS - %s" % (number, text))


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    assert build_A(kostka_system(), 4) == goldens.KOSTKA_A4
    assert build_B(kostka_system(), 4) == goldens.KOSTKA_B4
    assert build_A(rimhook_system(), 4) == goldens.RIMHOOK_A4
    assert build_B(rimhook_system(), 4) == goldens.RIMHOOK_B4
    assert build_A(refine_system(), 4) == goldens.REFINE_A4
    assert build_B(refine_system(), 4) == goldens.REFINE_B4
    brick = obt_system()
    assert build_A(brick, 4) == goldens.BRICK_A4
    assert build_B(brick, 4) == goldens.BRICK_B4
    assert square_restrict_A(build_A(brick, 4)) == goldens.BRICK_A4_SQUARE
    assert square_fold_B(build_B(brick, 4)) == goldens.BRICK_B4_SQUARE
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "all published n=4 tables reproduced exactly in %.2fs" % elapsed)


def test_criterion_02_inversion():
    start = time.perf_counter()
    for make in (kostka_system, rimhook_system, obt_system):
        system = make()
        for n in range(9):
            assert verify_inversion(system, n), (system.name, n)
    for make in (refine_system, weighted_system):
        system = make()
        for n in range(8):
            assert verify_inversion(system, n), (system.name, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "A_n B_n = I exactly (P(n) systems n<=8, C(n) systems n<=7) in %.1fs" % elapsed)


def test_criterion_03_local_identities():
    for make, top in (
        (kostka_system, 8),
        (rimhook_system, 8),
        (refine_system, 8),
        (weighted_system, 8),
        (obt_system, 8),
    ):
        system = make()
        for n in range(1, top + 1):
            assert verify_local(system, n).passed, (system.name, n)

    # structural claims behind the identities, exhaustively for n <= 8
    for n in range(1, 9):
        shapes = partitions(n)
        kostka = kostka_system()
        for lam in shapes:
            for mu in shapes:
                if lam == mu:
                    continue
                pairing = kostka_pair(lam, mu)
                assert pairing.kind in ("empty", "matched")
                if pairing.kind == "matched":
                    assert sorted(s for _, s in pairing.members) == [-1, 1]
        rimhook = rimhook_system()
        for lam in shapes:
            assert len(rimhook_pair(lam, lam).members) == n
            for mu in shapes:
                if lam == mu:
                    continue
                pairing = rimhook_pair(lam, mu)
                assert pairing.kind in ("empty", "matched")
                if pairing.kind == "matched":
                    assert sum(s for _, s in pairing.members) == 0
        for lam in compositions(n):
            for mu in compositions(n):
                members = local_g_refine(lam, mu)
                if lam == mu:
                    assert members == [(mu[:-1], 1)]
                else:
                    assert len(members) in (0, 2)
                    if members:
                        assert members[0][1] + members[1][1] == 0
        for lam in shapes:
            for mu in shapes:
                terms, total = brick_local_g(lam, mu)
                assert total == (1 if lam == mu else 0)
                if lam != mu and terms:
                    # telescoping through the last-part-sum deletion recursion
                    i = multiset_diff(lam, mu)[0]
                    rho = multiset_diff(mu, lam)
                    assert last_part_sum(rho) == sum(
                        last_part_sum(multiset_diff(rho, (j,))) for j in set(rho)
                    )
    report(3, "local identities and structural claims hold for all pairs, n<=8")


def test_criterion_04_oracle_equivalence():
    for n in range(1, 8):
        kostka_a = build_A(kostka_system(), n)
        kostka_b = build_B(kostka_system(), n)
        rim_a = build_A(rimhook_system(), n)
        rim_b = build_B(rimhook_system(), n)
        brick_a = build_A(obt_system(), n)
        for lam in partitions(n):
            for beta in compositions(n):
                assert kostka_a.entry(lam, beta) == len(enumerate_ssyt(lam, beta))
                found = srht_find(lam, beta)
                assert kostka_b.entry(beta, lam) == (found[1] if found else 0)
                signed = sum(sign for _, sign in enumerate_rht(lam, beta))
                assert rim_a.entry(lam, beta) == signed
                assert rim_b.entry(beta, lam) == Fraction(
                    signed, partial_sum_product(beta)
                )
                assert brick_a.entry(lam, beta) == len(enumerate_obt(lam, beta))
        assert build_A(refine_system(), n) == incidence_matrix(n)
        assert build_B(refine_system(), n) == mobius_matrix(n)
        assert build_A(weighted_system(), n) == weighted_incidence_matrix(n)
        assert build_B(weighted_system(), n) == weighted_mobius_matrix(n)
        assert build_B(obt_system(), n) == brick_B_closed(n)
    report(4, "recursion-built matrices equal direct enumeration, n<=7")


def test_criterion_05_scalar_identities():
    for n in range(1, 10):
        totals = {}
        for beta in compositions(n):
            key = sort_comp(beta)
            totals[key] = totals.get(key, Fraction(0)) + Fraction(
                1, partial_sum_product(beta)
            )
        for lam in partitions(n):
            assert totals[lam] == Fraction(1, centralizer_order(lam))
    counts = [count_by_cyc_comp(7, b) for b in ((3, 2, 2), (2, 3, 2), (2, 2, 3))]
    assert counts == [48, 72, 90] and sum(counts) == 210
    for n in range(1, 7):
        observed = {}
        for perm in all_permutations(range(1, n + 1)):
            sigma = Permutation(dict(zip(range(1, n + 1), perm)))
            key = cyc_comp(sigma)
            observed[key] = observed.get(key, 0) + 1
        for beta in compositions(n):
            assert count_by_cyc_comp(n, beta) == observed.get(beta, 0)
    report(5, "harmonic identity n<=9; 48+72+90=210; cycle counts match S_n sweeps n<=6")


def test_criterion_06_last_part_sums():
    for n in range(1, 11):
        for mu in partitions(n):
            closed = last_part_sum(mu)
            enumerated = sum(
                c[-1] for c in compositions(n) if sort_comp(c) == mu
            )
            assert closed == enumerated
            if mu != (n,):
                assert closed == sum(
                    last_part_sum(multiset_diff(mu, (i,))) for i in set(mu)
                )
    assert last_part_sum((3, 1, 1)) == 5
    assert last_part_sum((3, 1)) == 4
    assert last_part_sum((1, 1)) == 1
    terms, total = brick_local_g((5, 2, 2, 1), (3, 2, 2, 1, 1, 1))
    assert total == Fraction(5 - 1 - 4, 10) == 0
    report(6, "last-part sums: closed form = enumeration = recursion, n<=10")


def test_criterion_07_abacus():
    for n in range(11):
        for lam in partitions(n):
            for beads in (len(lam), len(lam) + 3):
                assert abacus_from_partition(lam, beads).partition() == lam
    abacus = abacus_from_partition((4, 3, 3, 2, 2, 1), 9)
    assert abacus.word_string(16) == "1110101101101000"
    moved, sign = abacus_move_bead(abacus, 10, 5)
    assert moved.partition() == (4, 2, 1, 1, 1, 1) and sign == -1
    pairing = rimhook_pair((9, 8, 6, 6, 5, 4, 4, 2), (9, 9, 9, 7, 5, 3, 1, 1))
    assert pairing.members == (
        ((9, 8, 6, 6, 5, 3, 1, 1), 1),
        ((9, 8, 6, 4, 3, 3, 1, 1), -1),
    )
    report(7, "abacus round-trips; worked removal and two-way pairing reproduced")


def test_criterion_08_kostka_involution():
    start = time.perf_counter()
    golden_maps = [
        (
            ((1, 1, 3), (2, 2, 4), (4, 4)),
            ((1, 1), (2, 2), (3, 4), (4, 4)),
            ((1, 1, 2), (2, 2, 3), (3, 3)),
            ((1, 1), (2, 2), (2, 3), (3, 3)),
        ),
        (
            ((1, 1, 1, 1, 1, 4, 4), (2, 2, 2, 4, 4, 6, 6), (3, 3, 3, 5), (4, 4, 6)),
            ((1, 1, 1, 1, 1), (2, 2, 2, 4), (3, 3, 3, 4), (4, 4, 4, 4), (5, 6), (6, 6)),
            ((1, 1, 1, 1, 1, 4, 4), (2, 2, 2, 2, 4, 6, 6), (3, 3, 3, 5), (4, 4, 6)),
            ((1, 1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 4), (4, 4, 4, 4), (5, 6), (6, 6)),
        ),
        (
            ((1, 1, 1, 1, 1, 3, 4), (2, 2, 2, 3, 3, 6, 6), (3, 3, 4, 5), (4, 4, 6)),
            ((1, 1, 1, 1, 1), (2, 2, 2, 3), (3, 3, 3, 3), (4, 4, 4, 4), (5, 6), (6, 6)),
            ((1, 1, 1, 1, 1, 3, 4), (2, 2, 2, 2, 3, 6, 6), (3, 3, 4, 5), (4, 4, 6)),
            ((1, 1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (5, 6), (6, 6)),
        ),
    ]
    for s_in, t_in, s_out, t_out in golden_maps:
        image = kostka_involution(KostkaPair(Filling(s_in), Filling(t_in)))
        assert image.s == Filling(s_out) and image.t == Filling(t_out)
        assert kostka_involution(image) == KostkaPair(Filling(s_in), Filling(t_in))
    for n in range(1, 7):
        for lam in partitions(n):
            for mu in partitions(n):
                assert verify_pairing("kostka", lam, mu).passed, (lam, mu)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, "golden involution traces and exhaustive audit n<=6 in %.1fs" % elapsed)


def test_criterion_09_rimhook_bijections():
    for n in range(1, 7):
        sequences = list(product(*[range(1, k + 1) for k in range(n, 0, -1)]))
        for lam in partitions(n):
            survivors = set()
            for seq in sequences:
                filling, sigma = f_lambda(lam, seq)
                assert f_lambda_inv(filling, sigma) == seq
                survivors.add((filling, sigma))
            assert len(survivors) == factorial(n)
    golden = Filling(((1, 1, 3, 4, 4), (1, 3, 3, 4), (2, 3, 4, 4), (2, 5, 5), (2, 5)))
    sigma = Permutation.from_cycles(
        [(9, 16, 14), (7, 13, 15), (6, 11, 18, 12), (2, 17, 3, 10, 8), (1, 4, 5)]
    )
    assert f_lambda_inv(golden, sigma) == (
        15, 3, 3, 3, 13, 1, 5, 3, 2, 3, 8, 3, 4, 2, 3, 1, 2, 1,
    )
    assert f_mu_rho_inv(golden, sigma) == (
        3, 3, 3, 13, 1, 5, 3, 2, 3, 8, 3, 4, 2, 3, 1, 2, 1,
    )
    triple = RhtTriple(
        Filling(((1, 1, 3, 3), (1, 2, 3), (2, 2), (2,))),
        Filling(((1, 1, 2, 2), (1, 2, 2), (3, 3, 3))),
        Permutation.from_cycles([(5, 8, 6), (2, 10, 9, 4), (1, 3, 7)]),
    )
    image = rht_involution(triple)
    assert image.s == Filling(((1, 2, 4, 4), (2, 2, 4), (3, 3), (3,)))
    assert image.t == Filling(((1, 2, 3, 3), (2, 2, 3), (4, 4, 4)))
    assert image.sigma == Permutation.from_cycles([(6,), (4, 5, 8), (2, 10, 9), (1, 3, 7)])
    assert image.sign == -triple.sign
    assert rht_involution(image) == triple
    for n in range(1, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                report_ = verify_pairing("rimhook", lam, mu)
                assert report_.passed, (lam, mu)
                assert report_.fixed_points == (
                    factorial(n) if lam == mu else 0
                )
    report(9, "choice-sequence bijections, goldens, and n! fixed points certified")


def test_criterion_10_square_conversions():
    for make in (kostka_system, rimhook_system, obt_system):
        system = make()
        for n in range(1, 8):
            matrix_a = build_A(system, n)
            assert check_sorting_condition(matrix_a)
            square_a = square_restrict_A(matrix_a)
            square_b = square_fold_B(build_B(system, n))
            assert is_identity_product(square_a, square_b)
            if system.name == "rimhook":
                for lam in partitions(n):
                    for mu in partitions(n):
                        assert square_b.entry(lam, mu) == Fraction(
                            matrix_a.entry(mu, lam), centralizer_order(lam)
                        )
            if system.name == "brick":
                for nu in partitions(n):
                    for mu in partitions(n):
                        sign = -1 if (len(mu) - len(nu)) % 2 else 1
                        assert square_b.entry(nu, mu) == Fraction(
                            sign * w_of(nu, mu), centralizer_order(nu)
                        )
    report(10, "square restrictions/foldings invert and match closed forms, n<=7")
