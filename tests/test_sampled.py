"""The recursion-built matrices against the oracles and enumerators at n = 10,
above the exhaustive ranges (n <= 7 or 8): for each app and side, a
fixed-seed sample of entries, half of them among the stored nonzero ones.

The sorting condition A(lam, beta) = A(lam, sort beta), under which the
square A is the rectangular one restricted to partition columns, is sampled
the same way at n = 12 and 16 for the apps whose shapes are partitions.

The rim-hook rule, checked against the hook tables for every pair at
n <= 12, is sampled on partitions of n = 20 to 40."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from combinv.brick import enumerate_obt, obt_system
from combinv.core import is_rim_hook, sort_comp
from combinv.framework import build_A, build_B
from combinv.kostka import enumerate_ssyt, kostka_system, srht_find, strip_removals
from combinv.refine import refine_system, weighted_system
from combinv.rimhook import enumerate_rht, hook_successors, rimhook_system
from oracles import is_hook_removal, partial_sum_product, refines, w_of, weighted_factors

N = 10
PER_SIDE = 50  # sampled entries of A and of B, so 100 per app
SORTED = 40  # sampled compositions beta per app and n, for the sorting condition
ENUMERATED = 1000  # the largest brick count also checked by listing tabloids
SHAPES = 8  # sampled partitions per n for the rim-hook rule


def obt_count(lam, beta):
    """Ordered brick tabloids of shape lam, content beta, counted as the
    assignments of bricks 1, 2, ... to rows that tile every row exactly."""

    @lru_cache(maxsize=None)
    def rec(k, remaining):
        if k == len(beta):
            return int(not any(remaining))
        return sum(
            rec(k + 1, remaining[:r] + (left - beta[k],) + remaining[r + 1 :])
            for r, left in enumerate(remaining)
            if left >= beta[k]
        )

    return rec(0, tuple(lam))


def brick_a(lam, beta):
    # enumerate_obt lists up to 10! = 3,628,800 tabloids at n = 10
    count = obt_count(lam, beta)
    if count <= ENUMERATED:
        assert len(enumerate_obt(lam, beta)) == count
    return count


def signed_rht(lam, beta):
    return sum(sign for _, sign in enumerate_rht(lam, beta))


def srht_sign(mu, beta):
    found = srht_find(mu, beta)
    return found[1] if found else 0


def sign(beta, mu):
    return (-1) ** abs(len(beta) - len(mu))


def weighted_a(lam, beta):
    return weighted_factors(beta, lam)[1] if refines(lam, beta) else 0


def weighted_b(beta, mu):
    if not refines(beta, mu):
        return 0
    return Fraction(sign(beta, mu), weighted_factors(mu, beta)[0])


# app: (system, A(lam, beta), B(beta, mu))
ORACLES = {
    "kostka": (
        kostka_system,
        lambda lam, beta: len(enumerate_ssyt(lam, beta)),
        lambda beta, mu: srht_sign(mu, beta),
    ),
    "rimhook": (
        rimhook_system,
        signed_rht,
        lambda beta, mu: Fraction(signed_rht(mu, beta), partial_sum_product(beta)),
    ),
    "brick": (
        obt_system,
        brick_a,
        lambda beta, mu: Fraction(
            sign(beta, mu) * w_of(beta, mu), partial_sum_product(beta)
        ),
    ),
    "refine": (
        refine_system,
        lambda lam, beta: int(refines(lam, beta)),
        lambda beta, mu: sign(beta, mu) * int(refines(beta, mu)),
    ),
    "refine-weighted": (weighted_system, weighted_a, weighted_b),
}


def sample(matrix, rng):
    """PER_SIDE (row, col, entry) triples: half among the nonzero entries,
    half uniform over the whole grid."""
    cells = [
        (row, col, entry)
        for row, entries in zip(matrix.row_keys, matrix.entries)
        for col, entry in zip(matrix.col_keys, entries)
    ]
    nonzero = [cell for cell in cells if cell[2]]
    return rng.sample(nonzero, PER_SIDE // 2) + rng.sample(cells, PER_SIDE // 2)


@pytest.mark.parametrize("app", sorted(ORACLES))
def test_sampled_entries_match_oracles(app):
    system, entry_a, entry_b = ORACLES[app]
    rng = random.Random(N)
    for build, oracle in ((build_A, entry_a), (build_B, entry_b)):
        for row, col, entry in sample(build(system(), N), rng):
            assert entry == oracle(row, col), (row, col)


def point_a(system, lam, beta):
    """A(lam, beta) alone, by the recursion on the last part of beta,
    memoized on (shape, prefix length)."""

    @lru_cache(maxsize=None)
    def rec(shape, k):
        if k == 0:
            return 1  # |shape| = 0, R(0)'s one shape: A_0 = [1]
        return sum(
            system.weight_a(shape, gamma) * rec(gamma, k - 1)
            for gamma in system.succ_a(shape, beta[k - 1])
        )

    return rec(lam, len(beta))


def random_composition(n, rng):
    """A uniform composition of n >= 1: each of the n - 1 cuts made or not."""
    cuts = [0, *(i for i in range(1, n) if rng.getrandbits(1)), n]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("app", ["brick", "kostka", "rimhook"])
def test_sorting_condition_sampled(app, n):
    # above the exhaustive check at n <= 8; half the shapes lam are drawn
    # among the nonzero entries of the column sort(beta)
    system = ORACLES[app][0]()
    square = build_A(system, n, square=True)
    rng = random.Random(n)
    for i in range(SORTED):
        beta = random_composition(n, rng)
        column = sort_comp(beta)
        shapes = square.row_keys
        if i % 2:
            shapes = [lam for lam in shapes if square.entry(lam, column)]
        lam = rng.choice(shapes)
        assert point_a(system, lam, beta) == square.entry(lam, column), (lam, beta)


@pytest.mark.parametrize("n", range(20, 41, 4))
def test_rim_hook_rule_sampled(n):
    # each shape is a sorted uniform composition; every hook the table lists
    # passes the rule, and every strip that is no hook fails it
    rng = random.Random(n)
    for _ in range(SHAPES):
        lam = sort_comp(random_composition(n, rng))
        for length in range(1, n + 1):
            hooks = hook_successors(lam, length)
            assert all(is_rim_hook(lam, gamma) for gamma in hooks), (lam, length)
            for gamma in strip_removals(lam, length):
                if gamma not in hooks:
                    assert not is_rim_hook(lam, gamma), (lam, gamma)
                    assert not is_hook_removal(lam, gamma), (lam, gamma)
