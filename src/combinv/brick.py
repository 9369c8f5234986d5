"""Ordered brick tabloids and weighted brick-tabloid matrices.

An ordered brick tabloid is built one brick at a time: brick k, of length
beta_k, ends one row of dg(lam), so a tabloid is a chain of row-length
tuples, each from the one before by `_row_shrinks`, and `enumerate_obt` is
the chain walk over that step.  The A-family counts these tabloids: its
successors `part_decrements` are the same step on the sorted shape, each
weighted by the number of rows it can shrink.  The B-family weighs row
tilings by their last-brick lengths and divides by the partial-sum product
of the row profile.  A shape's part decrements and sub-multisets of every
size are listed once, in one pass; `core.successors_by_size` files them by
size and answers both successor functions from that table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .core import (
    Composition,
    Filling,
    Partition,
    filling_of,
    last_part_sum,
    multiset_diff,
    multiplicity,
    partitions,
    require_partition,
    sort_comp,
    successors_by_size,
    walk_chains,
)
from .framework import LocalSystem


def _row_shrinks(rows: tuple[int, ...], length: int) -> list[tuple[int, ...]]:
    """The row lengths after a brick of `length` comes off the end of one
    row, top row first; the rows keep their positions, so one can reach 0."""
    return [
        rows[:r] + (part - length,) + rows[r + 1 :]
        for r, part in enumerate(rows)
        if part >= length
    ]


def enumerate_obt(lam: Partition, beta: Composition) -> list[Filling]:
    """All fillings of dg(lam) where label i occupies beta_i cells of a single
    row and labels weakly increase along each row.

    Equivalently: assignments of bricks 1..len(beta) to rows such that each
    row is exactly tiled; the filling is then forced.  They are listed in
    lexicographic order of (row of brick 1, row of brick 2, ...).
    """
    require_partition(lam)
    chains = walk_chains(_row_shrinks, lam, beta)
    return [filling_of(chain) for chain in sorted(chains, reverse=True)]


# ---------------------------------------------------------------------------
# The local system
# ---------------------------------------------------------------------------

@successors_by_size
def part_decrements(lam: Partition) -> Iterator[tuple[Partition, int]]:
    """Partitions from replacing one part i >= length of lam by i - length,
    largest decremented part first: one decrement per distinct part and
    size.  Size 0 leaves lam itself."""
    if lam:
        yield lam, 0
    for part in dict.fromkeys(lam):
        row = lam.index(part)
        for length in range(1, part + 1):
            rows = lam[:row] + (part - length,) + lam[row + 1 :]
            yield sort_comp(filter(None, rows)), length


@successors_by_size
def sub_multisets_of_size(mu: Partition) -> list[tuple[Partition, int]]:
    """Sub-multisets of mu obtained by deleting parts summing to `length`,
    by the number of each distinct part deleted, larger parts varying
    slowest, most first: one enumeration of how many of each distinct part
    to delete, each kept multiset with the size it deletes."""
    takes = [((), 0)]  # (kept parts, size deleted)
    for value in sorted(set(mu), reverse=True):
        count = multiplicity(mu, value)
        takes = [
            (kept + (value,) * (count - take), removed + take * value)
            for kept, removed in takes
            for take in range(count, -1, -1)
        ]
    return takes


def obt_system() -> LocalSystem:
    """Largest-brick removal with multiplicity weights against part deletion
    with last-part-sum weights."""

    def weight_a(lam, gamma):
        removed = multiset_diff(lam, gamma)
        if len(removed) != 1:
            raise ValueError("successor does not decrement a single part")
        return multiplicity(lam, removed[0])

    def weight_b(mu, delta):
        eps = multiset_diff(mu, delta)
        sign = -1 if (len(mu) - len(delta) - 1) % 2 else 1
        return Fraction(sign * last_part_sum(eps), sum(mu))

    return LocalSystem(
        name="brick",
        shapes=partitions,
        succ_a=part_decrements,
        succ_b=sub_multisets_of_size,
        weight_a=weight_a,
        weight_b=weight_b,
    )
