"""Ordered brick tabloids and weighted brick-tabloid matrices.

The A-family counts tilings of a partition diagram by labeled horizontal
bricks (one label per brick, labels weakly increasing along rows); the
B-family weighs row tilings by their last-brick lengths and divides by the
partial-sum product of the row profile.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Composition,
    Filling,
    Partition,
    last_part_sum,
    multiset_diff,
    multiset_union,
    multiplicity,
    partitions,
    require_partition,
    sort_comp,
)
from .framework import LocalSystem


# ---------------------------------------------------------------------------
# Ordered brick tabloids
# ---------------------------------------------------------------------------

def enumerate_obt(lam: Partition, beta: Composition) -> list[Filling]:
    """All fillings of dg(lam) where label i occupies beta_i cells of a single
    row and labels weakly increase along each row.

    Equivalently: assignments of bricks 1..len(beta) to rows such that each
    row is exactly tiled; the filling is then forced.
    """
    require_partition(lam)
    if sum(lam) != sum(beta):
        raise ValueError("size mismatch")
    assignments: list[tuple[int, ...]] = []

    def rec(k: int, remaining: tuple[int, ...], acc: tuple[int, ...]):
        if k == len(beta):
            if all(r == 0 for r in remaining):
                assignments.append(acc)
            return
        for row in range(len(lam)):
            if remaining[row] >= beta[k]:
                nxt = remaining[:row] + (remaining[row] - beta[k],) + remaining[row + 1 :]
                rec(k + 1, nxt, acc + (row,))

    rec(0, tuple(lam), ())
    out = []
    for acc in assignments:
        rows: list[list[int]] = [[] for _ in lam]
        for k, row in enumerate(acc):
            rows[row].extend([k + 1] * beta[k])
        out.append(Filling(tuple(tuple(r) for r in rows)))
    return out


def is_obt(filling: Filling, lam: Partition, beta: Composition) -> bool:
    try:
        if filling.shape != tuple(lam) or filling.content() != tuple(beta):
            return False
    except ValueError:  # labels are not contiguous from 1
        return False
    row_labels = [v for row in filling.rows for v in set(row)]
    if len(row_labels) != len(set(row_labels)):  # a label in two rows
        return False
    return all(
        all(a <= b for a, b in zip(row, row[1:])) for row in filling.rows
    )


# ---------------------------------------------------------------------------
# The local system
# ---------------------------------------------------------------------------

def part_decrements(lam: Partition, length: int) -> list[Partition]:
    """Partitions from replacing one part i >= length of lam by i - length."""
    out = []
    for i in sorted(set(lam), reverse=True):
        if i < length:
            continue
        rest = multiset_diff(lam, (i,))
        out.append(multiset_union(rest, (i - length,)) if i > length else rest)
    return out


def sub_multisets_of_size(mu: Partition, removed: int) -> list[Partition]:
    """Sub-multisets of mu obtained by deleting parts summing to `removed`."""
    distinct = sorted(set(mu), reverse=True)
    out: list[Partition] = []

    def rec(idx: int, left: int, acc: tuple[int, ...]):
        if left == 0:
            kept = multiset_diff(mu, acc)
            out.append(kept)
            return
        if idx == len(distinct):
            return
        value = distinct[idx]
        max_take = min(multiplicity(mu, value), left // value)
        for take in range(max_take, -1, -1):
            rec(idx + 1, left - take * value, acc + (value,) * take)

    rec(0, removed, ())
    return out


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


# ---------------------------------------------------------------------------
# The brick-removal bijection behind the A recursion
# ---------------------------------------------------------------------------

def obt_split(tabloid: Filling) -> tuple[int, Filling]:
    """Remove the largest-labeled brick, witnessing the multiplicity weight.

    The brick sits at the end of the k-th highest row of its length i; the
    truncated row is re-inserted as the highest row of length i - L.
    Returns (k, smaller tabloid); `obt_unsplit` is the two-sided inverse.
    """
    label = tabloid.max_label()
    if label == 0:
        raise ValueError("empty tabloid has no brick to remove")
    rows = list(tabloid.rows)
    row_idx = next(i for i, row in enumerate(rows) if label in row)
    length = len(rows[row_idx])
    brick = sum(1 for v in rows[row_idx] if v == label)
    if any(v == label for v in rows[row_idx][: length - brick]):
        raise ValueError("largest brick is not at the end of its row")
    k = sum(1 for row in rows[: row_idx + 1] if len(row) == length)
    truncated = rows[row_idx][: length - brick]
    del rows[row_idx]
    if truncated:
        insert_at = next(
            (i for i, row in enumerate(rows) if len(row) <= len(truncated)),
            len(rows),
        )
        rows.insert(insert_at, truncated)
    return k, Filling(tuple(rows))


def obt_unsplit(lam: Partition, k: int, tabloid: Filling) -> Filling:
    """Re-attach a brick of the next label so the result has shape lam."""
    gamma = tabloid.shape
    removed = multiset_diff(lam, sort_comp(gamma))
    if len(removed) != 1:
        raise ValueError("target shape does not decrement a single part")
    i = removed[0]
    if not 1 <= k <= multiplicity(lam, i):
        raise ValueError("row index exceeds the multiplicity weight")
    brick = sum(lam) - sum(gamma)
    label = tabloid.max_label() + 1
    rows = list(tabloid.rows)
    if i > brick:
        take = next(idx for idx, row in enumerate(rows) if len(row) == i - brick)
        grown = rows.pop(take) + (label,) * brick
    else:
        grown = (label,) * brick
    block = next((idx for idx, row in enumerate(rows) if len(row) <= i), len(rows))
    rows.insert(block + k - 1, grown)
    return Filling(tuple(rows))


# ---------------------------------------------------------------------------
# Marked-tiling bijection behind the last-part-sum closed form
# ---------------------------------------------------------------------------

def marked_brick_bijection(
    alpha: Composition, marked_cell: int
) -> tuple[Composition, int, int]:
    """Swap the brick holding the marked cell with the last brick.

    Input: a row tiling alpha (a rearrangement of its sorted type) and a
    marked cell position in 1..n.  Output: the swapped tiling, the index of
    the now-marked brick (the brick that used to be last), and the new
    position of the marked cell, which lands in the rightmost brick.
    """
    n = sum(alpha)
    if not 1 <= marked_cell <= n:
        raise ValueError("marked cell out of range")
    start = 0
    brick = None
    for idx, length in enumerate(alpha, start=1):
        if marked_cell <= start + length:
            brick = idx
            offset = marked_cell - start  # 1-based within its brick
            break
        start += length
    swapped = list(alpha)
    swapped[brick - 1], swapped[-1] = swapped[-1], swapped[brick - 1]
    new_cell = n - alpha[brick - 1] + offset
    return tuple(swapped), brick, new_cell


def marked_brick_bijection_inv(
    alpha: Composition, marked_brick: int, marked_cell: int
) -> tuple[Composition, int]:
    """Inverse: swap the marked brick back with the last brick."""
    n = sum(alpha)
    if not 1 <= marked_brick <= len(alpha):
        raise ValueError("marked brick out of range")
    if not n - alpha[-1] + 1 <= marked_cell <= n:
        raise ValueError("marked cell must lie in the last brick")
    offset = marked_cell - (n - alpha[-1])
    swapped = list(alpha)
    swapped[marked_brick - 1], swapped[-1] = swapped[-1], swapped[marked_brick - 1]
    new_cell = sum(swapped[: marked_brick - 1]) + offset
    return tuple(swapped), new_cell
