"""Partitions, compositions, removal steps on shapes, fillings, shape chains,
and last-part sums.

Shapes are plain tuples of positive integers; all arithmetic is exact:
Python ints, and fractions.Fraction only where a value divides.  A tableau
built one incremental structure at a time is its chain of label-prefix shapes
() = g0, g1, ..., g_m: `walk_chains` lists them from a successor callback, and
the bijection layer works on them, converting to a Filling only at its public
surface.  A strip or hook is the pair of shapes gamma inside lam around it,
never a cell set; `border_hook` is the one hook computation.  A structure
is listed by its successor function succ(shape, L), which the recursion and
`walk_chains` ask (`successors_by_size` files its removals in a cache), and
tested by a rule on two shapes that lists nothing, such as `is_rim_hook`,
which `is_chain_tableau` asks of each step.
Every function here is pure, so the whole module is safe for concurrent use.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import zip_longest
from math import factorial, prod

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Cell = tuple[int, int]
Chain = tuple[Partition, ...]


# ---------------------------------------------------------------------------
# Enumeration with canonical orders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple[Composition, ...]:
    if n == 0:
        return ((),)
    out: list[Composition] = []
    for first in range(n, 0, -1):
        out.extend((first,) + rest for rest in _compositions(n - first))
    return tuple(out)


def compositions(n: int) -> list[Composition]:
    """All compositions of n, largest first part first, then recursively.

    The order is descending lexicographic; |result| = 2^(n-1) for n >= 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_compositions(n))


@lru_cache(maxsize=None)
def _partitions_bounded(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in _partitions_bounded(n - first, first))
    return tuple(out)


def partitions(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions_bounded(n, n)) if n else [()]


def is_composition(seq: tuple[int, ...]) -> bool:
    return all(a >= 1 for a in seq)


def is_partition(seq: tuple[int, ...]) -> bool:
    return is_composition(seq) and all(a >= b for a, b in zip(seq, seq[1:]))


def _require(test, noun: str, shapes) -> None:
    for shape in shapes:
        if not test(shape):
            raise ValueError("%r is not a %s" % (tuple(shape), noun))


def require_composition(*shapes: tuple[int, ...]) -> None:
    """Raise ValueError unless every part of every shape is at least 1."""
    _require(is_composition, "composition", shapes)


def require_partition(*shapes: tuple[int, ...]) -> None:
    """Raise ValueError unless every shape is a partition."""
    _require(is_partition, "partition", shapes)


def sort_comp(alpha: Composition) -> Partition:
    """Weakly decreasing rearrangement of a composition."""
    return tuple(sorted(alpha, reverse=True))


# ---------------------------------------------------------------------------
# Last-part sums
# ---------------------------------------------------------------------------

def last_part_sum(mu: Partition) -> int:
    """Sum of the last part over all distinct rearrangements of mu.

    Equals (|mu|/len(mu)) * multinomial(len(mu); multiplicities), which is
    always an integer.
    """
    if not mu:
        raise ValueError("undefined for the empty partition")
    ell = len(mu)
    ways = factorial(ell)
    for value in set(mu):
        ways //= factorial(mu.count(value))
    total = sum(mu) * ways
    if total % ell:
        raise AssertionError("last_part_sum is not integral")
    return total // ell


# ---------------------------------------------------------------------------
# Multiset operations on partitions
# ---------------------------------------------------------------------------

def multiplicity(lam: Partition, i: int) -> int:
    """Number of parts of lam equal to i."""
    return lam.count(i)


def multiset_diff(lam: Partition, mu: Partition) -> Partition:
    """Multiset difference; multiplicities clamp at zero."""
    rest = list(mu)
    out = []
    for part in lam:
        if part in rest:
            rest.remove(part)
        else:
            out.append(part)
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# Diagrams and removal steps on shapes
# ---------------------------------------------------------------------------

def column_length(shape: Partition, col: int) -> int:
    """Number of rows of the diagram having at least `col` cells."""
    return sum(1 for row in shape if row >= col)


def skew_sign(outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    """(-1)^(rows occupied by dg(outer)\\dg(inner) minus 1)."""
    padded = inner + (0,) * (len(outer) - len(inner))
    rows = sum(1 for a, b in zip(outer, padded) if a > b)
    if rows == 0:
        raise ValueError("empty skew shape has no sign")
    return -1 if (rows - 1) % 2 else 1


def rht_sign(chain: Chain) -> int:
    """Product of the hook signs of the label classes of a (special) rim-hook
    tableau, read off the consecutive shapes of its chain."""
    return prod(skew_sign(outer, inner) for inner, outer in zip(chain, chain[1:]))


def border_hook(shape: Partition, cell: Cell) -> tuple[Partition, int, int]:
    """The removable border rim-hook attached to a cell of dg(shape), as the
    shape gamma it leaves, its size |shape| - |gamma| and its sign.

    The hook runs along the border from the bottom of the cell's column to
    the end of the cell's row; its size is the cell's hook length and the
    map cell <-> removable border hook is a bijection.
    """
    i, j = cell
    if i < 1 or i > len(shape) or j < 1 or j > shape[i - 1]:
        raise ValueError("cell not in diagram")
    bottom = column_length(shape, j)
    new = list(shape)
    for r in range(i, bottom):
        new[r - 1] = shape[r] - 1
    new[bottom - 1] = j - 1
    size = shape[i - 1] - j + bottom - i + 1
    return tuple(p for p in new if p), size, -1 if (bottom - i) % 2 else 1


def is_rim_hook(shape: Partition, gamma: Partition) -> bool:
    """shape/gamma is a removable border rim hook of the partition shape,
    told in one pass over the rows with no hook built: the rows where they
    differ run from a to b, row r < b of gamma is shape[r+1] - 1 (one column
    shared with the row below) and row b lies in [shape[b+1], shape[b])."""
    if len(gamma) > len(shape) or 0 in gamma or min(shape, default=0) < 1:
        return False
    joined = ended = False  # the hook goes on into the next row; it is over
    for part, kept, below in zip_longest(shape, gamma, shape[1:], fillvalue=0):
        if below > part or joined and kept == part:  # no partition; broken off
            return False
        if kept != part:
            if ended or kept > part or kept < below - 1:
                return False
            joined = kept == below - 1
            ended = not joined
    return ended


def successors_by_size(removals):
    """Decorator: turn removals(shape), every removal as (gamma, L) in order,
    into the successor function succ(shape, L), the gammas of size L in that
    order.  Each shape's removals are filed by size once, in a functools
    cache that succ.cache_clear empties; every answer is a fresh list."""

    @lru_cache(maxsize=None)
    def table(shape: Partition) -> dict[int, list[Partition]]:
        by_size: dict[int, list[Partition]] = {}
        for gamma, length in removals(shape):
            by_size.setdefault(length, []).append(gamma)
        return by_size

    @wraps(removals)
    def succ(shape: Partition, length: int) -> list[Partition]:
        return list(table(shape).get(length, ()))

    del succ.__wrapped__  # succ takes (shape, L), not removals' (shape)
    succ.cache_clear, succ.cache_info = table.cache_clear, table.cache_info
    return succ


# ---------------------------------------------------------------------------
# Fillings
# ---------------------------------------------------------------------------

class Filling:
    """A left-justified diagram with one positive integer label per cell.

    Immutable; specializations (semistandard, rim-hook, brick-style fillings)
    are expressed as validator predicates in the application modules.  This
    is the form objects take in the public API and in JSON; see `chain_of`
    for the form the tableau algorithms work on.
    """

    __slots__ = ("rows", "shape")

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = tuple(tuple(r) for r in rows)
        if any(len(r) == 0 for r in self.rows):
            raise ValueError("empty row in filling")
        if any(v < 1 for r in self.rows for v in r):
            raise ValueError("labels must be positive")
        self.shape = tuple(len(r) for r in self.rows)

    def content(self) -> Composition:
        """Occurrence counts of 1..max; every label up to the max must occur."""
        counts = Counter(v for row in self.rows for v in row)
        if not counts:
            return ()
        top = max(counts)
        if sorted(counts) != list(range(1, top + 1)):
            raise ValueError("labels are not contiguous from 1")
        return tuple(counts[k] for k in range(1, top + 1))

    def max_label(self) -> int:
        return max((v for row in self.rows for v in row), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Filling) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "Filling(%r)" % (self.rows,)

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Filling":
        filling = cls(tuple(tuple(r) for r in data["rows"]))
        if any(type(v) is not int for row in filling.rows for v in row):
            raise ValueError("labels must be integers")
        if "shape" in data and tuple(data["shape"]) != filling.shape:
            raise ValueError("shape field disagrees with rows")
        return filling


# ---------------------------------------------------------------------------
# Shape chains
# ---------------------------------------------------------------------------

def chain_of(filling: Filling) -> Chain | None:
    """The label-prefix shapes () = g0, g1, ..., g_max of a filling.

    g_k is the shape of the cells labelled at most k.  Returns None unless
    every g_k is a partition diagram, which holds exactly when the shape is
    a partition and rows and columns weakly increase.
    """
    rows = filling.rows
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) > len(upper) or any(a > b for a, b in zip(upper, lower)):
            return None
    if any(a > b for row in rows for a, b in zip(row, row[1:])):
        return None
    return tuple(
        tuple(p for p in (bisect_right(row, k) for row in rows) if p)
        for k in range(filling.max_label() + 1)
    )


def filling_of(chain: Chain) -> Filling:
    """The filling of any chain of growing row-length tuples (a missing row
    is 0): label k fills row r past chain[k-1][r] up to chain[k][r].  On
    label-prefix partitions it is the inverse of chain_of."""
    return Filling(
        tuple(bisect_right(lengths, cell) for cell in range(lengths[-1]))
        for lengths in zip_longest(*chain, fillvalue=0)
    )


def is_chain_tableau(
    chain: Chain, shape: tuple[int, ...], content: Composition, rule
) -> bool:
    """The chain runs from () to `shape` in nonempty steps of the sizes
    `content`, rule(outer, inner) true of each: a chain that walk_chains
    lists from the successor function of that rule's structure.  A Filling
    is checked as chain_of(filling); None is no tableau."""
    steps = list(zip(chain, chain[1:]))
    sizes = tuple(sum(outer) - sum(inner) for inner, outer in steps)
    if chain[0] != () or chain[-1] != tuple(shape) or sizes != tuple(content):
        return False
    return all(sizes) and all(rule(outer, inner) for inner, outer in steps)


def walk_chains(succ, shape: tuple[int, ...], content: Composition) -> list[Chain]:
    """Every chain g0, g1, ..., gk = shape with g(i-1) in succ(g(i),
    content[i-1]), in the successor callback's order, the top label's removal
    varying slowest: the tableaux built one incremental structure at a time.
    A part below 1 in shape or content is a ValueError."""
    require_composition(shape, content)
    if sum(shape) != sum(content):
        raise ValueError("size mismatch")
    chains = [(tuple(shape),)]
    for length in reversed(content):
        chains = [(g,) + chain for chain in chains for g in succ(chain[0], length)]
    return chains


# ---------------------------------------------------------------------------
# Text form of exact values
# ---------------------------------------------------------------------------

def format_rational(q: int | Fraction) -> str:
    """p/q with the denominator omitted when it is 1."""
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
