"""Recursion-driven matrix families, local-identity checks, exact inversion.

A `LocalSystem` packages the data each application supplies: the shape sets
R(n), the one-step successor sets for both matrix families, and the two
weight functions.  A weight is exact: an int, or a Fraction where it divides.
Two primitives on sparse dict rows carry the rest: the one-step matrix
`_step_rows` (D(shape, gamma) = weight over R(m)) and the one product
`_cross` (X * Y^T).  One recursion sweeps the step rows up from level
0 to the level-n sparse tables {shape: {beta: entry}}.  Both identities
are `_cross` of two sparse tables, read by one reader for the stored entries
and the diagonal: A_n * B_n = I globally (`verify_inversion`, the two
level-n recursion tables) and one shape pair at a time (`verify_local`, the
product D_A * D_B^T of the level-n step rows).  The reader scales each row
by the lcm of its entry denominators first, so every product is an int
product.  `IndexedMatrix` is only the dense output form that `build_A` and
`build_B` fill from those tables.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .core import (
    compositions,
    format_rational,
    is_partition,
    partitions,
    rational_to_json,
    require_composition,
    require_partition,
    sort_comp,
)

Shape = tuple[int, ...]
Succ = Callable[[Shape, int], list[Shape]]
Weight = Callable[[Shape, Shape], int | Fraction]


class IndexedMatrix:
    """Dense matrix of exact int or Fraction entries keyed by explicit shape lists."""

    def __init__(self, row_keys: list[Shape], col_keys: list[Shape], entries: list):
        self.row_keys = [tuple(k) for k in row_keys]
        self.col_keys = [tuple(k) for k in col_keys]
        self.entries = [list(row) for row in entries]
        if len(self.entries) != len(self.row_keys) or any(
            len(r) != len(self.col_keys) for r in self.entries
        ):
            raise ValueError("entry grid does not match key lists")
        self._row_index = {k: i for i, k in enumerate(self.row_keys)}
        self._col_index = {k: i for i, k in enumerate(self.col_keys)}
        if len(self._row_index) != len(self.row_keys) or len(self._col_index) != len(
            self.col_keys
        ):
            raise ValueError("duplicate keys")

    def entry(self, row_key: Shape, col_key: Shape) -> int | Fraction:
        return self.entries[self._row_index[tuple(row_key)]][
            self._col_index[tuple(col_key)]
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexedMatrix)
            and self.row_keys == other.row_keys
            and self.col_keys == other.col_keys
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return "IndexedMatrix(%d x %d)" % (len(self.row_keys), len(self.col_keys))

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": [list(k) for k in self.row_keys],
            "cols": [list(k) for k in self.col_keys],
            "entries": [[rational_to_json(e) for e in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("," + ",".join(key_string(k) for k in self.col_keys) + "\n")
        for key, row in zip(self.row_keys, self.entries):
            out.write(
                key_string(key) + "," + ",".join(format_rational(e) for e in row) + "\n"
            )
        return out.getvalue()

    def to_ascii(self) -> str:
        headers = [""] + [key_string(k) for k in self.col_keys]
        rows = [
            [key_string(key)] + [format_rational(e) for e in row]
            for key, row in zip(self.row_keys, self.entries)
        ]
        widths = [
            max(len(line[i]) for line in [headers] + rows) for i in range(len(headers))
        ]
        lines = [
            " ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip()
            for line in [headers] + rows
        ]
        return "\n".join(lines)


def key_string(key: Shape) -> str:
    """Compact shape label: parts concatenated when single-digit ("211")."""
    if not key:
        return "()"
    if all(p < 10 for p in key):
        return "".join(str(p) for p in key)
    return ".".join(str(p) for p in key)


@dataclass
class LocalSystem:
    """One application's recursion data.

    `succ_a(shape, L)` lists the shapes reachable by removing a size-L
    incremental structure on the A side, `succ_b` likewise for B, and the
    weight functions give the factor attached to each such step.  All five
    callbacks must be pure.
    """

    name: str
    shapes: Callable[[int], list[Shape]]
    succ_a: Succ
    succ_b: Succ
    weight_a: Weight
    weight_b: Weight


def _successors(shape: Shape, succ: Succ) -> dict:
    """The one-step successors of shape as an ordered set (a dict of None),
    by removed size L ascending, each successor list asked for once."""
    found: dict = {}
    size = sum(shape)
    for length in range(1, size + 1):
        for gamma in succ(shape, length):
            if gamma in found:
                raise ValueError("successor %r of %r listed twice" % (gamma, shape))
            if sum(gamma) != size - length:
                fmt = "successor %r of %r has size %d, not %d"
                raise ValueError(fmt % (gamma, shape, sum(gamma), size - length))
            found[gamma] = None
    return found


def _weigh(weight: Weight, shape: Shape, gamma: Shape) -> int | Fraction:
    """weight(shape, gamma), which must be exact: an int or a Fraction."""
    value = weight(shape, gamma)
    if type(value) not in (int, Fraction):
        fmt = "weight at %r, %r is %r, not an int or Fraction"
        raise TypeError(fmt % (shape, gamma, value))
    return value


def _step_rows(system: LocalSystem, m: int, succ: Succ, weight: Weight) -> dict:
    """The one-step matrix {shape: {gamma: weight(shape, gamma)}} over R(m)."""
    shapes = system.shapes(m)
    return {s: {g: _weigh(weight, s, g) for g in _successors(s, succ)} for s in shapes}


def _cross(left: dict, right: dict) -> dict:
    """The sparse product left * right^T of two sets of dict rows:
    {lam: {mu: sum over shared keys k of left[lam][k] * right[mu][k]}}.
    A pair (lam, mu) that shares no key is absent, a zero entry."""
    by_key: dict = {}
    for mu, row in right.items():
        for k, value in row.items():
            by_key.setdefault(k, []).append((mu, value))
    product = {}
    for lam, row in left.items():
        sums = product[lam] = {}
        for k, value in row.items():
            for mu, other in by_key.get(k, ()):
                sums[mu] = sums.get(mu, 0) + value * other
    return product


def _recursion(system: LocalSystem, n: int, succ: Succ, weight: Weight) -> dict:
    """The sparse table {shape: {beta: entry}} of M_n over R(n) x C(n), built
    up from M_0 = [1] by

        M_m(s, beta + (L,)) = sum over g in succ(s, L) of weight(s, g) M_{m-L}(g, beta)

    Every level keeps only its nonzero entries, so no product multiplies a
    cancelled zero.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    base = system.shapes(0)
    if len(base) != 1:
        raise ValueError("R(0) must contain exactly one shape")
    levels = [{base[0]: {(): 1}}]
    for m in range(1, n + 1):
        level = {}
        for shape, step in _step_rows(system, m, succ, weight).items():
            row = {}
            for gamma, w in step.items():
                size = sum(gamma)
                last = (m - size,)
                below = levels[size].get(gamma)
                if below is None:
                    fmt = "successor %r of %r is not in R(%d)"
                    raise ValueError(fmt % (gamma, shape, size))
                for beta, value in below.items():
                    key = beta + last
                    row[key] = row.get(key, 0) + w * value
            level[shape] = {beta: v for beta, v in row.items() if v}
        levels.append(level)
    return levels[n]


def build_A(system: LocalSystem, n: int) -> IndexedMatrix:
    """R(n) x C(n) matrix of the recursion with the A-side successors and weights."""
    top = _recursion(system, n, system.succ_a, system.weight_a)
    comps = compositions(n)
    entries = [[row.get(b, 0) for b in comps] for row in top.values()]
    return IndexedMatrix(list(top), comps, entries)


def build_B(system: LocalSystem, n: int) -> IndexedMatrix:
    """C(n) x R(n) matrix: the transpose of the recursion with the B-side
    successors and weights."""
    top = _recursion(system, n, system.succ_b, system.weight_b)
    comps = compositions(n)
    entries = [[row.get(b, 0) for row in top.values()] for b in comps]
    return IndexedMatrix(comps, list(top), entries)


def local_terms(
    system: LocalSystem, lam: Shape, mu: Shape
) -> list[tuple[Shape, int | Fraction]]:
    """The shared one-step successors gamma of lam (A side) and mu (B side),
    each with its term weight_a(lam, gamma) * weight_b(mu, gamma), ordered by
    the removed size L, then by gamma descending."""
    n = sum(lam)
    if n != sum(mu) or n == 0:
        raise ValueError("shapes must have equal positive size")
    require = require_partition if system.shapes is partitions else require_composition
    require(lam, mu)
    shared = _successors(lam, system.succ_a).keys() & _successors(mu, system.succ_b)
    return [
        (g, _weigh(system.weight_a, lam, g) * _weigh(system.weight_b, mu, g))
        for g in sorted(shared, key=lambda g: (sum(g), g), reverse=True)
    ]


def local_lhs(system: LocalSystem, lam: Shape, mu: Shape) -> int | Fraction:
    """Sum of weight_a * weight_b over shared one-step successors of lam, mu."""
    return sum(term for _, term in local_terms(system, lam, mu))


@dataclass
class LocalReport:
    system: str
    n: int
    pairs_checked: int
    failures: list[tuple[Shape, Shape, int | Fraction]]

    @property
    def passed(self) -> bool:
        return not self.failures


def _scaled(rows: dict) -> tuple[dict, dict]:
    """Each row times D, the lcm of its entry denominators, as int rows,
    and {shape: D}.  A row of ints is kept as it is, with D = 1."""
    scaled, scales = {}, {}
    for shape, row in rows.items():
        if all(type(v) is int for v in row.values()):
            scaled[shape], scales[shape] = row, 1
            continue
        d = lcm(*(v.denominator for v in row.values()))
        scaled[shape] = {k: v.numerator * (d // v.denominator) for k, v in row.items()}
        scales[shape] = d
    return scaled, scales


def _off_identity(left: dict, right: dict) -> list[tuple[Shape, Shape, int | Fraction]]:
    """The (lam, mu, value) where the product left * right^T of two sparse
    tables over the same shapes differs from the identity, in the order of
    left's rows.  Only the stored entries of the product and the diagonal
    can differ.

    Each row of either table is first scaled by D, the lcm of its entry
    denominators, so `_cross` multiplies only ints: the scaled entry v at
    (lam, mu) is D_lam * D_mu times the true one, which is checked against
    D_lam * D_mu * delta(lam, mu) and reported as v / (D_lam * D_mu), an
    int when that divides and a Fraction otherwise.
    """
    left, d_left = _scaled(left)
    right, d_right = _scaled(right)
    failures = []
    for lam, row in _cross(left, right).items():
        d_lam = d_left[lam]
        for mu, v in {lam: 0, **row}.items():
            d = d_lam * d_right[mu]
            if v != d * (lam == mu):
                failures.append((lam, mu, v // d if v % d == 0 else Fraction(v, d)))
    order = {shape: i for i, shape in enumerate(left)}
    failures.sort(key=lambda f: (order[f[0]], order[f[1]]))
    return failures


def verify_local(system: LocalSystem, n: int) -> LocalReport:
    """Check the single-step cancellation identity for every shape pair: the
    local sums are the product D_A * D_B^T of the level-n step rows.

    All failing (lam, mu, value) triples are collected, in (lam, mu) order,
    rather than failing fast, so a broken system shows its full damage pattern.
    """
    if n < 1:
        raise ValueError("n must be positive")
    step_a = _step_rows(system, n, system.succ_a, system.weight_a)
    step_b = _step_rows(system, n, system.succ_b, system.weight_b)
    return LocalReport(system.name, n, len(step_a) ** 2, _off_identity(step_a, step_b))


def verify_inversion(system: LocalSystem, n: int) -> bool:
    """Exact check that A_n * B_n is the identity on R(n): the product of the
    level-n recursion tables, A(lam, beta) * B(beta, mu) summed over beta."""
    table_a = _recursion(system, n, system.succ_a, system.weight_a)
    table_b = _recursion(system, n, system.succ_b, system.weight_b)
    return not _off_identity(table_a, table_b)


def check_sorting_condition(matrix: IndexedMatrix) -> bool:
    """True when each column's entries depend only on the sorted column key."""
    groups: dict[Shape, list[int]] = {}
    for j, key in enumerate(matrix.col_keys):
        groups.setdefault(sort_comp(key), []).append(j)
    for row in matrix.entries:
        for cols in groups.values():
            first = row[cols[0]]
            if any(row[j] != first for j in cols[1:]):
                return False
    return True


def square_restrict_A(matrix: IndexedMatrix) -> IndexedMatrix:
    """Restrict rows and columns to partition keys.

    Requires the sorting condition, so that dropping the non-partition
    columns loses no information.
    """
    if not check_sorting_condition(matrix):
        raise ValueError("sorting condition violated; restriction is lossy")
    rows = [i for i, k in enumerate(matrix.row_keys) if is_partition(k)]
    cols = [j for j, k in enumerate(matrix.col_keys) if is_partition(k)]
    return IndexedMatrix(
        [matrix.row_keys[i] for i in rows],
        [matrix.col_keys[j] for j in cols],
        [[matrix.entries[i][j] for j in cols] for i in rows],
    )


def square_fold_B(matrix: IndexedMatrix) -> IndexedMatrix:
    """Collapse composition-keyed rows by summing over each sorted class."""
    n = sum(matrix.row_keys[0]) if matrix.row_keys else 0
    parts = partitions(n)
    index = {k: i for i, k in enumerate(parts)}
    entries = [[0] * len(matrix.col_keys) for _ in parts]
    for key, row in zip(matrix.row_keys, matrix.entries):
        target = entries[index[sort_comp(key)]]
        for j, e in enumerate(row):
            target[j] += e
    return IndexedMatrix(parts, matrix.col_keys, entries)


@dataclass(frozen=True)
class Pairing:
    """Outcome of a local cancellation at one shape pair.

    kind is 'empty', 'diagonal', or 'matched'; members holds (shape, sign)
    pairs -- for 'matched' exactly two with opposite signs.
    """

    kind: str
    members: tuple[tuple[Shape, int], ...]

    def partner_of(self, gamma: Shape) -> Shape:
        if self.kind != "matched":
            raise ValueError("only matched pairings have partners")
        (g1, _), (g2, _) = self.members
        if gamma == g1:
            return g2
        if gamma == g2:
            return g1
        raise ValueError("%r is not a member of the pairing" % (gamma,))
