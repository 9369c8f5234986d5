"""Recursion-driven matrix families, local-identity checks, exact inversion.

A `LocalSystem` packages the data each application supplies: the shape sets
R(n), the one-step successor sets for both matrix families, and the two
weight functions.  One recursion builds both families bottom-up, each call
from level 0 (no state is kept on the system): `build_A` runs it with the
A-side successors and weights, `build_B` with the B-side ones and returns
the transpose.  The identity A_n * B_n = I can be checked either directly
(`verify_inversion`) or one shape pair at a time (`verify_local`), where
`local_terms` lists the shared one-step successors and their terms.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    compositions,
    format_rational,
    is_partition,
    partitions,
    rational_from_json,
    rational_to_json,
    require_partition,
    sort_comp,
    truncate,
)

Shape = tuple[int, ...]


class IndexedMatrix:
    """Dense exact-rational matrix keyed by explicit shape lists."""

    def __init__(
        self,
        row_keys: list[Shape],
        col_keys: list[Shape],
        entries: list[list[Fraction]],
    ):
        self.row_keys = [tuple(k) for k in row_keys]
        self.col_keys = [tuple(k) for k in col_keys]
        self.entries = [[Fraction(e) for e in row] for row in entries]
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

    @classmethod
    def identity(cls, keys: list[Shape]) -> "IndexedMatrix":
        n = len(keys)
        return cls(
            keys,
            keys,
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)],
        )

    def entry(self, row_key: Shape, col_key: Shape) -> Fraction:
        return self.entries[self._row_index[tuple(row_key)]][
            self._col_index[tuple(col_key)]
        ]

    def matmul(self, other: "IndexedMatrix") -> "IndexedMatrix":
        if self.col_keys != other.row_keys:
            raise ValueError("inner key lists disagree")
        columns = list(zip(*other.entries))
        product = [
            [
                sum(
                    (a * b for a, b in zip(row, col) if a and b),
                    start=Fraction(0),
                )
                for col in columns
            ]
            for row in self.entries
        ]
        return IndexedMatrix(self.row_keys, other.col_keys, product)

    def is_identity(self) -> bool:
        if self.row_keys != self.col_keys:
            return False
        return all(
            e == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

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

    @classmethod
    def from_json(cls, data: dict) -> "IndexedMatrix":
        return cls(
            [tuple(k) for k in data["rows"]],
            [tuple(k) for k in data["cols"]],
            [[rational_from_json(e) for e in row] for row in data["entries"]],
        )

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
    succ_a: Callable[[Shape, int], list[Shape]]
    succ_b: Callable[[Shape, int], list[Shape]]
    weight_a: Callable[[Shape, Shape], Fraction]
    weight_b: Callable[[Shape, Shape], Fraction]


def _recursion(
    system: LocalSystem,
    n: int,
    succ: Callable[[Shape, int], list[Shape]],
    weight: Callable[[Shape, Shape], Fraction],
) -> tuple[list[Shape], list[Shape], list[list[Fraction]]]:
    """Rows R(n), columns C(n) and entries of M_n, built up from M_0 = [1] by

        M_m(s, beta) = sum over g in succ(s, L) of weight(s, g) * M_{m-L}(g, beta*)

    where (beta*, L) = truncate(beta).  Every level is kept as raw rows (an
    empty sum stays the int 0), so that the caller wraps the top level once.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rows = system.shapes(0)
    if len(rows) != 1:
        raise ValueError("R(0) must contain exactly one shape")
    cols, entries = [()], [[Fraction(1)]]
    levels = []  # (entries, row index, column index) of M_0 .. M_{m-1}
    for m in range(1, n + 1):
        row_at = {shape: i for i, shape in enumerate(rows)}
        col_at = {beta: j for j, beta in enumerate(cols)}
        levels.append((entries, row_at, col_at))
        rows, cols = system.shapes(m), compositions(m)
        entries = []
        for shape in rows:
            row = []
            for beta in cols:
                beta_star, last = truncate(beta)
                prev, prev_row, prev_col = levels[m - last]
                j = prev_col[beta_star]
                total = 0
                for gamma in succ(shape, last):
                    total += weight(shape, gamma) * prev[prev_row[gamma]][j]
                row.append(total)
            entries.append(row)
    return rows, cols, entries


def build_A(system: LocalSystem, n: int) -> IndexedMatrix:
    """R(n) x C(n) matrix of the recursion with the A-side successors and weights."""
    return IndexedMatrix(*_recursion(system, n, system.succ_a, system.weight_a))


def build_B(system: LocalSystem, n: int) -> IndexedMatrix:
    """C(n) x R(n) matrix: the transpose of the recursion with the B-side
    successors and weights."""
    rows, cols, entries = _recursion(system, n, system.succ_b, system.weight_b)
    return IndexedMatrix(
        cols, rows, [[row[j] for row in entries] for j in range(len(cols))]
    )


def local_terms(
    system: LocalSystem, lam: Shape, mu: Shape
) -> list[tuple[Shape, Fraction]]:
    """The shared one-step successors gamma of lam (A side) and mu (B side),
    each with its term weight_a(lam, gamma) * weight_b(mu, gamma).

    Ordered by the removed size L, then by gamma descending.
    """
    n = sum(lam)
    if n != sum(mu) or n == 0:
        raise ValueError("shapes must have equal positive size")
    if system.shapes is partitions:
        require_partition(lam, mu)
    terms = []
    for length in range(1, n + 1):
        shared = set(system.succ_a(lam, length)) & set(system.succ_b(mu, length))
        if shared:  # most lengths share nothing, and verify_local asks every pair
            for gamma in sorted(shared, reverse=True):
                term = system.weight_a(lam, gamma) * system.weight_b(mu, gamma)
                terms.append((gamma, term))
    return terms


def local_lhs(system: LocalSystem, lam: Shape, mu: Shape) -> Fraction:
    """Sum of weight_a * weight_b over shared one-step successors of lam, mu."""
    return sum([term for _, term in local_terms(system, lam, mu)], Fraction(0))


@dataclass
class LocalReport:
    system: str
    n: int
    pairs_checked: int
    failures: list[tuple[Shape, Shape, Fraction]]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_local(system: LocalSystem, n: int) -> LocalReport:
    """Check the single-step cancellation identity for every shape pair.

    All failing (lam, mu, value) triples are collected rather than failing
    fast, so a broken system shows its full damage pattern.
    """
    if n < 1:
        raise ValueError("n must be positive")
    shapes = system.shapes(n)
    failures = []
    for lam in shapes:
        for mu in shapes:
            value = local_lhs(system, lam, mu)
            expected = 1 if lam == mu else 0
            if value != expected:
                failures.append((lam, mu, value))
    return LocalReport(system.name, n, len(shapes) ** 2, failures)


def verify_inversion(system: LocalSystem, n: int) -> bool:
    """Exact check that A_n * B_n is the identity on R(n)."""
    return build_A(system, n).matmul(build_B(system, n)).is_identity()


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
    entries = [[Fraction(0)] * len(matrix.col_keys) for _ in parts]
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
