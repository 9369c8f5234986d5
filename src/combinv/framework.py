"""Recursion-driven matrix families, local-identity checks, exact inversion.

A `LocalSystem` packages the data each application supplies: the shape sets
R(n), the one-step successor sets for both matrix families, and the two
weight functions.  A weight is exact: an int, or a Fraction where it divides.

Every table row is a pair (E, {key: int}): an int row over E, its least
common denominator, whose true entry is int / E.  Three primitives on such
rows carry the rest, and the two products multiply ints only: the one-step
matrix `_step_rows` (D(shape, gamma) = weight over R(m)), the sparse
product check `_off_identity` (X * Y^T against the identity, a row at a
time, naming every failing entry) and the packed one `_is_identity` (the
same verdict, each row of the product one sum of big-integer products).
One recursion sweeps the step rows up from level 0 to the level-n sparse
tables {shape: (E, {beta: int})} without building a Fraction, and returns
that table with the level-n step rows it was built from.

Both identities multiply two sparse tables.  A_n * B_n = I globally
(`verify_inversion`, the two level-n recursion tables) needs only a
verdict, and `_is_identity` gives it: at the sizes `verify` runs, these
tables store most entries of each row, so one packed product per row in
C-level arithmetic beats a Python multiply-add per shared key.  The local
identity, one shape pair at a time (`verify_local`, the product
D_A * D_B^T of the level-n step rows), is `_off_identity`: its failures are
reported entry by entry, and step rows are sparse, where packing loses to
the row loop.  `verify`, which runs both checks, makes one recursion pass
per side and multiplies the step rows that pass returns.

The recursion has one inner loop, and its key rule names the column of
each term: `_append` gives the rectangular A and B.  When R(n) is the
partitions of n (kostka, rimhook, brick), the global check runs on P(n)
alone: two more key rules build A_sq, the A table at partition columns,
and B_fold, the B table summed over the rearrangements of each column, and
A_sq * B_fold^T = A * B^T holds under the sorting condition
A(lam, beta) = A(lam, sort beta).

`IndexedMatrix` is only the dense output form.  `build_A` and `build_B`
fill it from one recursion table of the side they name, rectangular or,
with `square`, A_sq and B_fold built by the same key rules, one Fraction
per nonzero entry of a row with E > 1.  `_side` is the one place that
maps a side to its successors, weights and key rule.
"""

from __future__ import annotations

import io
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable

from .core import (
    compositions,
    format_rational,
    partitions,
    require_composition,
    require_partition,
)

Shape = tuple[int, ...]
Succ = Callable[[Shape, int], list[Shape]]
Weight = Callable[[Shape, Shape], int | Fraction]


class InvariantError(ValueError, TypeError):
    """A system's callbacks broke what the recursion relies on: a successor
    listed twice, of the wrong size or outside R(m), or an inexact weight."""


class IndexedMatrix:
    """Dense matrix of exact int or Fraction entries keyed by explicit shape lists.

    The matrix takes ownership of `entries`, a fresh list of row lists: it
    keeps them uncopied, so the caller hands over a grid it no longer uses.
    """

    def __init__(self, row_keys: list[Shape], col_keys: list[Shape], entries: list[list]):
        self.row_keys = [tuple(k) for k in row_keys]
        self.col_keys = [tuple(k) for k in col_keys]
        self.entries = entries
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

    def to_json(self) -> str:
        """The JSON object {"rows": row keys, "cols": column keys, "entries":
        [[numerator, denominator] per cell]}, as `json.dumps` writes it."""
        entries = ", ".join(
            "[%s]" % ", ".join(
                ["[%d, %d]" % (e.numerator, e.denominator) if e else "[0, 1]" for e in row]
            )
            for row in self.entries
        )
        return '{"rows": %s, "cols": %s, "entries": [%s]}' % (
            _json_keys(self.row_keys), _json_keys(self.col_keys), entries
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


def _json_keys(keys: list[Shape]) -> str:
    """A key list as a JSON array of int arrays."""
    return "[%s]" % ", ".join("[%s]" % ", ".join(map(str, k)) for k in keys)


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
                raise InvariantError("successor %r of %r listed twice" % (gamma, shape))
            if sum(gamma) != size - length:
                fmt = "successor %r of %r has size %d, not %d"
                raise InvariantError(fmt % (gamma, shape, sum(gamma), size - length))
            found[gamma] = None
    return found


def _weigh(weight: Weight, shape: Shape, gamma: Shape) -> int | Fraction:
    """weight(shape, gamma), which must be exact: an int or a Fraction."""
    value = weight(shape, gamma)
    if type(value) not in (int, Fraction):
        fmt = "weight at %r, %r is %r, not an int or Fraction"
        raise InvariantError(fmt % (shape, gamma, value))
    return value


def _step_rows(system: LocalSystem, m: int, succ: Succ, weight: Weight) -> dict:
    """The one-step matrix D(shape, gamma) = weight(shape, gamma) over R(m), as
    {shape: (D, {gamma: int})}: each row is an int row over its least common
    denominator D, and its true entry is int / D."""
    rows = {}
    for s in system.shapes(m):
        step = {g: _weigh(weight, s, g) for g in _successors(s, succ)}
        # An all-int row is kept as it is: rebuilding it over D = 1 makes a
        # second dict per row, which raised the verify-partition benchmark's
        # peak RSS from 24.0-24.3 to 24.6 MiB (2-vCPU Xeon, CPython 3.11).
        if Fraction not in map(type, step.values()):
            rows[s] = (1, step)
            continue
        d = lcm(*(w.denominator for w in step.values()))
        rows[s] = (d, {g: w.numerator * (d // w.denominator) for g, w in step.items()})
    return rows


def _append(nu: Shape, length: int) -> Shape:
    """nu + (length,): the column keys of the rectangular tables A and B."""
    return nu + (length,)


def _append_part(nu: Shape, length: int) -> Shape | None:
    """nu + (length,) when that is a partition, else None: the column keys
    of A_sq, the A table at partition columns only."""
    return nu + (length,) if not nu or nu[-1] >= length else None


def _insert_part(nu: Shape, length: int) -> Shape:
    """The partition nu with one more part, length: the column keys of
    B_fold, the B table summed over the rearrangements of each key."""
    i = len(nu)
    while i and nu[i - 1] < length:
        i -= 1
    return nu[:i] + (length,) + nu[i:]


def _recursion(
    system: LocalSystem,
    n: int,
    succ: Succ,
    weight: Weight,
    extend: Callable[[Shape, int], Shape | None] = _append,
) -> tuple[dict, dict | None]:
    """(M_n, D_n): the sparse table {shape: (E, {beta: int})} of M_n over
    R(n) x C(n), whose entry at (shape, beta) is int / E, and the level-n
    step rows it was built from (None at n = 0).  M_n is built up from
    M_0 = [1] by

        M_m(s, beta + (L,)) = sum over g in succ(s, L) of weight(s, g) M_{m-L}(g, beta)

    Every row is an int row N over E, its least common denominator, and no
    Fraction is built.  The step row of s is (d, {g: p}), so a step has
    weight p / d.  The successor rows (E_g, N_g) are summed as
    p * (E' / E_g) * N_g over E', the running lcm of their E_g, and the row
    is scaled up whenever E' grows; then E = d * E', and the gcd of E and
    the row is divided out.  Every level keeps only its nonzero entries, so
    no product multiplies a cancelled zero.

    `extend(beta, L)` is the column key of the term, and a None from it
    drops the term: every side runs this one loop, with `_append` (the key
    beta + (L,)) for the rectangular tables, `_append_part` for A_sq and
    `_insert_part` for B_fold (see `verify_inversion`).  It is asked at
    most once per (size, L, beta): the first term from level `size` under
    L builds that pair's key map, and every term looks its key up there.
    The level-n step rows are built first, before levels 1..n-1, so a fault
    in them is the one reported even when a lower level is broken too;
    `verify` multiplies them again for the local check.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = _step_rows(system, n, succ, weight) if n else None
    base = system.shapes(0)
    if len(base) != 1:
        raise ValueError("R(0) must contain exactly one shape")
    levels = [{base[0]: (1, {(): 1})}]
    key_maps: dict = {}  # (size, L): {beta: extend(beta, L)} over level size
    for m in range(1, n + 1):
        level = {}
        steps = top if m == n else _step_rows(system, m, succ, weight)
        for shape, (d, step) in steps.items():
            e, row = 1, {}
            for gamma, p in step.items():
                size = sum(gamma)
                found = levels[size].get(gamma)
                if found is None:
                    fmt = "successor %r of %r is not in R(%d)"
                    raise InvariantError(fmt % (gamma, shape, size))
                e_g, lower = found
                if e % e_g:
                    grow = e_g // gcd(e, e_g)
                    e *= grow
                    row = {beta: v * grow for beta, v in row.items()}
                factor = p * (e // e_g)
                length = m - size
                keys = key_maps.get((size, length))
                if keys is None:
                    keys = key_maps[size, length] = _key_map(levels[size], length, extend)
                for beta, value in lower.items():
                    key = keys[beta]
                    if key is not None:
                        row[key] = row.get(key, 0) + factor * value
            row = {beta: v for beta, v in row.items() if v}
            e *= d
            if e > 1:
                g = gcd(e, *row.values())
                if g > 1:
                    e //= g
                    row = {beta: v // g for beta, v in row.items()}
            level[shape] = (e, row)
        levels.append(level)
    return levels[n], top


def _key_map(level: dict, length: int, extend: Callable) -> dict:
    """{beta: extend(beta, length)} over the column keys of a level's rows:
    each term's key is looked up, not computed, and a None still drops it."""
    columns = {beta for _, row in level.values() for beta in row}
    return {beta: extend(beta, length) for beta in columns}


def _entries(table: dict) -> list[dict]:
    """The rows of a table as {beta: entry}, with one Fraction built per
    nonzero entry of a row whose denominator is above 1."""
    return [
        row if e == 1 else {beta: Fraction(v, e) for beta, v in row.items()}
        for e, row in table.values()
    ]


def _side(system: LocalSystem, side: str) -> tuple[Succ, Weight, Callable]:
    """(succ, weight, key rule) of one side of the recursion: "A" and "B"
    append every part (`_append`, every composition column); "Asq" appends
    a part only after a part at least as large (`_append_part`, the A table
    at partition columns) and "Bsq" inserts it in sorted position
    (`_insert_part`, the B table summed over the rearrangements of each
    column)."""
    if side[0] == "A":
        succ, weight = system.succ_a, system.weight_a
    else:
        succ, weight = system.succ_b, system.weight_b
    return succ, weight, {"Asq": _append_part, "Bsq": _insert_part}.get(side, _append)


def _build(system: LocalSystem, n: int, side: str) -> IndexedMatrix:
    """The dense matrix of one side's level-n recursion table over
    R(n) x C(n), or R(n) x P(n) for a square side; a B side is transposed.

    A_sq keeps the partition columns only, which loses nothing under the
    sorting condition A(lam, beta) = A(lam, sort beta), and its rows are
    P(n).  Where R(n) is not P(n) it is refused: refine and refine-weighted
    break that condition at every n >= 3."""
    if side == "Asq" and system.shapes(n) != partitions(n):
        raise ValueError("sorting condition violated; restriction is lossy")
    table, _ = _recursion(system, n, *_side(system, side))
    cols = partitions(n) if side.endswith("sq") else compositions(n)
    rows = _entries(table)
    if side[0] == "A":
        entries = [[row.get(b, 0) for b in cols] for row in rows]
        return IndexedMatrix(list(table), cols, entries)
    entries = [[row.get(b, 0) for row in rows] for b in cols]
    return IndexedMatrix(cols, list(table), entries)


def build_A(system: LocalSystem, n: int, square: bool = False) -> IndexedMatrix:
    """R(n) x C(n) matrix of the recursion with the A-side successors and
    weights; with `square`, A_sq, its restriction to P(n) x P(n)."""
    return _build(system, n, "Asq" if square else "A")


def build_B(system: LocalSystem, n: int, square: bool = False) -> IndexedMatrix:
    """C(n) x R(n) matrix: the transpose of the recursion with the B-side
    successors and weights; with `square`, B_fold over P(n) x R(n), whose
    row nu sums the rows of the rearrangements of nu."""
    return _build(system, n, "Bsq" if square else "B")


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


@dataclass
class LocalReport:
    system: str
    n: int
    pairs_checked: int
    failures: list[tuple[Shape, Shape, int | Fraction]]

    @property
    def passed(self) -> bool:
        return not self.failures


def _off_identity(left: dict, right: dict) -> list[tuple[Shape, Shape, int | Fraction]]:
    """The (lam, mu, value) where the product left * right^T of two tables
    of (D, int row) rows over the same shapes differs from the identity, in
    the order of left's rows.  Only the stored entries of the product and
    the diagonal can differ.

    right's rows are indexed by key once; then each row lam of the product
    is summed from {lam: 0} over the keys it shares with right, checked and
    dropped before the next, so no more than one row of sums is held.  The
    int rows are multiplied as they are: an entry v at (lam, mu) is
    D_lam * D_mu times the true one, which is checked against
    D_lam * D_mu * delta(lam, mu) and reported as v / (D_lam * D_mu), an
    int when that divides and a Fraction otherwise.
    """
    by_key: dict = {}
    for mu, (_, row) in right.items():
        for k, value in row.items():
            by_key.setdefault(k, []).append((mu, value))
    failures = []
    for lam, (d_lam, row) in left.items():
        sums = {lam: 0}
        for k, value in row.items():
            for mu, other in by_key.get(k, ()):
                sums[mu] = sums.get(mu, 0) + value * other
        for mu, v in sums.items():
            d = d_lam * right[mu][0]
            if v != d * (lam == mu):
                failures.append((lam, mu, v // d if v % d == 0 else Fraction(v, d)))
    order = {shape: i for i, shape in enumerate(left)}
    failures.sort(key=lambda f: (order[f[0]], order[f[1]]))
    return failures


def _is_identity(left: dict, right: dict) -> bool:
    """Whether the product left * right^T of two tables of (D, int row) rows
    over the same shapes is the identity: the verdict of `_off_identity`,
    with each row of the product one sum of big-integer products.

    Each key k of right is packed into one int, P_k = sum over mu of
    right[mu][k] << (w * index(mu)), a digit of w bits per row of right.
    Row lam of the product is then sum over k of left[lam][k] * P_k, whose
    digit at mu is the entry v at (lam, mu), D_lam * D_mu times the true
    one; the row is right exactly when it equals
    (D_lam * D'_lam) << (w * index(lam)).  No digit of the difference can
    carry into the next: w is two bits wider than both the largest
    D_lam * D'_mu and a bound on every |v|, the largest sum of |left[lam][k]|
    over a row times the largest |right[mu][k]|, so every digit of the
    difference lies strictly inside +-2^(w-1), where balanced base-2^w
    digits are unique.  The rows are summed by C-level big-integer
    arithmetic, and none is decoded: a verdict needs no failing entry.
    """
    top = max(max(map(abs, row.values()), default=0) for _, row in right.values())
    reach = max(sum(map(abs, row.values())) for _, row in left.values()) * top
    dens = max(d for d, _ in left.values()) * max(d for d, _ in right.values())
    width = max(reach, dens).bit_length() + 2
    packed: defaultdict = defaultdict(int)  # a key no row of right holds packs to 0
    for i, (_, row) in enumerate(right.values()):
        shift = width * i
        for k, value in row.items():
            packed[k] += value << shift
    index = {mu: i for i, mu in enumerate(right)}
    for lam, (d_lam, row) in left.items():
        total = sum(map(mul, row.values(), map(packed.__getitem__, row)))
        if total != d_lam * right[lam][0] << width * index[lam]:
            return False
    return True


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


def _tables(system: LocalSystem, n: int) -> list[tuple[dict, dict | None]]:
    """`_recursion` of the A side, then the B side: square when R(n) is P(n)."""
    sides = ("Asq", "Bsq") if system.shapes is partitions else ("A", "B")
    return [_recursion(system, n, *_side(system, side)) for side in sides]


def verify_inversion(system: LocalSystem, n: int) -> bool:
    """Exact check that A_n * B_n is the identity on R(n): the product of the
    level-n recursion tables, A(lam, beta) * B(beta, mu) summed over beta.

    When R(n) is the partitions of n, the check runs on P(n) alone: it
    multiplies A_sq, the A table at partition columns, by B_fold, whose
    entry at (mu, nu) is the sum of B(mu, beta) over the rearrangements
    beta of nu.  A_sq * B_fold^T equals A * B^T under the sorting condition
    A(lam, beta) = A(lam, sort beta), which holds for the kostka, rimhook
    and brick systems (Egecioglu-Remmel 1990, 1991); without it the check
    proves nothing about A * B^T.

    The product is the packed one, `_is_identity`: the answer is a verdict,
    so no failing entry is decoded.
    """
    (table_a, _), (table_b, _) = _tables(system, n)
    return _is_identity(table_a, table_b)


def verify(system: LocalSystem, n: int) -> tuple[bool, LocalReport | None]:
    """`verify_inversion` and, for n >= 1, `verify_local`, with each side's
    level-n step rows built once: they are the top level of its recursion
    table and one factor of the local product D_A * D_B^T.  The global
    check is the packed verdict `_is_identity`; the local one stays the
    sparse `_off_identity`, whose failing (lam, mu, value) the report
    lists, on step rows too sparse for packing to pay."""
    (table_a, step_a), (table_b, step_b) = _tables(system, n)
    report = None
    if n >= 1:
        failures = _off_identity(step_a, step_b)
        report = LocalReport(system.name, n, len(step_a) ** 2, failures)
    return _is_identity(table_a, table_b), report


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
