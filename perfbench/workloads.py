"""Workload inputs, items and answer checks for the combinv benchmark.

A workload is a fixed list of items made from the seed; a pass runs every
item once, back to back.  An item is one call into combinv: a CLI command
through `combinv.cli.run`, or one `verify_pairing` shape-pair audit.  Each
item returns its answer, and `check` decides whether the answer is right
using only the benchmark's own arithmetic (partition counts, closed forms,
the Kronecker delta), never the program's own helpers.

The timed code touches only the public surface: `combinv.cli.run` and
`combinv.verify_pairing`.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

WORKLOADS = ("verify-partition", "verify-composition", "involution-audit", "local-query")

# verify-partition and verify-composition sizes: one n below the sizes
# where one pass takes 10 s or more, so that a run holds several passes.
PARTITION_VERIFY = (("kostka", 9), ("rimhook", 8), ("brick", 9))
COMPOSITION_VERIFY = (("refine", 8), ("refine-weighted", 8))
MATRIX_N = 8
AUDITS = (("kostka", 6), ("rimhook", 5))
# Objects per exhaustive audit: sum over all shape pairs of the pair-set size.
AUDIT_OBJECTS = {("kostka", 6): 905, ("rimhook", 5): 7640}
QUERY_SIZES = range(12, 17)
QUERY_KINDS = tuple(("local", app) for app in
                    ("kostka", "rimhook", "refine", "refine-weighted", "brick")) + (
    ("pair", "kostka"), ("pair", "rimhook"))
# Per (kind, app, n): 4 diagonal pairs (20%), 8 near pairs, 8 random pairs.
# 700 queries a pass keep the pass time within a few percent across seeds.
QUERY_MIX = (("diagonal", 4), ("near", 8), ("random", 8))
COMPOSITION_APPS = ("refine", "refine-weighted")


# ---------------------------------------------------------------------------
# Shapes, generated here rather than by the program under test
# ---------------------------------------------------------------------------

def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1)
            for rest in partitions(n - first, first)]


def compositions(n: int) -> list[tuple[int, ...]]:
    """Compositions of n in descending lexicographic order."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(n, 0, -1) for rest in compositions(n - first)]


def shape_arg(shape: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in shape)


def random_composition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts, run = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    return tuple(parts + [run])


def near_partition(rng: random.Random, lam: tuple[int, ...]) -> tuple[int, ...]:
    """lam with one rim hook moved: one bead jumps down L, another up L."""
    n = sum(lam)
    beads = len(lam) + n
    padded = lam + (0,) * (beads - len(lam))
    positions = {part + beads - 1 - i for i, part in enumerate(padded)}
    for _ in range(200):
        length = rng.randint(1, n - 1)
        down = sorted(b for b in positions if b >= length and b - length not in positions)
        if not down:
            continue
        b = rng.choice(down)
        moved = (positions - {b}) | {b - length}
        up = sorted(c for c in moved if c != b - length and c + length not in moved)
        if not up:
            continue
        c = rng.choice(up)
        final = sorted((moved - {c}) | {c + length}, reverse=True)
        mu = tuple(p for p in (pos - (beads - 1 - i) for i, pos in enumerate(final)) if p)
        if mu != lam:
            return mu
    raise RuntimeError("no rim-hook move found for %r" % (lam,))


def near_composition(rng: random.Random, lam: tuple[int, ...]) -> tuple[int, ...]:
    """lam with a random suffix re-cut: the two share a prefix."""
    for _ in range(200):
        cut = rng.randint(0, len(lam) - 1)
        mu = lam[:cut] + random_composition(rng, sum(lam[cut:]))
        if mu != lam:
            return mu
    raise RuntimeError("no re-cut found for %r" % (lam,))


# ---------------------------------------------------------------------------
# Closed forms the answers are checked against
# ---------------------------------------------------------------------------

def blocks(fine: tuple[int, ...], coarse: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """The consecutive blocks of `fine` summing to each part of `coarse`."""
    out, pos = [], 0
    for target in coarse:
        block, acc = [], 0
        while acc < target and pos < len(fine):
            block.append(fine[pos])
            acc += fine[pos]
            pos += 1
        if acc != target:
            return None
        out.append(tuple(block))
    return out if pos == len(fine) else None


def refinement_entry(app: str, side: str, row: tuple[int, ...], col: tuple[int, ...]) -> Fraction:
    """refine and refine-weighted A(lam, beta) and B(beta, mu) in closed form.

    Both vanish unless the row key refines the column key.  refine has A = 1
    and B = (-1)^(len beta - len mu).  refine-weighted has A = the product of
    the last part of each block of lam tiling beta, and B = that sign over
    the product of the partial-sum products of the blocks of beta tiling mu.
    """
    tiling = blocks(row, col)
    if tiling is None:
        return Fraction(0)
    weighted = app == "refine-weighted"
    if side == "A":
        value = 1
        for block in tiling:
            value *= block[-1] if weighted else 1
        return Fraction(value)
    denominator = 1
    for block in tiling:
        acc = 0
        for part in block:
            acc += part
            denominator *= acc if weighted else 1
    return Fraction(-1 if (len(row) - len(col)) % 2 else 1, denominator)


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------

@dataclass
class Item:
    """One call into combinv and the check of its answer."""

    key: tuple  # (kind, app, ...) -- what the item asks, for labels and the self-test
    run: Callable[[], object]
    check: Callable[[object], bool]


def cli_call(argv: list[str], parse_json: bool = False) -> Callable[[], object]:
    """Run one CLI command in-process.

    The answer is (exit code, stdout parsed or raw, bytes written)."""
    from combinv import cli

    def call():
        out = io.StringIO()
        code = cli.run(argv, out)
        text = out.getvalue()
        return code, (json.loads(text) if parse_json else text), len(text.encode())

    return call


def _verify_item(app: str, n: int) -> Item:
    pairs = len(partitions(n)) ** 2 if app not in COMPOSITION_APPS else 4 ** (n - 1)
    expected = "inversion n=%d: pass\nlocal identities n=%d: pass (%d pairs)\n" % (n, n, pairs)
    return Item(
        ("verify", app, n),
        cli_call(["verify", "--app", app, "--n", str(n)]),
        lambda answer: answer[:2] == (0, expected),
    )


def _matrix_item(app: str, side: str) -> Item:
    # Built before the passes, so the check adds nothing to peak memory
    # that depends on the order of the items.  Zeros share one [0, 1].
    keys = [list(k) for k in compositions(MATRIX_N)]
    zero = [0, 1]
    expected = []
    for row in keys:
        cells = []
        for col in keys:
            value = refinement_entry(app, side, tuple(row), tuple(col))
            cells.append([value.numerator, value.denominator] if value else zero)
        expected.append(cells)

    def check(answer) -> bool:
        code, data, _ = answer
        return (code == 0 and data["rows"] == keys and data["cols"] == keys
                and data["entries"] == expected)

    return Item(
        ("matrix", app, MATRIX_N, side),
        cli_call(["matrix", "--app", app, "--n", str(MATRIX_N),
                  "--side", side, "--format", "json"], parse_json=True),
        check,
    )


def _audit_item(app: str, lam: tuple[int, ...], mu: tuple[int, ...]) -> Item:
    from combinv import verify_pairing

    n = sum(lam)
    fixed = (1 if app == "kostka" else factorial(n)) if lam == mu else 0

    def check(report) -> bool:
        return (
            report.fixed_points == fixed
            and report.signed_total == fixed
            and report.involution_ok
            and report.sign_reversal_ok
            and report.shape_preserved_ok
        )

    return Item(
        ("audit", app, lam, mu),
        lambda: verify_pairing(app, lam, mu),
        check,
    )


def _local_check(lam, mu):
    def check(answer) -> bool:
        code, data, _ = answer
        return code == 0 and data["total"] == ("1" if lam == mu else "0")
    return check


def _pair_check(lam, mu):
    def check(answer) -> bool:
        code, data, _ = answer
        if code != 0 or (data["kind"] == "diagonal") != (lam == mu):
            return False
        if data["kind"] == "matched":
            signs = sorted(m["sign"] for m in data["members"])
            return signs == [-1, 1]
        return data["kind"] == "diagonal" or (data["kind"] == "empty" and not data["members"])
    return check


def _query_items(rng: random.Random) -> list[Item]:
    items = []
    for kind, app in QUERY_KINDS:
        on_compositions = app in COMPOSITION_APPS
        for n in QUERY_SIZES:
            pool = None if on_compositions else partitions(n)
            for relation, count in QUERY_MIX:
                for _ in range(count):
                    lam = (random_composition(rng, n) if on_compositions
                           else rng.choice(pool))
                    if relation == "diagonal":
                        mu = lam
                    elif relation == "near":
                        mu = (near_composition if on_compositions else near_partition)(rng, lam)
                    else:
                        mu = random_composition(rng, n) if on_compositions else rng.choice(pool)
                    check = (_local_check if kind == "local" else _pair_check)(lam, mu)
                    items.append(Item(
                        (kind, app, lam, mu),
                        cli_call([kind, "--app", app, "--lambda", shape_arg(lam),
                                  "--mu", shape_arg(mu)], parse_json=True),
                        check,
                    ))
    return items


def make_items(workload: str, seed: int) -> list[Item]:
    """The items of one pass, in the order the seed gives them."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "verify-partition":
        items = [_verify_item(app, n) for app, n in PARTITION_VERIFY]
    elif workload == "verify-composition":
        items = [_verify_item(app, n) for app, n in COMPOSITION_VERIFY]
        items += [_matrix_item(app, side) for app in COMPOSITION_APPS for side in ("A", "B")]
    elif workload == "involution-audit":
        items = [_audit_item(app, lam, mu)
                 for app, n in AUDITS for lam in partitions(n) for mu in partitions(n)]
    elif workload == "local-query":
        items = _query_items(rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(items)
    return items


def check_pass_census(items: list[Item], sizes: list[int]) -> int:
    """Failures of whole-pass checks: the audited object totals per app.

    sizes[i] is the pair-set size item i reported (0 for other items)."""
    totals: dict[tuple[str, int], int] = {}
    for item, size in zip(items, sizes):
        kind, app, lam = item.key[:3]
        if kind == "audit":
            totals[app, sum(lam)] = totals.get((app, sum(lam)), 0) + size
    return sum(1 for key, total in totals.items() if AUDIT_OBJECTS.get(key) != total)
