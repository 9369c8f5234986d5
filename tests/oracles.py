"""Cell-set oracles for the shape-level removal steps, a brute-force
filling generator and a dense matrix product with its identity check,
shared across test modules.

The library works on shapes only: a horizontal strip, rim hook or special
rim hook is fixed by the two shapes gamma inside lam on either side of it.
These predicates check the same structures directly on the cell set
dg(lam) - dg(gamma), so the tests can compare the two descriptions.
"""

from fractions import Fraction
from itertools import product

from combinv.core import Filling, partitions

Cell = tuple[int, int]


def diagram(shape: tuple[int, ...]) -> frozenset[Cell]:
    """Cells (row, col), 1-based, of a left-justified diagram."""
    return frozenset(
        (i, j) for i, row in enumerate(shape, start=1) for j in range(1, row + 1)
    )


def cells_of(filling, label: int) -> frozenset[Cell]:
    """The cells of a filling carrying `label`."""
    return frozenset(
        (i, j)
        for i, row in enumerate(filling.rows, start=1)
        for j, v in enumerate(row, start=1)
        if v == label
    )


def is_horizontal_strip(cells: frozenset[Cell]) -> bool:
    """All cells in distinct columns."""
    cols = [j for _, j in cells]
    return len(cols) == len(set(cols))


def is_rim_hook(cells: frozenset[Cell]) -> bool:
    """Traversable by unit right/up steps from some starting cell.

    Each step changes the antidiagonal col-row by exactly +1, so the cells
    must occupy consecutive distinct antidiagonals with adjacent neighbors.
    """
    if not cells:
        return False
    by_diag = {j - i: (i, j) for i, j in cells}
    if len(by_diag) != len(cells):
        return False
    diags = sorted(by_diag)
    if diags[-1] - diags[0] != len(cells) - 1:
        return False
    for d1, d2 in zip(diags, diags[1:]):
        (i1, j1), (i2, j2) = by_diag[d1], by_diag[d2]
        if (i2, j2) not in ((i1, j1 + 1), (i1 - 1, j1)):
            return False
    return True


def is_special_rim_hook(cells: frozenset[Cell]) -> bool:
    """A rim hook whose starting (lowest) cell lies in column 1."""
    if not is_rim_hook(cells):
        return False
    start = min(cells, key=lambda c: c[1] - c[0])
    return start[1] == 1


def hook_sign(cells: frozenset[Cell]) -> int:
    """(-1)^(rows occupied - 1)."""
    rows = {i for i, _ in cells}
    return -1 if (len(rows) - 1) % 2 else 1


def all_fillings(n):
    """Every filling of every partition of n with labels exactly 1..max."""
    for lam in partitions(n):
        for labels in product(range(1, n + 1), repeat=n):
            if set(labels) != set(range(1, max(labels, default=0) + 1)):
                continue
            rows, pos = [], 0
            for part in lam:
                rows.append(labels[pos : pos + part])
                pos += part
            yield lam, Filling(tuple(rows))


def dense_product(left, right):
    """The entries of left * right for two IndexedMatrix grids, by the
    textbook triple loop over every inner index."""
    inner = range(len(left.col_keys))
    return [
        [
            sum((row[k] * right.entries[k][j] for k in inner), Fraction(0))
            for j in range(len(right.col_keys))
        ]
        for row in left.entries
    ]


def is_identity_product(left, right):
    """True when left * right, by dense_product, is the identity grid.  The
    inner key lists must agree, and the product must be square on left's
    row keys."""
    if left.col_keys != right.row_keys or left.row_keys != right.col_keys:
        raise ValueError("key lists disagree")
    size = range(len(left.row_keys))
    return dense_product(left, right) == [[int(i == j) for j in size] for i in size]
