"""Independent oracles the tests hold the library against: cell-set
predicates for the shape-level removal steps, a brute-force filling
generator, a dense matrix product with its identity check, and the closed
forms of the matrix families.  The recursion in Fractions and the sum of
one local identity are here too: the library runs neither.

So are the square forms as conversions of the rectangular tables, which
the library builds natively instead: the sorting condition, the
restriction of A to partition keys and the fold of B over the
rearrangements of each key.

The library works on shapes only: a horizontal strip, rim hook or special
rim hook is fixed by the two shapes gamma inside lam on either side of it,
and defined by its successor function alone.  These predicates check the
same structures directly on the cell set dg(lam) - dg(gamma), so the tests
can compare the two descriptions.  shape_contains, is_strip_removal and
is_hook_removal decide a strip or hook on the two shapes by a closed rule,
a third description the successor tables are held against.  The reading
number of a border hook found from its one possible cell (hook_cell,
border_number_by_cell) is the rule the numbered hook table replaced.

The ordered-brick-tabloid validator and the two brick bijections are
here too: the library enumerates tabloids by a chain walk alone.  So is the
Kostka pair set listed by asking srht_find at every composition: the audit
walks each shape's special rim-hook tableaux once instead.  And so is the
rim-hook triple set listed from every Permutation of 1..n and the
rim-hook tableaux of its cycle composition: the audit reads canonical cycle
tuples, grouped by composition, and walks chains.

The closed forms are the published ones: partial-sum products and
centralizer orders z_lam, the refinement incidence and Moebius matrices with
their weighted NSym versions, the brick-tabloid
B = (-1)^(len(mu)-len(beta)) w_{beta,mu} / Z_beta (Egecioglu-Remmel 1991),
and the shared intermediates of the refine and brick local identities.  The
library builds every matrix by the one-step recursion and never calls them.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

from combinv.core import (
    Filling,
    border_hook,
    compositions,
    is_partition,
    last_part_sum,
    multiplicity,
    multiset_diff,
    partitions,
    require_partition,
    sort_comp,
)
from combinv.framework import IndexedMatrix, build_B, local_terms
from combinv.involutions import KostkaPair, RhtTriple
from combinv.kostka import enumerate_ssyt, srht_find
from combinv.refine import cbt_find
from combinv.rimhook import Permutation, cyc_comp, enumerate_rht, rimhook_system

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


def is_rim_hook_cells(cells: frozenset[Cell]) -> bool:
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
    if not is_rim_hook_cells(cells):
        return False
    start = min(cells, key=lambda c: c[1] - c[0])
    return start[1] == 1


def hook_sign(cells: frozenset[Cell]) -> int:
    """(-1)^(rows occupied - 1)."""
    rows = {i for i, _ in cells}
    return -1 if (len(rows) - 1) % 2 else 1


def shape_contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """dg(inner) subset of dg(outer), comparing row lengths."""
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def is_strip_removal(lam: tuple[int, ...], gamma: tuple[int, ...]) -> bool:
    """lam/gamma is a (possibly empty-checked) horizontal strip."""
    if not shape_contains(lam, gamma):
        return False
    padded = gamma + (0,) * (len(lam) - len(gamma))
    return all(padded[i] >= lam[i + 1] for i in range(len(lam) - 1))


def is_hook_removal(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """outer/inner is a rim hook: it is nonempty, and each of its rows but
    the last shares exactly one column with the row below (so its rows are
    consecutive, as a row above one that outer and inner share meets none)."""
    if not shape_contains(outer, inner):
        return False
    padded = inner + (0,) * (len(outer) - len(inner))
    rows = [r for r, (a, b) in enumerate(zip(outer, padded)) if a != b]
    return bool(rows) and all(outer[r + 1] - padded[r] == 1 for r in rows[:-1])


def cell_at(shape: tuple[int, ...], number: int) -> Cell:
    """The `number`-th cell of dg(shape) in row-major reading order."""
    if number < 1 or number > sum(shape):
        raise ValueError("cell number out of range")
    for i, row in enumerate(shape, start=1):
        if number <= row:
            return (i, number)
        number -= row
    raise AssertionError


def hook_cell(shape: tuple[int, ...], gamma: tuple[int, ...]) -> Cell | None:
    """The one cell (row, col) whose border hook may leave gamma, None when
    shape and gamma agree: it sits in the first row where they differ, one
    column right of gamma's part in the last such row.  The cell may lie
    outside dg(shape) when gamma is not inside it."""
    padded = gamma + (0,) * (len(shape) - len(gamma))
    rows = [r for r, (a, b) in enumerate(zip(shape, padded), start=1) if a != b]
    return (rows[0], padded[rows[-1] - 1] + 1) if rows else None


def border_number_by_cell(shape: tuple[int, ...], gamma: tuple[int, ...]) -> int:
    """The reading number of the cell whose border hook leaves gamma, found
    by hook_cell and re-checked with one border_hook call: the rule the
    library's numbered hook table replaces."""
    cell = hook_cell(shape, gamma)
    if cell is None:
        raise ValueError("empty hook")
    if border_hook(shape, cell)[0] != gamma:
        raise ValueError("shape minus gamma is not a removable border rim-hook")
    row, col = cell
    return sum(shape[: row - 1]) + col


def _set_partitions(n):
    """Every set partition of n positions as a restricted growth string: the
    block of each position, blocks 0..k-1 numbered by first position, with k."""
    if n == 0:
        yield (), 0
        return
    for blocks, k in _set_partitions(n - 1):
        for b in range(k + 1):
            yield blocks + (b,), max(k, b + 1)


def all_fillings(n):
    """Every filling of every partition of n with labels exactly 1..max:
    each ordered set partition of the cells once, a set partition whose k
    blocks take the labels 1..k in every order."""
    labelings = [
        tuple(order[b] for b in blocks)
        for blocks, k in _set_partitions(n)
        for order in permutations(range(1, k + 1))
    ]
    for lam in partitions(n):
        for labels in labelings:
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


def check_sorting_condition(matrix):
    """True when each column's entries depend only on the sorted column key."""
    groups = {}
    for j, key in enumerate(matrix.col_keys):
        groups.setdefault(sort_comp(key), []).append(j)
    for row in matrix.entries:
        for cols in groups.values():
            first = row[cols[0]]
            if any(row[j] != first for j in cols[1:]):
                return False
    return True


def square_restrict_A(matrix):
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


def square_fold_B(matrix):
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


def fraction_recursion(system, n, succ, weight):
    """The sparse table {shape: {beta: entry}} of M_n over R(n) x C(n) in
    Fractions, by the recursion M_m(s, beta + (L,)) = sum over g in
    succ(s, L) of weight(s, g) M_{m-L}(g, beta), one exact product per
    term: the recursion as the library ran it before its rows became int
    rows over one denominator."""
    levels = [{system.shapes(0)[0]: {(): Fraction(1)}}]
    for m in range(1, n + 1):
        level = {}
        for shape in system.shapes(m):
            row = {}
            for length in range(1, m + 1):
                for gamma in succ(shape, length):
                    w = weight(shape, gamma)
                    for beta, value in levels[m - length][gamma].items():
                        key = beta + (length,)
                        row[key] = row.get(key, 0) + w * value
            level[shape] = {beta: v for beta, v in row.items() if v}
        levels.append(level)
    return levels[n]


def matrix_json_object(matrix):
    """The JSON object of an IndexedMatrix as a dict, each cell the list
    [numerator, denominator]: `json.dumps` of it is the text the library
    writes without building it."""
    return {
        "rows": [list(k) for k in matrix.row_keys],
        "cols": [list(k) for k in matrix.col_keys],
        "entries": [[[e.numerator, e.denominator] for e in row] for row in matrix.entries],
    }


def local_lhs(system, lam, mu):
    """Sum of weight_a * weight_b over shared one-step successors of lam, mu."""
    return sum(term for _, term in local_terms(system, lam, mu))


# ---------------------------------------------------------------------------
# Scalar invariants and multisets
# ---------------------------------------------------------------------------

def partial_sum_product(beta):
    """Product of the partial sums b1, b1+b2, ..., b1+...+bs (1 for ())."""
    out, acc = 1, 0
    for part in beta:
        acc += part
        out *= acc
    return out


def centralizer_order(lam):
    """prod_k m_k! * k^m_k over the part multiplicities m_k of lam.

    This is the number of permutations commuting with a fixed permutation of
    cycle type lam; n!/centralizer_order(lam) is the conjugacy class size.
    """
    out = 1
    for part, mult in Counter(lam).items():
        out *= factorial(mult) * part**mult
    return out


def last_part_sum_multinomial(mu):
    """(|mu|/len(mu)) * multinomial(len(mu); multiplicities), with the
    multiplicities counted by a Counter: the reference for last_part_sum."""
    ways = factorial(len(mu))
    for mult in Counter(mu).values():
        ways //= factorial(mult)
    return sum(mu) * ways // len(mu)


def multiset_intersect(lam, mu):
    return tuple(sorted((Counter(lam) & Counter(mu)).elements(), reverse=True))


def multiset_union(lam, mu):
    return tuple(sorted(lam + mu, reverse=True))


def count_by_cyc_comp(n, beta):
    """Number of permutations of an n-set whose canonical cycle lengths are beta."""
    if sum(beta) != n:
        raise ValueError("size mismatch")
    count, rem = divmod(factorial(n), partial_sum_product(beta))
    if rem:
        raise AssertionError("partial-sum product must divide n!")
    return count


def factorial_scaled_b(n):
    """n! times the rim-hook B matrix; integral because each row's denominator
    is the partial-sum product of its key, which divides n!."""
    matrix, scale = build_B(rimhook_system(), n), factorial(n)
    scaled = [[e * scale for e in row] for row in matrix.entries]
    if any(e.denominator != 1 for row in scaled for e in row):
        raise AssertionError("scaled entries must be integers")
    return IndexedMatrix(matrix.row_keys, matrix.col_keys, scaled)


# ---------------------------------------------------------------------------
# Refinement order: incidence matrices and their NSym versions
# ---------------------------------------------------------------------------

def refines(alpha, beta):
    """True when beta's parts are consecutive-block sums of alpha's parts."""
    if sum(alpha) != sum(beta):
        return False
    pos = 0
    for target in beta:
        acc = 0
        while acc < target:
            if pos == len(alpha):
                return False
            acc += alpha[pos]
            pos += 1
        if acc != target:
            return False
    return pos == len(alpha)


def row_compositions(tiling):
    """The sub-composition of a CBT's content tiling each row."""
    rows = [[] for _ in tiling.shape]
    for _, row, _, length in sorted(tiling.bricks):
        rows[row - 1].append(length)
    return tuple(tuple(r) for r in rows)


def weighted_factors(shape, content):
    """(Z, L) read off the unique tiling of shape by content.

    Z multiplies the partial-sum products of the per-row sub-compositions;
    L multiplies the lengths of the last brick in each row.
    """
    found = cbt_find(shape, content)
    if found is None:
        raise ValueError("content does not refine shape")
    z_total, l_total = 1, 1
    for row_comp in row_compositions(found[0]):
        z_total *= partial_sum_product(row_comp)
        l_total *= row_comp[-1]
    return z_total, l_total


def _refinement_matrix(n, entry):
    """C(n) x C(n) matrix whose (row, col) entry is entry(row, col)."""
    keys = compositions(n)
    return IndexedMatrix(keys, keys, [[entry(r, c) for c in keys] for r in keys])


def incidence_matrix(n):
    """A(lam, beta) = 1 iff lam refines beta."""
    return _refinement_matrix(n, lambda lam, beta: int(refines(lam, beta)))


def mobius_matrix(n):
    """B(beta, mu) = (-1)^(len(beta)-len(mu)) iff beta refines mu."""
    return _refinement_matrix(
        n,
        lambda beta, mu: (-1) ** (len(beta) - len(mu)) if refines(beta, mu) else 0,
    )


def self_inverse_matrix(n):
    """The sign-twisted incidence matrix (-1)^(n-len(lam)) * [lam refines beta],
    which is its own inverse."""
    return _refinement_matrix(
        n, lambda lam, beta: (-1) ** (n - len(lam)) if refines(lam, beta) else 0
    )


def weighted_incidence_matrix(n):
    """A(lam, beta) = L_{beta,lam} when lam refines beta, else 0."""
    return _refinement_matrix(
        n,
        lambda lam, beta: weighted_factors(beta, lam)[1] if refines(lam, beta) else 0,
    )


def weighted_mobius_matrix(n):
    """B(beta, mu) = (-1)^(len(beta)-len(mu)) / Z_{mu,beta} when beta refines mu."""
    return _refinement_matrix(
        n,
        lambda beta, mu: (
            Fraction((-1) ** (len(beta) - len(mu)), weighted_factors(mu, beta)[0])
            if refines(beta, mu)
            else 0
        ),
    )


def h_to_psi_matrix(n):
    """Transition from the complete homogeneous to the power-sum basis of
    NSym: entry (beta, lam) = 1/Z_{beta,lam} when lam refines beta.

    This is the weighted Moebius matrix with its sign redistributed onto the
    partner matrix; the pair below is mutually inverse.
    """
    return _refinement_matrix(
        n,
        lambda beta, lam: (
            Fraction(1, weighted_factors(beta, lam)[0]) if refines(lam, beta) else 0
        ),
    )


def psi_to_h_matrix(n):
    """Transition from the power-sum to the complete homogeneous basis of
    NSym: entry (mu, beta) = (-1)^(len(mu)-len(beta)) * L_{mu,beta} when beta
    refines mu."""
    return _refinement_matrix(
        n,
        lambda mu, beta: (
            (-1) ** (len(beta) - len(mu)) * weighted_factors(mu, beta)[1]
            if refines(beta, mu)
            else 0
        ),
    )


def local_g_refine(lam, mu):
    """Shared intermediates with signs: prefixes of lam reachable by
    shrinking the last part of mu."""
    if sum(lam) != sum(mu) or not mu:
        raise ValueError("shapes must have equal positive size")
    head = mu[:-1]
    out = []
    if lam[: len(head)] == head:
        out.append((head, 1))
        k = len(mu)
        if len(lam) >= k and lam[k - 1] < mu[-1]:
            out.append((head + (lam[k - 1],), -1))
    return out


# ---------------------------------------------------------------------------
# Brick tabloids of composition shape and partition type
# ---------------------------------------------------------------------------

def _row_fillings(target, avail):
    """Ordered part sequences from the Counter `avail` summing to `target`,
    largest-first recursively (canonical composition order)."""
    if target == 0:
        return [()]
    out = []
    for part in sorted(avail, reverse=True):
        if part > target or avail[part] == 0:
            continue
        avail[part] -= 1
        out.extend((part,) + rest for rest in _row_fillings(target - part, avail))
        avail[part] += 1
    return out


def brick_tabloids(beta, mu):
    """Row tilings of dg(beta) by bricks forming the multiset mu.

    Each tabloid is reported as its tuple of per-row compositions; the
    concatenated contents run through the rearrangements of mu compatible
    with the row lengths, in canonical composition order.
    """
    if sum(beta) != sum(mu):
        raise ValueError("size mismatch")
    out = []

    def rec(i, avail, acc):
        if i == len(beta):
            out.append(acc)
            return
        for row in _row_fillings(beta[i], avail):
            for p in row:
                avail[p] -= 1
            rec(i + 1, avail, acc + (row,))
            for p in row:
                avail[p] += 1

    rec(0, Counter(mu), ())
    return out


def tabloid_weight(rows):
    """Product of the lengths of the last brick in each row."""
    weight = 1
    for row in rows:
        weight *= row[-1]
    return weight


def w_of(beta, mu):
    """Total last-brick weight over all brick tabloids of shape beta, type mu."""
    return sum(tabloid_weight(rows) for rows in brick_tabloids(beta, mu))


def brick_B_closed(n):
    """Closed-form B: entry (beta, mu) = (-1)^(len(mu)-len(beta)) w_{beta,mu} / Z_beta."""
    rows, cols = compositions(n), partitions(n)
    entries = []
    for beta in rows:
        z = partial_sum_product(beta)
        signs = [(-1) ** abs(len(mu) - len(beta)) for mu in cols]
        entries.append([Fraction(s * w_of(beta, mu), z) for s, mu in zip(signs, cols)])
    return IndexedMatrix(rows, cols, entries)


def brick_local_g(lam, mu):
    """Shared intermediates of the brick local identity with their terms, and
    the total.

    Off the diagonal, the multiset difference lam minus mu must be a single
    part i; the intermediates are lam with that part removed entirely or
    shrunk to any smaller part of mu minus lam, and their terms telescope
    through the last-part-sum recursion to zero.
    """
    n = sum(lam)
    if n != sum(mu) or n == 0:
        raise ValueError("shapes must have equal positive size")
    require_partition(lam, mu)

    def term(gamma):
        removed = multiset_diff(lam, gamma)
        eps = multiset_diff(mu, gamma)
        sign = -1 if (len(mu) - len(gamma) - 1) % 2 else 1
        return Fraction(multiplicity(lam, removed[0]) * sign * last_part_sum(eps), n)

    if lam == mu:
        gammas = [multiset_diff(lam, (i,)) for i in sorted(set(lam), reverse=True)]
    else:
        extra = multiset_diff(lam, mu)
        if len(extra) != 1:
            return [], 0
        meet = multiset_intersect(lam, mu)
        gammas = [meet] + [
            multiset_union(meet, (j,))
            for j in sorted(set(multiset_diff(mu, lam)), reverse=True)
            if j < extra[0]
        ]
    terms = [(gamma, term(gamma)) for gamma in gammas]
    return terms, sum(t for _, t in terms)


# ---------------------------------------------------------------------------
# Ordered brick tabloids: the validator, the brick-removal bijection behind
# the A weight, and the marked-tiling bijection behind the last-part sum
# ---------------------------------------------------------------------------

def is_obt(filling, lam, beta):
    """True when the filling has shape lam and content beta, each label in a
    single row, and weakly increasing rows."""
    sizes = Counter(v for row in filling.rows for v in row)
    row_labels = [v for row in filling.rows for v in set(row)]
    return (
        filling.shape == tuple(lam)
        and sorted(sizes.items()) == list(enumerate(beta, start=1))
        and len(row_labels) == len(set(row_labels))  # no label in two rows
        and all(list(row) == sorted(row) for row in filling.rows)
    )


def obt_split(tabloid):
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
    truncated = tuple(v for v in rows[row_idx] if v != label)
    if rows[row_idx][: len(truncated)] != truncated:
        raise ValueError("largest brick is not at the end of its row")
    k = sum(1 for row in rows[: row_idx + 1] if len(row) == length)
    del rows[row_idx]
    if truncated:
        insert_at = next(
            (i for i, row in enumerate(rows) if len(row) <= len(truncated)),
            len(rows),
        )
        rows.insert(insert_at, truncated)
    return k, Filling(tuple(rows))


def obt_unsplit(lam, k, tabloid):
    """Re-attach a brick of the next label so the result has shape lam."""
    gamma = tabloid.shape
    removed = multiset_diff(lam, sort_comp(gamma))
    if len(removed) != 1:
        raise ValueError("target shape does not decrement a single part")
    i = removed[0]
    if not 1 <= k <= multiplicity(lam, i):
        raise ValueError("row index exceeds the multiplicity weight")
    brick = sum(lam) - sum(gamma)
    rows = list(tabloid.rows)
    grown = (tabloid.max_label() + 1,) * brick
    if i > brick:
        take = next(idx for idx, row in enumerate(rows) if len(row) == i - brick)
        grown = rows.pop(take) + grown
    block = next((idx for idx, row in enumerate(rows) if len(row) <= i), len(rows))
    rows.insert(block + k - 1, grown)
    return Filling(tuple(rows))


def marked_brick_bijection(alpha, marked_cell):
    """Swap the brick holding the marked cell with the last brick.

    Input: a row tiling alpha (a rearrangement of its sorted type) and a
    marked cell position in 1..n.  Output: the swapped tiling, the index of
    the now-marked brick (the brick that used to be last), and the new
    position of the marked cell, which lands in the rightmost brick.
    """
    n = sum(alpha)
    if not 1 <= marked_cell <= n:
        raise ValueError("marked cell out of range")
    start, brick = 0, 1
    while marked_cell > start + alpha[brick - 1]:
        start += alpha[brick - 1]
        brick += 1
    swapped = list(alpha)
    swapped[brick - 1], swapped[-1] = swapped[-1], swapped[brick - 1]
    new_cell = n - alpha[brick - 1] + marked_cell - start
    return tuple(swapped), brick, new_cell


def marked_brick_bijection_inv(alpha, marked_brick, marked_cell):
    """Inverse: swap the marked brick back with the last brick."""
    n = sum(alpha)
    if not 1 <= marked_brick <= len(alpha):
        raise ValueError("marked brick out of range")
    if not n - alpha[-1] + 1 <= marked_cell <= n:
        raise ValueError("marked cell must lie in the last brick")
    swapped = list(alpha)
    swapped[marked_brick - 1], swapped[-1] = swapped[-1], swapped[marked_brick - 1]
    new_cell = sum(swapped[: marked_brick - 1]) + marked_cell - (n - alpha[-1])
    return tuple(swapped), new_cell


def kostka_pairs_by_composition(lam, mu):
    """The Kostka pair set of (lam, mu): at every composition beta with a
    special rim-hook tableau of shape mu, that tableau with each
    semistandard tableau of shape lam and content beta."""
    out = []
    for beta in compositions(sum(lam)):
        found = srht_find(mu, beta)
        if found is not None:
            out += [KostkaPair(s, found[0]) for s in enumerate_ssyt(lam, beta)]
    return out


def rht_triples_by_permutation(lam, mu):
    """The rim-hook triple set of (lam, mu): every permutation sigma of 1..n
    with each rim-hook tableau of shape lam and each of shape mu whose
    content is sigma's cycle composition."""
    ground = tuple(range(1, sum(lam) + 1))
    out = []
    for images in permutations(ground):
        sigma = Permutation(dict(zip(ground, images)))
        beta = cyc_comp(sigma)
        out += [
            RhtTriple(s, t, sigma)
            for s, _ in enumerate_rht(lam, beta)
            for t, _ in enumerate_rht(mu, beta)
        ]
    return out
