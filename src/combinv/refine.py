"""Composition refinement order, brick tilings, and incidence-matrix pairs.

A composition alpha refines beta when beta's parts are consecutive-block
sums of alpha's parts.  The incidence matrix of the order and its signed
(Moebius) inverse both fit the one-step recursion framework, as does a
weighted variant whose entries carry last-brick-length and partial-sum
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Composition, compositions, partial_sum_product
from .framework import IndexedMatrix, LocalSystem


def refines(alpha: Composition, beta: Composition) -> bool:
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


@dataclass(frozen=True)
class CBT:
    """A tiling of a composition diagram by labeled horizontal bricks.

    Brick k has length content[k-1]; bricks are laid in label order, top row
    first, left to right.  The first brick in each row carries sign +1 and
    every other brick -1, so the total sign is
    (-1)^(len(content)-len(shape)).
    """

    shape: Composition
    content: Composition
    bricks: tuple[tuple[int, int, int, int], ...]  # (label, row, start_col, len)

    @property
    def sign(self) -> int:
        return -1 if (len(self.content) - len(self.shape)) % 2 else 1

    def row_compositions(self) -> tuple[Composition, ...]:
        """The sub-composition of content tiling each row."""
        rows: list[list[int]] = [[] for _ in self.shape]
        for label, row, _, length in sorted(self.bricks):
            rows[row - 1].append(length)
        return tuple(tuple(r) for r in rows)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "content": list(self.content),
            "bricks": [
                {"label": lab, "row": row, "start_col": col, "len": length}
                for lab, row, col, length in self.bricks
            ],
        }


def cbt_find(shape: Composition, content: Composition) -> tuple[CBT, int] | None:
    """The unique brick tiling of `shape` by `content`, if content refines shape.

    Bricks are laid in label order through the rows; the tiling fails exactly
    when some brick would cross a row boundary.
    """
    if sum(shape) != sum(content):
        raise ValueError("size mismatch")
    bricks = []
    k = 0
    for i, row_len in enumerate(shape, start=1):
        col = 0
        while col < row_len:
            if k == len(content) or col + content[k] > row_len:
                return None
            bricks.append((k + 1, i, col + 1, content[k]))
            col += content[k]
            k += 1
    if k != len(content):
        return None
    tiling = CBT(tuple(shape), tuple(content), tuple(bricks))
    return tiling, tiling.sign


# ---------------------------------------------------------------------------
# Incidence matrices, closed form and recursion
# ---------------------------------------------------------------------------

def _refinement_matrix(n: int, entry) -> IndexedMatrix:
    """C(n) x C(n) matrix whose (row, col) entry is entry(row, col)."""
    keys = compositions(n)
    return IndexedMatrix(keys, keys, [[entry(r, c) for c in keys] for r in keys])


def incidence_matrix(n: int) -> IndexedMatrix:
    """A(lam, beta) = 1 iff lam refines beta."""
    return _refinement_matrix(n, lambda lam, beta: int(refines(lam, beta)))


def mobius_matrix(n: int) -> IndexedMatrix:
    """B(beta, mu) = (-1)^(len(beta)-len(mu)) iff beta refines mu."""
    return _refinement_matrix(
        n,
        lambda beta, mu: (-1) ** (len(beta) - len(mu)) if refines(beta, mu) else 0,
    )


def _suffix_prefix(lam: Composition, length: int) -> list[Composition]:
    """The prefix left after cutting a suffix of total `length`, if any."""
    acc = 0
    for k in range(len(lam), 0, -1):
        acc += lam[k - 1]
        if acc == length:
            return [lam[: k - 1]]
        if acc > length:
            return []
    return []


def _last_part_shrink(mu: Composition, length: int) -> list[Composition]:
    if not mu or length > mu[-1]:
        return []
    if length == mu[-1]:
        return [mu[:-1]]
    return [mu[:-1] + (mu[-1] - length,)]


def _shrink_sign(mu: Composition, delta: Composition) -> int:
    # full removal of the last part keeps the sign, partial removal flips it
    return 1 if len(delta) == len(mu) - 1 else -1


def refine_system() -> LocalSystem:
    """Suffix cuts against signed last-part shrinks on C(n)."""
    return LocalSystem(
        name="refine",
        shapes=compositions,
        succ_a=_suffix_prefix,
        succ_b=_last_part_shrink,
        weight_a=lambda lam, gamma: 1,
        weight_b=_shrink_sign,
    )


def local_g_refine(lam: Composition, mu: Composition) -> list[tuple[Composition, int]]:
    """Shared intermediates with signs: prefixes of lam reachable by
    shrinking the last part of mu."""
    if sum(lam) != sum(mu) or not mu:
        raise ValueError("shapes must have equal positive size")
    head = mu[:-1]
    out: list[tuple[Composition, int]] = []
    if lam[: len(head)] == head:
        out.append((head, 1))
        k = len(mu)
        if len(lam) >= k and lam[k - 1] < mu[-1]:
            out.append((head + (lam[k - 1],), -1))
    return out


def self_inverse_matrix(n: int) -> IndexedMatrix:
    """The sign-twisted incidence matrix (-1)^(n-len(lam)) * [lam refines beta],
    which is its own inverse."""
    return _refinement_matrix(
        n, lambda lam, beta: (-1) ** (n - len(lam)) if refines(lam, beta) else 0
    )


# ---------------------------------------------------------------------------
# Weighted variant
# ---------------------------------------------------------------------------

def weighted_factors(shape: Composition, content: Composition) -> tuple[int, int]:
    """(Z, L) read off the unique tiling of shape by content.

    Z multiplies the partial-sum products of the per-row sub-compositions;
    L multiplies the lengths of the last brick in each row.
    """
    found = cbt_find(shape, content)
    if found is None:
        raise ValueError("content does not refine shape")
    tiling, _ = found
    z_total, l_total = 1, 1
    for row_comp in tiling.row_compositions():
        z_total *= partial_sum_product(row_comp)
        l_total *= row_comp[-1]
    return z_total, l_total


def weighted_system() -> LocalSystem:
    """The refinement recursion with last-part weights on A and reciprocal
    last-part weights on B."""
    return LocalSystem(
        name="refine-weighted",
        shapes=compositions,
        succ_a=_suffix_prefix,
        succ_b=_last_part_shrink,
        weight_a=lambda lam, gamma: lam[-1],
        weight_b=lambda mu, delta: Fraction(_shrink_sign(mu, delta), mu[-1]),
    )


def weighted_incidence_matrix(n: int) -> IndexedMatrix:
    """A(lam, beta) = L_{beta,lam} when lam refines beta, else 0."""
    return _refinement_matrix(
        n,
        lambda lam, beta: weighted_factors(beta, lam)[1] if refines(lam, beta) else 0,
    )


def weighted_mobius_matrix(n: int) -> IndexedMatrix:
    """B(beta, mu) = (-1)^(len(beta)-len(mu)) / Z_{mu,beta} when beta refines mu."""
    return _refinement_matrix(
        n,
        lambda beta, mu: (
            Fraction((-1) ** (len(beta) - len(mu)), weighted_factors(mu, beta)[0])
            if refines(beta, mu)
            else 0
        ),
    )


def h_to_psi_matrix(n: int) -> IndexedMatrix:
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


def psi_to_h_matrix(n: int) -> IndexedMatrix:
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
