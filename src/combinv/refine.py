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

from .core import Composition, compositions, walk_chains
from .framework import LocalSystem


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

    Bricks are laid in label order through the rows, so brick k ends the last
    row of the chain's shape g_k; no chain means a brick crosses a row end.
    """
    chains = walk_chains(_last_part_shrink, shape, content)
    if not chains:
        return None
    steps = enumerate(zip(chains[0][1:], content), start=1)
    bricks = tuple((k, len(g), g[-1] - size + 1, size) for k, (g, size) in steps)
    tiling = CBT(tuple(shape), tuple(content), bricks)
    return tiling, tiling.sign


# ---------------------------------------------------------------------------
# The recursions
# ---------------------------------------------------------------------------

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
