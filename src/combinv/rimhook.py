"""Rim-hook tableaux, the abacus bead model, and cycle statistics.

The A-family here is the signed rim-hook tableau count (the irreducible
symmetric-group character values on a rectangular index set); the B-family
rescales each row by the reciprocal of the partial-sum product of its key.
Rim-hook removal/addition is mirrored on abaci as bead jumps, which is how
the off-diagonal cancellation is computed.  A removable rim hook is the
border hook of a cell, numbered in reading order, given by the shape it leaves.
A rim hook is listed once, by hook_removals, and each partition's hooks are
built once, into its numbered border-hook table `hook_table`: the hooks in
reading order and the map {gamma: number}.  hook_successors files them by
size for the recursion of both sides and the enumerator, and
border_number_of_hook and the choice sequences of `involutions` read their
numbers.  is_rht asks no table: it tests each step with `core.is_rim_hook`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from .core import (
    Chain,
    Composition,
    Filling,
    Partition,
    border_hook,
    filling_of,
    is_chain_tableau,
    is_rim_hook,
    partitions,
    require_partition,
    rht_sign,
    skew_sign,
    successors_by_size,
    walk_chains,
)
from .framework import LocalSystem, Pairing


# ---------------------------------------------------------------------------
# Border rim-hooks
# ---------------------------------------------------------------------------

def hook_removals(lam: Partition) -> list[tuple[Partition, int, int]]:
    """All removable border rim-hooks as (gamma, size, sign), in reading
    order of their cells."""
    require_partition(lam)
    return [
        border_hook(lam, (i, j))
        for i, row in enumerate(lam, start=1)
        for j in range(1, row + 1)
    ]


@lru_cache(maxsize=None)
def hook_table(
    shape: Partition,
) -> tuple[tuple[tuple[Partition, int, int], ...], Mapping[Partition, int]]:
    """The numbered border hooks of a partition: hook_removals(shape) as a
    tuple, hook k (1-based) at index k - 1, and the read-only map
    {gamma: k}.  Built once per shape, in a functools cache that
    hook_table.cache_clear empties."""
    hooks = tuple(hook_removals(shape))
    numbers = {gamma: k for k, (gamma, _, _) in enumerate(hooks, start=1)}
    return hooks, MappingProxyType(numbers)


def border_number_of_hook(shape: Partition, gamma: Partition) -> int:
    """Inverse of `border_hook` on shapes: the reading number of the cell
    whose border hook leaves gamma, looked up in hook_table(shape)."""
    try:
        return hook_table(shape)[1][gamma]
    except KeyError:
        require_partition(gamma)
        if gamma[: len(shape)] == shape:
            raise ValueError("empty hook") from None
        raise ValueError("shape minus gamma is not a removable border rim-hook") from None


# ---------------------------------------------------------------------------
# Rim-hook tableaux
# ---------------------------------------------------------------------------

@successors_by_size
def hook_successors(shape: Partition) -> Iterator[tuple[Partition, int]]:
    """The shapes left by removing a border rim-hook of size `length`, in
    reading order: the border hooks of the cells (i, j) whose hook length
    lam_i - j + lam'_j - i + 1 is `length`, at most one per row, read from
    hook_table(shape), so each shape's hooks are built once."""
    return ((gamma, size) for gamma, size, _ in hook_table(shape)[0])


def enumerate_rht(lam: Partition, beta: Composition) -> list[tuple[Filling, int]]:
    """All rim-hook tableaux of shape lam, content beta, with signs; removable
    hooks are visited in border-number order, so the output order is fixed."""
    require_partition(lam)
    return [
        (filling_of(chain), rht_sign(chain))
        for chain in walk_chains(hook_successors, lam, beta)
    ]


def is_rht(chain: Chain, lam: Partition, beta: Composition) -> bool:
    """Label classes are rim-hooks of the right sizes and every label prefix
    is a partition diagram, each step tested by `is_rim_hook`."""
    return is_chain_tableau(chain, lam, beta, is_rim_hook)


def rimhook_system() -> LocalSystem:
    """Signed rim-hook removal on both sides, B rescaled by 1/|shape|."""
    return LocalSystem(
        name="rimhook",
        shapes=partitions,
        succ_a=hook_successors,
        succ_b=hook_successors,
        weight_a=skew_sign,
        weight_b=lambda mu, delta: Fraction(skew_sign(mu, delta), sum(mu)),
    )


# ---------------------------------------------------------------------------
# Abacus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Abacus:
    """Binary bead/gap word with finite support, positions 0-based.

    Beads (1s) read left to right give the partition rows bottom-up: a bead
    preceded by g gaps contributes a part of size g.
    """

    beads: int
    word: tuple[int, ...]

    def __post_init__(self):
        if not set(self.word) <= {0, 1}:
            raise ValueError("word entries must be 0 or 1")
        if sum(self.word) != self.beads:
            raise ValueError("bead count disagrees with word")
        if self.word and self.word[-1] == 0:
            raise ValueError("word must not carry trailing gaps")

    def bit(self, position: int) -> int:
        if position < 0:
            raise ValueError("negative position")
        return self.word[position] if position < len(self.word) else 0

    def partition(self) -> Partition:
        parts = []
        gaps = 0
        for b in self.word:
            if b:
                if gaps:
                    parts.append(gaps)
            else:
                gaps += 1
        return tuple(sorted(parts, reverse=True))

    def word_string(self, length: int | None = None) -> str:
        bits = list(self.word)
        if length is not None:
            bits += [0] * (length - len(bits))
        return "".join(str(b) for b in bits)

    def to_json(self) -> dict:
        return {"beads": self.beads, "word": self.word_string()}

    @classmethod
    def from_json(cls, data: dict) -> "Abacus":
        word = tuple(int(ch) for ch in data["word"])
        while word and word[-1] == 0:
            word = word[:-1]
        return cls(int(data["beads"]), word)


def abacus_from_partition(lam: Partition, beads: int) -> Abacus:
    """The bead word whose gaps trace the border path of dg(lam)."""
    require_partition(lam)
    if beads < len(lam):
        raise ValueError("need at least one bead per row")
    bits = [1] * (beads - len(lam))
    prev = 0
    for part in reversed(lam):
        bits.extend([0] * (part - prev))
        bits.append(1)
        prev = part
    return Abacus(beads, tuple(bits))


def abacus_move_bead(abacus: Abacus, source: int, target: int) -> tuple[Abacus, int]:
    """Jump one bead; the sign is (-1)^(beads strictly between the endpoints).

    target < source is rim-hook removal of size source-target; target > source
    is addition (the caller must have enough leading beads for additions).
    """
    if abacus.bit(source) != 1:
        raise ValueError("no bead at source position")
    if abacus.bit(target) != 0:
        raise ValueError("target position is occupied")
    lo, hi = min(source, target), max(source, target)
    between = sum(abacus.bit(p) for p in range(lo + 1, hi))
    bits = list(abacus.word) + [0] * (max(source, target) + 1 - len(abacus.word))
    bits[source], bits[target] = 0, 1
    while bits and bits[-1] == 0:
        bits.pop()
    return Abacus(abacus.beads, tuple(bits)), (-1 if between % 2 else 1)


# ---------------------------------------------------------------------------
# Local pairing via bead jumps
# ---------------------------------------------------------------------------

def rimhook_pair(lam: Partition, mu: Partition) -> Pairing:
    """Resolve the rim-hook cancellation at (lam, mu) on the abacus.

    For lam == mu, the shared intermediates are the |lam| border-hook
    removals, each contributing +1 (a squared sign).  For lam != mu, the two
    abaci must differ in exactly two beads and two gaps; the two down/up bead
    pairings then give the two oppositely-signed intermediates, listed with
    the diagram-intersection one first.
    """
    n = sum(lam)
    if n != sum(mu) or n == 0:
        raise ValueError("shapes must have equal positive size")
    require_partition(lam, mu)
    if lam == mu:
        return Pairing(
            "diagonal", tuple((gamma, 1) for gamma, _, _ in hook_removals(lam))
        )
    beads = max(len(lam), len(mu))
    source = abacus_from_partition(lam, beads)
    dest = abacus_from_partition(mu, beads)
    horizon = max(len(source.word), len(dest.word))
    lost = [p for p in range(horizon) if source.bit(p) == 1 and dest.bit(p) == 0]
    gained = [p for p in range(horizon) if source.bit(p) == 0 and dest.bit(p) == 1]
    if len(lost) != 2 or len(gained) != 2:
        return Pairing("empty", ())
    members = []
    for assignment in ((0, 1), (1, 0)):
        moves = sorted(
            zip(lost, (gained[assignment[0]], gained[assignment[1]])),
            key=lambda m: m[1] - m[0],
        )
        down, up = moves
        if down[0] <= down[1] or up[0] >= up[1]:
            raise AssertionError("bead moves must split into one down, one up")
        mid, sign_down = abacus_move_bead(source, *down)
        final, sign_up = abacus_move_bead(mid, *up)
        if final.partition() != mu:
            raise AssertionError("bead pairing did not reach the target shape")
        members.append((mid.partition(), sign_down * sign_up))
    if members[0][1] == members[1][1]:
        raise AssertionError("paired intermediates must have opposite signs")
    meet = tuple(
        p
        for p in (min(a, b) for a, b in zip(lam + (0,) * len(mu), mu + (0,) * len(lam)))
        if p
    )
    members.sort(key=lambda m: m[0] != meet)
    if members[0][0] != meet:
        raise AssertionError("neither intermediate is the diagram intersection")
    return Pairing("matched", tuple(members))


# ---------------------------------------------------------------------------
# Permutations and cycle statistics
# ---------------------------------------------------------------------------

def canonical_cycles(mapping: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of the bijection x -> mapping[x], each starting at its
    minimum, the minima decreasing left to right."""
    seen: set[int] = set()
    cycles = []
    for start in sorted(mapping):
        if start not in seen:
            cyc = [start]
            nxt = mapping[start]
            while nxt != start:
                cyc.append(nxt)
                nxt = mapping[nxt]
            seen.update(cyc)
            cycles.append(tuple(cyc))
    return tuple(reversed(cycles))


class Permutation:
    """A bijection on an arbitrary finite set of integers."""

    __slots__ = ("ground", "mapping")

    def __init__(self, mapping: dict[int, int]):
        self.ground = tuple(sorted(mapping))
        if sorted(mapping.values()) != list(self.ground):
            raise ValueError("mapping is not a bijection on its ground set")
        self.mapping = dict(mapping)

    @classmethod
    def from_cycles(
        cls, cycles: list[tuple[int, ...]], ground: tuple[int, ...] | None = None
    ) -> "Permutation":
        mapping: dict[int, int] = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in mapping:
                    raise ValueError("cycles are not disjoint")
                mapping[a] = b
        if ground is not None:
            for x in ground:
                mapping.setdefault(x, x)
        return cls(mapping)

    @classmethod
    def identity(cls, ground: tuple[int, ...]) -> "Permutation":
        return cls({x: x for x in ground})

    def canonical_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Each cycle starts at its minimum; minima decrease left to right.
        Worked out from the mapping on every call: nothing is kept."""
        return canonical_cycles(self.mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.mapping.items())))

    def __repr__(self) -> str:
        return "".join(
            "(%s)" % ",".join(str(x) for x in cyc) for cyc in self.canonical_cycles()
        )

    def to_json(self) -> dict:
        return {
            "ground": list(self.ground),
            "cycles": [list(c) for c in self.canonical_cycles()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Permutation":
        cycles, ground = [tuple(c) for c in data["cycles"]], tuple(data["ground"])
        elements = ground + tuple(x for c in cycles for x in c)
        if any(type(x) is not int for x in elements):
            raise ValueError("permutation elements must be integers")
        if len(set(ground)) != len(ground):
            raise ValueError("duplicate ground element")
        if not set(ground).issuperset(elements):
            raise ValueError("cycle element outside the ground set")
        return cls.from_cycles(cycles, ground)


def cyc_comp(sigma: Permutation) -> Composition:
    """Cycle lengths read left to right in canonical cycle notation."""
    return tuple(len(c) for c in sigma.canonical_cycles())


def cyc_part(sigma: Permutation) -> Partition:
    return tuple(sorted(cyc_comp(sigma), reverse=True))
