"""Semistandard tableaux, special rim-hook tableaux, and their local pairing.

The A-family counts semistandard Young tableaux (Kostka numbers on a
rectangular P(n) x C(n) index set); the B-family counts signed special
rim-hook tableaux, of which at most one exists per (shape, content).  Each
removal is the shape it leaves; a special rim hook is a column-1 border hook.
Each structure has one listing, its successor function (a shape's strips or
special rim hooks of every size, listed in one pass and filed by
`core.successors_by_size`), which the recursion and the enumerators ask, and
one test, a rule on two shapes, which the validators and `kostka_pair` ask
and which lists nothing: `_is_strip` keeps each row within what
strip_removals lets it keep, and a special rim hook is a border rim hook
(`core.is_rim_hook`) that empties the last row.  `ssyt_chains` lists the
semistandard tableaux as chains, which the bijection layer walks, in the
row-major order of the Fillings `enumerate_ssyt` makes of them.
"""

from __future__ import annotations

from itertools import product, zip_longest
from typing import Iterator

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
# Semistandard Young tableaux
# ---------------------------------------------------------------------------

def is_ssyt(chain: Chain, lam: Partition, beta: Composition) -> bool:
    """Shape lam, content beta, each label class a horizontal strip added to
    a partition diagram (rows weakly increasing, columns strict)."""
    return is_chain_tableau(chain, lam, beta, _is_strip)


def _kept(lam: Partition) -> Iterator[range]:
    """Row i of gamma, lam/gamma a horizontal strip, keeps lam_i..lam_(i+1) cells."""
    return (range(hi, lo - 1, -1) for hi, lo in zip(lam, lam[1:] + (0,)))


def _is_strip(lam: Partition, gamma: Partition) -> bool:
    """lam/gamma is a nonempty horizontal strip: neither shape has a zero
    part, and each row of gamma keeps a length `_kept(lam)` allows, where a
    row of lam shorter than the next allows none, so lam is a partition."""
    padded = gamma + (0,) * (len(lam) - len(gamma))
    return (gamma != lam and len(gamma) <= len(lam) and 0 not in gamma and 0 not in lam
            and all(g in kept for g, kept in zip(padded, _kept(lam))))


@successors_by_size
def strip_removals(lam: Partition) -> Iterator[tuple[Partition, int]]:
    """Partitions gamma inside lam with lam/gamma a horizontal strip of
    `length`, in descending lexicographic order.

    Listed for every size in one pass, each row's kept length (`_kept`, the
    last row's down to 0) in descending order; the size of a strip is
    |lam| - |gamma|.  `_is_strip` asks the same rule of one gamma.  A lam
    that is no partition is refused."""
    require_partition(lam)
    size = sum(lam)
    for kept in product(*_kept(lam)):
        length = size - sum(kept)
        if length:
            yield (kept if kept[-1] else kept[:-1]), length


def ssyt_chains(lam: Partition, beta: Composition) -> list[Chain]:
    """The semistandard tableaux of shape lam and content beta as chains, in
    the row-major order of their Fillings: more small labels in a row first."""
    require_partition(lam)
    return sorted(
        walk_chains(strip_removals, lam, beta),
        key=lambda chain: [[-p for p in row] for row in zip_longest(*chain[1:], fillvalue=0)],
    )


def enumerate_ssyt(lam: Partition, beta: Composition) -> list[Filling]:
    """The semistandard tableaux of shape lam and content beta, sorted row-major."""
    return [filling_of(chain) for chain in ssyt_chains(lam, beta)]


# ---------------------------------------------------------------------------
# Special rim-hook removals and tableaux
# ---------------------------------------------------------------------------

def srh_removals(mu: Partition) -> list[tuple[Partition, int, int]]:
    """The removable special rim-hooks of dg(mu) as (gamma, size, sign): the
    border hooks of the column-1 cells (i, 1), one per row index.  Hook sizes
    strictly decrease with i, so sizes identify hooks uniquely.  A mu that
    is no partition is refused.
    """
    require_partition(mu)
    return [border_hook(mu, (i, 1)) for i in range(1, len(mu) + 1)]


def _is_special_hook(mu: Partition, gamma: Partition) -> bool:
    """mu/gamma is a special rim hook: a border rim hook that empties mu's
    last row, so it holds the bottom cell of column 1."""
    return len(gamma) < len(mu) and is_rim_hook(mu, gamma)


@successors_by_size
def srh_successors(mu: Partition) -> Iterator[tuple[Partition, int]]:
    """The shapes left by removing a special rim-hook of size `length`: at most
    one, as the hook of row i has size mu_i + len(mu) - i, the hook length of (i, 1)."""
    return ((gamma, size) for gamma, size, _ in srh_removals(mu))


def srht_find(mu: Partition, beta: Composition) -> tuple[Filling, int] | None:
    """The unique special rim-hook tableau of shape mu, content beta, if any:
    each removal has at most one choice, so the walk finds at most one chain."""
    require_partition(mu)
    chains = walk_chains(srh_successors, mu, beta)
    return (filling_of(chains[0]), rht_sign(chains[0])) if chains else None


def is_srht(chain: Chain, mu: Partition, beta: Composition) -> bool:
    """Each label class a special rim-hook of the right size added to a
    partition diagram."""
    return is_chain_tableau(chain, mu, beta, _is_special_hook)


# ---------------------------------------------------------------------------
# The local system and pairing
# ---------------------------------------------------------------------------

def kostka_system() -> LocalSystem:
    """Horizontal-strip removals against signed special rim-hook removals."""
    return LocalSystem(
        name="kostka",
        shapes=partitions,
        succ_a=strip_removals,
        succ_b=srh_successors,
        weight_a=lambda lam, gamma: 1,
        weight_b=skew_sign,
    )


def kostka_pair(lam: Partition, mu: Partition) -> Pairing:
    """Resolve the strip-vs-special-rim-hook cancellation at (lam, mu).

    Off the diagonal the shared intermediates are either none or exactly two
    consecutive special-rim-hook removals of mu carrying opposite signs; on
    the diagonal the sole intermediate deletes the last part.
    """
    if sum(lam) != sum(mu) or not lam:
        raise ValueError("shapes must have equal positive size")
    require_partition(lam, mu)
    if lam == mu:
        return Pairing("diagonal", ((lam[:-1], 1),))
    removals = srh_removals(mu)
    first = None
    for idx, (gamma, _, _) in enumerate(removals):
        if _is_strip(lam, gamma):
            first = idx
            break
    if first is None:
        return Pairing("empty", ())
    i = first + 1  # 1-based row index of the hook
    # the partner is the hook of row i + 1 when the rightmost cell (i, mu_i)
    # of row i of mu is in lam, else that of row i - 1; but a strip in row
    # i - 1 would have come first, so the cell must be in lam
    if i > len(lam) or lam[i - 1] < mu[i - 1]:
        raise AssertionError("local pairing failed structural check")
    if i == len(mu):
        raise AssertionError("unreachable: matched removal in the last row")
    g1, _, s1 = removals[i - 1]
    g2, _, s2 = removals[i]
    if not _is_strip(lam, g2) or s1 == s2:
        raise AssertionError("local pairing failed structural check")
    return Pairing("matched", ((g1, s1), (g2, s2)))
