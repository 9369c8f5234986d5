"""Semistandard tableaux, special rim-hook tableaux, and their local pairing.

The A-family counts semistandard Young tableaux (Kostka numbers on a
rectangular P(n) x C(n) index set); the B-family counts signed special
rim-hook tableaux, of which at most one exists per (shape, content).  Each
removal is the shape it leaves; a special rim hook is a column-1 border hook.
"""

from __future__ import annotations

from .core import (
    Chain,
    Composition,
    Filling,
    Partition,
    border_hook,
    filling_of,
    is_chain_tableau,
    is_strip_removal,
    partitions,
    require_partition,
    rht_sign,
    skew_sign,
    walk_chains,
)
from .framework import LocalSystem, Pairing


# ---------------------------------------------------------------------------
# Semistandard Young tableaux
# ---------------------------------------------------------------------------

def is_ssyt(chain: Chain, lam: Partition, beta: Composition) -> bool:
    """Shape lam, content beta, each label class a horizontal strip added to
    a partition diagram (rows weakly increasing, columns strict)."""
    return is_chain_tableau(chain, lam, beta, is_strip_removal)


def strip_removals(lam: Partition, length: int) -> list[Partition]:
    """Partitions gamma inside lam with lam/gamma a horizontal strip of `length`."""
    target = sum(lam) - length
    if length < 1 or target < 0:
        return []
    out: list[Partition] = []

    def rec(i: int, remaining: int, acc: tuple[int, ...]):
        if i == len(lam):
            if remaining == 0:
                out.append(tuple(p for p in acc if p))
            return
        low = lam[i + 1] if i + 1 < len(lam) else 0
        hi = min(lam[i], remaining)
        for g in range(hi, low - 1, -1):
            rec(i + 1, remaining - g, acc + (g,))

    rec(0, target, ())
    return out


def enumerate_ssyt(lam: Partition, beta: Composition) -> list[Filling]:
    """All semistandard tableaux of the given shape and content, built by
    peeling the top-label horizontal strip as the Kostka recursion does;
    output is sorted row-major for reproducibility."""
    require_partition(lam)
    fillings = [filling_of(chain) for chain in walk_chains(strip_removals, lam, beta)]
    return sorted(fillings, key=lambda f: f.rows)


# ---------------------------------------------------------------------------
# Special rim-hook removals and tableaux
# ---------------------------------------------------------------------------

def srh_removals(mu: Partition) -> list[tuple[Partition, int, int]]:
    """The removable special rim-hooks of dg(mu) as (gamma, size, sign): the
    border hooks of the column-1 cells (i, 1), one per row index.  Hook sizes
    strictly decrease with i, so sizes identify hooks uniquely.
    """
    return [border_hook(mu, (i, 1)) for i in range(1, len(mu) + 1)]


def srh_successors(mu: Partition, length: int) -> list[Partition]:
    """The shapes left by removing a special rim-hook of size `length`: at most
    one, as the hook of row i has size mu_i + len(mu) - i, the hook length of (i, 1)."""
    rows = [i for i, part in enumerate(mu, start=1) if part + len(mu) - i == length]
    return [border_hook(mu, (i, 1))[0] for i in rows]


def srht_find(mu: Partition, beta: Composition) -> tuple[Filling, int] | None:
    """The unique special rim-hook tableau of shape mu, content beta, if any:
    each removal has at most one choice, so the walk finds at most one chain."""
    require_partition(mu)
    chains = walk_chains(srh_successors, mu, beta)
    return (filling_of(chains[0]), rht_sign(chains[0])) if chains else None


def is_srht(chain: Chain, mu: Partition, beta: Composition) -> bool:
    """Each label class a special rim-hook of the right size added to a
    partition diagram."""
    step = lambda outer, inner: inner in [g for g, _, _ in srh_removals(outer)]
    return is_chain_tableau(chain, mu, beta, step)


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
        if is_strip_removal(lam, gamma):
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
    if not is_strip_removal(lam, g2) or s1 == s2:
        raise AssertionError("local pairing failed structural check")
    return Pairing("matched", ((g1, s1), (g2, s2)))
