"""Sign-reversing involutions certifying the matrix inversions bijectively.

Both involutions follow the same unrolled plan: strip the outermost
incremental structures off the paired objects until the two sides agree
(a "survivor"), swap the survivor for its uniquely-matched partner via the
local pairing, then restore the stripped structures with renumbered labels.
The rim-hook variant additionally transports a permutation through choice
sequences, so that the diagonal fixed-point count is exactly n! per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _itertools_permutations
from math import factorial

from .core import (
    Cell,
    Composition,
    Filling,
    Partition,
    compositions,
    diagram,
    row_filling,
    shape_of_cells,
)
from .kostka import (
    enumerate_ssyt,
    is_srht,
    is_ssyt,
    kostka_pair,
    rht_sign,
    srht_find,
)
from .rimhook import (
    Permutation,
    border_hook,
    border_number_of_hook,
    cell_at,
    cyc_comp,
    enumerate_rht,
    is_rht,
    rimhook_pair,
)

ChoiceSequence = tuple[int, ...]


def _trace_step(trace, action: str, before, after):
    if trace is not None:
        trace.append({"action": action, "before": before, "after": after})


# ---------------------------------------------------------------------------
# Kostka pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KostkaPair:
    """A semistandard tableau and a special rim-hook tableau of one content."""

    s: Filling
    t: Filling

    def __post_init__(self):
        beta = self.s.content()
        if beta != self.t.content():
            raise ValueError("contents disagree")
        if not is_ssyt(self.s, self.s.shape, beta):
            raise ValueError("first component is not semistandard")
        if not is_srht(self.t, self.t.shape, beta):
            raise ValueError("second component is not a special rim-hook tableau")

    @property
    def sign(self) -> int:
        return rht_sign(self.t)

    def to_json(self) -> dict:
        return {"S": self.s.to_json(), "T": self.t.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "KostkaPair":
        return cls(Filling.from_json(data["S"]), Filling.from_json(data["T"]))


def kostka_survivor(lam: Partition) -> KostkaPair:
    """The unique pair with equal components: row i filled with i, twice."""
    filling = row_filling(lam)
    return KostkaPair(filling, filling)


def kostka_involution(pair: KostkaPair, trace: list | None = None) -> KostkaPair | None:
    """Apply the canonical involution; None marks the unique fixed point.

    Off fixed points the output has opposite sign, the same two shapes, and
    a second application returns the input.
    """
    if pair.s == pair.t:
        if pair.s != row_filling(pair.s.shape):
            raise AssertionError("equal components must form the survivor")
        return None
    s_cur, t_cur = pair.s, pair.t
    removed: list[tuple[frozenset[Cell], frozenset[Cell]]] = []
    while s_cur != t_cur:
        label = s_cur.max_label()
        eta, rho = s_cur.cells_of(label), t_cur.cells_of(label)
        removed.append((eta, rho))
        s_cur, t_cur = s_cur.without_label(label), t_cur.without_label(label)
        _trace_step(
            trace,
            "strip",
            {"label": label},
            {"S": s_cur.to_json(), "T": t_cur.to_json()},
        )
    gamma = s_cur.shape
    eta, rho = removed.pop()
    lam_bar = shape_of_cells(diagram(gamma) | eta)
    mu_bar = shape_of_cells(diagram(gamma) | rho)
    if lam_bar == mu_bar:
        raise AssertionError("pending structures cannot agree at the first survivor")
    pairing = kostka_pair(lam_bar, mu_bar)
    gamma_new = pairing.partner_of(gamma)
    _trace_step(
        trace,
        "local_pair",
        {"gamma": list(gamma), "lam_bar": list(lam_bar), "mu_bar": list(mu_bar)},
        {"gamma": list(gamma_new)},
    )
    label = len(gamma_new) + 1
    s_new = row_filling(gamma_new).with_cells(diagram(lam_bar) - diagram(gamma_new), label)
    t_new = row_filling(gamma_new).with_cells(diagram(mu_bar) - diagram(gamma_new), label)
    for eta_i, rho_i in reversed(removed):
        label += 1
        s_new = s_new.with_cells(eta_i, label)
        t_new = t_new.with_cells(rho_i, label)
        _trace_step(
            trace,
            "restore",
            {"label": label},
            {"S": s_new.to_json(), "T": t_new.to_json()},
        )
    return KostkaPair(s_new, t_new)


# ---------------------------------------------------------------------------
# Choice sequences and the survivor bijections
# ---------------------------------------------------------------------------

def f_lambda(
    lam: Partition, choices: ChoiceSequence, ground: tuple[int, ...] | None = None
) -> tuple[Filling, Permutation]:
    """Decode a choice sequence into a survivor (S, sigma) for shape lam.

    Working from the outside in, each hook entry picks a removable border
    rim-hook by its cell number; the following entries fill out one cycle of
    sigma, each selecting the c-th smallest unused ground element.  Cycles
    are built right to left, each starting at the least unused element, so
    the cycle lengths read off in canonical order equal the content of S.
    """
    n = sum(lam)
    if ground is None:
        ground = tuple(range(1, n + 1))
    if len(ground) != n or len(set(ground)) != n:
        raise ValueError("ground set must have exactly n distinct elements")
    if len(choices) != n:
        raise ValueError("choice sequence must have length n")
    available = sorted(ground)
    shape = tuple(lam)
    pos = 0
    hooks: list[frozenset[Cell]] = []
    cycles: list[tuple[int, ...]] = []
    while shape:
        pick = choices[pos]
        pos += 1
        if not 1 <= pick <= sum(shape):
            raise ValueError("hook choice out of bounds")
        shape, cells, _ = border_hook(shape, cell_at(shape, pick))
        cycle = [available.pop(0)]
        for _ in range(len(cells) - 1):
            pick = choices[pos]
            pos += 1
            if not 1 <= pick <= len(available):
                raise ValueError("cycle choice out of bounds")
            cycle.append(available.pop(pick - 1))
        hooks.append(cells)
        cycles.append(tuple(cycle))
    labels: dict[Cell, int] = {}
    top = len(hooks)
    for idx, cells in enumerate(hooks):
        for c in cells:
            labels[c] = top - idx
    sigma = Permutation.from_cycles(list(reversed(cycles)))
    return Filling.from_cells(labels), sigma


def f_lambda_inv(filling: Filling, sigma: Permutation) -> ChoiceSequence:
    """Encode a survivor back into its choice sequence."""
    if filling.content() != cyc_comp(sigma):
        raise ValueError("content must equal the cycle composition")
    available = sorted(sigma.ground)
    cycles = list(sigma.canonical_cycles())
    shape = filling.shape
    out: list[int] = []
    for label in range(filling.max_label(), 0, -1):
        cells = filling.cells_of(label)
        out.append(border_number_of_hook(shape, cells))
        shape = shape_of_cells(diagram(shape) - cells)
        cycle = cycles.pop()
        if cycle[0] != available[0]:
            raise ValueError("cycle does not start at the least unused element")
        available.pop(0)
        for element in cycle[1:]:
            idx = available.index(element)
            out.append(idx + 1)
            available.pop(idx)
    return tuple(out)


def f_mu_rho(
    mu: Partition,
    rho: frozenset[Cell],
    choices: ChoiceSequence,
    ground: tuple[int, ...] | None = None,
) -> tuple[Filling, Permutation]:
    """Survivor with the outermost hook pinned to the cells rho."""
    number = border_number_of_hook(tuple(mu), rho)
    return f_lambda(mu, (number,) + tuple(choices), ground)


def f_mu_rho_inv(filling: Filling, sigma: Permutation) -> ChoiceSequence:
    """Choice sequence of a pinned survivor: the hook entry is dropped."""
    return f_lambda_inv(filling, sigma)[1:]


# ---------------------------------------------------------------------------
# Rim-hook triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhtTriple:
    """Two rim-hook tableaux of one content and a permutation realizing it."""

    s: Filling
    t: Filling
    sigma: Permutation

    def __post_init__(self):
        beta = self.s.content()
        if beta != self.t.content() or beta != cyc_comp(self.sigma):
            raise ValueError("contents and cycle composition must all agree")
        if not is_rht(self.s, self.s.shape, beta):
            raise ValueError("first component is not a rim-hook tableau")
        if not is_rht(self.t, self.t.shape, beta):
            raise ValueError("second component is not a rim-hook tableau")

    @property
    def sign(self) -> int:
        return rht_sign(self.s) * rht_sign(self.t)

    def to_json(self) -> dict:
        return {
            "S": self.s.to_json(),
            "T": self.t.to_json(),
            "sigma": self.sigma.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RhtTriple":
        return cls(
            Filling.from_json(data["S"]),
            Filling.from_json(data["T"]),
            Permutation.from_json(data["sigma"]),
        )


def rht_involution(triple: RhtTriple, trace: list | None = None) -> RhtTriple | None:
    """Apply the rim-hook involution; None marks the n! diagonal fixed points.

    Strips hooks and rightmost cycles to the first survivor, swaps the
    survivor shape through the abacus pairing, transports the pinned
    survivor with choice sequences, and restores everything renumbered.
    """
    if triple.s == triple.t:
        return None
    s_cur, t_cur = triple.s, triple.t
    cycles = list(triple.sigma.canonical_cycles())
    removed: list[tuple[frozenset[Cell], frozenset[Cell], tuple[int, ...]]] = []
    while s_cur != t_cur:
        label = s_cur.max_label()
        eta, rho = s_cur.cells_of(label), t_cur.cells_of(label)
        removed.append((eta, rho, cycles.pop()))
        s_cur, t_cur = s_cur.without_label(label), t_cur.without_label(label)
        _trace_step(
            trace,
            "strip",
            {"label": label},
            {"S": s_cur.to_json(), "T": t_cur.to_json()},
        )
    survivor = s_cur
    gamma = survivor.shape
    eta, rho, last_cycle = removed.pop()
    if eta == rho:
        raise AssertionError("pending hooks cannot agree at the first survivor")
    lam_bar = shape_of_cells(diagram(gamma) | eta)
    mu_bar = shape_of_cells(diagram(gamma) | rho)
    if lam_bar == mu_bar:
        raise AssertionError("pending shapes cannot agree at the first survivor")
    label = survivor.max_label() + 1
    t_prime = survivor.with_cells(rho, label)
    sigma_prime = Permutation.from_cycles(cycles + [last_cycle])
    pairing = rimhook_pair(lam_bar, mu_bar)
    gamma_new = pairing.partner_of(gamma)
    eta_new = diagram(lam_bar) - diagram(gamma_new)
    rho_new = diagram(mu_bar) - diagram(gamma_new)
    _trace_step(
        trace,
        "local_pair",
        {"gamma": list(gamma), "lam_bar": list(lam_bar), "mu_bar": list(mu_bar)},
        {"gamma": list(gamma_new)},
    )
    seq = f_mu_rho_inv(t_prime, sigma_prime)
    t_next, sigma_next = f_mu_rho(mu_bar, rho_new, seq, ground=sigma_prime.ground)
    _trace_step(
        trace,
        "f_transport",
        {"T": t_prime.to_json(), "sigma": sigma_prime.to_json()},
        {"T": t_next.to_json(), "sigma": sigma_next.to_json()},
    )
    label = t_next.max_label()
    s_next = t_next.without_label(label).with_cells(eta_new, label)
    out_cycles = list(sigma_next.canonical_cycles())
    for eta_i, rho_i, cycle_i in reversed(removed):
        label += 1
        s_next = s_next.with_cells(eta_i, label)
        t_next = t_next.with_cells(rho_i, label)
        out_cycles.append(cycle_i)
        _trace_step(
            trace,
            "restore",
            {"label": label},
            {"S": s_next.to_json(), "T": t_next.to_json()},
        )
    sigma_out = Permutation.from_cycles(out_cycles)
    return RhtTriple(s_next, t_next, sigma_out)


# ---------------------------------------------------------------------------
# Exhaustive verification
# ---------------------------------------------------------------------------

@dataclass
class PairingReport:
    app: str
    lam: Partition
    mu: Partition
    size: int
    fixed_points: int
    signed_total: Fraction
    involution_ok: bool
    sign_reversal_ok: bool
    shape_preserved_ok: bool

    @property
    def passed(self) -> bool:
        n = sum(self.lam)
        if self.app == "kostka":
            expected_fixed = 1 if self.lam == self.mu else 0
            expected_total = Fraction(expected_fixed)
        else:
            expected_fixed = factorial(n) if self.lam == self.mu else 0
            expected_total = Fraction(expected_fixed)
        return (
            self.involution_ok
            and self.sign_reversal_ok
            and self.shape_preserved_ok
            and self.fixed_points == expected_fixed
            and self.signed_total == expected_total
        )


def _all_kostka_pairs(lam: Partition, mu: Partition) -> list[KostkaPair]:
    out = []
    for beta in compositions(sum(lam)):
        found = srht_find(mu, beta)
        if found is None:
            continue
        for s in enumerate_ssyt(lam, beta):
            out.append(KostkaPair(s, found[0]))
    return out


def _all_rht_triples(lam: Partition, mu: Partition) -> list[RhtTriple]:
    n = sum(lam)
    by_content: dict[Composition, list[Permutation]] = {}
    for perm in _itertools_permutations(range(1, n + 1)):
        sigma = Permutation(dict(zip(range(1, n + 1), perm)))
        by_content.setdefault(cyc_comp(sigma), []).append(sigma)
    out = []
    for beta, sigmas in by_content.items():
        left = enumerate_rht(lam, beta)
        if not left:
            continue
        right = left if mu == lam else enumerate_rht(mu, beta)
        for s, _ in left:
            for t, _ in right:
                for sigma in sigmas:
                    out.append(RhtTriple(s, t, sigma))
    return out


def verify_pairing(app: str, lam: Partition, mu: Partition) -> PairingReport:
    """Run the involution over the whole pair set for (lam, mu) and audit it:
    map o map = id, sign reversal off fixed points, shape preservation, and
    the fixed-point census matching the matrix identity."""
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if app == "kostka":
        objects = _all_kostka_pairs(lam, mu)
        apply_map = kostka_involution
        shapes = lambda obj: (obj.s.shape, obj.t.shape)
    elif app == "rimhook":
        objects = _all_rht_triples(lam, mu)
        apply_map = rht_involution
        shapes = lambda obj: (obj.s.shape, obj.t.shape)
    else:
        raise ValueError("unknown application %r" % app)
    fixed = 0
    signed_total = Fraction(0)
    involution_ok = True
    sign_ok = True
    shape_ok = True
    for obj in objects:
        signed_total += obj.sign
        image = apply_map(obj)
        if image is None:
            fixed += 1
            if obj.sign != 1:
                sign_ok = False
            continue
        if shapes(image) != shapes(obj):
            shape_ok = False
        if image.sign != -obj.sign:
            sign_ok = False
        back = apply_map(image)
        if back != obj:
            involution_ok = False
    return PairingReport(
        app,
        tuple(lam),
        tuple(mu),
        len(objects),
        fixed,
        signed_total,
        involution_ok,
        sign_ok,
        shape_ok,
    )
