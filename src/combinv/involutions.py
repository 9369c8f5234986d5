"""Sign-reversing involutions certifying the matrix inversions bijectively.

Both involutions follow the same unrolled plan on the label-prefix shape
chains of the two tableaux: strip the outermost incremental structures off
the paired objects until the two sides agree (a "survivor"), swap the
survivor for its uniquely-matched partner via the local pairing, then
restore the stripped structures with renumbered labels.  The rim-hook
variant additionally transports a permutation through choice sequences, so
that the diagonal fixed-point count is exactly n! per shape.

Every pair and triple is built by its dataclass constructor, which checks
it and derives the chains of its two Fillings.  An exhaustive audit meets
the same shapes, chains and tableaux over and over, so each object carries
a `_Memo` in its one private field, `_memo` (keyword-only, outside equality,
hashing and repr), which does the pure work it is asked for once per
distinct input: the local pairing at (lam_bar, mu_bar), the tableau check
of a (chain, shape, content), chain_of / filling_of, a Filling's content, a
chain's sign and the choice-sequence transport.  The pair set of one
`verify_pairing` call is built with one memo, and the involutions build
every image with its input's; a pair or triple built without one, by any
other caller or by `from_json`, starts a fresh one.  No memo is kept at
module level, so none outlives the objects that carry it.  The audit itself
maps each object of the pair set once and checks map o map = id by looking
the image's image up among those results; it lists the special rim-hook
tableaux of a shape with one walk down their chains, and the transport
passes canonical cycle tuples, building a Permutation only for an image's
sigma (and for a trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations as _itertools_permutations
from math import factorial

from .core import (
    Chain,
    Composition,
    Filling,
    Partition,
    chain_of,
    filling_of,
    require_partition,
    rht_sign,
)
from .kostka import (
    enumerate_ssyt,
    is_srht,
    is_ssyt,
    kostka_pair,
    srh_removals,
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
Cycles = tuple[tuple[int, ...], ...]
Images = tuple[int, ...]  # a permutation of 1..n as the images of 1, ..., n


class _Memo:
    """Calls a pure function once per distinct argument tuple."""

    __slots__ = ("_values",)

    def __init__(self):
        self._values: dict[tuple, object] = {}

    def __call__(self, fn, *args):
        key = (fn, *args)
        try:
            return self._values[key]
        except KeyError:
            value = self._values[key] = fn(*args)
            return value


def _trace_step(trace, action: str, before, after):
    if trace is not None:
        trace.append({"action": action, "before": before, "after": after})


def _trace_chains(trace, action: str, label: int, s: Chain, t: Chain):
    if trace is not None:
        after = {"S": filling_of(s).to_json(), "T": filling_of(t).to_json()}
        _trace_step(trace, action, {"label": label}, after)


def _strip_and_swap(
    s: Chain, t: Chain, pair_at, memo: _Memo, trace
) -> tuple[int, Partition]:
    """Strip labels off two distinct chains of one length until they agree,
    then swap the survivor through the local pairing, looked up in memo.

    Returns j, the last index where the chains agree, and the partner of the
    survivor shape s[j] in pair_at(s[j+1], t[j+1]).
    """
    j = 0
    while s[j + 1] == t[j + 1]:
        j += 1
    for label in range(len(s) - 1, j, -1):
        _trace_chains(trace, "strip", label, s[:label], t[:label])
    gamma, lam_bar, mu_bar = s[j], s[j + 1], t[j + 1]
    gamma_new = memo(pair_at, lam_bar, mu_bar).partner_of(gamma)
    _trace_step(
        trace,
        "local_pair",
        {"gamma": list(gamma), "lam_bar": list(lam_bar), "mu_bar": list(mu_bar)},
        {"gamma": list(gamma_new)},
    )
    return j, gamma_new


def _restore(
    source, s_head: Chain, t_head: Chain, j: int, trace, *rest
) -> KostkaPair | RhtTriple:
    """Push the shapes of source stripped above index j+1 back onto the new
    heads, and build the output pair or triple from the two chains with
    source's constructor, carrying source's memo."""
    s, t = source._chains
    for k in range(j + 2, len(s)):
        s_head, t_head = s_head + (s[k],), t_head + (t[k],)
        _trace_chains(trace, "restore", len(s_head) - 1, s_head, t_head)
    memo = source._memo
    fillings = memo(filling_of, s_head), memo(filling_of, t_head)
    return type(source)(*fillings, *rest, _memo=memo)


def _row_chain(lam: Partition) -> Chain:
    """The chain of the filling whose row i holds the label i: the prefixes of lam."""
    return tuple(lam[:k] for k in range(len(lam) + 1))


# ---------------------------------------------------------------------------
# Kostka pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KostkaPair:
    """A semistandard tableau and a special rim-hook tableau of one content."""

    s: Filling
    t: Filling
    _memo: _Memo = field(default_factory=_Memo, kw_only=True, compare=False, repr=False)

    def __post_init__(self):
        memo = self._memo
        beta = memo(Filling.content, self.s)
        if beta != memo(Filling.content, self.t):
            raise ValueError("contents disagree")
        s, t = chains = memo(chain_of, self.s), memo(chain_of, self.t)
        object.__setattr__(self, "_chains", chains)
        if s is None or not memo(is_ssyt, s, self.s.shape, beta):
            raise ValueError("first component is not semistandard")
        if t is None or not memo(is_srht, t, self.t.shape, beta):
            raise ValueError("second component is not a special rim-hook tableau")

    @property
    def sign(self) -> int:
        return self._memo(rht_sign, self._chains[1])

    def to_json(self) -> dict:
        return {"S": self.s.to_json(), "T": self.t.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "KostkaPair":
        return cls(Filling.from_json(data["S"]), Filling.from_json(data["T"]))


def kostka_survivor(lam: Partition) -> KostkaPair:
    """The unique pair with equal components: row i filled with i, twice."""
    require_partition(lam)
    filling = filling_of(_row_chain(lam))
    return KostkaPair(filling, filling)


def kostka_involution(pair: KostkaPair, trace: list | None = None) -> KostkaPair | None:
    """Apply the canonical involution; None marks the unique fixed point.

    Off fixed points the output has opposite sign, the same two shapes, and
    a second application returns the input.
    """
    s, t = pair._chains
    if s == t:
        if s != _row_chain(s[-1]):
            raise AssertionError("equal components must form the survivor")
        return None
    j, gamma_new = _strip_and_swap(s, t, kostka_pair, pair._memo, trace)
    head = _row_chain(gamma_new)
    return _restore(pair, head + (s[j + 1],), head + (t[j + 1],), j, trace)


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
    require_partition(lam)
    chain, cycles = _decode(lam, choices, ground)
    return filling_of(chain), Permutation.from_cycles(list(cycles))


def _decode(
    lam: Partition, choices: ChoiceSequence, ground: tuple[int, ...] | None
) -> tuple[Chain, Cycles]:
    """f_lambda with the survivor S given by its chain and sigma by its
    canonical cycles: built right to left, each from the least unused
    element, they come out with decreasing minima once reversed."""
    n = sum(lam)
    if ground is None:
        ground = tuple(range(1, n + 1))
    if len(ground) != n or len(set(ground)) != n:
        raise ValueError("ground set must have exactly n distinct elements")
    if len(choices) != n:
        raise ValueError("choice sequence must have length n")
    available = sorted(ground)
    shapes = [tuple(lam)]
    pos = 0
    cycles: list[tuple[int, ...]] = []
    while shapes[-1]:
        shape = shapes[-1]
        pick = choices[pos]
        pos += 1
        if not 1 <= pick <= sum(shape):
            raise ValueError("hook choice out of bounds")
        gamma, size, _ = border_hook(shape, cell_at(shape, pick))
        cycle = [available.pop(0)]
        for _ in range(size - 1):
            pick = choices[pos]
            pos += 1
            if not 1 <= pick <= len(available):
                raise ValueError("cycle choice out of bounds")
            cycle.append(available.pop(pick - 1))
        shapes.append(gamma)
        cycles.append(tuple(cycle))
    return tuple(reversed(shapes)), tuple(reversed(cycles))


def f_lambda_inv(filling: Filling, sigma: Permutation) -> ChoiceSequence:
    """Encode a survivor back into its choice sequence."""
    if filling.content() != cyc_comp(sigma):
        raise ValueError("content must equal the cycle composition")
    chain = chain_of(filling)
    if chain is None:
        raise ValueError("label prefixes are not partition diagrams")
    return _encode(chain, sigma.canonical_cycles())


def _encode(chain: Chain, cycles: Cycles) -> ChoiceSequence:
    """f_lambda_inv of the survivor whose S is given by its chain and sigma
    by its canonical cycles."""
    available = sorted(x for cycle in cycles for x in cycle)
    cycles = list(cycles)
    out: list[int] = []
    for inner, outer in reversed(list(zip(chain, chain[1:]))):
        out.append(border_number_of_hook(outer, inner))
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
    gamma: Partition,
    choices: ChoiceSequence,
    ground: tuple[int, ...] | None = None,
) -> tuple[Filling, Permutation]:
    """Survivor with the outermost hook pinned to the removable border
    rim-hook rho = dg(mu) - dg(gamma), given by the shape gamma it leaves."""
    require_partition(mu, gamma)
    number = border_number_of_hook(tuple(mu), tuple(gamma))
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
    _memo: _Memo = field(default_factory=_Memo, kw_only=True, compare=False, repr=False)

    def __post_init__(self):
        memo = self._memo
        beta = memo(Filling.content, self.s)
        if beta != memo(Filling.content, self.t) or beta != cyc_comp(self.sigma):
            raise ValueError("contents and cycle composition must all agree")
        s, t = chains = memo(chain_of, self.s), memo(chain_of, self.t)
        object.__setattr__(self, "_chains", chains)
        if s is None or not memo(is_rht, s, self.s.shape, beta):
            raise ValueError("first component is not a rim-hook tableau")
        if t is None or not memo(is_rht, t, self.t.shape, beta):
            raise ValueError("second component is not a rim-hook tableau")

    @property
    def sign(self) -> int:
        s, t = self._chains
        return self._memo(rht_sign, s) * self._memo(rht_sign, t)

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


def _transport(t_head: Chain, cycles: Cycles, gamma: Partition) -> tuple[Chain, Cycles]:
    """Carry the survivor pinned at t_head[-2], whose permutation has these
    canonical cycles, through its choice sequence to the survivor pinned at
    gamma: f_mu_rho(mu, gamma, f_mu_rho_inv(...)) on chains and cycle
    tuples, mu = t_head[-1]."""
    seq = _encode(t_head, cycles)[1:]
    mu = t_head[-1]
    ground = tuple(x for cycle in cycles for x in cycle)
    return _decode(mu, (border_number_of_hook(mu, gamma),) + seq, ground)


def rht_involution(triple: RhtTriple, trace: list | None = None) -> RhtTriple | None:
    """Apply the rim-hook involution; None marks the n! diagonal fixed points.

    Strips hooks and rightmost cycles to the first survivor, swaps the
    survivor shape through the abacus pairing, transports the pinned
    survivor with choice sequences, and restores everything renumbered.
    """
    s, t = triple._chains
    if s == t:
        return None
    j, gamma_new = _strip_and_swap(s, t, rimhook_pair, triple._memo, trace)
    cycles = triple.sigma.canonical_cycles()
    t_head = t[: j + 2]
    head, cycles_next = triple._memo(_transport, t_head, cycles[: j + 1], gamma_new)
    if trace is not None:
        sigma_prime = Permutation.from_cycles(list(cycles[: j + 1]))
        sigma_next = Permutation.from_cycles(list(cycles_next))
        before = {"T": filling_of(t_head).to_json(), "sigma": sigma_prime.to_json()}
        after = {"T": filling_of(head).to_json(), "sigma": sigma_next.to_json()}
        _trace_step(trace, "f_transport", before, after)
    sigma_out = Permutation.from_cycles(list(cycles_next + cycles[j + 1 :]))
    return _restore(triple, head[:-1] + (s[j + 1],), head, j, trace, sigma_out)


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
    signed_total: int
    involution_ok: bool
    sign_reversal_ok: bool
    shape_preserved_ok: bool

    @property
    def passed(self) -> bool:
        per_shape = 1 if self.app == "kostka" else factorial(sum(self.lam))
        expected = per_shape if self.lam == self.mu else 0
        return (
            self.involution_ok
            and self.sign_reversal_ok
            and self.shape_preserved_ok
            and self.fixed_points == expected
            and self.signed_total == expected
        )


def _srht_chains(mu: Partition) -> list[Chain]:
    """The chains of every special rim-hook tableau of shape mu: one walk
    down srh_removals to (), which the empty tableau's chain ((),) ends.
    Each content has at most one tableau, so no content is listed twice."""
    if not mu:
        return [((),)]
    return [chain + (mu,) for gamma, _, _ in srh_removals(mu) for chain in _srht_chains(gamma)]


def _all_kostka_pairs(lam: Partition, mu: Partition) -> list[KostkaPair]:
    """The pair set of (lam, mu), every pair sharing one fresh memo: each
    special rim-hook tableau T of shape mu with every semistandard tableau
    of shape lam and T's content."""
    memo = _Memo()
    out = []
    for chain in _srht_chains(mu):
        t = filling_of(chain)
        beta = tuple(sum(outer) - sum(inner) for inner, outer in zip(chain, chain[1:]))
        for s in enumerate_ssyt(lam, beta):
            out.append(KostkaPair(s, t, _memo=memo))
    return out


@lru_cache(maxsize=None)
def _permutations_by_content(
    n: int,
) -> tuple[tuple[Composition, tuple[Images, ...]], ...]:
    """The permutations of 1..n as image tuples, grouped by cycle composition
    in order of first appearance.  Tuples only: what the cache holds
    cannot be changed by any caller."""
    ground = tuple(range(1, n + 1))
    by_content: dict[Composition, list[Images]] = {}
    for images in _itertools_permutations(ground):
        sigma = Permutation(dict(zip(ground, images)))
        by_content.setdefault(cyc_comp(sigma), []).append(images)
    return tuple((beta, tuple(group)) for beta, group in by_content.items())


def _all_rht_triples(lam: Partition, mu: Partition) -> list[RhtTriple]:
    """The triple set of (lam, mu), every triple sharing one fresh memo; the
    permutations come grouped by cycle composition once per n, and a
    Permutation is made, once per call, only where both shapes have a
    rim-hook tableau of its content."""
    memo = _Memo()
    ground = tuple(range(1, sum(lam) + 1))
    out = []
    for beta, group in _permutations_by_content(len(ground)):
        left = enumerate_rht(lam, beta)
        right = left if mu == lam or not left else enumerate_rht(mu, beta)
        if not right:
            continue
        sigmas = [Permutation(dict(zip(ground, images))) for images in group]
        for s, _ in left:
            for t, _ in right:
                for sigma in sigmas:
                    out.append(RhtTriple(s, t, sigma, _memo=memo))
    return out


def verify_pairing(app: str, lam: Partition, mu: Partition) -> PairingReport:
    """Run the involution over the whole pair set for (lam, mu) and audit it:
    map o map = id, sign reversal off fixed points, shape preservation, and
    the fixed-point census matching the matrix identity.

    Each object is mapped once, and map o map = id is checked by looking the
    image up among those results; an image outside the pair set (a map that
    moves a shape) is mapped directly.  The pair set shares one memo made
    for this call and every image carries it, so each distinct local
    pairing, tableau check, chain <-> Filling conversion and transport is
    worked once per call, while every object and image is still put through
    all the constructor's checks.  Nothing of the memo or the images
    outlives the call: a pairing patched between two calls is seen by the
    second."""
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if app == "kostka":
        build, apply_map = _all_kostka_pairs, kostka_involution
    elif app == "rimhook":
        build, apply_map = _all_rht_triples, rht_involution
    else:
        raise ValueError("unknown application %r" % app)
    require_partition(lam, mu)
    objects = build(lam, mu)
    mapped = [apply_map(obj) for obj in objects]
    images = dict(zip(objects, mapped))
    shapes = lambda obj: (obj._chains[0][-1], obj._chains[1][-1])
    fixed = 0
    signed_total = 0
    involution_ok = True
    sign_ok = True
    shape_ok = True
    for obj, image in zip(objects, mapped):
        sign = obj.sign
        signed_total += sign
        if image is None:
            fixed += 1
            if sign != 1:
                sign_ok = False
            continue
        if shapes(image) != shapes(obj):
            shape_ok = False
        if image.sign != -sign:
            sign_ok = False
        try:
            back = images[image]
        except KeyError:
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
