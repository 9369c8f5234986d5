"""Sign-reversing involutions certifying the matrix inversions bijectively.

Both involutions follow the same unrolled plan on the label-prefix shape
chains of the two tableaux: strip the outermost incremental structures off
the paired objects until the two sides agree (a "survivor"), swap the
survivor for its uniquely-matched partner via the local pairing, then
restore the stripped structures with renumbered labels.  The rim-hook
variant additionally transports a permutation through choice sequences, so
that the diagonal fixed-point count is exactly n! per shape.

Shape chains, and canonical cycle tuples for sigma, are the working form.
Each involution is one chain-level step: `_kostka_step(s, t, memo, trace)`
gives the image chains (s', t'), and `_rht_step(s, t, cycles, memo, trace)`
gives (s', t', cycles'), or None at a fixed point.  Each object kind has one
chain-level checker, `_check_kostka` and `_check_rht`: equal contents, the
tableau predicates through the memo, and for a triple cycles that hold
1..n once each in canonical order.  Filling and Permutation appear only at
the public surface: the KostkaPair and RhtTriple constructors turn their
fields into chains and call the checker, and `kostka_involution` and
`rht_involution` step on the input's chains and build the image with the
plain constructor.  `verify_pairing` builds its pair set as plain tuples,
maps each once through the step and puts every object and image through
the checker; the only Fillings it meets are the semistandard tableaux
`enumerate_ssyt` lists, each turned into its chain.

A `_Memo` does the pure work it is asked for once per distinct input: the
local pairing at (lam_bar, mu_bar), the tableau check of a (chain,
content), a chain's content and sign and the choice-sequence transport.
`verify_pairing` makes one per call and shares it across the pair set; a
constructor checks, and a public involution steps, in a memo of its own
call.  Pairs and triples are plain values: their fields are the Fillings
(and the Permutation), and beside them each keeps only its chains and
sign, worked out from them.  No memo is kept at module level, so none
outlives the call that made it.  A choice sequence's hook entries are the
numbers of `rimhook.hook_table`: encoding looks each step's number up and
decoding reads hook k off the table, so no hook is built again.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    is_partition,
    require_partition,
    rht_sign,
    walk_chains,
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
    border_number_of_hook,
    canonical_cycles,
    cyc_comp,
    hook_successors,
    hook_table,
    is_rht,
    rimhook_pair,
)

ChoiceSequence = tuple[int, ...]
Cycles = tuple[tuple[int, ...], ...]


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


def _trace_step(trace: list, action: str, before, after):
    trace.append({"action": action, "before": before, "after": after})


def _trace_chains(trace: list, action: str, label: int, s: Chain, t: Chain):
    after = {"S": filling_of(s).to_json(), "T": filling_of(t).to_json()}
    _trace_step(trace, action, {"label": label}, after)


def _content(chain: Chain) -> Composition:
    """The sizes of a chain's steps: its tableau's content."""
    return tuple(sum(outer) - sum(inner) for inner, outer in zip(chain, chain[1:]))


def _is_tableau(is_kind, chain: Chain, beta: Composition) -> bool:
    """is_kind(chain, its top shape, beta) with that shape a partition, so
    that, each step leaving a partition, every shape of the chain is one,
    as chain_of requires of a Filling's chain."""
    return is_partition(chain[-1]) and is_kind(chain, chain[-1], beta)


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
    gamma, lam_bar, mu_bar = s[j], s[j + 1], t[j + 1]
    gamma_new = memo(pair_at, lam_bar, mu_bar).partner_of(gamma)
    if trace is not None:
        for label in range(len(s) - 1, j, -1):
            _trace_chains(trace, "strip", label, s[:label], t[:label])
        _trace_step(
            trace,
            "local_pair",
            {"gamma": list(gamma), "lam_bar": list(lam_bar), "mu_bar": list(mu_bar)},
            {"gamma": list(gamma_new)},
        )
    return j, gamma_new


def _restore(
    s: Chain, t: Chain, s_head: Chain, t_head: Chain, j: int, trace
) -> tuple[Chain, Chain]:
    """Push the shapes of s and t stripped above index j+1 back onto the new
    heads (of one length), renumbering their labels."""
    if trace is not None:
        for k in range(j + 2, len(s)):
            rest = slice(j + 2, k + 1)
            label = len(s_head) + k - j - 2
            _trace_chains(trace, "restore", label, s_head + s[rest], t_head + t[rest])
    return s_head + s[j + 2 :], t_head + t[j + 2 :]


def _row_chain(lam: Partition) -> Chain:
    """The chain of the filling whose row i holds the label i: the prefixes of lam."""
    return tuple(lam[:k] for k in range(len(lam) + 1))


# ---------------------------------------------------------------------------
# Kostka pairs
# ---------------------------------------------------------------------------

def _check_kostka(s: Chain | None, t: Chain | None, memo: _Memo) -> int:
    """Raise the ValueError KostkaPair raises unless the chains s and t are
    a semistandard and a special rim-hook tableau of one content; return
    the pair's sign.  None stands for a Filling with no chain_of."""
    if s is None:
        raise ValueError("first component is not semistandard")
    beta = _content(s)
    if t is not None and beta != _content(t):
        raise ValueError("contents disagree")
    if not memo(_is_tableau, is_ssyt, s, beta):
        raise ValueError("first component is not semistandard")
    if t is None or not memo(_is_tableau, is_srht, t, beta):
        raise ValueError("second component is not a special rim-hook tableau")
    return memo(rht_sign, t)


def _kostka_step(s: Chain, t: Chain, memo: _Memo, trace) -> tuple[Chain, Chain] | None:
    """The canonical involution on the chains of a Kostka pair, or None at
    its fixed point; kostka_pair is looked up in memo."""
    if s == t:
        if s != _row_chain(s[-1]):
            raise AssertionError("equal components must form the survivor")
        return None
    j, gamma_new = _strip_and_swap(s, t, kostka_pair, memo, trace)
    head = _row_chain(gamma_new)
    return _restore(s, t, head + (s[j + 1],), head + (t[j + 1],), j, trace)


@dataclass(frozen=True)
class KostkaPair:
    """A semistandard tableau and a special rim-hook tableau of one content."""

    s: Filling
    t: Filling

    def __post_init__(self):
        chains = chain_of(self.s), chain_of(self.t)
        object.__setattr__(self, "_chains", chains)
        object.__setattr__(self, "_sign", _check_kostka(*chains, _Memo()))

    @property
    def sign(self) -> int:
        return self._sign

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
    image = _kostka_step(*pair._chains, _Memo(), trace)
    return None if image is None else KostkaPair(*map(filling_of, image))


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
        hooks = hook_table(shape)[0]
        if not 1 <= pick <= len(hooks):
            raise ValueError("hook choice out of bounds")
        gamma, size, _ = hooks[pick - 1]
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
    by its canonical cycles; each hook's number is looked up in hook_table."""
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

def _is_canonical(cycles: Cycles) -> bool:
    """The cycles hold each of 1..n once, each starts at its least element,
    and those minima decrease left to right."""
    elements = sorted(x for cycle in cycles for x in cycle)
    minima = [min(cycle, default=0) for cycle in cycles]
    return (
        elements == list(range(1, len(elements) + 1))
        and all(cycle[:1] == (least,) for cycle, least in zip(cycles, minima))
        and minima == sorted(minima, reverse=True)
    )


def _check_rht(s: Chain | None, t: Chain | None, cycles: Cycles, memo: _Memo) -> int:
    """Raise the ValueError RhtTriple raises unless the chains s and t are
    rim-hook tableaux of one content and the cycles, of those lengths, are
    the canonical cycles of a permutation of 1..n; return the triple's
    sign.  None stands for a Filling with no chain_of."""
    if s is None:
        raise ValueError("first component is not a rim-hook tableau")
    beta = memo(_content, s)
    if (t is not None and beta != memo(_content, t)) or beta != tuple(map(len, cycles)):
        raise ValueError("contents and cycle composition must all agree")
    if not memo(_is_canonical, cycles):
        raise ValueError("sigma is not a permutation of 1..n in canonical cycles")
    if not memo(_is_tableau, is_rht, s, beta):
        raise ValueError("first component is not a rim-hook tableau")
    if t is None or not memo(_is_tableau, is_rht, t, beta):
        raise ValueError("second component is not a rim-hook tableau")
    return memo(rht_sign, s) * memo(rht_sign, t)


@dataclass(frozen=True)
class RhtTriple:
    """Two rim-hook tableaux of one content and a permutation realizing it."""

    s: Filling
    t: Filling
    sigma: Permutation

    def __post_init__(self):
        chains = chain_of(self.s), chain_of(self.t)
        object.__setattr__(self, "_chains", chains)
        sign = _check_rht(*chains, self.sigma.canonical_cycles(), _Memo())
        object.__setattr__(self, "_sign", sign)

    @property
    def sign(self) -> int:
        return self._sign

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


def _sigma_json(cycles: Cycles) -> dict:
    return Permutation.from_cycles(list(cycles)).to_json()


def _rht_step(
    s: Chain, t: Chain, cycles: Cycles, memo: _Memo, trace
) -> tuple[Chain, Chain, Cycles] | None:
    """The rim-hook involution on the chains and canonical cycles of a
    triple, or None at a fixed point; rimhook_pair and the transport are
    looked up in memo.  The transported cycles come first and have the
    larger minima, so the image's cycles are canonical as they stand."""
    if s == t:
        return None
    j, gamma_new = _strip_and_swap(s, t, rimhook_pair, memo, trace)
    t_head, moved = t[: j + 2], cycles[: j + 1]
    head, cycles_next = memo(_transport, t_head, moved, gamma_new)
    if trace is not None:
        before = {"T": filling_of(t_head).to_json(), "sigma": _sigma_json(moved)}
        after = {"T": filling_of(head).to_json(), "sigma": _sigma_json(cycles_next)}
        _trace_step(trace, "f_transport", before, after)
    s_out, t_out = _restore(s, t, head[:-1] + (s[j + 1],), head, j, trace)
    return s_out, t_out, cycles_next + cycles[j + 1 :]


def rht_involution(triple: RhtTriple, trace: list | None = None) -> RhtTriple | None:
    """Apply the rim-hook involution; None marks the n! diagonal fixed points.

    Strips hooks and rightmost cycles to the first survivor, swaps the
    survivor shape through the abacus pairing, transports the pinned
    survivor with choice sequences, and restores everything renumbered.
    """
    cycles = triple.sigma.canonical_cycles()
    image = _rht_step(*triple._chains, cycles, _Memo(), trace)
    if image is None:
        return None
    s, t, cycles_out = image
    return RhtTriple(filling_of(s), filling_of(t), Permutation.from_cycles(list(cycles_out)))


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


def _kostka_pair_set(lam: Partition, mu: Partition, memo: _Memo) -> list[tuple[Chain, Chain]]:
    """The pair set of (lam, mu) as chain pairs: each special rim-hook
    tableau T of shape mu with every semistandard tableau of shape lam and
    T's content, as enumerate_ssyt lists it, turned into its chain.  memo
    goes unused: a content has at most one T, so each S occurs once."""
    return [
        (chain_of(s), t)
        for t in _srht_chains(mu)
        for s in enumerate_ssyt(lam, _content(t))
    ]


@lru_cache(maxsize=None)
def _cycles_by_content(n: int) -> tuple[tuple[Composition, tuple[Cycles, ...]], ...]:
    """The permutations of 1..n as canonical cycle tuples, grouped by cycle
    composition in order of first appearance.  Tuples only: what the cache
    holds cannot be changed by any caller."""
    ground = range(1, n + 1)
    by_content: dict[Composition, list[Cycles]] = {}
    for images in _itertools_permutations(ground):
        cycles = canonical_cycles(dict(zip(ground, images)))
        by_content.setdefault(tuple(map(len, cycles)), []).append(cycles)
    return tuple((beta, tuple(group)) for beta, group in by_content.items())


def _rht_triple_set(
    lam: Partition, mu: Partition, memo: _Memo
) -> list[tuple[Chain, Chain, Cycles]]:
    """The triple set of (lam, mu) as (s, t, cycles): the rim-hook tableaux
    of both shapes, walked once per content through memo, with every
    permutation of that cycle composition."""
    out = []
    for beta, group in _cycles_by_content(sum(lam)):
        left = memo(walk_chains, hook_successors, lam, beta)
        right = left and memo(walk_chains, hook_successors, mu, beta)
        out += [(s, t, cycles) for s in left for t in right for cycles in group]
    return out


def verify_pairing(app: str, lam: Partition, mu: Partition) -> PairingReport:
    """Run the involution over the whole pair set for (lam, mu) and audit it:
    map o map = id, sign reversal off fixed points, shape preservation, and
    the fixed-point census matching the matrix identity.

    The audit works on chains and canonical cycle tuples and builds no
    Filling or Permutation of its own.  The pair set is a list of plain
    tuples; each object is put through the chain-level checker, which
    raises what the constructor would and gives the sign, and mapped once
    through the chain-level step.  An image is looked up among those
    results, which gives its checked sign and its image for map o map = id;
    an image outside the pair set (a map that moves a shape) is checked and
    mapped directly.  One memo made for this call serves the whole pair
    set, so each distinct local pairing, tableau check and transport is
    worked once per call; nothing of it outlives the call, so a pairing
    patched between two calls is seen by the second."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if app == "kostka":
        build, check, step = _kostka_pair_set, _check_kostka, _kostka_step
    elif app == "rimhook":
        build, check, step = _rht_triple_set, _check_rht, _rht_step
    else:
        raise ValueError("unknown application %r" % app)
    require_partition(lam, mu)
    memo = _Memo()
    objects = build(lam, mu, memo)
    results = [(check(*obj, memo), step(*obj, memo, None)) for obj in objects]
    lookup = dict(zip(objects, results))
    fixed = 0
    signed_total = 0
    involution_ok = True
    sign_ok = True
    shape_ok = True
    for obj, (sign, image) in zip(objects, results):
        signed_total += sign
        if image is None:
            fixed += 1
            if sign != 1:
                sign_ok = False
            continue
        try:
            image_sign, back = lookup[image]
        except KeyError:
            image_sign, back = check(*image, memo), step(*image, memo, None)
        if image_sign != -sign:
            sign_ok = False
        if image[0][-1] != obj[0][-1] or image[1][-1] != obj[1][-1]:
            shape_ok = False
        if back != obj:
            involution_ok = False
    return PairingReport(
        app,
        lam,
        mu,
        len(objects),
        fixed,
        signed_total,
        involution_ok,
        sign_ok,
        shape_ok,
    )
