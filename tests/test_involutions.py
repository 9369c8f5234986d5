import hashlib
import json
import re
from dataclasses import astuple, fields
from itertools import permutations as all_permutations, product
from math import factorial

import pytest

from combinv.core import (
    Filling,
    chain_content,
    chain_of,
    compositions,
    filling_of,
    partitions,
    walk_chains,
)
from combinv.framework import local_terms
from combinv.involutions import (
    KostkaPair,
    RhtTriple,
    _Memo,
    _check_kostka,
    _check_rht,
    _kostka_pair_set,
    _kostka_step,
    _rht_step,
    _rht_triple_set,
    _srht_chains,
    f_lambda,
    f_lambda_inv,
    f_mu_rho,
    f_mu_rho_inv,
    kostka_involution,
    kostka_survivor,
    rht_involution,
    verify_pairing,
)
from combinv.kostka import kostka_pair, kostka_system
from combinv.rimhook import (
    Permutation,
    cyc_comp,
    enumerate_rht,
    hook_successors,
    rimhook_pair,
    rimhook_system,
)
from goldens import AUDIT_REPORT_SHA256, INVOLUTION_IMAGE_SHA256
from oracles import (
    cells_of,
    diagram,
    kostka_pairs_by_composition,
    rht_triples_by_permutation,
)

# per app: the chain-level pair-set builder, checker and step, and the
# public involution
APPS = {
    "kostka": (_kostka_pair_set, _check_kostka, _kostka_step, kostka_involution),
    "rimhook": (_rht_triple_set, _check_rht, _rht_step, rht_involution),
}
STEP_NAMES = {"kostka": "_kostka_step", "rimhook": "_rht_step"}
PAIRING_NAMES = {"kostka": "kostka_pair", "rimhook": "rimhook_pair"}


def all_choice_sequences(n):
    return product(*[range(1, k + 1) for k in range(n, 0, -1)])


def wrap(obj):
    """The public pair or triple of a chain-level object: its chains as
    Fillings and, for a triple, its cycles as a Permutation."""
    values = [filling_of(obj[0]), filling_of(obj[1])]
    if len(obj) == 3:
        values.append(Permutation.from_cycles(list(obj[2])))
    kind = KostkaPair if len(obj) == 2 else RhtTriple
    return kind(*values)


def public_pair_set(app, lam, mu):
    """The pair set of (lam, mu) as public objects, in the order the audit
    lists it."""
    return [wrap(obj) for obj in APPS[app][0](lam, mu, _Memo())]


def verdict(check, *args):
    """The ValueError message a check raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestKostkaSurvivor:
    def test_displayed_survivor(self):
        pair = kostka_survivor((5, 3, 3, 2))
        expected = Filling(((1,) * 5, (2,) * 3, (3,) * 3, (4,) * 2))
        assert pair.s == expected and pair.t == expected
        assert pair.sign == 1

    @pytest.mark.parametrize("lam", [(1, 2), (2, 0)])
    def test_non_partition_shape(self, lam):
        with pytest.raises(ValueError, match="is not a partition"):
            kostka_survivor(lam)

    def test_small_cases(self):
        assert kostka_survivor(()).s == Filling(())
        assert kostka_survivor((2, 2)).s == Filling(((1, 1), (2, 2)))

    def test_survivor_is_fixed(self):
        for n in range(1, 6):
            for lam in partitions(n):
                assert kostka_involution(kostka_survivor(lam)) is None


class TestKostkaInvolution:
    def test_first_golden_map(self):
        pair = KostkaPair(
            Filling(((1, 1, 3), (2, 2, 4), (4, 4))),
            Filling(((1, 1), (2, 2), (3, 4), (4, 4))),
        )
        image = kostka_involution(pair)
        assert image.s == Filling(((1, 1, 2), (2, 2, 3), (3, 3)))
        assert image.t == Filling(((1, 1), (2, 2), (2, 3), (3, 3)))
        assert image.s.content() == (2, 3, 3)
        assert kostka_involution(image) == pair

    def test_second_golden_map(self):
        pair = KostkaPair(
            Filling(((1, 1, 1, 1, 1, 4, 4), (2, 2, 2, 4, 4, 6, 6), (3, 3, 3, 5), (4, 4, 6))),
            Filling(((1, 1, 1, 1, 1), (2, 2, 2, 4), (3, 3, 3, 4), (4, 4, 4, 4), (5, 6), (6, 6))),
        )
        image = kostka_involution(pair)
        assert image.s == Filling(
            ((1, 1, 1, 1, 1, 4, 4), (2, 2, 2, 2, 4, 6, 6), (3, 3, 3, 5), (4, 4, 6))
        )
        assert image.t == Filling(
            ((1, 1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 4), (4, 4, 4, 4), (5, 6), (6, 6))
        )
        assert image.s.content() == (5, 4, 3, 5, 1, 3)
        assert kostka_involution(image) == pair

    def test_third_golden_map(self):
        pair = KostkaPair(
            Filling(((1, 1, 1, 1, 1, 3, 4), (2, 2, 2, 3, 3, 6, 6), (3, 3, 4, 5), (4, 4, 6))),
            Filling(((1, 1, 1, 1, 1), (2, 2, 2, 3), (3, 3, 3, 3), (4, 4, 4, 4), (5, 6), (6, 6))),
        )
        image = kostka_involution(pair)
        assert image.s == Filling(
            ((1, 1, 1, 1, 1, 3, 4), (2, 2, 2, 2, 3, 6, 6), (3, 3, 4, 5), (4, 4, 6))
        )
        assert image.t == Filling(
            ((1, 1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (5, 6), (6, 6))
        )
        assert image.s.content() == (5, 4, 4, 4, 1, 3)

    def test_trace_is_json_ready(self):
        pair = KostkaPair(
            Filling(((1, 1, 3), (2, 2, 4), (4, 4))),
            Filling(((1, 1), (2, 2), (3, 4), (4, 4))),
        )
        trace = []
        kostka_involution(pair, trace)
        actions = [step["action"] for step in trace]
        assert actions[0] == "strip"
        assert "local_pair" in actions
        json.dumps(trace)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            KostkaPair(Filling(((1, 2),)), Filling(((1, 1),)))

    @pytest.mark.parametrize(
        "s, t, message",
        [
            (((1,), (2, 3)), ((1,), (2,), (3,)), "first component is not semistandard"),
            (
                ((1, 1, 2, 2, 2),),
                ((1, 1), (2, 2, 2)),
                "second component is not a special rim-hook tableau",
            ),
        ],
    )
    def test_non_partition_component_rejected(self, s, t, message):
        with pytest.raises(ValueError, match=message):
            KostkaPair(Filling(s), Filling(t))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exhaustive_audit(self, n):
        for lam in partitions(n):
            for mu in partitions(n):
                report = verify_pairing("kostka", lam, mu)
                assert report.passed, report


class TestChoiceSequences:
    def test_golden_inverse(self):
        s = Filling(((1, 1, 3, 4, 4), (1, 3, 3, 4), (2, 3, 4, 4), (2, 5, 5), (2, 5)))
        sigma = Permutation.from_cycles(
            [(9, 16, 14), (7, 13, 15), (6, 11, 18, 12), (2, 17, 3, 10, 8), (1, 4, 5)]
        )
        seq = f_lambda_inv(s, sigma)
        assert seq == (15, 3, 3, 3, 13, 1, 5, 3, 2, 3, 8, 3, 4, 2, 3, 1, 2, 1)
        rebuilt, sigma_back = f_lambda((5, 4, 4, 3, 2), seq)
        assert rebuilt == s and sigma_back == sigma
        rho = cells_of(s, 5)
        assert f_mu_rho_inv(s, sigma) == seq[1:]
        gamma = (5, 4, 4, 1, 1)  # the shape rho leaves
        assert diagram((5, 4, 4, 3, 2)) - diagram(gamma) == rho
        pinned, sigma_pinned = f_mu_rho((5, 4, 4, 3, 2), gamma, seq[1:])
        assert pinned == s and sigma_pinned == sigma

    def test_single_cell(self):
        filling, sigma = f_lambda((1,), (1,))
        assert filling == Filling(((1,),))
        assert cyc_comp(sigma) == (1,)

    @pytest.mark.parametrize("lam", [(2, 1, 1), (4,), (2, 2), (3, 1)])
    def test_round_trip_all_sequences(self, lam):
        n = sum(lam)
        images = set()
        for seq in all_choice_sequences(n):
            filling, sigma = f_lambda(lam, seq)
            assert filling.content() == cyc_comp(sigma)
            assert f_lambda_inv(filling, sigma) == seq
            images.add((filling, sigma))
        assert len(images) == factorial(n)

    def test_survivor_census_by_enumeration(self):
        # direct count of (tableau, permutation) pairs with matching content
        for n in range(1, 6):
            perms_by_content = {}
            for perm in all_permutations(range(1, n + 1)):
                sigma = Permutation(dict(zip(range(1, n + 1), perm)))
                key = cyc_comp(sigma)
                perms_by_content[key] = perms_by_content.get(key, 0) + 1
            for lam in partitions(n):
                total = sum(
                    len(enumerate_rht(lam, beta)) * perms_by_content.get(beta, 0)
                    for beta in compositions(n)
                )
                assert total == factorial(n)

    def test_bounds_violations(self):
        with pytest.raises(ValueError):
            f_lambda((2, 1), (4, 1, 1))
        with pytest.raises(ValueError):
            f_lambda((2, 1), (1, 1))
        with pytest.raises(ValueError):
            f_lambda((2, 1), (1, 1, 1), ground=(1, 2))

    @pytest.mark.parametrize("lam", [(1, 2), (2, 0, 1)])
    def test_non_partition_shape(self, lam):
        with pytest.raises(ValueError, match="is not a partition"):
            f_lambda(lam, (1, 1, 1))

    @pytest.mark.parametrize(
        "mu, gamma", [((1, 2), (1,)), ((2, 0, 1), (2,)), ((3, 1), (1, 2))]
    )
    def test_pinned_non_partition_shape(self, mu, gamma):
        with pytest.raises(ValueError, match="is not a partition"):
            f_mu_rho(mu, gamma, (1, 1))

    def test_pinned_single_cell(self):
        filling, sigma = f_mu_rho((1,), (), ())
        assert filling == Filling(((1,),))

    def test_pinned_transport_is_bijection(self):
        # moving a survivor between two pinned hooks hits every target once
        from combinv.rimhook import hook_removals

        for lam in [(3, 1), (2, 2, 1)]:
            n = sum(lam)
            removals = hook_removals(lam)
            source = removals[0][0]
            for target in (gamma for gamma, _, _ in removals[1:]):
                cells = diagram(lam) - diagram(target)
                seen = set()
                for seq in product(*[range(1, k + 1) for k in range(n - 1, 0, -1)]):
                    filling, sigma = f_mu_rho(lam, source, seq)
                    moved = f_mu_rho(lam, target, f_mu_rho_inv(filling, sigma))
                    assert cells_of(moved[0], moved[0].max_label()) == cells
                    seen.add(moved)
                assert len(seen) == factorial(n - 1)


class TestRhtInvolution:
    def test_worked_example(self):
        triple = RhtTriple(
            Filling(((1, 1, 3, 3), (1, 2, 3), (2, 2), (2,))),
            Filling(((1, 1, 2, 2), (1, 2, 2), (3, 3, 3))),
            Permutation.from_cycles([(5, 8, 6), (2, 10, 9, 4), (1, 3, 7)]),
        )
        assert triple.sign == 1
        image = rht_involution(triple)
        assert image.s == Filling(((1, 2, 4, 4), (2, 2, 4), (3, 3), (3,)))
        assert image.t == Filling(((1, 2, 3, 3), (2, 2, 3), (4, 4, 4)))
        assert image.sigma == Permutation.from_cycles(
            [(6,), (4, 5, 8), (2, 10, 9), (1, 3, 7)]
        )
        assert image.sigma.canonical_cycles() == (
            (6,),
            (4, 5, 8),
            (2, 10, 9),
            (1, 3, 7),
        )
        assert image.sign == -1
        assert rht_involution(image) == triple

    def test_survivors_are_fixed(self):
        for seq in all_choice_sequences(4):
            filling, sigma = f_lambda((2, 1, 1), seq)
            assert rht_involution(RhtTriple(filling, filling, sigma)) is None

    def test_trace_records_transport(self):
        triple = RhtTriple(
            Filling(((1, 1, 3, 3), (1, 2, 3), (2, 2), (2,))),
            Filling(((1, 1, 2, 2), (1, 2, 2), (3, 3, 3))),
            Permutation.from_cycles([(5, 8, 6), (2, 10, 9, 4), (1, 3, 7)]),
        )
        trace = []
        rht_involution(triple, trace)
        actions = [step["action"] for step in trace]
        assert "f_transport" in actions and "local_pair" in actions
        json.dumps(trace)

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            RhtTriple(
                Filling(((1, 1),)),
                Filling(((1, 1),)),
                Permutation.identity((1, 2)),
            )

    @pytest.mark.parametrize("n", range(1, 5))
    def test_exhaustive_audit(self, n):
        for lam in partitions(n):
            for mu in partitions(n):
                report = verify_pairing("rimhook", lam, mu)
                assert report.passed, report

    @pytest.mark.parametrize("app, n", [("kostka", 5), ("rimhook", 4)])
    def test_images_match_the_public_constructor(self, app, n):
        # an image built from chains equals the one its JSON rebuilds
        apply_map = APPS[app][3]
        for lam in partitions(n):
            for mu in partitions(n):
                for obj in public_pair_set(app, lam, mu):
                    image = apply_map(obj)
                    if image is not None:
                        rebuilt = type(image).from_json(image.to_json())
                        assert rebuilt == image and rebuilt.sign == image.sign
                        assert image._chains == (chain_of(image.s), chain_of(image.t))

    def test_audit_flags_a_map_that_moves_t(self, monkeypatch):
        from combinv import involutions

        # the step replaces T by a rim-hook tableau of shape (3,) and the
        # same content: an image the checker passes, outside the pair set
        def move_t(s, t, cycles, memo, trace):
            t_moved, *_ = walk_chains(hook_successors, (3,), chain_content(t))
            return s, t_moved, cycles

        monkeypatch.setattr(involutions, "_rht_step", move_t)
        report = verify_pairing("rimhook", (2, 1), (2, 1))
        assert report.size > 0 and not report.shape_preserved_ok
        assert not report.involution_ok

    def test_fixed_point_census_small(self):
        report = verify_pairing("rimhook", (2, 1), (2, 1))
        assert report.fixed_points == 6
        assert report.signed_total == 6
        cross = verify_pairing("kostka", (4,), (1, 1, 1, 1))
        assert cross.fixed_points == 0 and cross.signed_total == 0


class TestAuditMemo:
    @pytest.mark.parametrize(
        "app, lam, mu, size",
        [("kostka", (3, 2), (1,) * 5, 28), ("rimhook", (3, 1, 1), (3, 1, 1), 280)],
    )
    def test_audit_builds_no_filling(self, monkeypatch, app, lam, mu, size):
        # both audits walk chains and meet no Filling: neither converts
        # between a chain and a Filling, wherever core, kostka and
        # involutions bind the conversions.  The pair-set builder and the
        # step ask every tableau check and local pairing through the one
        # memo the audit's objects and images share, so each distinct one
        # runs once
        from combinv import core, involutions, kostka

        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls.setdefault(name, []).append(args)
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        for module in (core, kostka, involutions):
            for name in ("chain_of", "filling_of"):
                if hasattr(module, name):
                    count(module, name)
        for name in ("is_ssyt", "is_srht", "is_rht", "kostka_pair", "rimhook_pair"):
            count(involutions, name)
        report = verify_pairing(app, lam, mu)
        assert report.passed and report.size == size
        assert all(len(args) == len(set(args)) for args in calls.values())
        assert not calls.get("chain_of") and not calls.get("filling_of")
        checks = ("is_ssyt", "is_srht") if app == "kostka" else ("is_rht",)
        assert all(calls.get(name) for name in checks + (PAIRING_NAMES[app],))

    @pytest.mark.parametrize(
        "app, lam, mu, target",
        [
            ("kostka", (3, 1), (2, 1, 1), ((3,), (2, 1))),
            ("rimhook", (2, 1), (2, 1), ((2,), (1, 1))),
        ],
    )
    def test_each_audit_sees_the_live_pairing(self, monkeypatch, app, lam, mu, target):
        from combinv import involutions

        # while broken, the pairing sends every shape at target to itself, so
        # those images keep their sign; nothing one audit memoizes may reach
        # the next, as the pairing is one function whose answers change
        name = PAIRING_NAMES[app]
        original = getattr(involutions, name)
        live = {"broken": True}

        class Stuck:
            def partner_of(self, gamma):
                return gamma

        def pairing(lam_bar, mu_bar):
            if live["broken"] and (lam_bar, mu_bar) == target:
                return Stuck()
            return original(lam_bar, mu_bar)

        monkeypatch.setattr(involutions, name, pairing)
        for broken in (True, False, True):
            live["broken"] = broken
            report = verify_pairing(app, lam, mu)
            assert report.passed != broken, report


def fields_of(obj):
    """The public fields of a pair or triple, in constructor order."""
    return (obj.s, obj.t) + ((obj.sigma,) if isinstance(obj, RhtTriple) else ())


def some_objects():
    # the kostka survivor of (2, 1), and a triple whose S and T of shape
    # (1, 1) and (2,) hold one 2-hook each, with sigma a 2-cycle
    triple = RhtTriple(
        Filling(((1,), (1,))), Filling(((1, 1),)), Permutation.from_cycles([(1, 2)])
    )
    return kostka_survivor((2, 1)), triple


class TestConstruction:
    @pytest.mark.parametrize("app, top", [("kostka", 5), ("rimhook", 4)])
    def test_golden_image_digest(self, app, top):
        # every object of every pair set and its image, as the involutions
        # gave them when images were built around the constructor; the
        # audit's chain-level pair set lists them in the same order
        apply_map = APPS[app][3]
        lines = []
        for n in range(top + 1):
            for lam in partitions(n):
                for mu in partitions(n):
                    for obj in public_pair_set(app, lam, mu):
                        image = apply_map(obj)
                        image = None if image is None else image.to_json()
                        lines.append(json.dumps([obj.to_json(), image]))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == INVOLUTION_IMAGE_SHA256[app]

    @pytest.mark.parametrize("app, n", [("kostka", 4), ("rimhook", 3)])
    def test_each_local_pairing_is_asked_once_per_pair_set(self, monkeypatch, app, n):
        # the step works in the memo it is handed, so mapping a pair set
        # and every image back through the audit's memo asks each local
        # pairing once
        from combinv import involutions

        build, _, step, _ = APPS[app]
        name = PAIRING_NAMES[app]
        original = getattr(involutions, name)
        calls = []

        def counting(lam_bar, mu_bar):
            calls.append((lam_bar, mu_bar))
            return original(lam_bar, mu_bar)

        monkeypatch.setattr(involutions, name, counting)
        moved = 0
        for lam in partitions(n):
            for mu in partitions(n):
                memo = _Memo()
                calls.clear()
                for obj in build(lam, mu, memo):
                    image = step(*obj, memo, None)
                    if image is not None:
                        moved += 1
                        assert step(*image, memo, None) == obj
                assert len(calls) == len(set(calls))
        assert moved > 0

    def test_fields_are_the_public_values(self):
        # a pair or triple is its Fillings and Permutation, and no state
        assert [f.name for f in fields(KostkaPair)] == ["s", "t"]
        assert [f.name for f in fields(RhtTriple)] == ["s", "t", "sigma"]

    def test_equal_objects_built_apart_are_equal_values(self):
        for obj in some_objects():
            for other in (type(obj)(*fields_of(obj)), type(obj).from_json(obj.to_json())):
                assert other is not obj
                assert other == obj and hash(other) == hash(obj)
                assert other._chains == obj._chains

    def test_repr(self):
        # the printed form holds the public fields only
        assert repr(kostka_survivor((2, 1))) == (
            "KostkaPair(s=Filling(((1, 1), (2,))), t=Filling(((1, 1), (2,))))"
        )
        assert repr(public_pair_set("rimhook", (2,), (1, 1))[0]) == (
            "RhtTriple(s=Filling(((1, 2),)), t=Filling(((1,), (2,))), sigma=(2)(1))"
        )

    def test_no_argument_beyond_the_fields(self):
        for obj in some_objects():
            with pytest.raises(TypeError, match="positional"):
                type(obj)(*fields_of(obj), _Memo())


class TestAuditOnePass:
    @pytest.mark.parametrize("app, top", [("kostka", 7), ("rimhook", 5)])
    def test_golden_digest(self, app, top):
        # every report field, for every shape pair, as the audit gave it
        # when it mapped each object twice and scanned every composition
        lines = [
            json.dumps(astuple(verify_pairing(app, lam, mu)))
            for n in range(top + 1)
            for lam in partitions(n)
            for mu in partitions(n)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == AUDIT_REPORT_SHA256[app]

    @pytest.mark.parametrize("app", ["kostka", "rimhook"])
    @pytest.mark.parametrize(
        "lam, mu, bad", [((1, 2), (3,), (1, 2)), ((3,), (1, 2), (1, 2)),
                         ((2, 0), (2,), (2, 0)), ((2,), (2, 0), (2, 0))]
    )
    def test_non_partition_shape(self, app, lam, mu, bad):
        with pytest.raises(ValueError, match=re.escape("%s is not a partition" % (bad,))):
            verify_pairing(app, lam, mu)

    @pytest.mark.parametrize("app", ["kostka", "rimhook"])
    @pytest.mark.parametrize("lam", [(), (1,)])
    def test_smallest_shapes(self, app, lam):
        report = verify_pairing(app, lam, lam)
        assert report.size == 1 and report.passed

    @pytest.mark.parametrize("app, n", [("kostka", 5), ("rimhook", 4)])
    def test_each_object_is_mapped_once(self, monkeypatch, app, n):
        from combinv import involutions

        name = STEP_NAMES[app]
        original = getattr(involutions, name)
        calls = []

        def counting(*args):
            calls.append(args[:-2])
            return original(*args)

        monkeypatch.setattr(involutions, name, counting)
        for lam in partitions(n):
            for mu in partitions(n):
                calls.clear()
                report = verify_pairing(app, lam, mu)
                assert report.passed and len(calls) == report.size

    @pytest.mark.parametrize(
        "app, lam, mu", [("kostka", (3, 1), (1, 1, 1, 1)), ("rimhook", (2, 1), (1, 1, 1))]
    )
    def test_audit_flags_a_three_cycle(self, monkeypatch, app, lam, mu):
        from combinv import involutions

        # each object goes to the next of its group of three; a map that is
        # looked up once per object must still see that the image of the
        # image is not the object
        objects = APPS[app][0](lam, mu, _Memo())
        assert len(objects) % 3 == 0
        nxt = {}
        for k in range(0, len(objects), 3):
            a, b, c = objects[k : k + 3]
            nxt.update({a: b, b: c, c: a})
        monkeypatch.setattr(involutions, STEP_NAMES[app], lambda *args: nxt[args[:-2]])
        report = verify_pairing(app, lam, mu)
        assert report.size == len(objects) and not report.involution_ok

    @pytest.mark.parametrize("n", range(8))
    def test_srht_walk_matches_the_composition_scan(self, n):
        for mu in partitions(n):
            contents = [
                tuple(sum(b) - sum(a) for a, b in zip(chain, chain[1:]))
                for chain in _srht_chains(mu)
            ]
            assert len(contents) == len(set(contents))
            for lam in partitions(n):
                pairs = public_pair_set("kostka", lam, mu)
                assert len(pairs) == len(set(pairs))
                assert set(pairs) == set(kostka_pairs_by_composition(lam, mu))


# Bad images a step could give, in chain form: (app, s, t, cycles, the
# checker's ValueError, the constructor's on the wrapped form).
PLANTED = [
    # a vertical domino is no horizontal strip
    ("kostka", ((), (1, 1)), ((), (1, 1)), None,
     "first component is not semistandard", "first component is not semistandard"),
    # removing (1, 2) from (2,) leaves the last row: no special rim hook
    ("kostka", ((), (1,), (2,)), ((), (1,), (2,)), None,
     "second component is not a special rim-hook tableau",
     "second component is not a special rim-hook tableau"),
    ("kostka", ((), (2,)), ((), (1,), (1, 1)), None,
     "contents disagree", "contents disagree"),
    # a 2 x 2 square is no rim hook
    ("rimhook", ((), (2, 2)), ((), (4,)), ((1, 2, 3, 4),),
     "first component is not a rim-hook tableau", "first component is not a rim-hook tableau"),
    ("rimhook", ((), (4,)), ((), (2, 2)), ((1, 2, 3, 4),),
     "second component is not a rim-hook tableau", "second component is not a rim-hook tableau"),
    # cycle lengths (1, 1) against the content (2,)
    ("rimhook", ((), (2,)), ((), (2,)), ((2,), (1,)),
     "contents and cycle composition must all agree",
     "contents and cycle composition must all agree"),
    # a permutation of {1, 3}, not of 1..2
    ("rimhook", ((), (1,), (2,)), ((), (1,), (2,)), ((3,), (1,)),
     "sigma is not a permutation of 1..n in canonical cycles",
     "sigma is not a permutation of 1..n in canonical cycles"),
    # 2 twice: no permutation at all
    ("rimhook", ((), (1,), (2,)), ((), (1,), (2,)), ((2,), (2,)),
     "sigma is not a permutation of 1..n in canonical cycles", "cycles are not disjoint"),
    # minima increasing: in canonical order the lengths read (2, 1)
    ("rimhook", ((), (1,), (3,)), ((), (1,), (3,)), ((1,), (2, 3)),
     "sigma is not a permutation of 1..n in canonical cycles",
     "contents and cycle composition must all agree"),
]


class TestChainLevel:
    @pytest.mark.parametrize("app", ["kostka", "rimhook"])
    def test_list_shapes(self, app):
        # shapes are made tuples before any chain is built from them: a list
        # inside a chain would be unhashable in the audit's memo
        report = verify_pairing(app, [2, 1], [2, 1])
        assert report.passed and (report.lam, report.mu) == ((2, 1), (2, 1))
        assert astuple(report) == astuple(verify_pairing(app, (2, 1), (2, 1)))

    @pytest.mark.parametrize("app, top", [("kostka", 6), ("rimhook", 5)])
    def test_step_matches_the_public_map(self, app, top):
        build, _, step, apply_map = APPS[app]
        for n in range(top + 1):
            for lam in partitions(n):
                for mu in partitions(n):
                    memo = _Memo()
                    for obj in build(lam, mu, memo):
                        image = step(*obj, memo, None)
                        public = apply_map(wrap(obj))
                        if image is None:
                            assert public is None
                        else:
                            assert public == wrap(image)

    @pytest.mark.parametrize("app, s, t, cycles, message, constructor", PLANTED)
    def test_checker_gives_the_constructor_verdict(self, app, s, t, cycles, message, constructor):
        check = APPS[app][1]
        obj = (s, t) if cycles is None else (s, t, cycles)
        assert verdict(check, *obj, _Memo()) == message
        assert verdict(wrap, obj) == constructor

    def test_rimhook_audit_builds_no_filling_or_permutation(self, monkeypatch):
        built = []
        for cls in (Filling, Permutation):

            def counting(self, *args, _original=cls.__init__):
                built.append(type(self))
                _original(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        report = verify_pairing("rimhook", (3, 1, 1), (3, 1, 1))
        assert report.passed and report.size == 280 and built == []
        Permutation.from_cycles([(1,)])
        assert built == [Permutation]

    @pytest.mark.parametrize("n", range(5))
    def test_triple_set_matches_the_permutation_scan(self, n):
        for lam in partitions(n):
            for mu in partitions(n):
                triples = public_pair_set("rimhook", lam, mu)
                assert len(triples) == len(set(triples))
                assert set(triples) == set(rht_triples_by_permutation(lam, mu))


class TestHookLookups:
    @staticmethod
    def audit_n5():
        shapes = partitions(5)
        reports = [verify_pairing("rimhook", lam, mu) for lam in shapes for mu in shapes]
        assert all(r.passed for r in reports) and sum(r.size for r in reports) == 7640

    def test_each_border_hook_is_built_once(self, monkeypatch):
        # the audit fills one numbered hook table per shape and looks every
        # hook up there: no transport, check or walk builds a hook again
        from combinv import core, involutions, kostka, rimhook

        original = core.border_hook
        calls = []

        def counting(shape, cell):
            calls.append((tuple(shape), cell))
            return original(shape, cell)

        for module in (core, rimhook, kostka, involutions):
            if getattr(module, "border_hook", None) is original:
                monkeypatch.setattr(module, "border_hook", counting)
        rimhook.hook_table.cache_clear()
        hook_successors.cache_clear()
        self.audit_n5()
        assert calls and len(calls) == len(set(calls))

    def test_transport_is_the_public_pinned_map(self, monkeypatch):
        from combinv import involutions

        original = involutions._transport
        seen = []

        def recording(t_head, cycles, gamma):
            image = original(t_head, cycles, gamma)
            seen.append((t_head, cycles, gamma, image))
            return image

        monkeypatch.setattr(involutions, "_transport", recording)
        self.audit_n5()
        assert seen
        for t_head, cycles, gamma, (head, cycles_out) in seen:
            s, sigma = filling_of(t_head), Permutation.from_cycles(list(cycles))
            mu = t_head[-1]
            filling, moved = f_mu_rho(mu, gamma, f_mu_rho_inv(s, sigma), sigma.ground)
            assert filling == filling_of(head) and moved.canonical_cycles() == cycles_out


class TestLocalPairings:
    @pytest.mark.parametrize(
        "system, pair", [(kostka_system, kostka_pair), (rimhook_system, rimhook_pair)]
    )
    def test_members_are_the_local_terms(self, system, pair):
        # the pairing the involutions swap through lists exactly the shared
        # successors of the local identity at (lam, mu), each with the sign
        # of its A.B term (rimhook's B carries 1/|mu|, so signs, not values)
        system = system()
        pairs = 0
        for n in range(1, 11):
            shapes = partitions(n)
            for lam in shapes:
                for mu in shapes:
                    terms = local_terms(system, lam, mu)
                    expected = {(gamma, (w > 0) - (w < 0)) for gamma, w in terms}
                    members = pair(lam, mu).members
                    assert len(members) == len(terms), (lam, mu)
                    assert set(members) == expected, (lam, mu)
                    pairs += 1
        assert pairs == 3582
