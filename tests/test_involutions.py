import hashlib
import json
import re
import sys
from dataclasses import astuple
from itertools import permutations as all_permutations, product
from math import factorial

import pytest

from combinv.core import Filling, chain_of, compositions, partitions
from combinv.involutions import (
    KostkaPair,
    RhtTriple,
    _Memo,
    _all_kostka_pairs,
    _all_rht_triples,
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
from combinv.rimhook import Permutation, cyc_comp, enumerate_rht
from goldens import AUDIT_REPORT_SHA256, INVOLUTION_IMAGE_SHA256
from oracles import cells_of, diagram, kostka_pairs_by_composition


def all_choice_sequences(n):
    return product(*[range(1, k + 1) for k in range(n, 0, -1)])


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
        build, apply_map = {
            "kostka": (_all_kostka_pairs, kostka_involution),
            "rimhook": (_all_rht_triples, rht_involution),
        }[app]
        for lam in partitions(n):
            for mu in partitions(n):
                for obj in build(lam, mu):
                    image = apply_map(obj)
                    if image is not None:
                        rebuilt = type(image).from_json(image.to_json())
                        assert rebuilt == image and rebuilt.sign == image.sign
                        assert image._chains == (chain_of(image.s), chain_of(image.t))

    def test_audit_flags_a_map_that_moves_t(self, monkeypatch):
        from combinv import involutions

        # replace T by a rim-hook tableau of shape (3,) and the same content
        def move_t(triple, trace=None):
            (t, _), *_ = enumerate_rht((3,), triple.t.content())
            return RhtTriple(triple.s, t, triple.sigma)

        monkeypatch.setattr(involutions, "rht_involution", move_t)
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
    def test_chain_of_runs_once_per_distinct_filling(self, monkeypatch, app, lam, mu, size):
        # the enumerators hand the audit Fillings, and the involutions hand
        # the constructor the Fillings of each image; through the memo the
        # audit's objects and images share, each distinct one is turned
        # into its chain once
        calls = []

        def counting(filling):
            calls.append(filling)
            return chain_of(filling)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "combinv":
                if getattr(module, "chain_of", None) is chain_of:
                    monkeypatch.setattr(module, "chain_of", counting)
        report = verify_pairing(app, lam, mu)
        assert report.passed and report.size == size
        assert len(calls) == len(set(calls)) > 0

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
        name = {"kostka": "kostka_pair", "rimhook": "rimhook_pair"}[app]
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


APPS = {
    "kostka": (_all_kostka_pairs, kostka_involution),
    "rimhook": (_all_rht_triples, rht_involution),
}


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
        # gave them when images were built around the constructor
        build, apply_map = APPS[app]
        lines = []
        for n in range(top + 1):
            for lam in partitions(n):
                for mu in partitions(n):
                    for obj in build(lam, mu):
                        image = apply_map(obj)
                        image = None if image is None else image.to_json()
                        lines.append(json.dumps([obj.to_json(), image]))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == INVOLUTION_IMAGE_SHA256[app]

    @pytest.mark.parametrize("app, n", [("kostka", 4), ("rimhook", 3)])
    def test_image_carries_its_input_memo(self, app, n):
        build, apply_map = APPS[app]
        moved = 0
        for lam in partitions(n):
            for mu in partitions(n):
                objects = build(lam, mu)
                assert all(obj._memo is objects[0]._memo for obj in objects)
                for obj in objects:
                    image = apply_map(obj)
                    if image is not None:
                        moved += 1
                        assert image._memo is obj._memo
        assert moved > 0

    def test_constructor_and_from_json_start_a_fresh_memo(self):
        for obj in some_objects():
            again = type(obj)(*fields_of(obj))
            rebuilt = type(obj).from_json(obj.to_json())
            assert isinstance(obj._memo, _Memo)
            assert len({id(obj._memo), id(again._memo), id(rebuilt._memo)}) == 3

    def test_memo_is_outside_equality_and_hashing(self):
        for obj in some_objects():
            other = type(obj)(*fields_of(obj), _memo=_Memo())
            assert other._memo is not obj._memo
            assert other == obj and hash(other) == hash(obj)
            assert other._chains == obj._chains

    def test_repr(self):
        # the memo is no part of the printed form
        assert repr(kostka_survivor((2, 1))) == (
            "KostkaPair(s=Filling(((1, 1), (2,))), t=Filling(((1, 1), (2,))))"
        )
        assert repr(_all_rht_triples((2,), (1, 1))[0]) == (
            "RhtTriple(s=Filling(((1, 2),)), t=Filling(((1,), (2,))), sigma=(2)(1))"
        )

    def test_memo_is_keyword_only(self):
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

        name = {"kostka": "kostka_involution", "rimhook": "rht_involution"}[app]
        original = getattr(involutions, name)
        calls = []

        def counting(obj, trace=None):
            calls.append(obj)
            return original(obj, trace)

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
        build = {"kostka": _all_kostka_pairs, "rimhook": _all_rht_triples}[app]
        objects = build(lam, mu)
        assert len(objects) % 3 == 0
        nxt = {}
        for k in range(0, len(objects), 3):
            a, b, c = objects[k : k + 3]
            nxt.update({a: b, b: c, c: a})
        name = {"kostka": "kostka_involution", "rimhook": "rht_involution"}[app]
        monkeypatch.setattr(involutions, name, lambda obj, trace=None: nxt[obj])
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
                pairs = _all_kostka_pairs(lam, mu)
                assert len(pairs) == len(set(pairs))
                assert set(pairs) == set(kostka_pairs_by_composition(lam, mu))
