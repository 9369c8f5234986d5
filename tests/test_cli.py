import hashlib
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import goldens
from combinv import cli
from combinv.core import Filling, compositions
from combinv.framework import IndexedMatrix


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out)
    return code, out.getvalue()


# stdout of `combinv involute --trace` on the kostka first golden map and the
# rim-hook worked example of test_involutions.py
KOSTKA_TRACE_GOLDEN = (
    '{"fixed": false, "S": {"shape": [3, 3, 2], "rows": [[1, 1, 2], [2, 2, 3], '
    '[3, 3]]}, "T": {"shape": [2, 2, 2, 2], "rows": [[1, 1], [2, 2], [2, 3], '
    '[3, 3]]}, "trace": [{"action": "strip", "before": {"label": 4}, "after": '
    '{"S": {"shape": [3, 2], "rows": [[1, 1, 3], [2, 2]]}, "T": {"shape": [2, '
    '2, 1], "rows": [[1, 1], [2, 2], [3]]}}}, {"action": "strip", "before": '
    '{"label": 3}, "after": {"S": {"shape": [2, 2], "rows": [[1, 1], [2, 2]]}, '
    '"T": {"shape": [2, 2], "rows": [[1, 1], [2, 2]]}}}, {"action": '
    '"local_pair", "before": {"gamma": [2, 2], "lam_bar": [3, 2], "mu_bar": '
    '[2, 2, 1]}, "after": {"gamma": [2]}}, {"action": "restore", "before": '
    '{"label": 3}, "after": {"S": {"shape": [3, 3, 2], "rows": [[1, 1, 2], [2, '
    '2, 3], [3, 3]]}, "T": {"shape": [2, 2, 2, 2], "rows": [[1, 1], [2, 2], '
    '[2, 3], [3, 3]]}}}]}'
)
RIMHOOK_TRACE_GOLDEN = (
    '{"fixed": false, "S": {"shape": [4, 3, 2, 1], "rows": [[1, 2, 4, 4], [2, '
    '2, 4], [3, 3], [3]]}, "T": {"shape": [4, 3, 3], "rows": [[1, 2, 3, 3], '
    '[2, 2, 3], [4, 4, 4]]}, "sigma": {"ground": [1, 2, 3, 4, 5, 6, 7, 8, 9, '
    '10], "cycles": [[6], [4, 5, 8], [2, 10, 9], [1, 3, 7]]}, "trace": '
    '[{"action": "strip", "before": {"label": 3}, "after": {"S": {"shape": [2, '
    '2, 2, 1], "rows": [[1, 1], [1, 2], [2, 2], [2]]}, "T": {"shape": [4, 3], '
    '"rows": [[1, 1, 2, 2], [1, 2, 2]]}}}, {"action": "strip", "before": '
    '{"label": 2}, "after": {"S": {"shape": [2, 1], "rows": [[1, 1], [1]]}, '
    '"T": {"shape": [2, 1], "rows": [[1, 1], [1]]}}}, {"action": "local_pair", '
    '"before": {"gamma": [2, 1], "lam_bar": [2, 2, 2, 1], "mu_bar": [4, 3]}, '
    '"after": {"gamma": [2, 2]}}, {"action": "f_transport", "before": {"T": '
    '{"shape": [4, 3], "rows": [[1, 1, 2, 2], [1, 2, 2]]}, "sigma": {"ground": '
    '[2, 4, 5, 6, 8, 9, 10], "cycles": [[5, 8, 6], [2, 10, 9, 4]]}}, "after": '
    '{"T": {"shape": [4, 3], "rows": [[1, 2, 3, 3], [2, 2, 3]]}, "sigma": '
    '{"ground": [2, 4, 5, 6, 8, 9, 10], "cycles": [[6], [4, 5, 8], [2, 10, '
    '9]]}}}, {"action": "restore", "before": {"label": 4}, "after": {"S": '
    '{"shape": [4, 3, 2, 1], "rows": [[1, 2, 4, 4], [2, 2, 4], [3, 3], [3]]}, '
    '"T": {"shape": [4, 3, 3], "rows": [[1, 2, 3, 3], [2, 2, 3], [4, 4, '
    '4]]}}}]}'
)


class TestMatrixCommand:
    def test_kostka_a4_ascii(self):
        code, text = run_cli("matrix", "--app", "kostka", "--n", "4", "--side", "A")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0].split() == ["4", "31", "22", "211", "13", "121", "112", "1111"]
        assert lines[1].split() == ["4", "1", "1", "1", "1", "1", "1", "1", "1"]
        assert lines[2].split() == ["31", "0", "1", "1", "2", "1", "2", "2", "3"]

    def test_n0(self):
        code, text = run_cli("matrix", "--app", "rimhook", "--n", "0")
        assert code == 0
        assert "1" in text

    def test_json_round_trip(self):
        code, text = run_cli(
            "matrix", "--app", "brick", "--n", "3", "--side", "Bsq", "--format", "json"
        )
        assert code == 0
        data = json.loads(text)
        assert data["rows"] == [[3], [2, 1], [1, 1, 1]]

    def test_csv(self):
        code, text = run_cli(
            "matrix", "--app", "refine", "--n", "3", "--format", "csv"
        )
        assert code == 0
        assert text.splitlines()[0] == ",3,21,12,111"

    def test_determinism(self):
        first = run_cli("matrix", "--app", "rimhook", "--n", "5", "--side", "B")
        second = run_cli("matrix", "--app", "rimhook", "--n", "5", "--side", "B")
        assert first == second

    @pytest.mark.parametrize("app", sorted(cli._SYSTEMS))
    def test_golden_digest(self, capsys, app):
        # every side and format with n <= 6, refusals and their messages
        # included, as `matrix` printed them when the square sides were
        # converted from the rectangular tables
        lines = []
        for side in ("A", "B", "Asq", "Bsq"):
            for fmt in ("json", "csv", "ascii"):
                for n in range(-1, 7):
                    argv = ["matrix", "--app", app, "--n", str(n)]
                    argv += ["--side", side, "--format", fmt]
                    code, text = run_cli(*argv)
                    err = capsys.readouterr().err
                    lines += [" ".join(argv), "exit %d" % code, text, err]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == goldens.MATRIX_SHA256[app]

    @pytest.mark.parametrize("app, side", sorted(goldens.MATRIX_JSON_N12_SHA256))
    def test_json_golden_digest_at_max_n(self, app, side):
        argv = ["matrix", "--app", app, "--n", "12", "--side", side, "--format", "json"]
        code, text = run_cli(*argv)
        assert code == 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == goldens.MATRIX_JSON_N12_SHA256[app, side]


# stdout of `combinv verify` on systems with a perturbed B-side weight:
# (app, n, new weight from (mu, old weight), stdout)
PERTURBED_VERIFY_GOLDENS = [
    (
        "kostka", 4, lambda mu, w: abs(w),
        "inversion n=4: FAIL\n"
        "local identities n=4: FAIL (25 pairs)\n"
        "  violation at (4,), (3, 1): 2\n"
        "  violation at (4,), (2, 2): 2\n"
        "  violation at (4,), (2, 1, 1): 2\n"
        "  violation at (4,), (1, 1, 1, 1): 2\n"
        "  violation at (3, 1), (2, 2): 2\n"
        "  violation at (3, 1), (2, 1, 1): 2\n"
        "  violation at (3, 1), (1, 1, 1, 1): 2\n"
        "  violation at (2, 2), (2, 1, 1): 2\n"
        "  violation at (2, 1, 1), (1, 1, 1, 1): 2\n",
    ),
    (
        "rimhook", 4, lambda mu, w: w + Fraction(1, 3) if mu == (2, 1, 1) else w,
        "inversion n=4: FAIL\n"
        "local identities n=4: FAIL (25 pairs)\n"
        "  violation at (4,), (2, 1, 1): 2/3\n"
        "  violation at (2, 2), (2, 1, 1): 2/3\n"
        "  violation at (2, 1, 1), (2, 1, 1): 5/3\n",
    ),
]


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "app", ["kostka", "rimhook", "refine", "refine-weighted", "brick"]
    )
    def test_pass(self, app):
        code, text = run_cli("verify", "--app", app, "--n", "5")
        assert code == 0
        assert "pass" in text

    def test_weighted_n5(self):
        code, _ = run_cli("verify", "--app", "refine-weighted", "--n", "5")
        assert code == 0

    @pytest.mark.parametrize("app, n, change, golden", PERTURBED_VERIFY_GOLDENS)
    def test_perturbed_system_golden(self, monkeypatch, app, n, change, golden):
        factory = cli._SYSTEMS[app]

        def perturbed():
            system = factory()
            weight_b = system.weight_b
            return replace(system, weight_b=lambda mu, d: change(mu, weight_b(mu, d)))

        monkeypatch.setitem(cli._SYSTEMS, app, perturbed)
        assert run_cli("verify", "--app", app, "--n", str(n)) == (1, golden)

    @staticmethod
    def _limit(command, app):
        return cli.MAX_VERIFY_N[app] if command == "verify" else cli.MAX_N

    @pytest.mark.parametrize("command", ["verify", "matrix"])
    @pytest.mark.parametrize("n", [30, cli.MAX_N + 1])
    def test_size_limit(self, monkeypatch, capsys, command, n):
        # every app whose limit n exceeds refuses it before building anything
        def unbuilt():
            raise AssertionError("no system may be built above the size limit")

        for app in list(cli._SYSTEMS):
            monkeypatch.setitem(cli._SYSTEMS, app, unbuilt)
        refused = [app for app in sorted(cli._SYSTEMS) if n > self._limit(command, app)]
        assert "refine" in refused
        assert ("kostka" in refused) == (command == "matrix" or n == 30)
        for app in refused:
            assert run_cli(command, "--app", app, "--n", str(n)) == (2, "")
            assert capsys.readouterr().err == (
                "error: n=%d is above the limit n <= %d\n" % (n, self._limit(command, app))
            )

    @pytest.mark.parametrize("command", ["verify", "matrix"])
    def test_size_limit_admits_max_n(self, monkeypatch, command):
        # the system factory runs, so the limit let each app's bound through,
        # and one more is refused
        def sentinel():
            raise AssertionError("built")

        for app in list(cli._SYSTEMS):
            monkeypatch.setitem(cli._SYSTEMS, app, sentinel)
            limit = self._limit(command, app)
            assert run_cli(command, "--app", app, "--n", str(limit)) == (4, "")
            assert run_cli(command, "--app", app, "--n", str(limit + 1)) == (2, "")

    def test_verify_limits(self):
        # P(n) indexes kostka, rimhook and brick, compositions the other two
        assert cli.MAX_N == 12
        assert cli.MAX_VERIFY_N == {
            "kostka": 18,
            "rimhook": 16,
            "refine": 12,
            "refine-weighted": 12,
            "brick": 18,
        }


# stdout of `combinv local`, one off-diagonal pair per app plus one diagonal
LOCAL_GOLDENS = [
    (
        "kostka", "6,4,2,1", "4,3,3,3",
        '{"G": [{"gamma": [4, 3, 2], "term": "-1"}, '
        '{"gamma": [4, 2, 2], "term": "1"}], "total": "0"}',
    ),
    (
        "rimhook", "5,3,2", "4,4,2",
        '{"G": [{"gamma": [4, 3, 2], "term": "1/10"}, '
        '{"gamma": [3, 3, 2], "term": "-1/10"}], "total": "0"}',
    ),
    (
        "rimhook", "3,1", "3,1",
        '{"G": [{"gamma": [3], "term": "1/4"}, {"gamma": [2, 1], "term": "1/4"}, '
        '{"gamma": [1, 1], "term": "1/4"}, {"gamma": [], "term": "1/4"}], '
        '"total": "1"}',
    ),
    (
        "refine", "4,1,3,2,1,3", "4,1,3,6",
        '{"G": [{"gamma": [4, 1, 3, 2], "term": "-1"}, '
        '{"gamma": [4, 1, 3], "term": "1"}], "total": "0"}',
    ),
    (
        "refine-weighted", "4,1,3,2,1,3", "4,1,3,6",
        '{"G": [{"gamma": [4, 1, 3, 2], "term": "-1/2"}, '
        '{"gamma": [4, 1, 3], "term": "1/2"}], "total": "0"}',
    ),
    (
        "brick", "5,2,2,1", "3,2,2,1,1,1",
        '{"G": [{"gamma": [3, 2, 2, 1], "term": "-1/10"}, '
        '{"gamma": [2, 2, 1, 1], "term": "-2/5"}, '
        '{"gamma": [2, 2, 1], "term": "1/2"}], "total": "0"}',
    ),
]


class TestLocalAndPair:
    @pytest.mark.parametrize("app, lam, mu, expected", LOCAL_GOLDENS)
    def test_local_golden(self, app, lam, mu, expected):
        code, text = run_cli("local", "--app", app, "--lambda", lam, "--mu", mu)
        assert (code, text) == (0, expected + "\n")

    def test_local_brick_example(self):
        code, text = run_cli(
            "local", "--app", "brick", "--lambda", "5,2,2,1", "--mu", "3,2,2,1,1,1"
        )
        assert code == 0
        data = json.loads(text)
        assert data["total"] == "0"
        assert len(data["G"]) == 3

    def test_pair_rimhook(self):
        code, text = run_cli(
            "pair",
            "--app",
            "rimhook",
            "--lambda",
            "9,8,6,6,5,4,4,2",
            "--mu",
            "9,9,9,7,5,3,1,1",
        )
        assert code == 0
        data = json.loads(text)
        assert data["kind"] == "matched"
        assert data["members"][0] == {"gamma": [9, 8, 6, 6, 5, 3, 1, 1], "sign": 1}

    def test_bad_shape_is_usage_error(self):
        code, _ = run_cli("local", "--app", "kostka", "--lambda", "2,x", "--mu", "2,1")
        assert code == 2

    @staticmethod
    def _stub_systems_and_pairings(monkeypatch, message):
        def reached(*args):
            raise AssertionError(message)

        for app in list(cli._SYSTEMS):
            monkeypatch.setitem(cli._SYSTEMS, app, reached)
        monkeypatch.setattr(cli.kostka, "kostka_pair", reached)
        monkeypatch.setattr(cli.rimhook, "rimhook_pair", reached)

    @pytest.mark.parametrize("command, app", [("local", "brick"), ("pair", "rimhook")])
    def test_size_limit(self, monkeypatch, capsys, command, app):
        message = "nothing may run above the size limit"
        self._stub_systems_and_pairings(monkeypatch, message)
        n = cli.MAX_LOCAL_N + 1
        row = str(n)
        argv = [command, "--app", app, "--lambda", row, "--mu", row]
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == (
            "error: n=%d is above the limit n <= %d\n" % (n, n - 1)
        )
        assert cli.MAX_LOCAL_N == 90

    @pytest.mark.parametrize("command, app", [("local", "brick"), ("pair", "rimhook")])
    def test_size_limit_admits_its_bound(self, monkeypatch, command, app):
        # a stub runs, so the limit let n through
        self._stub_systems_and_pairings(monkeypatch, "reached")
        row = str(cli.MAX_LOCAL_N)
        argv = [command, "--app", app, "--lambda", row, "--mu", row]
        assert run_cli(*argv) == (4, "")

    @pytest.mark.parametrize("app", ["kostka", "rimhook"])
    def test_pair_answers_at_the_bound(self, app):
        ones = ",".join(["1"] * cli.MAX_LOCAL_N)
        code, text = run_cli("pair", "--app", app, "--lambda", ones, "--mu", ones)
        assert code == 0
        assert json.loads(text)["kind"] == "diagonal"


class TestEnumerateCommand:
    def test_ssyt_stream(self):
        code, text = run_cli(
            "enumerate", "--kind", "ssyt", "--shape", "4,3", "--content", "2,3,2"
        )
        assert code == 0
        objects = [json.loads(line) for line in text.strip().splitlines()]
        assert len(objects) == 2

    def test_srht_singleton(self):
        code, text = run_cli(
            "enumerate", "--kind", "srht", "--shape", "3,3,3", "--content", "3,2,4"
        )
        assert code == 0
        objects = [json.loads(line) for line in text.strip().splitlines()]
        assert len(objects) == 1 and objects[0]["sign"] == -1

    def test_size_mismatch_usage_error(self):
        code, _ = run_cli(
            "enumerate", "--kind", "rht", "--shape", "3", "--content", "2,2"
        )
        assert code == 2

    @pytest.mark.parametrize("kind", sorted(cli._ENUMERATORS))
    def test_golden_digest(self, kind):
        # every shape and content with n <= 5, error messages included, as
        # the enumerators wrote them before they were built on one chain walk
        shapes = [c for n in range(6) for c in compositions(n)]
        lines = []
        for shape in shapes:
            for content in shapes:
                lines.append("%r %r" % (shape, content))
                try:
                    objects = cli._ENUMERATORS[kind](shape, content)
                except ValueError as exc:
                    lines.append("error: %s" % exc)
                else:
                    lines.extend(json.dumps(obj) for obj in objects)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == goldens.ENUMERATE_SHA256[kind]

    @staticmethod
    def _limit(kind):
        return cli.MAX_N if kind in ("srht", "cbt") else cli.MAX_ENUMERATE_N

    @pytest.mark.parametrize("kind", sorted(cli._ENUMERATORS))
    def test_size_limit(self, monkeypatch, capsys, kind):
        # ssyt, rht and obt list up to n! objects; srht and cbt at most one
        def unlisted(shape, content):
            raise AssertionError("nothing may be enumerated above the size limit")

        monkeypatch.setitem(cli._ENUMERATORS, kind, unlisted)
        n = self._limit(kind) + 1
        ones = ",".join(["1"] * n)
        argv = ["enumerate", "--kind", kind, "--shape", ones, "--content", ones]
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err == (
            "error: n=%d is above the limit n <= %d\n" % (n, n - 1)
        )
        assert cli.MAX_ENUMERATE_N == 8

    @pytest.mark.parametrize("kind", sorted(cli._ENUMERATORS))
    def test_size_limit_admits_its_bound(self, monkeypatch, kind):
        # the enumerator runs, so the limit let n through
        def sentinel(shape, content):
            raise AssertionError("enumerated")

        monkeypatch.setitem(cli._ENUMERATORS, kind, sentinel)
        ones = ",".join(["1"] * self._limit(kind))
        argv = ["enumerate", "--kind", kind, "--shape", ones, "--content", ones]
        assert run_cli(*argv) == (4, "")


class TestInvoluteCommand:
    def test_kostka_with_trace(self, tmp_path):
        payload = {
            "S": Filling(((1, 1, 3), (2, 2, 4), (4, 4))).to_json(),
            "T": Filling(((1, 1), (2, 2), (3, 4), (4, 4))).to_json(),
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        code, text = run_cli(
            "involute", "--app", "kostka", "--input", str(path), "--trace"
        )
        assert (code, text) == (0, KOSTKA_TRACE_GOLDEN + "\n")

    def test_fixed_point(self, tmp_path):
        survivor = Filling(((1, 1), (2,))).to_json()
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps({"S": survivor, "T": survivor}))
        code, text = run_cli("involute", "--app", "kostka", "--input", str(path))
        assert code == 0
        assert json.loads(text)["fixed"] is True

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli("involute", "--app", "kostka", "--input", str(path))
        assert code == 3

    def test_invalid_object(self, tmp_path):
        path = tmp_path / "invalid.json"
        payload = {
            "S": Filling(((1, 2),)).to_json(),
            "T": Filling(((1, 1),)).to_json(),
        }
        path.write_text(json.dumps(payload))
        code, _ = run_cli("involute", "--app", "kostka", "--input", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "s, t, message",
        [
            ([[1], [2, 3]], [[1], [2], [3]], "first component is not semistandard"),
            (
                [[1, 1, 2, 2, 2]],
                [[1, 1], [2, 2, 2]],
                "second component is not a special rim-hook tableau",
            ),
        ],
    )
    def test_non_partition_component(self, tmp_path, capsys, s, t, message):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"S": {"rows": s}, "T": {"rows": t}}))
        code, text = run_cli("involute", "--app", "kostka", "--input", str(path))
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == "input error: %s\n" % message

    @pytest.mark.parametrize(
        "payload",
        [
            {"S": 5, "T": 5},
            {"S": {"rows": ["ab"]}, "T": {"rows": [[1]]}},
            {"S": {"rows": [[1, 1]]}, "T": {"rows": [[True, 1]]}},
            {"S": {"rows": [[1.0, 2]]}, "T": {"rows": [[1], [2]]}},
        ],
    )
    def test_wrongly_typed_kostka_input(self, tmp_path, capsys, payload):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        code, text = run_cli("involute", "--app", "kostka", "--input", str(path))
        assert (code, text) == (3, "")
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize(
        "payload",
        [
            {"S": 5, "T": 5, "sigma": 5},
            {"S": {"rows": ["ab"]}, "T": {"rows": [[1]]}, "sigma": {}},
            {
                "S": {"rows": [[1, 1, 1]]},
                "T": {"rows": [[1], [1], [1]]},
                "sigma": {"ground": [1, 2], "cycles": [[1, 2, 3]]},
            },
            {
                "S": {"rows": [[1, 1]]},
                "T": {"rows": [[1], [1]]},
                "sigma": {"ground": [1, 2], "cycles": [[True, 2]]},
            },
            {
                "S": {"rows": [[1, 1]]},
                "T": {"rows": [[1], [1]]},
                "sigma": {"ground": [True, 2.5], "cycles": [[True, 2.5]]},
            },
        ],
    )
    def test_wrongly_typed_rimhook_input(self, tmp_path, capsys, payload):
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(payload))
        code, text = run_cli("involute", "--app", "rimhook", "--input", str(path))
        assert (code, text) == (3, "")
        assert capsys.readouterr().err.startswith("input error: ")

    def test_duplicate_ground_element(self, tmp_path, capsys):
        payload = {
            "S": {"rows": [[1, 2]]},
            "T": {"rows": [[1], [2]]},
            "sigma": {"ground": [1, 2, 2], "cycles": [[2]]},
        }
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(payload))
        code, text = run_cli("involute", "--app", "rimhook", "--input", str(path))
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == "input error: duplicate ground element\n"

    def test_type_error_inside_involution_propagates(self, tmp_path, monkeypatch):
        from combinv import involutions

        def broken(obj, trace=None):
            raise TypeError("bug in the involution")

        monkeypatch.setattr(involutions, "kostka_involution", broken)
        survivor = Filling(((1, 1), (2,))).to_json()
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps({"S": survivor, "T": survivor}))
        with pytest.raises(TypeError, match="bug in the involution"):
            run_cli("involute", "--app", "kostka", "--input", str(path))

    @pytest.mark.parametrize(
        "error, message",
        [(ValueError("bug in the involution"), "bug in the involution"),
         (KeyError("gamma"), "'gamma'")],
    )
    def test_failure_inside_involution_is_internal(
        self, tmp_path, capsys, monkeypatch, error, message
    ):
        from combinv import involutions

        # the pair passed every constructor check: the involution is at fault
        def broken(obj, trace=None):
            raise error

        monkeypatch.setattr(involutions, "kostka_involution", broken)
        survivor = Filling(((1, 1), (2,))).to_json()
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps({"S": survivor, "T": survivor}))
        code, text = run_cli("involute", "--app", "kostka", "--input", str(path))
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == "internal error: %s\n" % message

    def test_rimhook_round_trip(self, tmp_path):
        from combinv.involutions import RhtTriple
        from combinv.rimhook import Permutation

        triple = RhtTriple(
            Filling(((1, 1, 3, 3), (1, 2, 3), (2, 2), (2,))),
            Filling(((1, 1, 2, 2), (1, 2, 2), (3, 3, 3))),
            Permutation.from_cycles([(5, 8, 6), (2, 10, 9, 4), (1, 3, 7)]),
        )
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(triple.to_json()))
        code, text = run_cli("involute", "--app", "rimhook", "--input", str(path))
        assert code == 0
        data = json.loads(text)
        assert data["sigma"]["cycles"] == [[6], [4, 5, 8], [2, 10, 9], [1, 3, 7]]
        code, text = run_cli(
            "involute", "--app", "rimhook", "--input", str(path), "--trace"
        )
        assert (code, text) == (0, RIMHOOK_TRACE_GOLDEN + "\n")


class TestAbacusCommand:
    def test_word_and_move(self):
        code, text = run_cli(
            "abacus", "--partition", "4,3,3,2,2,1", "--beads", "9", "--move", "10", "5"
        )
        assert code == 0
        data = json.loads(text)
        assert data["abacus"]["word"].startswith("1110101101101")
        assert data["moved"]["partition"] == [4, 2, 1, 1, 1, 1]
        assert data["moved"]["sign"] == -1

    def test_occupied_target_is_usage_error(self):
        code, _ = run_cli(
            "abacus", "--partition", "2,1", "--beads", "2", "--move", "0", "1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--partition", "2,1", "--beads", "10001"],
            ["--partition", "2,1", "--beads", "5", "--move", "4", "10001"],
            ["--partition", "10001", "--beads", "1"],
        ],
    )
    def test_size_limit(self, monkeypatch, capsys, argv):
        # a bead word has one bit per bead and per unit of the largest part,
        # padded up to the --move target
        def unbuilt(*args):
            raise AssertionError("no bead word may be built above the size limit")

        monkeypatch.setattr(cli.rimhook, "abacus_from_partition", unbuilt)
        assert run_cli("abacus", *argv) == (2, "")
        assert capsys.readouterr().err == (
            "error: --partition, --beads and --move are limited to %d\n"
            % cli.MAX_POSITION
        )
        assert cli.MAX_POSITION == 10_000

    def test_size_limit_admits_its_bound(self):
        code, text = run_cli(
            "abacus", "--partition", "2,1", "--beads", "10000", "--move", "9999", "10000"
        )
        assert code == 0
        assert json.loads(text)["moved"]["partition"] == [2, 2]


class TestUsage:
    def test_unknown_app(self):
        code, _ = run_cli("matrix", "--app", "nope", "--n", "3")
        assert code == 2

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 2

    def test_negative_n(self):
        code, _ = run_cli("matrix", "--app", "kostka", "--n", "-2")
        assert code == 2

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        def broken(lam, mu):
            raise AssertionError("local pairing failed structural check")

        monkeypatch.setattr(cli.kostka, "kostka_pair", broken)
        code, text = run_cli("pair", "--app", "kostka", "--lambda", "2,1", "--mu", "3")
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == (
            "internal error: local pairing failed structural check\n"
        )

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                lambda s: {"succ_b": lambda mu, L: s.succ_b(mu, L) * 2},
                "successor () of (3,) listed twice",
            ),
            (
                lambda s: {"weight_b": lambda mu, gamma: float(s.weight_b(mu, gamma))},
                "weight at (3,), () is 1.0, not an int or Fraction",
            ),
        ],
        ids=["successor-listed-twice", "float-weight"],
    )
    def test_broken_system_is_internal(self, monkeypatch, capsys, change, message):
        # a bad callback breaks the recursion's rules: not a usage error
        system = cli._SYSTEMS["kostka"]()
        monkeypatch.setitem(cli._SYSTEMS, "kostka", lambda: replace(system, **change(system)))
        code, text = run_cli("verify", "--app", "kostka", "--n", "3")
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == "internal error: %s\n" % message

    def test_pair_size_mismatch(self):
        code, _ = run_cli("pair", "--app", "kostka", "--lambda", "3", "--mu", "2,2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["local", "--app", "brick", "--lambda", "2,1", "--mu", "1,2"],
            ["abacus", "--partition", "2,3", "--beads", "3"],
            ["pair", "--app", "rimhook", "--lambda", "1,2", "--mu", "2,1"],
            ["enumerate", "--kind", "rht", "--shape", "1,3", "--content", "2,2"],
        ],
    )
    def test_non_partition_is_usage_error(self, argv):
        assert run_cli(*argv) == (2, "")


class _CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestOneWriter:
    """Commands return their stdout text and `run` writes it in one call;
    no command writes through `json.dump`, whose stream encoder is the
    pure-Python one."""

    @pytest.fixture(autouse=True)
    def _no_json_dump(self, monkeypatch):
        def forbidden(*args, **kwargs):
            pytest.fail("combinv.cli called json.dump")

        monkeypatch.setattr(cli.json, "dump", forbidden)

    @staticmethod
    def _run(*argv):
        out = _CountingOut()
        code = cli.run(list(argv), out)
        assert out.writes == 1
        return code, out.getvalue()

    def test_matrix_json(self):
        code, text = self._run(
            "matrix", "--app", "brick", "--n", "4", "--side", "Bsq", "--format", "json"
        )
        assert code == 0 and text.count("\n") == 1 and text.endswith("\n")
        data = json.loads(text)
        entries = [[Fraction(*e) for e in row] for row in data["entries"]]
        assert IndexedMatrix(data["rows"], data["cols"], entries) == (
            goldens.BRICK_B4_SQUARE
        )

    @pytest.mark.parametrize("app, lam, mu, expected", LOCAL_GOLDENS)
    def test_local(self, app, lam, mu, expected):
        assert self._run("local", "--app", app, "--lambda", lam, "--mu", mu) == (
            0, expected + "\n"
        )

    @pytest.mark.parametrize(
        "kind, shape, content",
        [
            ("ssyt", (4, 3), (2, 3, 2)),
            ("srht", (3, 3, 3), (3, 2, 4)),
            ("rht", (3, 2), (2, 2, 1)),
            ("cbt", (3, 2), (1, 2, 2)),
            ("obt", (3, 2), (2, 2, 1)),
        ],
    )
    def test_enumerate(self, kind, shape, content):
        # the lines of the enumerators that ENUMERATE_SHA256 pins
        objects = cli._ENUMERATORS[kind](shape, content)
        assert objects
        expected = "".join(json.dumps(obj) + "\n" for obj in objects)
        argv = ["enumerate", "--kind", kind, "--shape", ",".join(map(str, shape)),
                "--content", ",".join(map(str, content))]
        assert self._run(*argv) == (0, expected)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["pair", "--app", "rimhook", "--lambda", "9,8,6,6,5,4,4,2",
                 "--mu", "9,9,9,7,5,3,1,1"],
                '{"kind": "matched", "members": [{"gamma": [9, 8, 6, 6, 5, 3, 1, 1], '
                '"sign": 1}, {"gamma": [9, 8, 6, 4, 3, 3, 1, 1], "sign": -1}]}\n',
            ),
            (
                ["abacus", "--partition", "4,3,3,2,2,1", "--beads", "9",
                 "--move", "10", "5"],
                '{"abacus": {"beads": 9, "word": "1110101101101"}, "partition": '
                '[4, 3, 3, 2, 2, 1], "moved": {"abacus": {"beads": 9, "word": '
                '"1110111101001"}, "partition": [4, 2, 1, 1, 1, 1], "sign": -1}}\n',
            ),
        ],
    )
    def test_pair_and_abacus(self, argv, expected):
        assert self._run(*argv) == (0, expected)

    def test_involute_traces(self, tmp_path):
        kostka_pair = {
            "S": Filling(((1, 1, 3), (2, 2, 4), (4, 4))).to_json(),
            "T": Filling(((1, 1), (2, 2), (3, 4), (4, 4))).to_json(),
        }
        rimhook_triple = {
            "S": Filling(((1, 1, 3, 3), (1, 2, 3), (2, 2), (2,))).to_json(),
            "T": Filling(((1, 1, 2, 2), (1, 2, 2), (3, 3, 3))).to_json(),
            "sigma": {
                "ground": list(range(1, 11)),
                "cycles": [[5, 8, 6], [2, 10, 9, 4], [1, 3, 7]],
            },
        }
        for app, payload, golden in [
            ("kostka", kostka_pair, KOSTKA_TRACE_GOLDEN),
            ("rimhook", rimhook_triple, RIMHOOK_TRACE_GOLDEN),
        ]:
            path = tmp_path / ("%s.json" % app)
            path.write_text(json.dumps(payload))
            argv = ["involute", "--app", app, "--input", str(path), "--trace"]
            assert self._run(*argv) == (0, golden + "\n")

    def test_verify_and_errors(self, capsys):
        assert self._run("verify", "--app", "kostka", "--n", "3") == (
            0, "inversion n=3: pass\nlocal identities n=3: pass (9 pairs)\n"
        )
        # a refused command writes nothing to stdout
        out = _CountingOut()
        argv = ["local", "--app", "kostka", "--lambda", "3", "--mu", "2"]
        assert cli.run(argv, out) == 2
        assert (out.writes, out.getvalue()) == (0, "")
        err = capsys.readouterr().err
        assert err == "error: shapes must have equal positive size\n"
