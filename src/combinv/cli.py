"""Command-line front end: build matrices, verify identities, run bijections.

All state lives in flags, and output is byte-deterministic for fixed
arguments.  Each command returns its exit code and its whole stdout text,
which `run` alone writes.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 malformed input file, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import brick, involutions, kostka, refine, rimhook
from .core import format_rational, sort_comp
from .framework import InvariantError, build_A, build_B, local_terms, verify

# Above this n, `matrix` is refused, and `verify` for the apps that
# compositions index: their tables hold 3^(n-1) entries.  At n = 12,
# `matrix --format json` took 0.9-1.5 s and 125 MiB peak RSS for refine's A
# and B and 1.4-2.0 s and 175 MiB for refine-weighted's B, four runs each
# on a 2-vCPU Intel Xeon with CPython 3.11.7.
MAX_N = 12

# Above these n, `verify` is refused.  kostka, rimhook and brick check the
# global identity on P(n) alone; in-process global + local check at the
# bound, three runs each on the same host: kostka n = 18 0.6-0.7 s and
# 31.8 MiB peak RSS, brick n = 18 0.9-1.5 s and 35.1 MiB, rimhook n = 16
# 0.6-0.9 s and 27.4 MiB, refine n = 12 0.9-1.0 s and 41.8 MiB,
# refine-weighted n = 12 1.2-1.8 s and 53.0 MiB.
MAX_VERIFY_N = {
    "kostka": 18,
    "rimhook": 16,
    "refine": MAX_N,
    "refine-weighted": MAX_N,
    "brick": 18,
}

# Above this n = |shape|, `enumerate` refuses the kinds that list every object
# before printing the first (obt at 1^9 lists 9! tabloids in about 0.8 GiB);
# srht and cbt find at most one object, one B entry's, and share MAX_N.
MAX_ENUMERATE_N = 8

# Above this n = |lambda|, `local` and `pair` are refused.  The slowest shapes
# found at n = 90 are brick's mu maximising prod(m_i + 1) over its part
# multiplicities m_i, its conjugate for kostka and 1^90 for rimhook: `local`
# on them took 0.21-0.23 s, 0.12-0.14 s and 0.01 s in-process, three runs
# each on the same host, peak RSS at most 49.1 MiB; `pair` answers any shape
# at n = 90 within 0.02 s.
MAX_LOCAL_N = 90

# Above this, `abacus` refuses a --partition part, --beads or a --move position:
# the bead word has one bit per bead and per unit of the largest part.
MAX_POSITION = 10_000

_SYSTEMS = {
    "kostka": kostka.kostka_system,
    "rimhook": rimhook.rimhook_system,
    "refine": refine.refine_system,
    "refine-weighted": refine.weighted_system,
    "brick": brick.obt_system,
}


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


def parse_shape(text: str) -> tuple[int, ...]:
    """Comma-separated parts; empty string is the empty shape."""
    if text.strip() in ("", "()"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError("bad shape %r" % text) from exc
    if any(p < 1 for p in parts):
        raise UsageError("parts must be positive in %r" % text)
    return parts


def _json_line(obj) -> str:
    """obj as one JSON line; `json.dumps` runs the C encoder, unlike `json.dump`."""
    return json.dumps(obj) + "\n"


def _cmd_matrix(args) -> tuple[int, str]:
    _require_size(args.n, MAX_N)
    build = build_B if args.side.startswith("B") else build_A
    matrix = build(_SYSTEMS[args.app](), args.n, square=args.side.endswith("sq"))
    if args.format == "json":
        return 0, matrix.to_json() + "\n"
    return 0, matrix.to_csv() if args.format == "csv" else matrix.to_ascii() + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    _require_size(args.n, MAX_VERIFY_N[args.app])
    inversion, report = verify(_SYSTEMS[args.app](), args.n)
    text = "inversion n=%d: %s\n" % (args.n, "pass" if inversion else "FAIL")
    if report is None:
        return (0 if inversion else 1), text
    fmt = "local identities n=%d: %s (%d pairs)\n"
    text += fmt % (args.n, "pass" if report.passed else "FAIL", report.pairs_checked)
    for lam, mu, value in report.failures:
        text += "  violation at %r, %r: %s\n" % (lam, mu, format_rational(value))
    return (0 if inversion and report.passed else 1), text


def _require_size(n: int, limit: int) -> None:
    if n > limit:
        raise UsageError("n=%d is above the limit n <= %d" % (n, limit))


def _shape_pair(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """--lambda and --mu of `local` and `pair`, within MAX_LOCAL_N."""
    lam = parse_shape(args.lam)
    _require_size(sum(lam), MAX_LOCAL_N)
    return lam, parse_shape(args.mu)


def _cmd_local(args) -> tuple[int, str]:
    lam, mu = _shape_pair(args)
    terms = local_terms(_SYSTEMS[args.app](), lam, mu)
    shared = [{"gamma": list(g), "term": format_rational(t)} for g, t in terms]
    total = sum(t for _, t in terms)
    return 0, _json_line({"G": shared, "total": format_rational(total)})


def _enumerate_ssyt(shape, content):
    return [{"object": f.to_json()} for f in kostka.enumerate_ssyt(shape, content)]


def _enumerate_rht(shape, content):
    return [
        {"object": f.to_json(), "sign": sign}
        for f, sign in rimhook.enumerate_rht(shape, content)
    ]


def _enumerate_found(find, shape, content):
    found = find(shape, content)
    return [] if found is None else [{"object": found[0].to_json(), "sign": found[1]}]


def _enumerate_obt(shape, content):
    kind = list(sort_comp(content))
    return [
        {"object": f.to_json(), "type": kind}
        for f in brick.enumerate_obt(shape, content)
    ]


_ENUMERATORS = {
    "ssyt": _enumerate_ssyt,
    "srht": partial(_enumerate_found, kostka.srht_find),
    "rht": _enumerate_rht,
    "cbt": partial(_enumerate_found, refine.cbt_find),
    "obt": _enumerate_obt,
}


def _cmd_enumerate(args) -> tuple[int, str]:
    shape = parse_shape(args.shape)
    content = parse_shape(args.content)
    limit = MAX_N if args.kind in ("srht", "cbt") else MAX_ENUMERATE_N
    _require_size(sum(shape), limit)
    try:
        objects = _ENUMERATORS[args.kind](shape, content)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return 0, "".join(map(_json_line, objects))


def _cmd_pair(args) -> tuple[int, str]:
    pair = {"kostka": kostka.kostka_pair, "rimhook": rimhook.rimhook_pair}[args.app]
    pairing = pair(*_shape_pair(args))
    members = [{"gamma": list(g), "sign": s} for g, s in pairing.members]
    return 0, _json_line({"kind": pairing.kind, "members": members})


def _cmd_involute(args) -> tuple[int, str]:
    try:
        with open(args.input) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(str(exc)) from exc
    trace: list | None = [] if args.trace else None
    kind, apply_map = {
        "kostka": (involutions.KostkaPair, involutions.kostka_involution),
        "rimhook": (involutions.RhtTriple, involutions.rht_involution),
    }[args.app]
    try:  # a wrongly typed field fails here with a TypeError: bad input too
        obj = kind.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    try:  # obj passed every check, so a failure here is the involution's
        image = apply_map(obj, trace)
    except (ValueError, KeyError) as exc:
        raise AssertionError(str(exc)) from exc
    result = {"fixed": image is None}
    if image is not None:
        result.update(image.to_json())
    if trace is not None:
        result["trace"] = trace
    return 0, _json_line(result)


def _cmd_abacus(args) -> tuple[int, str]:
    lam = parse_shape(args.partition)
    if args.beads < len(lam):
        raise UsageError("need at least one bead per part")
    if max([args.beads, *lam, *(args.move or ())]) > MAX_POSITION:
        raise UsageError(
            "--partition, --beads and --move are limited to %d" % MAX_POSITION
        )
    abacus = rimhook.abacus_from_partition(lam, args.beads)
    result = {"abacus": abacus.to_json(), "partition": list(lam)}
    if args.move:
        source, target = args.move
        try:
            moved, sign = rimhook.abacus_move_bead(abacus, source, target)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        result["moved"] = {
            "abacus": moved.to_json(),
            "partition": list(moved.partition()),
            "sign": sign,
        }
    return 0, _json_line(result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combinv",
        description="combinatorial matrix families with exact verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="print a matrix of one family")
    matrix.add_argument("--app", required=True, choices=sorted(_SYSTEMS))
    matrix.add_argument("--n", required=True, type=int)
    matrix.add_argument("--side", default="A", choices=["A", "B", "Asq", "Bsq"])
    matrix.add_argument("--format", default="ascii", choices=["json", "csv", "ascii"])
    matrix.set_defaults(func=_cmd_matrix)

    verify = sub.add_parser("verify", help="check inversion and local identities")
    verify.add_argument("--app", required=True, choices=sorted(_SYSTEMS))
    verify.add_argument("--n", required=True, type=int)
    verify.set_defaults(func=_cmd_verify)

    local = sub.add_parser("local", help="evaluate one local identity")
    local.add_argument("--app", required=True, choices=sorted(_SYSTEMS))
    local.add_argument("--lambda", dest="lam", required=True)
    local.add_argument("--mu", required=True)
    local.set_defaults(func=_cmd_local)

    enumerate_ = sub.add_parser("enumerate", help="stream combinatorial objects")
    enumerate_.add_argument("--kind", required=True, choices=sorted(_ENUMERATORS))
    enumerate_.add_argument("--shape", required=True)
    enumerate_.add_argument("--content", required=True)
    enumerate_.set_defaults(func=_cmd_enumerate)

    pair = sub.add_parser("pair", help="resolve a local cancellation pair")
    pair.add_argument("--app", required=True, choices=["kostka", "rimhook"])
    pair.add_argument("--lambda", dest="lam", required=True)
    pair.add_argument("--mu", required=True)
    pair.set_defaults(func=_cmd_pair)

    involute = sub.add_parser("involute", help="apply a sign-reversing involution")
    involute.add_argument("--app", required=True, choices=["kostka", "rimhook"])
    involute.add_argument("--input", required=True)
    involute.add_argument("--trace", action="store_true")
    involute.set_defaults(func=_cmd_involute)

    abacus = sub.add_parser("abacus", help="bead words and bead moves")
    abacus.add_argument("--partition", required=True)
    abacus.add_argument("--beads", required=True, type=int)
    abacus.add_argument("--move", nargs=2, type=int, metavar=("FROM", "TO"))
    abacus.set_defaults(func=_cmd_abacus)

    return parser


def run(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code, text = args.func(args)
    except (InvariantError, AssertionError) as exc:
        # the program is at fault; an InvariantError is a ValueError too
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    out.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
