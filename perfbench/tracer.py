"""Per-layer tracing of combinv from outside the program.

`Tracer.install()` rebinds the names the program calls through -- the
builders, the product, the local evaluator, the pairings, the involution
steps, the CLI's parser and JSON writer, and the callbacks of every
`LocalSystem` the CLI constructs -- to wrappers that time each call on a
span stack.  `uninstall()` puts the originals back.  A name the program no
longer has is skipped, so its metrics read 0 instead of breaking the run.

Spans are kept in memory as (id, name, start, end, parent, item), where
item is (pass, index), and written out at the end.  The hot calls
(successors, weights, one local identity) are only aggregated: they count
toward their parent's child time, and so toward its self time, without a
span record each.  A layer's time is the sum over
its outermost spans; its self time is each span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("kostka", "rimhook", "refine", "brick")

# Per-layer metrics: name -> (unit, better, exact).  Exact metrics are
# counts that repeat exactly on the same inputs.
METRICS = {
    "framework.build_s": ("s", "lower", False),
    "framework.build_self_s": ("s", "lower", False),
    "framework.matmul_s": ("s", "lower", False),
    "framework.nnz": ("count", "lower", True),
    "framework.nnz_ratio": ("ratio", "lower", True),
    "framework.max_den_bits": ("bits", "lower", True),
    "framework.local_s": ("s", "lower", False),
    **{
        "%s.%s" % (mod, name): spec
        for mod in MODULES
        for name, spec in (
            ("succ_calls", ("count", "lower", True)),
            ("succ_s", ("s", "lower", False)),
            ("succ_repeat_ratio", ("ratio", "lower", True)),
            ("weight_calls", ("count", "lower", True)),
            ("weight_s", ("s", "lower", False)),
        )
    },
    "kostka.pair_s": ("s", "lower", False),
    "rimhook.pair_s": ("s", "lower", False),
    "involutions.map_s": ("s", "lower", False),
    "involutions.enumerate_s": ("s", "lower", False),
    "involutions.transport_s": ("s", "lower", False),
    "involutions.objects": ("count", "lower", True),
    "involutions.fixed_points": ("count", "lower", True),
    "involutions.map_calls": ("count", "lower", True),
    "core.shape_of_cells_calls": ("count", "lower", True),
    "core.from_cells_calls": ("count", "lower", True),
    "core.diagram_calls": ("count", "lower", True),
    "cli.parse_s": ("s", "lower", False),
    "cli.serialize_s": ("s", "lower", False),
    "cli.bytes_out": ("count", "lower", True),
    "trace.overhead_ratio": ("ratio", "lower", False),
}


class Tracer:
    """Span stack, per-name totals and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._next_id = 0
        self._pass = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin_pass(self) -> None:
        """Start the totals of a new pass; recorded spans are kept."""
        self._pass += 1
        self.total = defaultdict(float)  # outermost span time per name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_den_bits = 0
        self._depth = defaultdict(int)
        self._stack = [["root", 0.0, 0.0, None]]  # name, start, child time, span id
        self._item = None
        self._seen: set = set()

    # -- spans --------------------------------------------------------------

    def begin_item(self, index: int) -> None:
        """Spans from here on belong to item `index` of the current pass."""
        self._item = (self._pass, index)
        self._seen = set()

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def exit(self, name: str, record: bool = True) -> None:
        end = perf_counter()
        _, start, child, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent[2] += duration
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total[name] += duration
        if record:
            self.spans.append((span_id, name, start, end, parent[3], self._item))

    def timed(self, name: str, fn, record: bool = True, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(name, record)
            if after is not None:
                after(result, *args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        """Set an attribute, or a key when `owner` is a dict; undone by uninstall."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def _rebind(self, module, attr: str, make) -> None:
        """Rebind `module.attr` wherever a combinv module holds that object."""
        original = getattr(module, attr, None)
        if original is None:
            print("trace: %s.%s is gone; its metrics read 0" % (module.__name__, attr),
                  file=sys.stderr)
            return
        wrapper = make(original)
        for mod in combinv_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _rebind_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            print("trace: %s.%s is gone; its metrics read 0" % (cls.__name__, attr),
                  file=sys.stderr)
            return
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self) -> None:
        from combinv import cli, core, framework, involutions, kostka, rimhook

        self._rebind(framework, "build_A", lambda f: self.timed("framework.build", f))
        self._rebind(framework, "build_B", lambda f: self.timed("framework.build", f))
        self._rebind(framework, "local_lhs",
                     lambda f: self.timed("framework.local", f, record=False))
        matrix = getattr(framework, "IndexedMatrix", None)
        if matrix is not None:
            self._rebind_method(matrix, "matmul", lambda f: self.timed(
                "framework.matmul", f, after=self._matmul_stats))
            for attr in ("to_json", "to_csv", "to_ascii"):
                self._rebind_method(matrix, attr, lambda f: self.timed("cli.serialize", f))
        self._rebind(kostka, "kostka_pair", lambda f: self.timed("kostka.pair", f))
        self._rebind(rimhook, "rimhook_pair", lambda f: self.timed("rimhook.pair", f))
        for attr in ("kostka_involution", "rht_involution"):
            self._rebind(involutions, attr, lambda f: self.timed("involutions.map", f))
        # The enumerators are traced only where the audit calls them.
        for attr in ("enumerate_ssyt", "srht_find", "enumerate_rht"):
            if hasattr(involutions, attr):
                self._set(involutions, attr,
                          self.timed("involutions.enumerate", getattr(involutions, attr)))
        for attr in ("f_mu_rho", "f_mu_rho_inv"):
            self._rebind(involutions, attr, lambda f: self.timed("involutions.transport", f))
        self._rebind(core, "shape_of_cells", lambda f: self.counted("core.shape_of_cells", f))
        self._rebind(core, "diagram", lambda f: self.counted("core.diagram", f))
        filling = getattr(core, "Filling", None)
        if filling is not None:
            self._rebind_method(filling, "from_cells",
                                lambda f: self.counted("core.from_cells", f))
        self._rebind(cli, "parse_shape", lambda f: self.timed("cli.parse", f))
        self._rebind(cli, "build_parser", self._traced_parser)
        if hasattr(cli, "json"):
            self._set(cli, "json", _JsonProxy(self.timed("cli.serialize", json.dump)))
        systems = getattr(cli, "_SYSTEMS", None)
        if isinstance(systems, dict):
            for app, factory in list(systems.items()):
                self._set(systems, app, self._traced_factory(factory))
        else:
            print("trace: cli._SYSTEMS is gone; callback metrics read 0", file=sys.stderr)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- wrappers with extra bookkeeping ------------------------------------

    def _traced_parser(self, build_parser):
        def wrapper():
            self.enter("cli.parse")
            try:
                parser = build_parser()
            finally:
                self.exit("cli.parse")
            parser.parse_args = self.timed("cli.parse", parser.parse_args)
            return parser

        return wrapper

    def _traced_factory(self, factory):
        def make_system():
            system = factory()
            module = system.name.split("-")[0]  # refine-weighted counts under refine
            wrapped = {
                "succ_a": self._successor(module, "a", system.succ_a),
                "succ_b": self._successor(module, "b", system.succ_b),
                "weight_a": self.timed(module + ".weight", system.weight_a, record=False),
                "weight_b": self.timed(module + ".weight", system.weight_b, record=False),
            }
            return dataclasses.replace(system, **wrapped)

        return make_system

    def _successor(self, module: str, side: str, fn):
        name = module + ".succ"
        repeat = module + ".succ_repeat"
        tracer = self

        def wrapper(shape, length):
            key = (module, side, shape, length)
            if key in tracer._seen:
                tracer.counts[repeat] += 1
            else:
                tracer._seen.add(key)
            tracer.enter(name)
            try:
                return fn(shape, length)
            finally:
                tracer.exit(name, record=False)

        return wrapper

    def _matmul_stats(self, product, left, right) -> None:
        for operand in (left, right):
            nonzero, total, bits = matrix_stats(operand)
            self.counts["framework.nnz"] += nonzero
            self.counts["framework.entries"] += total
            self.max_den_bits = max(self.max_den_bits, bits)

    # -- results ------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the pass traced since begin_pass."""
        total, counts, calls = self.total, self.counts, self.calls
        out = {
            "framework.build_s": total["framework.build"],
            "framework.build_self_s": self.self_time["framework.build"],
            "framework.matmul_s": total["framework.matmul"],
            "framework.nnz": counts["framework.nnz"],
            "framework.nnz_ratio": (counts["framework.nnz"] / counts["framework.entries"]
                                    if counts["framework.entries"] else 0.0),
            "framework.max_den_bits": self.max_den_bits,
            "framework.local_s": total["framework.local"],
            "kostka.pair_s": total["kostka.pair"],
            "rimhook.pair_s": total["rimhook.pair"],
            "involutions.map_s": total["involutions.map"],
            "involutions.enumerate_s": total["involutions.enumerate"],
            "involutions.transport_s": total["involutions.transport"],
            "involutions.objects": counts["involutions.objects"],
            "involutions.fixed_points": counts["involutions.fixed_points"],
            "involutions.map_calls": calls["involutions.map"],
            "core.shape_of_cells_calls": counts["core.shape_of_cells"],
            "core.from_cells_calls": counts["core.from_cells"],
            "core.diagram_calls": counts["core.diagram"],
            "cli.parse_s": total["cli.parse"],
            "cli.serialize_s": total["cli.serialize"],
            "cli.bytes_out": counts["cli.bytes_out"],
        }
        for mod in MODULES:
            succ = calls[mod + ".succ"]
            out[mod + ".succ_calls"] = succ
            out[mod + ".succ_s"] = total[mod + ".succ"]
            out[mod + ".succ_repeat_ratio"] = counts[mod + ".succ_repeat"] / succ if succ else 0.0
            out[mod + ".weight_calls"] = calls[mod + ".weight"]
            out[mod + ".weight_s"] = total[mod + ".weight"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, item in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "item": item}) + "\n")


def combinv_modules() -> list:
    """The loaded modules of the combinv package."""
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "combinv" or name.startswith("combinv."))]


class _JsonProxy:
    """The json module as `combinv.cli` sees it, with `dump` traced."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


def matrix_stats(matrix) -> tuple[int, int, int]:
    """(nonzero entries, all entries, largest denominator in bits).

    Reads dense rows (lists) and sparse rows (dicts), so the count survives
    a move to sparse storage; anything else reads 0 rather than failing.
    """
    rows = getattr(matrix, "entries", None)
    if rows is None:
        return 0, 0, 0
    row_keys = getattr(matrix, "row_keys", ())
    col_keys = getattr(matrix, "col_keys", ())
    nonzero = bits = 0
    for row in (rows.values() if isinstance(rows, dict) else rows):
        for value in (row.values() if isinstance(row, dict) else row):
            if value:
                nonzero += 1
                bits = max(bits, getattr(value, "denominator", 1).bit_length())
    return nonzero, len(row_keys) * len(col_keys), bits
