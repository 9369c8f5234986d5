"""combinv benchmark: one workload, measured for a fixed time, answers checked.

    python3 perfbench/run.py --workload verify-partition --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a combinv checkout; it imports combinv from ./src.
One process, one thread, closed loop: each item starts when the last one
returned.  A pass runs every item of the workload once; passes repeat until
--seconds have passed, and the last one runs to its end.  Before each item every functools
cache in combinv is cleared, so each item starts as cold as a CLI process.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
perfbench/tracer.py.  A traced run alternates untraced and traced passes
and reports the traced/untraced wall-time difference as
trace.overhead_ratio.  The last line of stdout is one JSON object; the lines
before it give each metric with its unit.  Every result is also appended to
.bench_out/results.jsonl with the machine it ran on, and a traced run writes
its spans to .bench_out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import METRICS, Tracer, combinv_modules  # noqa: E402

SETUP_PROBES = 7
OUT_DIR = ".bench_out"
# Speed normalization.  The host's speed swings by up to 1.8x within
# seconds (other tenants), so every timing is scaled by the speed a fixed
# probe loop shows right before and after it: seconds * NOMINAL / probe.
# NOMINAL is the probe's median time on the host the benchmark was defined
# on (Intel Xeon, 2 vCPUs, CPython 3.11), so normalized seconds read close
# to raw ones there.  Items are probed in segments of SEGMENT_S raw seconds.
PROBE_ITERATIONS = 20_000
PROBE_NOMINAL_S = 0.002
SEGMENT_S = 0.25
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "peak_rss_mib": "MiB",
}


@dataclasses.dataclass
class PassResult:
    durations: list[float]  # speed-normalized seconds per item
    raw: list[float]  # measured seconds per item
    failed: int
    traced: bool
    layers: dict = dataclasses.field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.durations)


def probe() -> float:
    """Best of three timings of a fixed integer loop.

    The loop allocates no containers, so the program's heap (garbage
    collection, caches it keeps) cannot slow it; only the host can."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc = (acc * 31 + i) % 1000003
        best = min(best, perf_counter() - t0)
    return best


def normalize(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * PROBE_NOMINAL_S / (before + after)


def clear_caches() -> None:
    """Empty every functools cache held at module level in combinv."""
    for module in combinv_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_pass(items, tracer: Tracer | None = None) -> PassResult:
    raw, durations, sizes, failed = [], [], [], 0
    before, segment = probe(), 0.0
    if tracer is not None:
        tracer.begin_pass()
        tracer.install()
    try:
        for index, item in enumerate(items):
            clear_caches()
            if tracer is not None:
                tracer.begin_item(index)
                tracer.enter("item")
            t0 = perf_counter()
            try:
                answer = item.run()
            except Exception:  # a crash is a wrong answer; keep measuring
                traceback.print_exc(file=sys.stderr)
                answer = None
            t1 = perf_counter()
            if tracer is not None:
                tracer.exit("item")
            raw.append(t1 - t0)
            segment += t1 - t0
            if segment >= SEGMENT_S or index == len(items) - 1:
                after = probe()
                durations += [normalize(d, before, after) for d in raw[len(durations):]]
                before, segment = after, 0.0
            try:
                ok = answer is not None and item.check(answer)
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                failed += 1
                print("wrong answer: %r" % (item.key,), file=sys.stderr)
            if tracer is not None:
                record_answer(tracer, item, answer)
            sizes.append(answer.size if answer is not None and item.key[0] == "audit" else 0)
            answer = None  # peak memory must not depend on the order of the items
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed += workloads.check_pass_census(items, sizes)
    result = PassResult(durations, raw, min(failed, len(items)), tracer is not None)
    if tracer is not None:
        result.layers = tracer.pass_metrics()
    return result


def record_answer(tracer: Tracer, item, answer) -> None:
    """Counts read off the answer at the layer boundary."""
    if answer is None:
        return
    if item.key[0] == "audit":
        tracer.counts["involutions.objects"] += answer.size
        tracer.counts["involutions.fixed_points"] += answer.fixed_points
    else:
        tracer.counts["cli.bytes_out"] += answer[2]


def run_passes(items, seconds: float, tracer: Tracer | None) -> list[PassResult]:
    """Closed loop of passes until `seconds` have passed; the last pass ends.

    With a tracer, untraced and traced passes alternate, at least one each."""
    start = perf_counter()
    passes: list[PassResult] = []
    while perf_counter() - start < seconds or (tracer is not None and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(items, tracer if traced else None))
    return passes


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """(normalized, raw) seconds from a fresh interpreter's start to ready.

    One untimed start goes first, so every timed one finds compiled bytecode
    as an installed package would."""
    argv = [sys.executable, "-I", str(Path(__file__).resolve().parent / "setup_probe.py"),
            str(root)]
    times, raw = [], []
    for attempt in range(SETUP_PROBES + 1):
        before = probe()
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = perf_counter()
            child.stdout.read()
            code = child.wait()
        if line != "ready\n" or code != 0:
            raise RuntimeError("set-up probe failed with exit code %d" % code)
        if attempt:
            raw.append(t1 - t0)
            times.append(normalize(t1 - t0, before, probe()))
    return times, raw


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it, but never below the median, which it is for 21 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return 100.0 * (index + 1) / n, ordered[index]


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": source_digest(root),
    }


def end_to_end(passes: list[PassResult], setup: tuple[list, list]) -> tuple[dict, dict]:
    plain = [p for p in passes if not p.traced]
    items = [d for p in plain for d in p.durations]
    raw_items = [d for p in plain for d in p.raw]
    percentile, tail_value = tail(items)
    values = {
        "setup_s": statistics.median(setup[0]),
        "wall_s": statistics.median(p.wall for p in plain),
        "item_s.p50": statistics.median(items),
        "item_s.tail": tail_value,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "tail_percentile": percentile, "item_samples": len(items),
        "setup_samples": len(setup[0]), "passes": len(plain),
        "raw_setup_s": statistics.median(setup[1]),
        "raw_wall_s": statistics.median(sum(p.raw) for p in plain),
        "raw_item_s.p50": statistics.median(raw_items),
        "raw_item_s.tail": tail(raw_items)[1],
    }
    return values, notes


def per_layer(passes: list[PassResult]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values, notes = {}, {"traced_passes": len(traced), "untraced_passes": len(plain)}
    unsteady = []
    for name, (_, _, exact) in METRICS.items():
        if name == "trace.overhead_ratio":
            continue
        samples = [p.layers[name] for p in traced]
        if exact:
            values[name] = samples[0]
            if any(s != samples[0] for s in samples):
                unsteady.append(name)
        else:
            values[name] = statistics.median(samples)
    traced_wall = statistics.median(p.wall for p in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    values["trace.overhead_ratio"] = traced_wall / plain_wall - 1
    notes.update(traced_wall_s=traced_wall, untraced_wall_s=plain_wall,
                 exact_counts_differ_between_passes=unsteady)
    return values, notes


def previous_exact(workload: str, seed: int, env: dict) -> dict | None:
    """Exact counts of the last traced run of this workload, seed and source."""
    path = Path(OUT_DIR) / "results.jsonl"
    if not path.exists():
        return None
    found = None
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if (record["workload"], record["seed"], record["trace"],
                    record["env"]["src_sha256"]) == (workload, seed, 1, env["src_sha256"]):
                found = record["exact"]
    return found


def run(args, root: Path) -> int:
    env = environment(root)
    setup = measure_setup(root)
    items = workloads.make_items(args.workload, args.seed)
    # The benchmark's own objects stay out of the program's garbage collections.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    passes = run_passes(items, args.seconds, tracer)
    Path(OUT_DIR).mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write_spans(Path(OUT_DIR) / ("spans-%s.jsonl" % args.workload))
    attempted = sum(len(p.durations) for p in passes)
    failed = sum(p.failed for p in passes)
    print("# combinv benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# python %(python)s | cpu %(cpu)s | nproc %(nproc)d | git %(git_sha)s"
          " | src sha256 %(src_sha256)s" % env)
    correct = failed == 0
    exact: dict = {}
    if args.trace:
        values, notes = per_layer(passes)
        units = {name: spec[0] for name, spec in METRICS.items()}
        exact = {name: values[name] for name, spec in METRICS.items() if spec[2]}
        earlier = previous_exact(args.workload, args.seed, env)
        drifted = sorted(k for k in exact if earlier is not None and earlier.get(k) != exact[k])
        notes["exact_counts_vs_previous_run"] = (
            "no earlier traced run of this source" if earlier is None
            else "repeat" if not drifted else "differ: " + ", ".join(drifted))
        if drifted or notes["exact_counts_differ_between_passes"]:
            correct = False
            print("exact counts do not repeat: %s" % (drifted or
                  notes["exact_counts_differ_between_passes"]), file=sys.stderr)
    else:
        values, notes = end_to_end(passes, setup)
        units = END_TO_END
    notes.update(attempted=attempted, failed=failed, error_ratio=failed / attempted)
    for key, value in notes.items():
        print("# %s: %s" % (key, value))
    for name, value in values.items():
        mark = " (exact)" if name in exact else ""
        print("%s %r %s%s" % (name, value, units[name], mark))
    print("error_ratio %r ratio" % (failed / attempted))
    with open(Path(OUT_DIR) / "results.jsonl", "a") as handle:
        handle.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "notes": notes, "metrics": values,
            "exact": exact, "correct": correct,
        }) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Self-test: deliberately broken components must be caught
# ---------------------------------------------------------------------------

def perturbed(system, target: tuple):
    """The system with one B-side weight off by one: at mu == target, for
    the first successor asked about."""
    weight_b = system.weight_b
    chosen: list = []

    def broken(mu, delta):
        value = weight_b(mu, delta)
        if tuple(mu) == target:
            if not chosen:
                chosen.append(delta)
            if delta == chosen[0]:
                value += 1
        return value

    return dataclasses.replace(system, weight_b=broken)


def break_system(app: str, target: tuple):
    from combinv import cli

    factory = cli._SYSTEMS[app]
    cli._SYSTEMS[app] = lambda: perturbed(factory(), target)
    return lambda: cli._SYSTEMS.__setitem__(app, factory)


def break_enumerator(lam: tuple, beta: tuple):
    """enumerate_ssyt, as the audit calls it, drops one tableau for (lam, beta)."""
    from combinv import involutions

    original = involutions.enumerate_ssyt

    def dropping(shape, content):
        found = original(shape, content)
        return found[:-1] if (tuple(shape), tuple(content)) == (lam, beta) else found

    involutions.enumerate_ssyt = dropping
    return lambda: setattr(involutions, "enumerate_ssyt", original)


def self_test() -> int:
    caught = True
    for workload in workloads.WORKLOADS:
        items = workloads.make_items(workload, 0)
        if workload == "verify-partition":
            what, restore = "kostka weight_b at mu=(2, 1)", break_system("kostka", (2, 1))
        elif workload == "verify-composition":
            what = "refine-weighted weight_b at mu=(2, 1)"
            restore = break_system("refine-weighted", (2, 1))
        elif workload == "local-query":
            target = next(i.key[3] for i in items
                          if i.key[:2] == ("local", "kostka") and i.key[2] == i.key[3])
            what, restore = "kostka weight_b at mu=%r" % (target,), break_system("kostka", target)
        else:
            what = "enumerate_ssyt drops one tableau of (3, 2, 1), content 1^6"
            restore = break_enumerator((3, 2, 1), (1,) * 6)
        try:
            result = run_pass(items)
        finally:
            restore()
        ratio = result.failed / len(items)
        caught = caught and ratio > 0
        print("%s: broken %s -> error_ratio %.4f (%s)"
              % (workload, what, ratio, "caught" if ratio > 0 else "MISSED"))
    return 0 if caught else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that deliberately broken components are caught")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "combinv" / "__init__.py").is_file():
        print("error: no combinv source at %s/src; run from a checkout root" % root,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
