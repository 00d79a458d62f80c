"""Benchmark runner for bihomlie.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from
./src and nothing else. Each run is one process on one thread, a closed
loop in which the caller waits for every library call. It sets up several
times (import, catalog load, building and axiom-checking every input), then
runs passes over the workload's items until S seconds have gone by,
checking every output. With --trace 0 the last line of standard output is
the JSON result with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of one traced set-up plus pass. The line before it holds
details: sample counts, per-kind timings and the per-layer breakdown.
See bench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

from tracing import FLAGS, Tracer, TraceError
from workloads import WORKLOADS

PACKAGE = "bihomlie"
SUBMODULES = ("fields", "linalg", "algebra", "derivations", "structure",
              "catalog", "isomorphism")
SETUP_REPEATS = 5
TRACE_DIR = ".bench_trace"


class Lib:
    """The freshly imported package modules, by short name."""

    def __init__(self, src):
        for name in list(sys.modules):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                del sys.modules[name]
        package = importlib.import_module(PACKAGE)
        origin = os.path.realpath(package.__file__)
        if not origin.startswith(os.path.realpath(src) + os.sep):
            raise ImportError("%s imported from %s, not from %s"
                              % (PACKAGE, origin, src))
        for name in SUBMODULES:
            setattr(self, name, importlib.import_module(
                "%s.%s" % (PACKAGE, name)))


class Run:
    """Item timings and check outcomes of one or more passes."""

    def __init__(self):
        self.samples = {}        # kind -> [seconds]
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    def run_item(self, kind, fn):
        start = time.perf_counter()
        try:
            ok, note = fn()
        except Exception as exc:  # a crashing item is a failed check
            ok, note = False, "%s: %s: %s" % (kind, type(exc).__name__, exc)
        self.samples.setdefault(kind, []).append(time.perf_counter() - start)
        self.check(ok, note)

    def all_samples(self):
        return [t for ts in self.samples.values() for t in ts]


def _no_mark(label):
    pass


def setup(workload, seed, src, mark=_no_mark, lib=None):
    """Import (unless ``lib`` is given), load the catalog, build inputs."""
    lib = lib or Lib(src)
    inputs = workload.make_inputs(seed, lib.catalog)
    built, problems = workload.setup(lib, inputs, mark)
    return lib, built, problems


def timed_pass(workload, lib, built, run, mark=_no_mark):
    gc.collect()
    start = time.perf_counter()
    workload.run_pass(lib, built, run.run_item, mark)
    return time.perf_counter() - start


def measure(workload, seed, seconds, src):
    """End-to-end metrics: set-up repeats, then passes for ``seconds``."""
    run = Run()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib, built, problems = setup(workload, seed, src)
        setup_times.append(time.perf_counter() - start)
    for note in problems:
        run.check(False, "setup: " + note)
    pass_times = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        pass_times.append(timed_pass(workload, lib, built, run))
    items = run.all_samples()
    items_per_pass = len(items) // len(pass_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "items_per_s": (len(items) / sum(pass_times), "1/s"),
        "item_p50_ms": (1000 * statistics.median(items), "ms"),
        "item_p98_ms": (1000 * statistics.quantiles(items, n=50)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    detail = {
        "passes": len(pass_times), "pass_s": pass_times,
        "setup_s": setup_times, "items_per_pass": items_per_pass,
        "item_samples": len(items),
        "per_kind_median_s": {kind: statistics.median(ts)
                              for kind, ts in run.samples.items()},
    }
    return run, metrics, detail


def _layer_self(self_s, prefix):
    return sum(v for k, v in self_s.items() if k.startswith(prefix))


def _layer_metrics(summary, overhead, flag_instances):
    c, t, pairs = summary["counts"], summary["self_s"], summary["by_parent"]
    solves = c["derivations.derivation_space"]
    flags = sum(c[name] for name in FLAGS)
    candidates = pairs.get(("isomorphism.brute_force_iso",
                            "linalg.is_invertible"), 0)
    invertible = pairs.get(("isomorphism.brute_force_iso",
                            "isomorphism.verify_isomorphism"), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "fields.fp_elements": (c["fields.FpElement.__init__"], "count"),
        "linalg.matrices": (c["linalg.Matrix.__init__"], "count"),
        "linalg.rref_calls": (c["linalg.rref"], "count"),
        "linalg.rref_cells": (c["linalg.rref_cells"], "count"),
        "linalg.nullspace_calls": (c["linalg.nullspace_basis"], "count"),
        "linalg.rref_self_s": (t["linalg.rref"], "s"),
        "derivations.solves": (solves, "count"),
        "derivations.solve_self_s": (t["derivations.derivation_space"], "s"),
        "derivations.distinct_solve_ratio": (
            ratio(summary["distinct_solves"], solves), "ratio"),
        "derivations.verifications": (c["derivations.verify_derivation"],
                                      "count"),
        "derivations.verify_self_s": (t["derivations.verify_derivation"],
                                      "s"),
        "derivations.twist_powers": (c["derivations.twist_power"], "count"),
        "derivations.twist_powers_per_solve": (
            ratio(c["derivations.twist_power"], solves), "ratio"),
        "derivations.census_candidates": (
            pairs.get(("derivations.count_members_fp",
                       "derivations.verify_derivation"), 0), "count"),
        "algebra.check_all_calls": (c["algebra.BiHomLieAlgebra.check_all"],
                                    "count"),
        "algebra.check_all_self_s": (t["algebra.BiHomLieAlgebra.check_all"],
                                     "s"),
        "algebra.brackets": (c["algebra.BiHomLieAlgebra.bracket"], "count"),
        "structure.flag_calls": (flags, "count"),
        "structure.flag_calls_per_instance": (ratio(flags, flag_instances),
                                              "ratio"),
        "structure.self_s": (_layer_self(t, "structure."), "s"),
        "catalog.expr_evals": (c["catalog.eval_expr"], "count"),
        "catalog.pattern_spaces": (c["catalog.pattern_space"], "count"),
        "catalog.guard_checks": (c["catalog.guard_matches"], "count"),
        "isomorphism.candidates": (candidates, "count"),
        "isomorphism.invertible_ratio": (ratio(invertible, candidates),
                                         "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def _layer_detail(summary):
    """Self times of layers that only some workloads enter, and counts."""
    t = summary["self_s"]
    return {
        "catalog.harness_self_s": _layer_self(t, "catalog."),
        "isomorphism.search_self_s": (
            t["isomorphism.brute_force_iso"]
            + t["isomorphism.verify_isomorphism"]),
        "isomorphism.fingerprint_self_s": t["isomorphism.fingerprint"],
        "counts": summary["counts"],
    }


def measure_traced(workload, seed, src):
    """Per-layer metrics: one untraced pass, then a traced set-up and pass."""
    run = Run()
    lib, built, _ = setup(workload, seed, src)
    plain_s = timed_pass(workload, lib, built, run)
    tracer = Tracer(PACKAGE)
    tracer.install()
    try:
        _, built, problems = setup(workload, seed, src, tracer.mark, lib)
        traced_s = timed_pass(workload, lib, built, run, tracer.mark)
    finally:
        tracer.uninstall()
    for note in problems:
        run.check(False, "setup: " + note)
    for dotted in tracer.unexercised(workload.name):
        run.check(False, "trace: %s recorded no call" % dotted)
    summary = tracer.summarize()
    metrics = _layer_metrics(summary, traced_s / plain_s,
                             len(tracer.flag_algebras))
    detail = {"pass_s": plain_s, "traced_pass_s": traced_s,
              "layers": _layer_detail(summary),
              "bindings": tracer.binding_names()}
    if any(label == "setup:pinned" for label, _, _, _ in tracer.marks):
        pinned = tracer.summarize({"setup:pinned", "pass:pinned"})
        detail["pinned_counts"] = pinned["counts"]
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, "%s.tsv" % workload.name))
    return run, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        print("run.py: no %s package under %s; run from the root of a "
              "source checkout" % (PACKAGE, src), file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            run, metrics, detail = measure_traced(workload, args.seed, src)
        else:
            run, metrics, detail = measure(workload, args.seed, args.seconds,
                                           src)
    except (ImportError, TraceError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2
    for note in run.notes:
        print("FAILED: %s" % note, file=sys.stderr)
    detail["workload"] = workload.name
    detail["seed"] = args.seed
    detail["failed_ratio"] = run.failed / run.attempted
    print(json.dumps({"detail": detail}, sort_keys=True, default=repr))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
