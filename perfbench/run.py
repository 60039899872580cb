"""Benchmark of antiflex: verdict latency, search and coboundary checks.

Run from the root of a source checkout of the repository:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

It imports antiflex from ./src, builds the workload's inputs from the seed,
runs whole rounds of the workload's jobs in this one process until
--seconds have passed, checks every output against an answer worked out
independently (oracle.py), and prints one JSON line as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END); with
--trace 1 the public functions of the package are traced from outside
(tracer.py), the metrics are the per-layer ones (PER_LAYER), and the spans
go to perfbench/out/.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5
# A run starts no new round after this many seconds of measuring, so that it
# ends well inside the three minutes a run may take, even when traced.
MEASURE_CAP_S = 100.0

END_TO_END = (("wall_s", "s"), ("pass_verdict_s", "s"),
              ("fail_verdict_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# (metric, unit): "<module>.<function>.self_s" or ".calls" read from the
# tracer; the rest are counted from the jobs' outputs.  All per round.
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("harness.parse_file.self_s", "s"),
    ("harness.serialize.self_s", "s"),
    ("harness.bytes_written", "bytes"),
    ("harness.grid_search.self_s", "s"),
    ("harness.grid_search.candidates", "count"),
    ("harness.grid_search.found", "count"),
    ("algebra.check_identities.calls", "count"),
    ("algebra.check_identities.self_s", "s"),
    ("bimodule.check_af_bimodule.calls", "count"),
    ("bimodule.check_af_bimodule.self_s", "s"),
    ("bimodule.multiplication_operators.calls", "count"),
    ("bimodule.multiplication_operators.self_s", "s"),
    ("bialgebra.check_bialgebra_conditions.self_s", "s"),
    ("bialgebra.check_dual_pre_via_rmatrix.self_s", "s"),
    ("bialgebra.verify_bialgebra.self_s", "s"),
    ("matched.check_af_matched.self_s", "s"),
    ("matched.build_af_double.self_s", "s"),
    ("matched.omega_double_check.self_s", "s"),
    ("matched.check_pre_matched.self_s", "s"),
    ("coboundary.check_coboundary_conditions.self_s", "s"),
    ("coboundary.special_case_conditions.self_s", "s"),
    ("coboundary.evaluate_expression.calls", "count"),
    ("coboundary.placed_product.calls", "count"),
    ("coboundary.placed_product.self_s", "s"),
    ("coboundary.check_pafybe.self_s", "s"),
    ("operators.check_rota_baxter.self_s", "s"),
    ("operators.check_o_operator.self_s", "s"),
    ("operators.canonical_solution.self_s", "s"),
    ("linalg.contract_product.calls", "count"),
    ("linalg.contract_product.self_s", "s"),
    ("linalg.apply2.calls", "count"),
    ("linalg.apply_slot3.calls", "count"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.fraction_ops", "count"),
)


class Program:
    """The antiflex package imported afresh from <root>/src: one attribute
    per submodule (api.cli, api.harness, ...)."""

    def __init__(self, src):
        for name in [m for m in sys.modules
                     if m == "antiflex" or m.startswith("antiflex.")]:
            del sys.modules[name]
        package = importlib.import_module("antiflex")
        if os.path.dirname(os.path.abspath(package.__file__)) != \
                os.path.join(src, "antiflex"):
            raise ImportError("antiflex was not imported from %s" % src)
        self.modules = [package]
        for info in pkgutil.iter_modules(package.__path__):
            mod = importlib.import_module("antiflex." + info.name)
            setattr(self, info.name, mod)
            self.modules.append(mod)


def make_workload(name, root):
    if name == "verify":
        return workloads.Verify()
    if name == "search":
        return workloads.Search(root)
    return workloads.Coboundary()


def run_rounds(jobs, seconds, tracer):
    """The whole number of rounds of the jobs, at least one, whose length
    comes nearest to `seconds`: a further round starts while its expected
    midpoint lies within them.  Returns the per-job times, the first
    round's results and written files, the executions that raised or
    differed from the first round, the operations attempted and the number
    of rounds."""
    times = {job.name: [] for job in jobs}
    first = {}
    bad = {}
    span = tracer.span if tracer else (lambda _name: nullcontext())
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for job in jobs:
            attempted += 1
            try:
                with span("job " + job.name):
                    t0 = time.perf_counter()
                    result = job.run()
                    dt = time.perf_counter() - t0
                written = {path: _read(path) for path in job.writes}
            except Exception:  # a raising operation is a failed one
                bad.setdefault(job.name, []).append(traceback.format_exc())
                continue
            error = workloads.error_of(result)
            if error is not None:
                bad.setdefault(job.name, []).append(error)
                continue
            times[job.name].append(dt)
            seen = (workloads.comparable(result), written)
            if job.name not in first:
                first[job.name] = (result, written, seen)
            elif seen != first[job.name][2]:
                bad.setdefault(job.name, []).append(
                    "output differs from the first round")
        rounds += 1
        now = time.perf_counter()
        last = now - round_start
        if now - start + last / 2 > seconds or \
                now - start + last > MEASURE_CAP_S:
            return times, first, bad, attempted, rounds


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_outputs(jobs, times, first, bad):
    """(correct, failed): compare the first round's output of every job
    with its expected answer.  A wrong answer counts as failed in every
    round, since later rounds repeat the first."""
    failed = sum(len(v) for v in bad.values())
    correct = True
    for job in jobs:
        for msg in bad.get(job.name, ()):
            print("FAILED %s: %s" % (job.name, msg.strip()), file=sys.stderr)
        if job.name not in first:
            continue
        result, written, _seen = first[job.name]
        try:
            job.check(result, written)
        except Exception as exc:  # any disagreement is a wrong answer
            correct = False
            failed += len(times[job.name])
            print("WRONG %s: %s: %s" % (job.name, type(exc).__name__, exc),
                  file=sys.stderr)
    return correct, failed


def end_to_end(jobs, times, setup_times, peak_rss_mb):
    """Each job counts at its median time over the rounds; a verdict metric
    averages its jobs.  On a host whose speed changes in spells, an average
    follows the share of time spent in fast and slow spells smoothly,
    where a median over jobs jumps from one kind of spell to the other."""
    med = {name: statistics.median(ts) for name, ts in times.items() if ts}

    def mean_of(kind):
        vals = [med[j.name] for j in jobs if j.kind == kind and j.name in med]
        return sum(vals) / len(vals)

    return {"wall_s": sum(med.values()),
            "pass_verdict_s": mean_of("pass"),
            "fail_verdict_ms": 1000.0 * mean_of("fail"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb}


def per_layer(tracer, jobs, first, rounds):
    counted = {"harness.bytes_written": 0, "harness.grid_search.candidates": 0,
               "harness.grid_search.found": 0}
    for job in jobs:
        if job.name not in first:
            continue
        result, written, _seen = first[job.name]
        counted["harness.bytes_written"] += sum(map(len, written.values()))
        if job.kind == "search":
            report = workloads.search_report(result)
            counted["harness.grid_search.candidates"] += report["candidates"]
            counted["harness.grid_search.found"] += report["found"]
    out = {}
    for name, _unit in PER_LAYER:
        if name in counted:
            out[name] = counted[name]
        elif name == "linalg.fraction_ops":
            out[name] = tracer.fraction_ops / rounds
        elif name.endswith(".calls"):
            out[name] = tracer.call_count(name[:-len(".calls")]) / rounds
        else:
            out[name] = tracer.self_time(name[:-len(".self_s")]) / rounds
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "search", "coboundary"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "antiflex", "__init__.py")):
        print("error: no antiflex sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, root, src, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, src, out_dir, work):
    clock = time.perf_counter
    t_plan = clock()
    workload = make_workload(args.workload, root)
    plan = workload.plan(Program(src), random.Random(args.seed), work)

    t_setup = clock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        api = Program(src)
        jobs = workload.setup(api, plan, work)
        setup_times.append(clock() - t0)

    t_measure = clock()
    tracer = Tracer(api.modules) if args.trace else None
    if tracer:
        tracer.install()
    try:
        times, first, bad, attempted, rounds = run_rounds(
            jobs, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = clock()
    correct, failed = check_outputs(jobs, times, first, bad)
    metrics = end_to_end(jobs, times, setup_times, peak_rss_mb)
    units = dict(END_TO_END)
    print("%s seed %d: plan %.1f s, set-up %.1f s, %d round(s) in %.1f s, "
          "checks %.1f s, wall_s %.4f%s"
          % (args.workload, args.seed, t_setup - t_plan, t_measure - t_setup,
             rounds, t_check - t_measure, clock() - t_check,
             metrics["wall_s"], " (traced)" if tracer else ""),
          file=sys.stderr)
    if tracer:
        path = os.path.join(out_dir, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        metrics = per_layer(tracer, jobs, first, rounds)
        units = dict(PER_LAYER)
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "rounds": rounds, "metrics": metrics})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
