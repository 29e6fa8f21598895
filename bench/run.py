"""Benchmark for hypermatch, single-process and single-threaded.

Run from the root of a source checkout (no install needed; the package is
imported from ``src/``):

    python3 bench/run.py --workload file-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload, one table
    python3 bench/run.py --workload all --smoke           # tiny sizes, both modes

One run sets the workload up several times (set-up time is their median),
then runs rounds of operations in a closed loop, one after another, until
the next round would end past ``--seconds``.  Every round repeats the same
cells, so the records of one cell must agree between rounds apart from
``runtime_ns``.  The first round's records go through the output checker.

Between operations, and every half second during set-up and untraced
operations, the run times a fixed calibration routine (``calibration.py``).
Each set-up and timed call is scaled to the reference speed by the
calibration times around and during it, so the time metrics do not follow
the host's swings in speed.  The report prints them as measured too, with
the host's slowdown.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` rounds alternate between traced and untraced,
and the last line reports per-layer metrics from the traced rounds.  The
lines before it are a human-readable report and a provenance block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from calibration import REFERENCE_S, Sampler, calibrate
from checker import Checker
from tracing import Tracer, layer_totals
from workloads import EPSILON, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / "bench" / "out"
SETUP_REPEATS = (5, 25)  # at least, at most; more while under SETUP_MIN_S
SETUP_MIN_S = 0.5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def import_package():
    """Import hypermatch from this checkout's ``src``; None if it is absent."""
    init = SRC / "hypermatch" / "__init__.py"
    if not init.is_file():
        print(f"no hypermatch sources at {init}", file=sys.stderr)
        return None, 0.0
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hypermatch
    import hypermatch.cli  # noqa: F401 - not imported by the package itself
    elapsed = time.perf_counter() - start
    if Path(hypermatch.__file__).resolve() != init.resolve():
        print(f"imported hypermatch from {hypermatch.__file__}, not {init}", file=sys.stderr)
        return None, 0.0
    return hypermatch, elapsed


def measure(workload, state, seconds: float, tracer, checker: Checker, speed: list):
    """Run rounds until the next would end past ``seconds``.

    Returns ``(traced, ops)`` per round, each op as ``(key, wall_ns,
    edges, kernel_ns, failures, scale)``, and the first records of every
    cell.  Only those are kept, so the benchmark's own memory stays small.
    Checking, record reading and calibration happen between timed calls,
    and calibration also during untraced calls, its time taken off the
    op's.  Calibration times are appended to ``speed``; the op's ``scale``
    is the reference time over their mean before, during and after it.
    Traced calls are not sampled, so the spans hold the program alone.
    """
    before = speed[-1]
    rounds: list[tuple[bool, list]] = []
    reference: dict = {}
    min_rounds = 2 if tracer is not None else 1
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 0
        ops = []
        for key, call in workload.round(state):
            if traced:
                tracer.op = len(rounds)
                tracer.install()
            sampler = Sampler() if tracer is None else None
            begin = time.perf_counter_ns()
            try:
                with sampler or nullcontext():
                    raw = call()
            except Exception:  # a failing call is counted and reported, not fatal
                raw, error = None, traceback.format_exc(limit=3)
            else:
                error = None
            wall = time.perf_counter_ns() - begin
            inside = sampler.samples if sampler else []
            wall -= sampler.paused_ns if sampler else 0
            if traced:
                tracer.uninstall()
            if error is None:
                records, failures = workload.records(state, key, raw)
            else:
                print(error, file=sys.stderr)
                records, failures = [], 1
            failures += sum(rec["error"] is not None for rec in records)
            _check(workload, state, checker, reference, key, records)
            after = calibrate()
            speed += [*inside, after]
            ops.append((key, wall, sum(rec["m"] or 0 for rec in records),
                        sum(rec["runtime_ns"] or 0 for rec in records), failures,
                        REFERENCE_S / statistics.fmean([before, *inside, after])))
            before = after
        rounds.append((traced, ops))
        now = time.perf_counter()
        if len(rounds) >= min_rounds and now - started + (now - round_start) > seconds:
            return rounds, reference


def _check(workload, state, checker: Checker, reference: dict, key, records) -> None:
    stripped = [{k: v for k, v in rec.items() if k != "runtime_ns"} for rec in records]
    if key in reference:
        checker.expect(stripped == reference[key],
                       f"{key}: records differ between repeats of the same cell")
        return
    reference[key] = stripped
    checker.expect(len(records) == workload.cells_per_op(state),
                   f"{key}: {len(records)} records for {workload.cells_per_op(state)} cells")
    for rec in records:
        checker.record(rec, workload.instance_of(state, rec), EPSILON, workload.with_oracle)


def weight_over_bound(workload, state, reference: dict, checker: Checker) -> float:
    """Sum of matching weights over the sum of each cell's tightest certified bound.

    The bound is the oracle optimum where the workload runs the oracle,
    otherwise the smallest ``dual_upper_bound`` among feasible stack runs
    on the same instance.
    """
    records = [rec for recs in reference.values() for rec in recs]
    bounds: dict = {}
    for rec in records:
        inst = id(workload.instance_of(state, rec))
        if workload.with_oracle:
            bound = rec["oracle_weight"]
        elif rec["dual_feasible"]:
            bound = rec["dual_upper_bound"]
        else:
            continue
        if bound is not None:
            bounds[inst] = min(bound, bounds.get(inst, bound))
    total_weight = total_bound = 0.0
    for rec in records:
        inst = id(workload.instance_of(state, rec))
        if checker.expect(inst in bounds, f"{rec['algorithm']}: no certified bound"):
            total_weight += rec["matching_weight"] or 0.0
            total_bound += bounds[inst]
    return total_weight / total_bound if total_bound else 0.0


def tail(walls_ms: list[float]):
    """The highest listed percentile with at least ten samples above it."""
    ordered = sorted(walls_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)  # nearest rank
        if n - rank >= 10:
            return p, ordered[rank - 1], n
    return None, None, n


def end_to_end(workload, state, rounds, reference, checker, setup, speed):
    """End-to-end metrics, times at the reference speed.

    ``setup`` is ``(as measured, scaled)`` set-up seconds.  ``extra`` holds
    the metrics the report prints beside them, with the times as measured.
    """
    every_op = [op for _, round_ops in rounds for op in round_ops]
    failures = sum(op[4] for op in every_op)
    attempted = len(every_op) * workload.cells_per_op(state)
    ops = [op for traced, round_ops in rounds if not traced for op in round_ops]
    walls_ms = [op[1] / 1e6 for op in ops]
    scaled_ms = [op[1] / 1e6 * op[5] for op in ops]
    edges = sum(op[2] for op in ops)
    p, tail_ms, samples = tail(scaled_ms)
    metrics = {
        "setup_s": (setup[1], "s"),
        "edges_per_s": (edges / sum(scaled_ms) * 1e3, "edges/s"),
        "op_p50_ms": (statistics.median(scaled_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "weight_over_bound": (weight_over_bound(workload, state, reference, checker), "ratio"),
    }
    extra = {
        "error_rate": (failures / attempted, "ratio"),
        "op_tail_ms": (tail_ms, "ms", f"p{p:g} of {samples} ops" if p else
                       f"omitted: {samples} ops, fewer than ten beyond p75"),
        "setup_wall_s": (setup[0], "s", "as measured"),
        "edges_per_wall_s": (edges / sum(walls_ms) * 1e3, "edges/s", "as measured"),
        "op_p50_wall_ms": (statistics.median(walls_ms), "ms", "as measured"),
        "host_slowdown": (statistics.median(speed) / REFERENCE_S, "ratio",
                          "median calibration time over the reference"),
        "op_count": (samples, "count"),
        "kernel_share": (_kernel_share(ops), "ratio"),
    }
    return metrics, extra, attempted, failures


def _kernel_share(ops) -> float:
    return sum(op[3] for op in ops) / sum(op[1] for op in ops)


def per_layer(rounds, tracer):
    traced = [ops for is_traced, ops in rounds if is_traced]
    untraced = [ops for is_traced, ops in rounds if not is_traced]
    per_round = 1.0 / len(traced)
    totals = layer_totals(tracer.spans)

    def get(name, field):
        return totals[name][field] if name in totals else 0

    def busy(name):
        return get(name, "busy_ns") / 1e9 * per_round

    def self_(name):
        return get(name, "self_ns") / 1e9 * per_round

    def count(name, key):
        return totals[name]["counts"].get(key, 0) if name in totals else 0

    pushes = count("stack_matcher.run_stack_stream", "pushes")
    swaps = count("swap_matcher.run_swapset", "swaps")
    swap_edges = count("swap_matcher.run_swapset", "edges")
    oracle_errors = totals["oracle.exact_max_weight_matching"]["errors"] \
        if "oracle.exact_max_weight_matching" in totals else {}
    traced_ns = sum(op[1] for ops in traced for op in ops)
    self_ns = sum(t["self_ns"] for t in totals.values())
    round_wall = [sum(op[1] for op in ops) for ops in traced]
    plain_wall = [sum(op[1] for op in ops) for ops in untraced]
    s, count_, ratio = "s", "count", "ratio"
    layers = {
        "ingest.parse_hmetis.self_s": (self_("ingest.parse_hmetis"), s),
        "core.Hypergraph.build.busy_s": (busy("core.Hypergraph.build"), s),
        "ingest.bytes_parsed": (count("ingest.parse_hmetis", "bytes") * per_round, "B"),
        "cli.load_instance.calls": (get("cli.load_instance", "calls") * per_round, count_),
        "cli.load_instance.busy_s": (busy("cli.load_instance"), s),
        "ingest.gen_random_hypergraph.busy_s": (busy("ingest.gen_random_hypergraph"), s),
        "ingest.order_stream.busy_s": (busy("ingest.order_stream"), s),
        "ingest.synthesize_weights.busy_s": (busy("ingest.synthesize_weights"), s),
        "stack_matcher.run_stack_stream.self_s": (self_("stack_matcher.run_stack_stream"), s),
        "swap_matcher.run_swapset.self_s": (self_("swap_matcher.run_swapset"), s),
        "baselines.run_naive.self_s": (self_("baselines.run_naive"), s),
        "baselines.run_greedy.self_s": (self_("baselines.run_greedy"), s),
        "core.check_stream.busy_s": (busy("core.check_stream"), s),
        "core.Matching.from_edge_ids.busy_s": (busy("core.Matching.from_edge_ids"), s),
        "stack_matcher.dual_feasible.busy_s": (busy("stack_matcher.dual_feasible"), s),
        "stack_matcher.dual_upper_bound.busy_s": (busy("stack_matcher.dual_upper_bound"), s),
        "stack_matcher.pushes": (pushes * per_round, count_),
        "stack_matcher.keep_ratio": (
            count("stack_matcher.run_stack_stream", "cardinality") / pushes if pushes else 0.0,
            ratio),
        "stack_matcher.peak_stack_pins": (
            count("stack_matcher.run_stack_stream", "peak_stack_pins"), "pins"),
        "swap_matcher.swaps": (swaps * per_round, count_),
        "swap_matcher.evictions_per_edge": (swaps / swap_edges if swap_edges else 0.0, ratio),
        "oracle.exact_max_weight_matching.busy_s": (
            busy("oracle.exact_max_weight_matching"), s),
        "oracle.exact_max_weight_matching.calls": (
            get("oracle.exact_max_weight_matching", "calls") * per_round, count_),
        "oracle.refusals": (oracle_errors.get("TooLarge", 0) * per_round, count_),
        "cli.main.self_s": (self_("cli.main"), s),
        "cli.run.self_s": (self_("cli.run"), s),
        "cli.emit.self_s": (self_("cli.emit"), s),
        "cli.kernel_share": (_kernel_share([op for ops in untraced for op in ops]), ratio),
        "trace.overhead": (statistics.median(round_wall) / statistics.median(plain_wall), ratio),
        "trace.unaccounted_share": (1.0 - self_ns / traced_ns, ratio),
    }
    return layers, len(traced)


def digest(reference: dict) -> str:
    """sha256 of one round's records without ``runtime_ns``, in run order."""
    text = json.dumps(list(reference.values()), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def provenance(hm, args, params, setup_times, import_s, speed) -> dict:
    return {
        "package_version": hm.__version__,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "epsilon": EPSILON,
        "instances": params,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "calibration_reference_s": REFERENCE_S,
        "calibration_s": {"samples": len(speed), "median": statistics.median(speed),
                          "min": min(speed), "max": max(speed)},
    }


def run_one(args) -> int:
    hm, import_s = import_package()
    if hm is None:
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](hm, WORKDIR, args.seed, args.smoke)
    checker = Checker()
    try:
        speed = [calibrate()]  # the import ran just before this one
        setup_times, scaled = [], []
        while len(setup_times) < SETUP_REPEATS[0] or (
                len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_MIN_S):
            state = None  # release the previous set-up before building the next
            before = speed[-1]
            begin = time.perf_counter_ns()
            with Sampler() as sampler:
                state = workload.setup()
            setup_times.append((time.perf_counter_ns() - begin - sampler.paused_ns) / 1e9)
            speed += [*sampler.samples, calibrate()]
            scaled.append(setup_times[-1] * REFERENCE_S
                          / statistics.fmean([before, *sampler.samples, speed[-1]]))
        setup = (import_s + statistics.median(setup_times),
                 import_s * REFERENCE_S / speed[0] + statistics.median(scaled))
        tracer = Tracer(hm) if args.trace else None
        origin = time.perf_counter_ns()
        rounds, reference = measure(workload, state, args.seconds, tracer, checker, speed)
        metrics, extra, attempted, failures = end_to_end(
            workload, state, rounds, reference, checker, setup, speed)
        if tracer is not None:
            layers, traced_rounds = per_layer(rounds, tracer)
            spans_path = WORKDIR / f"spans-{workload.name}.jsonl"
            tracer.write(spans_path, origin)
    finally:
        for path in WORKDIR.glob(f"{workload.name}-{args.seed}.*"):
            path.unlink()

    print(f"# workload {workload.name}, seed {args.seed}: "
          f"{len(rounds)} rounds, {attempted} cells")
    for name, (value, unit, *note) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<24} {shown:>14} {unit:<8} {note[0] if note else ''}")
    logical = [rec["logical_memory"] for recs in reference.values() for rec in recs
               if rec["logical_memory"] is not None]
    print(f"memory: peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB measured, beside the model's "
          f"max logical_memory {max(logical) if logical else 'n/a'} slots")
    print(f"checks: {checker.checks} run, {checker.failures} failed")
    for message in checker.messages:
        print(f"  violation: {message}")
    print(f"record digest (without runtime_ns): {digest(reference)}")
    if tracer is not None:
        print(f"# per-layer, per round, over {traced_rounds} traced rounds "
              f"(spans in {spans_path.relative_to(ROOT)})")
        for name, (value, unit) in layers.items():
            print(f"{name:<42} {value:>14.6g} {unit}")
    print("provenance " + json.dumps(provenance(hm, args, state["params"], setup_times,
                                                import_s, speed)))
    # The last line carries the metrics BENCHMARK.json lists for the mode.
    # Its per-layer list holds only counts and times every workload spends;
    # the other per-layer times are structurally zero on some workloads and
    # appear in the report above only.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section, source = ("per_layer", layers) if tracer is not None else ("end_to_end", metrics)
    chosen = {m["name"]: source[m["name"]] for m in spec[section]}
    result = {
        "correct": checker.ok and failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, then a summary table."""
    traces = (0, 1) if args.smoke else (args.trace,)
    summary = {}
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                result = None
            summary[f"{name} trace={trace}"] = {"exit": proc.returncode, "result": result}
    print("# summary")
    for label, entry in summary.items():
        result = entry["result"] or {"metrics": {}}
        print(f"{label}: exit {entry['exit']}, correct {result.get('correct')}")
        for metric, value in result["metrics"].items():
            print(f"    {metric:<42} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps(summary))
    return 0 if all(e["exit"] == 0 for e in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances; with --workload all, run both trace modes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
