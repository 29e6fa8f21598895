"""Benchmark front end: single runs, grids, and the exact oracle.

Usage sketch:

    hypermatch run --input inst.hgr --algorithm stack --epsilon 0.1 --certify
    hypermatch run --gen 100,1000,4,100 --algorithm swapset --alpha auto
    hypermatch grid --gen 50,500,3,10 --algorithm stack --algorithm greedy \
        --epsilon 0 --epsilon 1 --order original --order random --repeats 3
    hypermatch oracle --input small.hgr

Every record carries the run configuration, the metric counters, a logical
memory figure, and (with --certify) certificate fields.  Output is CSV
(default, fixed column order, rows streamed as they complete) or a JSON
array.  Exit codes: 0 success, 2 bad input (including a grid with any
failed cell), 3 oracle refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO, Union

from .core import Hypergraph, InvalidInput, RunMetrics
from .ingest import (
    ParseError,
    StreamOrder,
    WeightScheme,
    gen_random_hypergraph,
    order_stream,
    parse_hmetis,
    synthesize_weights,
)
from .stack_matcher import (
    UpdateRule,
    dual_feasible,
    dual_upper_bound,
    run_stack_stream,
)
from .swap_matcher import optimal_alpha, run_swapset
from .baselines import run_greedy, run_naive
from .oracle import OracleLimits, TooLarge, exact_max_weight_matching

ALGORITHMS = ("stack", "stack-lenient", "swapset", "naive", "greedy")
STACK_FAMILY = ("stack", "stack-lenient")

CSV_COLUMNS = (
    "instance",
    "algorithm",
    "weights",
    "order",
    "seed",
    "repeat",
    "epsilon",
    "alpha",
    "resolved_alpha",
    "n",
    "m",
    "d",
    "total_pins",
    "matching_weight",
    "cardinality",
    "pushes",
    "pops",
    "swaps",
    "vertex_push_max",
    "peak_stack_edges",
    "peak_stack_pins",
    "logical_memory",
    "runtime_ns",
    "dual_upper_bound",
    "dual_feasible",
    "oracle_weight",
    "matching_edges",
    "error",
)


@dataclass(frozen=True)
class RunSpec:
    """One benchmark cell: an instance source plus algorithm configuration."""

    input_path: Optional[str] = None
    gen: Optional[tuple[int, int, int, int]] = None  # (n, m, d_max, w_max)
    weights: WeightScheme = WeightScheme.FROM_FILE
    algorithm: str = "naive"
    epsilon: Optional[float] = None
    alpha: Union[float, str, None] = None  # a float or the string "auto"
    order: StreamOrder = StreamOrder.ORIGINAL
    seed: int = 0
    certify: bool = False
    emit_matching: bool = False
    repeat: int = 0

    def instance_label(self) -> str:
        if self.input_path is not None:
            return self.input_path
        assert self.gen is not None
        n, m, d_max, w_max = self.gen
        return f"gen:{n},{m},{d_max},{w_max}"

    def validate(self) -> None:
        if (self.input_path is None) == (self.gen is None):
            raise InvalidInput("exactly one of input_path and gen must be set")
        if self.algorithm not in ALGORITHMS:
            raise InvalidInput(f"unknown algorithm {self.algorithm!r}")
        if self.epsilon is not None and self.algorithm not in STACK_FAMILY:
            raise InvalidInput(f"epsilon does not apply to {self.algorithm}")
        if self.alpha is not None and self.algorithm != "swapset":
            raise InvalidInput(f"alpha does not apply to {self.algorithm}")
        if isinstance(self.alpha, str) and self.alpha != "auto":
            raise InvalidInput(f"alpha must be a number or 'auto', got {self.alpha!r}")


@dataclass
class ResultRecord:
    """Flat result row; fields that do not apply stay None."""

    instance: str
    algorithm: str
    weights: str
    order: str
    seed: int
    repeat: int
    epsilon: Optional[float] = None
    alpha: Optional[str] = None
    resolved_alpha: Optional[float] = None
    n: Optional[int] = None
    m: Optional[int] = None
    d: Optional[int] = None
    total_pins: Optional[int] = None
    matching_weight: Optional[float] = None
    cardinality: Optional[int] = None
    pushes: Optional[int] = None
    pops: Optional[int] = None
    swaps: Optional[int] = None
    vertex_push_max: Optional[int] = None
    peak_stack_edges: Optional[int] = None
    peak_stack_pins: Optional[int] = None
    logical_memory: Optional[int] = None
    runtime_ns: Optional[int] = None
    dual_upper_bound: Optional[float] = None
    dual_feasible: Optional[bool] = None
    oracle_weight: Optional[float] = None
    matching_edges: Optional[str] = None
    error: Optional[str] = None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}

    def as_row(self) -> list[str]:
        return [_cell(getattr(self, name)) for name in CSV_COLUMNS]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def load_instance(spec: RunSpec) -> Hypergraph:
    """Materialize and weight the instance a spec refers to."""
    if spec.input_path is not None:
        try:
            text = Path(spec.input_path).read_text()
        except UnicodeDecodeError as exc:
            raise ParseError(f"undecodable byte sequence: {exc}", 1) from None
        hg = parse_hmetis(text)
    else:
        n, m, d_max, w_max = spec.gen
        hg = gen_random_hypergraph(n, m, d_max, w_max, spec.seed)
    return synthesize_weights(hg, spec.weights)


def logical_memory(algorithm: str, hg: Hypergraph, metrics: RunMetrics) -> int:
    """Units of live state an algorithm needed, in edge-slot counts.

    The stack family holds its stacked pins plus one potential per vertex;
    the swap and naive matchers hold one edge reference per vertex; greedy
    must keep every pin of the instance in order to sort it.
    """
    if algorithm in STACK_FAMILY:
        return metrics.peak_stack_pins + hg.n
    if algorithm in ("swapset", "naive"):
        return hg.n
    if algorithm == "greedy":
        return hg.total_pins
    raise InvalidInput(f"unknown algorithm {algorithm!r}")


@dataclass
class _LoadedInstance:
    """A loaded instance, shared by every cell that runs on it."""

    hg: Hypergraph

    @cached_property
    def oracle_weight(self) -> Optional[float]:
        """The exact optimum, solved on first use; None when the oracle refuses."""
        try:
            return exact_max_weight_matching(self.hg).weight
        except TooLarge:
            return None


def run(spec: RunSpec) -> ResultRecord:
    """Execute one benchmark cell and return its record."""
    spec.validate()
    return _run_cell(spec, _LoadedInstance(load_instance(spec)))


def _run_cell(spec: RunSpec, instance: _LoadedInstance) -> ResultRecord:
    """Run one validated cell on an already loaded instance."""
    hg = instance.hg
    record = ResultRecord(
        instance=spec.instance_label(),
        algorithm=spec.algorithm,
        weights=spec.weights.value,
        order=spec.order.value,
        seed=spec.seed,
        repeat=spec.repeat,
        n=hg.n,
        m=hg.m,
        d=hg.d,
        total_pins=hg.total_pins,
    )

    # greedy sorts internally; the order axis does not affect it
    stream = None if spec.algorithm == "greedy" else order_stream(hg, spec.order, spec.seed)
    dual = None
    if spec.algorithm in STACK_FAMILY:
        epsilon = spec.epsilon if spec.epsilon is not None else 0.0
        rule = UpdateRule.GUARANTEE if spec.algorithm == "stack" else UpdateRule.LENIENT
        matching, dual, metrics = run_stack_stream(hg, stream, epsilon, rule)
        record.epsilon = epsilon
    elif spec.algorithm == "swapset":
        if spec.alpha is None or spec.alpha == "auto":
            resolved = optimal_alpha(max(hg.d, 1))
            record.alpha = "auto"
        else:
            resolved = float(spec.alpha)
            record.alpha = str(resolved)
        matching, metrics = run_swapset(hg, stream, resolved)
        record.resolved_alpha = resolved
    elif spec.algorithm == "naive":
        matching, metrics = run_naive(hg, stream)
    else:
        matching, metrics = run_greedy(hg)

    record.matching_weight = metrics.matching_weight
    record.cardinality = metrics.cardinality
    record.pushes = metrics.pushes
    record.pops = metrics.pops
    record.swaps = metrics.swaps
    record.vertex_push_max = metrics.vertex_push_max
    record.peak_stack_edges = metrics.peak_stack_edges
    record.peak_stack_pins = metrics.peak_stack_pins
    record.logical_memory = logical_memory(spec.algorithm, hg, metrics)
    record.runtime_ns = metrics.runtime_ns

    if spec.certify:
        if dual is not None:
            record.dual_upper_bound = dual_upper_bound(dual)
            record.dual_feasible = dual_feasible(hg, dual)
        record.oracle_weight = instance.oracle_weight

    if spec.emit_matching:
        record.matching_edges = " ".join(str(eid) for eid in sorted(matching.edge_ids))
    return record


def grid(specs: Iterable[RunSpec]) -> Iterator[ResultRecord]:
    """Run every cell, turning per-cell input failures into error records.

    Each instance is loaded once and shared, with its exact optimum, by the
    cells that use it: a file is read once per weight scheme, a generated
    instance once per seed and weight scheme.  The cache holds one source
    at a time, since ``expand_grid`` iterates sources outermost.  A failed
    load is not cached, so every cell of a bad source gets its own error.
    """
    source = None
    loaded: dict[tuple, _LoadedInstance] = {}
    for spec in specs:
        # --seed changes a generated instance but not a file's contents
        if spec.input_path is not None:
            key = (spec.input_path, spec.weights)
        else:
            key = (spec.gen, spec.seed, spec.weights)
        if key[0] != source:
            source = key[0]
            loaded.clear()
        try:
            spec.validate()
            if key not in loaded:
                loaded[key] = _LoadedInstance(load_instance(spec))
            record = _run_cell(spec, loaded[key])
        except (ParseError, InvalidInput, OSError, TooLarge) as exc:
            record = ResultRecord(
                instance=spec.instance_label(),
                algorithm=spec.algorithm,
                weights=spec.weights.value,
                order=spec.order.value,
                seed=spec.seed,
                repeat=spec.repeat,
                epsilon=spec.epsilon,
                alpha=None if spec.alpha is None else str(spec.alpha),
                error=f"{type(exc).__name__}: {exc}",
            )
        yield record


def expand_grid(
    sources: list[tuple[Optional[str], Optional[tuple[int, int, int, int]]]],
    algorithms: list[str],
    epsilons: list[float],
    alphas: list[Union[float, str]],
    orders: list[StreamOrder],
    seeds: list[int],
    repeats: int,
    weights: WeightScheme,
    certify: bool,
    emit_matching: bool,
) -> Iterator[RunSpec]:
    """Cartesian product of the axes, skipping knobs an algorithm lacks."""
    for input_path, gen in sources:
        for algorithm in algorithms:
            if algorithm in STACK_FAMILY:
                knobs = [{"epsilon": e} for e in epsilons]
            elif algorithm == "swapset":
                knobs = [{"alpha": a} for a in alphas]
            else:
                knobs = [{}]
            for knob in knobs:
                for order in orders:
                    for seed in seeds:
                        for repeat in range(repeats):
                            yield RunSpec(
                                input_path=input_path,
                                gen=gen,
                                weights=weights,
                                algorithm=algorithm,
                                order=order,
                                seed=seed,
                                certify=certify,
                                emit_matching=emit_matching,
                                repeat=repeat,
                                **knob,
                            )


def oracle_record(
    spec: RunSpec, limits: OracleLimits | None = None
) -> ResultRecord:
    """Solve an instance exactly and wrap the result in the record schema."""
    hg = load_instance(spec)
    matching = exact_max_weight_matching(hg, limits)
    return ResultRecord(
        instance=spec.instance_label(),
        algorithm="oracle",
        weights=spec.weights.value,
        order=spec.order.value,
        seed=spec.seed,
        repeat=0,
        n=hg.n,
        m=hg.m,
        d=hg.d,
        total_pins=hg.total_pins,
        matching_weight=matching.weight,
        cardinality=matching.cardinality,
        oracle_weight=matching.weight,
        matching_edges=" ".join(str(eid) for eid in sorted(matching.edge_ids)),
    )


def emit(records: Iterable[ResultRecord], fmt: str, out: TextIO) -> int:
    """Write records as CSV (streamed row by row) or a JSON array.

    Returns the number of records whose ``error`` field is set.
    """
    errors = 0
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.as_row())
            out.flush()
            errors += record.error is not None
    else:
        rows = [r.as_dict() for r in records]
        json.dump(rows, out, indent=2)
        out.write("\n")
        errors = sum(row["error"] is not None for row in rows)
    return errors


def _parse_gen(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidInput(f"--gen wants n,m,d_max,w_max, got {text!r}")
    try:
        n, m, d_max, w_max = (int(p) for p in parts)
    except ValueError:
        raise InvalidInput(f"--gen wants four integers, got {text!r}") from None
    return n, m, d_max, w_max


def _parse_alpha(text: str) -> Union[float, str]:
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise InvalidInput(f"--alpha must be a number or 'auto', got {text!r}") from None


def _add_source_args(parser: argparse.ArgumentParser, repeatable: bool) -> None:
    action = "append" if repeatable else "store"
    parser.add_argument("--input", action=action, metavar="FILE",
                        help="instance file in hMetis text format")
    parser.add_argument("--gen", action=action, metavar="N,M,DMAX,WMAX",
                        help="generate a random instance instead of reading one")
    parser.add_argument("--weights", choices=[s.value for s in WeightScheme],
                        default="file", help="weight scheme applied after loading")
    parser.add_argument("--seed", action=action, type=int, default=None,
                        help="seed for generation and random order (default 0)")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write records here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermatch",
        description="Streaming hypergraph matching benchmarks with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm on one instance")
    _add_source_args(p_run, repeatable=False)
    p_run.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p_run.add_argument("--epsilon", type=float, default=None,
                       help="admission slack for the stack family (default 0)")
    p_run.add_argument("--alpha", type=_parse_alpha, default=None,
                       help="swap threshold for swapset, or 'auto' (default)")
    p_run.add_argument("--order", choices=[o.value for o in StreamOrder],
                       default="original")
    p_run.add_argument("--certify", action="store_true",
                       help="attach dual certificate and, when feasible, the exact optimum")
    p_run.add_argument("--emit-matching", action="store_true",
                       help="include the matched edge ids in the record")
    _add_output_args(p_run)

    p_grid = sub.add_parser("grid", help="cartesian product of configurations")
    _add_source_args(p_grid, repeatable=True)
    p_grid.add_argument("--algorithm", action="append", choices=ALGORITHMS,
                        required=True)
    p_grid.add_argument("--epsilon", action="append", type=float, default=None)
    p_grid.add_argument("--alpha", action="append", type=_parse_alpha, default=None)
    p_grid.add_argument("--order", action="append",
                        choices=[o.value for o in StreamOrder], default=None)
    p_grid.add_argument("--repeats", type=int, default=1,
                        help="repetitions of every cell (default 1)")
    p_grid.add_argument("--certify", action="store_true")
    p_grid.add_argument("--emit-matching", action="store_true")
    _add_output_args(p_grid)

    p_oracle = sub.add_parser("oracle", help="exact optimum of a small instance")
    _add_source_args(p_oracle, repeatable=False)
    p_oracle.add_argument("--max-edges", type=int, default=OracleLimits.max_edges,
                          help="refuse instances with more edges than this")
    _add_output_args(p_oracle)
    return parser


def _single_source(args) -> tuple[Optional[str], Optional[tuple[int, int, int, int]]]:
    if (args.input is None) == (args.gen is None):
        raise InvalidInput("exactly one of --input and --gen is required")
    gen = _parse_gen(args.gen) if args.gen is not None else None
    return args.input, gen


def _command_run(args, out: TextIO) -> int:
    input_path, gen = _single_source(args)
    spec = RunSpec(
        input_path=input_path,
        gen=gen,
        weights=WeightScheme(args.weights),
        algorithm=args.algorithm,
        epsilon=args.epsilon,
        alpha=args.alpha,
        order=StreamOrder(args.order),
        seed=args.seed if args.seed is not None else 0,
        certify=args.certify,
        emit_matching=args.emit_matching,
    )
    emit([run(spec)], args.format, out)
    return 0


def _command_grid(args, out: TextIO) -> int:
    sources: list[tuple[Optional[str], Optional[tuple[int, int, int, int]]]] = []
    for path in args.input or []:
        sources.append((path, None))
    for gen_text in args.gen or []:
        sources.append((None, _parse_gen(gen_text)))
    if not sources:
        raise InvalidInput("grid needs at least one --input or --gen")
    if args.repeats < 1:
        raise InvalidInput(f"--repeats must be at least 1, got {args.repeats}")
    specs = expand_grid(
        sources=sources,
        algorithms=args.algorithm,
        epsilons=args.epsilon if args.epsilon is not None else [0.0],
        alphas=args.alpha if args.alpha is not None else ["auto"],
        orders=[StreamOrder(o) for o in (args.order or ["original"])],
        seeds=args.seed if args.seed is not None else [0],
        repeats=args.repeats,
        weights=WeightScheme(args.weights),
        certify=args.certify,
        emit_matching=args.emit_matching,
    )
    failed = emit(grid(specs), args.format, out)
    if failed:
        _print_error("cell_errors", f"{failed} grid cell(s) failed; see the error column")
        return 2
    return 0


def _command_oracle(args, out: TextIO) -> int:
    input_path, gen = _single_source(args)
    spec = RunSpec(
        input_path=input_path,
        gen=gen,
        weights=WeightScheme(args.weights),
        algorithm="naive",  # placeholder; the oracle ignores it
        seed=args.seed if args.seed is not None else 0,
    )
    limits = OracleLimits(max_edges=args.max_edges)
    emit([oracle_record(spec, limits)], args.format, out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is not None:
            with open(args.output, "w", newline="") as out:
                return _dispatch(args, out)
        return _dispatch(args, sys.stdout)
    except TooLarge as exc:
        _print_error("too_large", exc)
        return 3
    except ParseError as exc:
        _print_error("parse_error", exc)
        return 2
    except (InvalidInput, OSError) as exc:
        _print_error("invalid_input", exc)
        return 2


def _dispatch(args, out: TextIO) -> int:
    if args.command == "run":
        return _command_run(args, out)
    if args.command == "grid":
        return _command_grid(args, out)
    return _command_oracle(args, out)


def _print_error(kind: str, exc: Union[Exception, str]) -> None:
    json.dump({"error": kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
