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
failed cell), 3 oracle refusal, 141 output closed by its reader (a broken
pipe, as in ``hypermatch grid ... | head``; nothing is printed).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from functools import cache, cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Optional, TextIO, Union

from .core import Hypergraph, InvalidInput, RunMetrics, Stream, _Frozen
from .ingest import (
    ParseError,
    StreamOrder,
    WeightScheme,
    check_seed,
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

# The knob each algorithm takes; naive and greedy take none.
KNOBS = {"stack": "epsilon", "stack-lenient": "epsilon", "swapset": "alpha",
         "naive": None, "greedy": None}
ALGORITHMS = tuple(KNOBS)
# The value a cell runs with when its algorithm's knob is unset.
KNOB_DEFAULTS = {"epsilon": 0.0, "alpha": "auto"}
# The input failures reported rather than raised: the kind a command prints
# on stderr and the exit code it returns.  A grid cell records the failure.
INPUT_FAILURES = {TooLarge: ("too_large", 3), ParseError: ("parse_error", 2),
                  InvalidInput: ("invalid_input", 2), OSError: ("invalid_input", 2)}
# The exit code when the reader of the output closes it early: 128 + SIGPIPE,
# what a shell reports for a program that a broken pipe kills.
BROKEN_PIPE_EXIT = 141

Source = Union[str, tuple[int, int, int, int]]


class RunSpec(_Frozen):
    """One benchmark cell: an instance source, which is an hMetis file path
    or the generator's (n, m, d_max, w_max), plus algorithm configuration.
    Construction validates it and sets the algorithm's own knob to its
    default when unset; a knob the algorithm lacks stays None.  ``alpha``
    is a float or the string "auto"."""

    def __init__(self, source: Source, weights: WeightScheme = WeightScheme.FROM_FILE,
                 algorithm: str = "naive", epsilon: Optional[float] = None,
                 alpha: Union[float, str, None] = None,
                 order: StreamOrder = StreamOrder.ORIGINAL, seed: int = 0,
                 certify: bool = False, emit_matching: bool = False, repeat: int = 0) -> None:
        _check_source(source)
        checked = {"weights": weights, "order": order, "seed": seed, "repeat": repeat,
                   "certify": certify, "emit_matching": emit_matching}
        for name, value in checked.items():
            _check_field(name, value)
        vars(self).update(source=source, algorithm=algorithm, **checked,
                          **_knobs(algorithm, epsilon, alpha))

    @property
    def _key(self) -> frozenset:
        return frozenset(vars(self).items())

    def instance_label(self) -> str:
        if isinstance(self.source, tuple):
            return "gen:" + ",".join(map(str, self.source))
        return str(self.source)

    @classmethod
    def _of_checked(cls, **values) -> "RunSpec":
        """A spec of every field, from values already checked, unchecked."""
        spec = cls.__new__(cls)
        vars(spec).update(values)
        return spec


# The type each plain field of a RunSpec must have; int means exactly int.
FIELD_TYPES = {"weights": WeightScheme, "order": StreamOrder, "seed": int, "repeat": int,
               "certify": bool, "emit_matching": bool}


def _check_source(source) -> None:
    # exactly int: bool is an int subclass, and as a count it is a caller's error
    generated = (isinstance(source, tuple) and len(source) == 4
                 and all(type(count) is int for count in source))
    if not (isinstance(source, str) or generated):
        raise InvalidInput(
            f"source must be a file path or (n, m, d_max, w_max), got {source!r}")


def _check_field(name: str, value) -> None:
    kind = FIELD_TYPES[name]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise InvalidInput(f"{name} must be of type {kind.__name__}, got {value!r}")
    if name == "seed":
        check_seed(value)


def _knobs(algorithm: str, epsilon=None, alpha=None) -> dict:
    """The knob values a cell of ``algorithm`` runs with: its own knob, set
    to its default when None, and None for a knob it lacks."""
    if algorithm not in KNOBS:
        raise InvalidInput(f"unknown algorithm {algorithm!r}")
    knobs = {"epsilon": epsilon, "alpha": alpha}
    for knob, default in KNOB_DEFAULTS.items():
        if KNOBS[algorithm] == knob:
            if knobs[knob] is None:
                knobs[knob] = default
        elif knobs[knob] is not None:
            raise InvalidInput(f"{knob} does not apply to {algorithm}")
    # bool is an int subclass; as a knob value it is a caller's error
    if knobs["epsilon"] is not None and not _is_number(knobs["epsilon"]):
        raise InvalidInput(f"epsilon must be a number, got {knobs['epsilon']!r}")
    if knobs["alpha"] not in (None, "auto") and not _is_number(knobs["alpha"]):
        raise InvalidInput(f"alpha must be a number or 'auto', got {knobs['alpha']!r}")
    return knobs


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The record schema: ResultRecord's fields, in CSV column order.
CSV_COLUMNS = (
    "instance", "algorithm", "weights", "order", "seed", "repeat", "epsilon", "alpha",
    "resolved_alpha", "n", "m", "d", "total_pins", "matching_weight", "cardinality",
    "pushes", "pops", "swaps", "vertex_push_max", "peak_stack_edges", "peak_stack_pins",
    "logical_memory", "runtime_ns", "dual_upper_bound", "dual_feasible", "oracle_weight",
    "matching_edges", "error",
)
_column_values = attrgetter(*CSV_COLUMNS)


class ResultRecord:
    """Flat result row; fields that do not apply stay None."""

    def __init__(self, instance: str, algorithm: str, weights: str, order: str, seed: int,
                 repeat: int, epsilon: Optional[float] = None, alpha: Optional[str] = None,
                 resolved_alpha: Optional[float] = None, n: Optional[int] = None,
                 m: Optional[int] = None, d: Optional[int] = None,
                 total_pins: Optional[int] = None, matching_weight: Optional[float] = None,
                 cardinality: Optional[int] = None, pushes: Optional[int] = None,
                 pops: Optional[int] = None, swaps: Optional[int] = None,
                 vertex_push_max: Optional[int] = None,
                 peak_stack_edges: Optional[int] = None,
                 peak_stack_pins: Optional[int] = None,
                 logical_memory: Optional[int] = None, runtime_ns: Optional[int] = None,
                 dual_upper_bound: Optional[float] = None,
                 dual_feasible: Optional[bool] = None,
                 oracle_weight: Optional[float] = None,
                 matching_edges: Optional[str] = None, error: Optional[str] = None) -> None:
        self.instance = instance
        self.algorithm = algorithm
        self.weights = weights
        self.order = order
        self.seed = seed
        self.repeat = repeat
        self.epsilon = epsilon
        self.alpha = alpha
        self.resolved_alpha = resolved_alpha
        self.n = n
        self.m = m
        self.d = d
        self.total_pins = total_pins
        self.matching_weight = matching_weight
        self.cardinality = cardinality
        self.pushes = pushes
        self.pops = pops
        self.swaps = swaps
        self.vertex_push_max = vertex_push_max
        self.peak_stack_edges = peak_stack_edges
        self.peak_stack_pins = peak_stack_pins
        self.logical_memory = logical_memory
        self.runtime_ns = runtime_ns
        self.dual_upper_bound = dual_upper_bound
        self.dual_feasible = dual_feasible
        self.oracle_weight = oracle_weight
        self.matching_edges = matching_edges
        self.error = error

    @classmethod
    def for_spec(cls, spec: RunSpec, hg: Optional[Hypergraph] = None, **values) -> "ResultRecord":
        """A record labelled with the spec's configuration and, given ``hg``,
        the instance's shape, holding ``values`` in the other fields."""
        if hg is not None:
            values.update(n=hg.n, m=hg.m, d=hg.d, total_pins=hg.total_pins)
        return cls(spec.instance_label(), spec.algorithm, spec.weights.value,
                   spec.order.value, spec.seed, spec.repeat, spec.epsilon,
                   None if spec.alpha is None else str(spec.alpha), **values)

    def as_dict(self) -> dict:
        """The record's JSON object.  JSON has no NaN or infinity, so a
        non-finite float is written as its CSV text."""
        return {name: _json_value(getattr(self, name)) for name in CSV_COLUMNS}

    def as_row(self) -> list[str]:
        # a bool is True or False itself, so identity tests it without isinstance
        return ["" if value is None else "true" if value is True
                else "false" if value is False else str(value)
                for value in _column_values(self)]


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def load_instance(spec: RunSpec) -> Hypergraph:
    """Materialize and weight the instance a spec refers to."""
    if isinstance(spec.source, str):
        hg = parse_hmetis(Path(spec.source).read_bytes())
    else:
        hg = gen_random_hypergraph(*spec.source, spec.seed)
    return synthesize_weights(hg, spec.weights)


def logical_memory(algorithm: str, hg: Hypergraph, metrics: RunMetrics) -> int:
    """Units of live state an algorithm needed, in edge-slot counts.

    The stack family holds its stacked pins plus one potential per vertex;
    the swap and naive matchers hold one edge reference per vertex (they
    stack nothing, so their ``peak_stack_pins`` is 0); greedy must keep
    every pin of the instance in order to sort it.  The swap matcher's
    per-vertex threshold is a cache derived from its edge reference, so it
    adds no unit: its state stays O(n).
    """
    return hg.total_pins if algorithm == "greedy" else metrics.peak_stack_pins + hg.n


class _LoadedInstance:
    """A loaded instance, shared by every cell that runs on it."""

    def __init__(self, hg: Hypergraph) -> None:
        self.hg = hg
        self.streams: dict = {}

    def stream(self, order: StreamOrder, seed: int) -> Stream:
        """The edge ids in ``order``, as the cached :class:`Stream`.

        Each distinct stream is ordered once and kept, 8 bytes per edge;
        every run iterates that same stream, with no copy and no check.
        Only the random order reads the seed, so the other orders are kept
        once whatever the seed.
        """
        key = (order, seed) if order is StreamOrder.RANDOM else order
        stream = self.streams.get(key)
        if stream is None:
            stream = self.streams[key] = order_stream(self.hg, order, seed)
        return stream

    @cached_property
    def oracle_weight(self) -> Optional[float]:
        """The exact optimum, solved on first use; None when the oracle refuses."""
        try:
            return exact_max_weight_matching(self.hg).weight
        except TooLarge:
            return None


def run(spec: RunSpec) -> ResultRecord:
    """Execute one benchmark cell and return its record."""
    return _run_cell(spec, _LoadedInstance(load_instance(spec)))


def _run_cell(spec: RunSpec, instance: _LoadedInstance) -> ResultRecord:
    """Run one cell on an already loaded instance."""
    hg, algorithm = instance.hg, spec.algorithm
    # greedy sorts internally; the order axis does not affect it
    stream = None if algorithm == "greedy" else instance.stream(spec.order, spec.seed)
    dual = resolved_alpha = None
    if algorithm == "swapset":
        auto = spec.alpha == "auto"
        resolved_alpha = optimal_alpha(max(hg.d, 1)) if auto else float(spec.alpha)
        matching, metrics = run_swapset(hg, stream, resolved_alpha)
    elif algorithm == "naive":
        matching, metrics = run_naive(hg, stream)
    elif algorithm == "greedy":
        matching, metrics = run_greedy(hg)
    else:
        rule = UpdateRule.GUARANTEE if algorithm == "stack" else UpdateRule.LENIENT
        matching, dual, metrics = run_stack_stream(hg, stream, spec.epsilon, rule)

    record = ResultRecord.for_spec(
        spec, hg, resolved_alpha=resolved_alpha,
        logical_memory=logical_memory(algorithm, hg, metrics), **vars(metrics),
    )
    if spec.certify:
        if dual is not None:
            record.dual_upper_bound = dual_upper_bound(dual)
            record.dual_feasible = dual_feasible(hg, dual)
        record.oracle_weight = instance.oracle_weight
    if spec.emit_matching:
        record.matching_edges = " ".join(map(str, sorted(matching.edge_ids)))
    return record


def grid(specs: Iterable[RunSpec]) -> Iterator[ResultRecord]:
    """Run every cell, turning per-cell input failures into error records.

    Each instance is loaded once and shared, with its exact optimum, by the
    cells that use it: a file is read once per weight scheme, a generated
    instance once per seed and weight scheme.  Each loaded instance orders
    each distinct (order, seed) stream once.  The cache holds one run of
    equal sources at a time; ``expand_grid`` iterates sources outermost.
    A failed load is cached too, as its error text, so a bad source is read
    once per run and every cell of it gets its own row with that error.
    """
    for source, group in itertools.groupby(specs, attrgetter("source")):
        loaded: dict[tuple, Union[_LoadedInstance, str]] = {}
        for spec in group:
            # --seed changes a generated instance but not a file's contents
            key = (spec.weights, None if isinstance(source, str) else spec.seed)
            instance = loaded.get(key)  # None: the last source's instance is not held in a load
            if instance is None:
                try:
                    instance = loaded[key] = _LoadedInstance(load_instance(spec))
                except tuple(INPUT_FAILURES) as exc:
                    instance = loaded[key] = _error_text(exc)
            try:
                record = (_run_cell(spec, instance) if isinstance(instance, _LoadedInstance)
                          else ResultRecord.for_spec(spec, error=instance))
            except tuple(INPUT_FAILURES) as exc:
                record = ResultRecord.for_spec(spec, error=_error_text(exc))
            yield record


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def expand_grid(
    sources: list[Source],
    algorithms: list[str],
    epsilons: list[Optional[float]],
    alphas: list[Union[float, str, None]],
    orders: list[StreamOrder],
    seeds: list[int],
    repeats: int,
    weights: WeightScheme,
    certify: bool,
    emit_matching: bool,
) -> Iterator[RunSpec]:
    """Cartesian product of the axes, skipping knobs an algorithm lacks;
    a knob value of None runs the cell with that knob's default.

    Every axis value is checked once, when this is called, with the
    message ``RunSpec`` gives it; the cells are then built lazily from those
    checked values without checking each one again.
    """
    for source in sources:
        _check_source(source)
    for name, values in (("weights", [weights]), ("order", orders), ("seed", seeds),
                         ("certify", [certify]), ("emit_matching", [emit_matching])):
        for value in values:
            _check_field(name, value)
    axes = {"epsilon": epsilons, "alpha": alphas}
    settings = []
    for algorithm in algorithms:
        knob = KNOBS.get(algorithm)
        for setting in [{knob: value} for value in axes[knob]] if knob else [{}]:
            settings.append((algorithm, _knobs(algorithm, **setting)))
    cells = itertools.product(sources, settings, orders, seeds, range(repeats))
    return (RunSpec._of_checked(source=source, weights=weights, algorithm=algorithm,
                                order=order, seed=seed, certify=certify,
                                emit_matching=emit_matching, repeat=repeat, **knobs)
            for source, (algorithm, knobs), order, seed, repeat in cells)


def oracle_record(
    spec: RunSpec, limits: OracleLimits | None = None
) -> ResultRecord:
    """Solve an instance exactly and wrap the result in the record schema."""
    hg = load_instance(spec)
    matching = exact_max_weight_matching(hg, limits)
    record = ResultRecord.for_spec(
        spec,
        hg,
        matching_weight=matching.weight,
        cardinality=matching.cardinality,
        oracle_weight=matching.weight,
        matching_edges=" ".join(map(str, sorted(matching.edge_ids))),
    )
    record.algorithm = "oracle"
    return record


def emit(records: Iterable[ResultRecord], fmt: str, out: TextIO) -> int:
    """Write records as CSV (streamed row by row) or a JSON array.

    CSV rows are flushed one by one into a pipe or a terminal, so a reader
    sees each as it is computed; a file (any seekable ``out``) gains
    nothing from that and is written in its own buffer's time.
    Returns the number of records whose ``error`` field is set.
    """
    errors = 0
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        streamed = not out.seekable()
        for record in records:
            writer.writerow(record.as_row())
            if streamed:
                out.flush()
            errors += record.error is not None
    else:
        rows = [r.as_dict() for r in records]
        json.dump(rows, out, indent=2, allow_nan=False)
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
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--alpha must be a number or 'auto', got {text!r}") from None


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", action="append", metavar="FILE",
                        help="instance file in hMetis text format")
    parser.add_argument("--gen", action="append", metavar="N,M,DMAX,WMAX",
                        help="generate a random instance instead of reading one")
    parser.add_argument("--weights", choices=[s.value for s in WeightScheme],
                        default="file", help="weight scheme applied after loading")
    parser.add_argument("--seed", action="append", type=int,
                        help="seed for generation and random order (default 0)")


def _add_cell_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", action="append", choices=ALGORITHMS, required=True)
    parser.add_argument("--epsilon", action="append", type=float,
                        help="admission slack for the stack family (default 0)")
    parser.add_argument("--alpha", action="append", type=_parse_alpha,
                        help="swap threshold for swapset, or 'auto' (default)")
    parser.add_argument("--order", action="append", choices=[o.value for o in StreamOrder],
                        help="stream order (default original)")
    parser.add_argument("--certify", action="store_true",
                        help="attach dual certificate and, when feasible, the exact optimum")
    parser.add_argument("--emit-matching", action="store_true",
                        help="include the matched edge ids in the record")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write records here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line on stderr as the same one-line JSON object
    as every other error; its subcommand parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        _print_error("usage", message)
        sys.exit(2)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every flag list starts at ``None``, not a shared list."""
    parser = _Parser(
        prog="hypermatch",
        description="Streaming hypergraph matching benchmarks with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm on one instance")
    _add_source_args(p_run)
    _add_cell_args(p_run)
    _add_output_args(p_run)

    p_grid = sub.add_parser("grid", help="cartesian product of configurations")
    _add_source_args(p_grid)
    _add_cell_args(p_grid)
    p_grid.add_argument("--repeats", type=int, default=1,
                        help="repetitions of every cell (default 1)")
    _add_output_args(p_grid)

    p_oracle = sub.add_parser("oracle", help="exact optimum of a small instance")
    _add_source_args(p_oracle)
    p_oracle.add_argument("--max-edges", type=int, default=OracleLimits.max_edges,
                          help="refuse instances with more edges than this")
    _add_output_args(p_oracle)
    return parser


def _records(args) -> Iterable[ResultRecord]:
    """The subcommand's records: computed for ``run`` and ``oracle``, so
    they fail before any output is opened; lazy for ``grid``, so rows stream."""
    limits = OracleLimits(max_edges=args.max_edges) if args.command == "oracle" else None
    if args.command != "grid" and (args.input is None) == (args.gen is None):
        raise InvalidInput("exactly one of --input and --gen is required")
    sources = [*(args.input or []), *map(_parse_gen, args.gen or [])]
    if not sources:
        raise InvalidInput("grid needs at least one --input or --gen")
    if args.output is not None and os.path.exists(args.output):
        for path in filter(os.path.exists, args.input or []):  # a missing file matches nothing
            if os.path.samefile(path, args.output):
                raise InvalidInput(f"--output {args.output!r} would overwrite --input {path!r}")
    weights, seeds = WeightScheme(args.weights), args.seed or [0]
    if args.command == "oracle":
        return [oracle_record(RunSpec(source=sources[0], weights=weights, seed=seeds[0]), limits)]
    epsilons, alphas = args.epsilon or [None], args.alpha or [None]
    orders = [StreamOrder(o) for o in args.order or ["original"]]
    cell = dict(weights=weights, certify=args.certify, emit_matching=args.emit_matching)
    if args.command == "run":
        spec = RunSpec(source=sources[0], algorithm=args.algorithm[0], epsilon=epsilons[0],
                       alpha=alphas[0], order=orders[0], seed=seeds[0], **cell)
        return [run(spec)]
    if args.repeats < 1:
        raise InvalidInput(f"--repeats must be at least 1, got {args.repeats}")
    specs = expand_grid(
        sources=sources,
        algorithms=args.algorithm,
        epsilons=epsilons,
        alphas=alphas,
        orders=orders,
        seeds=seeds,
        repeats=args.repeats,
        **cell,
    )
    return grid(specs)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "grid":  # the flags given with action="append" repeat only in a grid
        for name, values in vars(args).items():
            if isinstance(values, list) and len(values) > 1:
                parser.error(f"argument --{name}: given more than once")
    try:
        records = _records(args)
        if args.output is None:
            failed = emit(records, args.format, sys.stdout)
            sys.stdout.flush()  # so a closed pipe fails here, not at exit
        else:
            with open(args.output, "w", newline="") as out:
                failed = emit(records, args.format, out)
    except BrokenPipeError:
        # an OSError, but not bad input: the reader stopped reading.  Point
        # stdout at devnull so that the flush at shutdown cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_EXIT
    except tuple(INPUT_FAILURES) as exc:
        kind, code = next(INPUT_FAILURES[c] for c in type(exc).__mro__ if c in INPUT_FAILURES)
        _print_error(kind, exc)
        return code
    if failed:
        _print_error("cell_errors", f"{failed} grid cell(s) failed; see the error column")
        return 2
    return 0


def _print_error(kind: str, exc: Union[Exception, str]) -> None:
    json.dump({"error": kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
