"""Spans around the public entry points of the seven hypermatch modules.

The tracer replaces each target function in every module namespace that
binds it (``cli.run_stack_stream`` and ``stack_matcher.run_stack_stream``
are the same function), so calls between modules are seen as well as the
benchmark's own.  Spans are kept in memory and written out at the end.
Per-edge helpers (``admit``, ``conflict_set`` and the like) are not
wrapped: at 1e5 edges their wrappers would cost more than the kernels.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, qualified name) of every traced entry point.
TARGETS = (
    ("cli", "main"),
    ("cli", "run"),
    ("cli", "emit"),
    ("cli", "load_instance"),
    ("ingest", "parse_hmetis"),
    ("ingest", "gen_random_hypergraph"),
    ("ingest", "order_stream"),
    ("ingest", "synthesize_weights"),
    ("core", "Hypergraph.build"),
    ("core", "Matching.from_edge_ids"),
    ("core", "check_stream"),
    ("stack_matcher", "run_stack_stream"),
    ("stack_matcher", "dual_feasible"),
    ("stack_matcher", "dual_upper_bound"),
    ("swap_matcher", "run_swapset"),
    ("baselines", "run_naive"),
    ("baselines", "run_greedy"),
    ("oracle", "exact_max_weight_matching"),
)


def _parse_counts(args, kwargs, result) -> dict:
    source = args[0] if args else kwargs.get("source")
    return {"bytes": len(source) if isinstance(source, (str, bytes)) else 0}


def _stack_counts(args, kwargs, result) -> dict:
    metrics = result[2]
    return {"pushes": metrics.pushes, "cardinality": metrics.cardinality,
            "peak_stack_pins": metrics.peak_stack_pins}


def _swap_counts(args, kwargs, result) -> dict:
    return {"swaps": result[1].swaps, "edges": args[0].m}  # the stream is a permutation


# Counters read at the boundary of the span that does the work.
COUNTS = {
    "ingest.parse_hmetis": _parse_counts,
    "stack_matcher.run_stack_stream": _stack_counts,
    "swap_matcher.run_swapset": _swap_counts,
}


class Tracer:
    """Records ``(name, start_ns, end_ns, parent, op, error, counts)`` spans.

    ``parent`` is the index of the enclosing span or -1, and ``op`` the
    operation the span belongs to, set by the caller through :attr:`op`.
    """

    def __init__(self, package) -> None:
        self.spans: list = []
        self.op = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        namespaces = [package] + [getattr(package, mod) for mod, _ in TARGETS]
        for mod, qualname in TARGETS:
            owner = getattr(package, mod)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            name = f"{mod}.{qualname}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
                self._patches.append((owner, attr, raw, wrapped))
                continue
            wrapped = self._wrap(raw, name)
            for ns in dict.fromkeys(namespaces):
                for key, value in vars(ns).items():
                    if value is raw:
                        self._patches.append((ns, key, raw, wrapped))

    def _wrap(self, fn, name: str):
        counts = COUNTS.get(name)
        spans = self.spans
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, error, None)
            if counts is not None:
                spans[index] = spans[index][:6] + (counts(args, kwargs, result),)
            return result

        return traced

    def install(self) -> None:
        for ns, key, _, wrapped in self._patches:
            setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, raw, _ in self._patches:
            setattr(ns, key, raw)

    def write(self, path, origin_ns: int) -> None:
        """Spans as JSON lines, times relative to ``origin_ns``."""
        with open(path, "w") as out:
            for name, start, end, parent, op, error, counts in self.spans:
                out.write(json.dumps({
                    "name": name, "start_ns": start - origin_ns, "end_ns": end - origin_ns,
                    "parent": parent, "op": op, "error": error, "counts": counts,
                }) + "\n")


def layer_totals(spans) -> dict:
    """Per span name: calls, busy (inclusive) ns, self ns, errors, summed counts."""
    totals: dict = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                        "errors": defaultdict(int), "counts": defaultdict(int)})
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, _, _, error, counts) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["busy_ns"] += end - start
        t["self_ns"] += end - start - child_ns[i]
        if error is not None:
            t["errors"][error] += 1
        for key, value in (counts or {}).items():
            if key == "peak_stack_pins":
                t["counts"][key] = max(t["counts"][key], value)
            else:
                t["counts"][key] += value
    return totals
