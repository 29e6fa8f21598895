"""Reference heuristics: first-fit over a stream, and its offline variant.

The naive matcher takes each streamed edge whose vertices are all still
free, which yields a maximal matching of the stream.  The greedy matcher
is exactly the naive matcher fed the edges in descending weight order
(ties by id), giving the classic ``1/d`` guarantee at the cost of holding
and sorting the whole instance.
"""

from __future__ import annotations

import time
from typing import Iterable

from .core import Hypergraph, Matching, RunMetrics, check_stream, first_fit
from .ingest import StreamOrder, order_stream


def run_naive(hg: Hypergraph, stream: Iterable[int]) -> tuple[Matching, RunMetrics]:
    """First-fit over ``stream``, read as :func:`check_stream` reads it."""
    stream = check_stream(hg, stream)
    metrics = RunMetrics()
    start = time.perf_counter_ns()
    chosen = first_fit(hg, stream)
    metrics.runtime_ns = time.perf_counter_ns() - start
    matching = Matching.from_edge_ids(hg, chosen)
    metrics.matching_weight = matching.weight
    metrics.cardinality = matching.cardinality
    return matching, metrics


def run_greedy(hg: Hypergraph) -> tuple[Matching, RunMetrics]:
    """First-fit over edges sorted by descending weight, ties by id.

    Sorting is part of the measured runtime.  The result is identical to
    ``run_naive(hg, order_stream(hg, StreamOrder.DESCENDING))``.
    """
    metrics = RunMetrics()
    start = time.perf_counter_ns()
    stream = order_stream(hg, StreamOrder.DESCENDING)
    chosen = first_fit(hg, stream)
    metrics.runtime_ns = time.perf_counter_ns() - start
    matching = Matching.from_edge_ids(hg, chosen)
    metrics.matching_weight = matching.weight
    metrics.cardinality = matching.cardinality
    return matching, metrics

