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

from .core import Hypergraph, Matching, RunMetrics, check_stream, finish_run, first_fit
from .ingest import StreamOrder, order_stream


def run_naive(hg: Hypergraph, stream: Iterable[int]) -> tuple[Matching, RunMetrics]:
    """First-fit over ``stream``, read as :func:`check_stream` reads it."""
    stream = check_stream(hg, stream)
    start = time.perf_counter_ns()
    return finish_run(hg, first_fit(hg, stream), start)


def run_greedy(hg: Hypergraph) -> tuple[Matching, RunMetrics]:
    """First-fit over edges sorted by descending weight, ties by id.

    Sorting is part of the measured runtime.  The result is identical to
    ``run_naive(hg, order_stream(hg, StreamOrder.DESCENDING))``.
    """
    start = time.perf_counter_ns()
    return finish_run(hg, first_fit(hg, order_stream(hg, StreamOrder.DESCENDING)), start)

