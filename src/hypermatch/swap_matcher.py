"""One-pass matcher that keeps a matching live and swaps on improvement.

Each vertex holds a reference to the matched edge covering it (or none).
An arriving edge collects the distinct matched edges it touches; it takes
their place exactly when its weight is at least ``(1 + alpha)`` times
their combined weight.  Memory is one edge reference per vertex plus its
threshold, so the live state stays O(n) regardless of stream length.

The threshold ``bar[v]`` is ``(1 + alpha) * W(best[v])``, or ``0.0`` for a
free vertex: a cache of ``best``, written when an edge claims ``v`` and
reset when its edge is evicted.  An arrival is rejected at the first pin
with ``W(e) < bar[v]``, with no owner lookup, sort or sum.  That cannot
change a decision: weights are positive, so the combined weight, rounded
in any order, is at least each of its terms, and ``(1 + alpha) * x``
rounds monotonically in ``x``.  An arrival that passes every pin collects
its distinct owners; a lone owner is decided by its bar, since its sum is
its own weight, and two or more are summed in ascending id order before
the final test.  The per-edge reference in the tests always takes the
full sum.

For ``alpha > 0`` the final matching is within ``swapset_ratio(alpha, d)``
of optimal on instances of maximum edge size ``d``; :func:`optimal_alpha`
gives the ratio-maximising choice.  With ``alpha = 0`` equal-weight swaps
fire and no ratio is guaranteed.  ``alpha`` must be finite.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Optional

from .core import Hypergraph, InvalidInput, Matching, RunMetrics, check_stream, finish_run


def run_swapset(
    hg: Hypergraph, stream: Iterable[int], alpha: float
) -> tuple[Matching, RunMetrics]:
    """Run the swap matcher over ``stream``.

    ``stream`` is read as :func:`check_stream` reads it.  ``alpha`` must
    be non-negative and finite.  ``metrics.swaps`` counts evicted edges.
    """
    stream = check_stream(hg, stream)
    if not 0 <= alpha < math.inf:
        raise InvalidInput(f"alpha must be non-negative and finite, got {alpha}")
    best: list[Optional[int]] = [None] * hg.n
    bar = [0.0] * hg.n
    vertices, weights = hg.vertices, hg.weights
    scale = 1.0 + alpha

    start = time.perf_counter_ns()
    fired = 0
    for eid in stream:
        verts = vertices[eid]
        w = weights[eid]
        for v in verts:
            if w < bar[v]:
                break
        else:
            owners = []
            for v in verts:
                other = best[v]
                if other is not None and other not in owners:
                    owners.append(other)
            # with no owner a positive weight always enters, and a lone
            # owner's sum is its own weight, already tested against its bar
            if len(owners) > 1:
                owners.sort()
                conflict_weight = 0.0
                for other in owners:
                    conflict_weight += weights[other]
                if w < scale * conflict_weight:
                    continue
            for other in owners:
                for v in vertices[other]:
                    best[v] = None
                    bar[v] = 0.0
            threshold = scale * w
            for v in verts:
                best[v] = eid
                bar[v] = threshold
            fired += 1
    matching, metrics = finish_run(hg, {eid for eid in best if eid is not None}, start)
    # Every fired swap adds one edge and evicts its conflicts, so the edges
    # evicted are the swaps fired less the edges still matched.
    metrics.swaps = fired - metrics.cardinality
    return matching, metrics


def optimal_alpha(d: int) -> float:
    """The swap threshold that maximises the guarantee for edge size d.

    Equals ``sqrt((d - 1) / d)``; degenerates to 0 at ``d = 1``, where any
    threshold already keeps the heaviest edge per vertex.
    """
    if d < 1:
        raise InvalidInput(f"edge size must be at least 1, got {d}")
    return math.sqrt((d - 1) / d)


def swapset_ratio(alpha: float, d: int) -> float:
    """Worst-case fraction of the optimum the swap matcher retains.

    ``1 / ((1 + alpha) * ((d - 1) / alpha + d))`` for edges of size at most
    ``d``.  Requires ``alpha > 0``: at zero the swap rule admits equal
    trades and the ratio collapses.  At the :func:`optimal_alpha` threshold
    this simplifies to ``1 / ((2d - 1) + 2 * sqrt(d * (d - 1)))``.
    """
    if not 0 < alpha < math.inf:
        raise InvalidInput(f"alpha must be positive and finite, got {alpha}")
    if d < 1:
        raise InvalidInput(f"edge size must be at least 1, got {d}")
    return 1.0 / ((1.0 + alpha) * ((d - 1) / alpha + d))
