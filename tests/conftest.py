"""Shared helpers for the test suite.

Instances come from the package's own seeded generator so every test run
sees exactly the same inputs.  The meta-RNG chain below is part of the
frozen test surface: changing it changes which instances are covered.
"""

from __future__ import annotations

import math
import random
from array import array

from hypermatch import Hypergraph, gen_random_hypergraph

# Weight caps are deliberately lopsided: 1 forces all-ties instances, small
# caps force frequent ties, 100 gives spread-out weights.
WEIGHT_CAPS = (1, 3, 10, 100)


def random_instances(
    count: int,
    meta_seed: int,
    n_max: int = 10,
    m_max: int = 12,
    d_cap: int = 4,
    weight_caps: tuple[int, ...] = WEIGHT_CAPS,
) -> list[Hypergraph]:
    """Deterministic batch of small random instances."""
    meta = random.Random(meta_seed)
    instances = []
    for _ in range(count):
        n = meta.randint(2, n_max)
        d_max = meta.randint(1, min(d_cap, n))
        m = meta.randint(0, m_max)
        w_max = meta.choice(weight_caps)
        instances.append(gen_random_hypergraph(n, m, d_max, w_max, meta.randrange(1 << 30)))
    return instances


def with_decimal_weights(hg: Hypergraph, seed: int) -> Hypergraph:
    """``hg`` with seeded decimal weights (one to three places, so some tie)."""
    rng = random.Random(seed)
    weights = [round(rng.uniform(0.1, 10.0), rng.randint(1, 3)) for _ in range(hg.m)]
    return Hypergraph(hg.n, hg.vertices, weights)


# Base weights for the near-threshold fold inputs.  For each fold alpha
# and epsilon other than 0 and 1, at least one of them has a threshold
# product t = (1 + x) * W, or the float just below it, for which
# t / (1 + x) < W disagrees with t < (1 + x) * W.
NEAR_THRESHOLD_BASES = (1.0, 0.9, 1.5, 7.0)


def ulp_neighbours(x: float) -> tuple[float, float, float]:
    """The float one ulp below ``x``, ``x`` itself, and the float one ulp above."""
    return math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)


def stream_forms(stream: list[int]) -> list:
    """``stream`` as an iterator, a generator, a tuple and an ``array('q')``."""
    return [iter(stream), (eid for eid in stream), tuple(stream), array("q", stream)]


def planted_instance(
    n: int, m: int, d: int, r_max: int, seed: int, tight: bool = False
) -> tuple[Hypergraph, list[int], int]:
    """A seeded instance of ``m`` edges on ``n`` vertices whose optimum is known.

    Returns ``(hg, y, opt)``.  The vertices, shuffled, are cut into
    ``n // d`` disjoint planted edges of ``d`` vertices; a planted edge
    weighs ``d * r`` for a seeded integer ``r`` in ``1..r_max``, and each
    of its vertices gets the potential ``y[v] = r`` (a vertex left over
    gets 0).  The other edges are noise: ``d`` distinct random vertices
    each, weighing a random integer in ``1..y(e)``, or exactly ``y(e)``
    when ``tight``, where ``y(e)`` is the potential sum over the edge (a
    noise edge with ``y(e) = 0`` is drawn again).  So ``y >= 0`` covers
    every edge and sums to the planted weight: by weak duality the planted
    edges are a maximum matching, and ``opt``, their weight, is exact in
    integers.  The edge ids are shuffled, so the planted edges do not come
    first.  Requires ``1 <= d <= n``.
    """
    assert 1 <= d <= n, (d, n)
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    y = [0] * n
    edges = []
    for i in range(0, n - n % d, d):
        r = rng.randint(1, r_max)
        verts = tuple(sorted(order[i : i + d]))
        for v in verts:
            y[v] = r
        edges.append((verts, d * r))
    opt = sum(w for _, w in edges)
    while len(edges) < m:
        drawn = set()
        while len(drawn) < d:
            drawn.add(rng.randrange(n))
        verts = tuple(sorted(drawn))
        cover = sum(y[v] for v in verts)
        if cover:
            edges.append((verts, cover if tight else rng.randint(1, cover)))
    rng.shuffle(edges)
    return Hypergraph(n, [v for v, _ in edges], [float(w) for _, w in edges]), y, opt
