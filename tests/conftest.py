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
