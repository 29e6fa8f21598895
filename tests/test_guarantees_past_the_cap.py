"""Acceptance criteria 1, 2 and 5 on instances past the oracle's default cap.

The acceptance corpus stops at 12 edges.  Here the exact oracle is run with
an explicit ``OracleLimits(max_edges=60)`` on seeded instances of 40, 50
and 60 edges of size at most 4, each with half, as many and twice as many
vertices as edges, and every streaming run is checked against the optimum
in all four stream orders.  The default cap of 24 stays as it is.
"""

from __future__ import annotations

import pytest

from hypermatch.baselines import run_greedy, run_naive
from hypermatch.ingest import StreamOrder, gen_random_hypergraph, order_stream
from hypermatch.oracle import OracleLimits, exact_max_weight_matching, is_maximal
from hypermatch.stack_matcher import (
    UpdateRule,
    dual_feasible,
    dual_upper_bound,
    run_stack_stream,
)
from hypermatch.swap_matcher import optimal_alpha, run_swapset, swapset_ratio

EPSILON = 0.1
TOLERANCE = 1e-9
INSTANCES = [
    (n, m, seed)
    for m in (40, 50, 60)
    for n in (m // 2, m, 2 * m)
    for seed in range(3)
]


@pytest.mark.parametrize("n, m, seed", INSTANCES)
def test_guarantees_against_the_optimum(n: int, m: int, seed: int) -> None:
    hg = gen_random_hypergraph(n, m, 4, 100, seed)
    opt = exact_max_weight_matching(hg, OracleLimits(max_edges=60)).weight
    d = hg.d
    slack = TOLERANCE * opt

    # criterion 1 for greedy, criterion 5 for greedy
    greedy, _ = run_greedy(hg)
    assert greedy.weight >= opt / d - slack
    assert is_maximal(hg, greedy)

    for order in StreamOrder:
        stream = order_stream(hg, order, seed)

        # criteria 1 and 2: the stack run and its dual certificate
        stack, dual, _ = run_stack_stream(hg, stream, EPSILON, UpdateRule.GUARANTEE)
        assert stack.weight >= opt / (d * (1.0 + EPSILON)) - slack, order
        assert dual_feasible(hg, dual), order
        assert dual_upper_bound(dual) >= opt - slack, order

        # criterion 1 for swapset, whose ratio holds only for alpha > 0
        if d > 1:
            alpha = optimal_alpha(d)
            swap, _ = run_swapset(hg, stream, alpha)
            assert swap.weight >= swapset_ratio(alpha, d) * opt - slack, order

        # criterion 5 for naive
        naive, _ = run_naive(hg, stream)
        assert is_maximal(hg, naive), order
