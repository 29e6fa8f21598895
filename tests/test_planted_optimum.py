"""The guarantees against an exact optimum at 1e4 edges.

``planted_instance`` plants a matching whose weight its integral potentials
``y`` certify as the optimum, so no oracle is needed.  Each case checks the
certificate; asserts the stack's ``1/d`` at ``epsilon = 0`` and swapset's
ratio at ``optimal_alpha`` in every stream order, and greedy's ``1/d``; and
pins the achieved ratios of two seeds.
"""

from __future__ import annotations

import pytest

from hypermatch.baselines import run_greedy
from hypermatch.ingest import StreamOrder, order_stream
from hypermatch.stack_matcher import DualState, UpdateRule, dual_feasible, run_stack_stream
from hypermatch.swap_matcher import optimal_alpha, run_swapset, swapset_ratio

from conftest import planted_instance

N, M, R_MAX = 2400, 10_000, 100

# weight / opt, to 4 places: greedy, then the stack (GUARANTEE, epsilon 0)
# and swapset (optimal_alpha) in the original, ascending, descending and
# random orders
PINNED = {
    (2, False, 1): (1.0, 0.837, 0.8903, 1.0, 0.8348, 0.7835, 0.6666, 1.0, 0.7755),
    (2, False, 2): (0.9987, 0.8392, 0.8955, 0.9987, 0.8231, 0.7877, 0.672, 0.9987, 0.7605),
    (2, True, 1): (0.9977, 0.9712, 0.9994, 0.9979, 0.9651, 0.9438, 0.8968, 0.9977, 0.9317),
    (2, True, 2): (0.995, 0.9712, 0.9994, 0.9951, 0.9714, 0.9421, 0.894, 0.995, 0.9448),
    (3, False, 1): (1.0, 0.7013, 0.7815, 1.0, 0.6984, 0.6713, 0.537, 1.0, 0.6568),
    (3, False, 2): (1.0, 0.7081, 0.7778, 1.0, 0.7164, 0.6635, 0.5424, 1.0, 0.6709),
    (3, True, 1): (0.9932, 0.8577, 0.8843, 0.9932, 0.8659, 0.8472, 0.7915, 0.9932, 0.8485),
    (3, True, 2): (1.0, 0.8811, 0.8777, 1.0, 0.8619, 0.8532, 0.7831, 1.0, 0.842),
    (4, False, 1): (1.0, 0.6056, 0.7054, 1.0, 0.5948, 0.5866, 0.471, 1.0, 0.5611),
    (4, False, 2): (1.0, 0.6148, 0.6857, 1.0, 0.6081, 0.5834, 0.4711, 1.0, 0.5962),
    (4, True, 1): (1.0, 0.7605, 0.7753, 1.0, 0.7753, 0.7604, 0.7109, 1.0, 0.7569),
    (4, True, 2): (1.0, 0.78, 0.7658, 1.0, 0.7835, 0.769, 0.7211, 1.0, 0.7765),
}


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("tight", (False, True), ids=("random", "tight"))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_planted_optimum_bounds_every_algorithm(d: int, tight: bool, seed: int) -> None:
    hg, y, opt = planted_instance(N, M, d, R_MAX, seed, tight)
    assert hg.m == M and hg.d == d

    # y certifies opt: in floats by the package's check, and in exact integers
    assert dual_feasible(hg, DualState([float(p) for p in y], 0.0))
    assert min(y) >= 0 and sum(y) == opt
    for verts, w in zip(hg.vertices, hg.weights):
        assert w == int(w) <= sum(y[v] for v in verts)

    greedy, _ = run_greedy(hg)
    assert opt / d <= greedy.weight <= opt
    alpha = optimal_alpha(d)
    stacks, swaps = [], []
    for order in StreamOrder:
        stream = order_stream(hg, order, seed)
        stack, _, _ = run_stack_stream(hg, stream, 0.0, UpdateRule.GUARANTEE)
        assert opt / d <= stack.weight <= opt, order
        swap, _ = run_swapset(hg, stream, alpha)
        assert swapset_ratio(alpha, d) * opt <= swap.weight <= opt, order
        stacks.append(stack.weight)
        swaps.append(swap.weight)

    ratios = tuple(round(w / opt, 4) for w in (greedy.weight, *stacks, *swaps))
    assert ratios == PINNED[d, tight, seed]
