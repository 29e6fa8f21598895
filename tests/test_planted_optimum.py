"""The guarantees against an exact optimum at 1e4 edges.

``planted_instance`` plants a matching whose weight its integral potentials
``y`` certify as the optimum, so no oracle is needed.  Each case checks the
certificate; asserts, in every stream order, the stack's ``1/d`` at
``epsilon = 0`` and ``1/(1.1 d)`` at ``epsilon = 0.1``, weak duality of both
stacks' potentials and swapset's ratio at ``optimal_alpha``, and greedy's
``1/d``; and pins the achieved ratios of two seeds, naive's and the lenient
stack's too, which have no guarantee.
"""

from __future__ import annotations

import pytest

from hypermatch.baselines import run_greedy, run_naive
from hypermatch.ingest import StreamOrder, order_stream
from hypermatch.stack_matcher import (
    DualState, UpdateRule, dual_feasible, dual_upper_bound, run_stack_stream,
)
from hypermatch.swap_matcher import optimal_alpha, run_swapset, swapset_ratio

from conftest import planted_instance

N, M, R_MAX = 2400, 10_000, 100

# weight / opt, to 4 places: greedy, then the stack (GUARANTEE, epsilon 0),
# swapset (optimal_alpha), naive and the lenient stack (epsilon 0), each in
# the original, ascending, descending and random orders
PINNED = {
    (2, False, 1): (1.0, 0.837, 0.8903, 1.0, 0.8348, 0.7835, 0.6666, 1.0, 0.7755,
                    0.5325, 0.2052, 1.0, 0.5169, 0.8665, 0.9745, 0.9647, 0.8597),
    (2, False, 2): (0.9987, 0.8392, 0.8955, 0.9987, 0.8231, 0.7877, 0.672, 0.9987, 0.7605,
                    0.5426, 0.2046, 0.9987, 0.498, 0.8661, 0.9742, 0.9546, 0.8758),
    (2, True, 1): (0.9977, 0.9712, 0.9994, 0.9979, 0.9651, 0.9438, 0.8968, 0.9977, 0.9317,
                   0.8991, 0.9801, 0.9977, 0.8946, 0.8834, 0.9974, 0.977, 0.8839),
    (2, True, 2): (0.995, 0.9712, 0.9994, 0.9951, 0.9714, 0.9421, 0.894, 0.995, 0.9448,
                   0.8954, 0.9688, 0.995, 0.9093, 0.8826, 0.9984, 0.9761, 0.8769),
    (3, False, 1): (1.0, 0.7013, 0.7815, 1.0, 0.6984, 0.6713, 0.537, 1.0, 0.6568,
                    0.4536, 0.1647, 1.0, 0.4443, 0.772, 0.9509, 0.9172, 0.7777),
    (3, False, 2): (1.0, 0.7081, 0.7778, 1.0, 0.7164, 0.6635, 0.5424, 1.0, 0.6709,
                    0.4463, 0.1507, 1.0, 0.4554, 0.7854, 0.9537, 0.9225, 0.7877),
    (3, True, 1): (0.9932, 0.8577, 0.8843, 0.9932, 0.8659, 0.8472, 0.7915, 0.9932, 0.8485,
                   0.8123, 0.9646, 0.9932, 0.8012, 0.7737, 0.9473, 0.8131, 0.7754),
    (3, True, 2): (1.0, 0.8811, 0.8777, 1.0, 0.8619, 0.8532, 0.7831, 1.0, 0.842,
                   0.8063, 1.0, 1.0, 0.7967, 0.7627, 0.9451, 0.816, 0.7828),
    (4, False, 1): (1.0, 0.6056, 0.7054, 1.0, 0.5948, 0.5866, 0.471, 1.0, 0.5611,
                    0.3811, 0.1282, 1.0, 0.4077, 0.6878, 0.9424, 0.9501, 0.6805),
    (4, False, 2): (1.0, 0.6148, 0.6857, 1.0, 0.6081, 0.5834, 0.4711, 1.0, 0.5962,
                    0.3829, 0.1391, 1.0, 0.3917, 0.7187, 0.944, 0.9571, 0.6881),
    (4, True, 1): (1.0, 0.7605, 0.7753, 1.0, 0.7753, 0.7604, 0.7109, 1.0, 0.7569,
                   0.7302, 1.0, 1.0, 0.7334, 0.6884, 0.916, 0.7306, 0.6755),
    (4, True, 2): (1.0, 0.78, 0.7658, 1.0, 0.7835, 0.769, 0.7211, 1.0, 0.7765,
                   0.7328, 1.0, 1.0, 0.749, 0.6926, 0.9056, 0.7663, 0.6873),
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
    stacks, swaps, naives, lenients = [], [], [], []
    for order in StreamOrder:
        stream = order_stream(hg, order, seed)
        for epsilon in (0.1, 0.0):  # the last stack run is the pinned one
            stack, dual, _ = run_stack_stream(hg, stream, epsilon, UpdateRule.GUARANTEE)
            assert opt / ((1 + epsilon) * d) <= stack.weight <= opt, (order, epsilon)
            assert dual_upper_bound(dual) >= opt, (order, epsilon)
        stacks.append(stack.weight)
        swap, _ = run_swapset(hg, stream, alpha)
        assert swapset_ratio(alpha, d) * opt <= swap.weight <= opt, order
        swaps.append(swap.weight)
        naives.append(run_naive(hg, stream)[0].weight)
        lenients.append(run_stack_stream(hg, stream, 0.0, UpdateRule.LENIENT)[0].weight)
        assert naives[-1] <= opt and lenients[-1] <= opt, order

    ratios = tuple(round(w / opt, 4)
                   for w in (greedy.weight, *stacks, *swaps, *naives, *lenients))
    assert ratios == PINNED[d, tight, seed]
