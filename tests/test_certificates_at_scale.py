"""Per-run certificates on 1000-edge instances, far past the exact oracle.

No optimum is known here, so each run is checked against a bound that its
own execution proves:

- stack (GUARANTEE): the gain ``g(e) = W(e) - sum of potentials`` of every
  pushed edge is non-negative, and the unwind keeps ``W(M) >= sum g``.  The
  potentials total at most ``d * sum g``, so ``W(M) * d * (1 + epsilon)``
  is at least the dual bound (the local-ratio argument of Paz and
  Schwartzman, 2017).
- swapset: with ``T`` the edges ever swapped in, ``y_v = (1 + alpha) *
  max W(e)`` over the edges of ``T`` covering ``v`` covers every edge, and
  ``sum y <= d * (1 + alpha)^2 / alpha * W(M)``, since each swap gains at
  least ``alpha`` times what it evicts.
- greedy: ``y_v`` = the weight of the matched edge covering ``v`` covers
  every edge, and ``sum y <= d * W(M)``.
- naive: the matching is maximal.

The gains and ``T`` come from folding the per-edge references over the
stream; the fold must end where the kernel does.  Every dual checked here
is also checked on full sums, where ``dual_feasible`` stops early.
"""

from __future__ import annotations

from typing import Optional

import pytest

from hypermatch.baselines import run_greedy, run_naive
from hypermatch.core import Hypergraph
from hypermatch.ingest import StreamOrder, gen_random_hypergraph, order_stream
from hypermatch.oracle import is_maximal
from hypermatch.stack_matcher import (
    DualState,
    UpdateRule,
    dual_feasible,
    dual_upper_bound,
    run_stack_stream,
)
from hypermatch.swap_matcher import optimal_alpha, run_swapset

from reference import admit, covers, matched_ids, try_swap

SEEDS = range(4)
EPSILONS = (0.0, 0.1, 1.0)
TOLERANCE = 1e-9


@pytest.fixture(scope="module", params=SEEDS)
def instance(request) -> tuple[Hypergraph, int]:
    return gen_random_hypergraph(300, 1000, 4, 100, request.param), request.param


def _covered(hg: Hypergraph, y: list[float], eid: int) -> float:
    """``y`` summed over the edge's vertices left to right, as ``admit`` sums
    potentials (``sum`` of floats is compensated from Python 3.12 on)."""
    total = 0.0
    for v in hg.vertices[eid]:
        total += y[v]
    return total


@pytest.mark.parametrize("order", list(StreamOrder))
def test_stack_weight_covers_the_gains(instance, order) -> None:
    hg, seed = instance
    stream = order_stream(hg, order, seed)
    for epsilon in EPSILONS:
        matching, dual, _ = run_stack_stream(hg, stream, epsilon, UpdateRule.GUARANTEE)
        fold = DualState.zeros(hg.n, epsilon)
        gains = 0.0
        for eid in stream:
            before = _covered(hg, fold.potentials, eid)
            if admit(fold, hg, eid, UpdateRule.GUARANTEE):
                gain = hg.weights[eid] - before
                assert gain >= 0.0
                gains += gain
        assert fold.potentials == dual.potentials
        assert matching.weight >= gains * (1.0 - TOLERANCE), epsilon
        bound = matching.weight * hg.d * (1.0 + epsilon)
        assert bound >= dual_upper_bound(dual) * (1.0 - TOLERANCE), epsilon


@pytest.mark.parametrize("order", list(StreamOrder))
def test_swapset_cover_of_inserted_edges(instance, order) -> None:
    hg, seed = instance
    stream = order_stream(hg, order, seed)
    for alpha in (0.25, optimal_alpha(hg.d), 1.0):
        if alpha == 0:
            continue
        matching, _ = run_swapset(hg, stream, alpha)
        best: list[Optional[int]] = [None] * hg.n
        y = [0.0] * hg.n
        for eid in stream:
            if try_swap(best, alpha, hg, eid) is not None:
                cover = (1.0 + alpha) * hg.weights[eid]
                for v in hg.vertices[eid]:
                    y[v] = max(y[v], cover)
        assert matched_ids(best) == sorted(matching.edge_ids)
        assert dual_feasible(hg, DualState(y, 0.0)), alpha
        bound = hg.d * (1.0 + alpha) ** 2 / alpha * matching.weight
        assert sum(y) <= bound * (1.0 + TOLERANCE), alpha


def test_greedy_cover_of_matched_edges(instance) -> None:
    hg, _ = instance
    matching, _ = run_greedy(hg)
    y = [0.0] * hg.n
    for eid in matching.edge_ids:
        for v in hg.vertices[eid]:
            y[v] = hg.weights[eid]
    assert dual_feasible(hg, DualState(y, 0.0))
    assert sum(y) <= hg.d * matching.weight * (1.0 + TOLERANCE)


@pytest.mark.parametrize("order", list(StreamOrder))
def test_naive_is_maximal(instance, order) -> None:
    hg, seed = instance
    matching, _ = run_naive(hg, order_stream(hg, order, seed))
    assert is_maximal(hg, matching)


@pytest.mark.parametrize("order", list(StreamOrder))
def test_dual_feasible_matches_the_full_sum(instance, order) -> None:
    hg, seed = instance
    stream = order_stream(hg, order, seed)
    duals = []
    for epsilon in EPSILONS:
        for rule in UpdateRule:
            potentials = run_stack_stream(hg, stream, epsilon, rule)[1].potentials
            duals += [DualState(potentials, scale_epsilon) for scale_epsilon in EPSILONS]
    for alpha in (0.25, optimal_alpha(hg.d), 1.0):
        best: list[Optional[int]] = [None] * hg.n
        y = [0.0] * hg.n
        for eid in stream:
            if try_swap(best, alpha, hg, eid) is not None:
                for v in hg.vertices[eid]:
                    y[v] = max(y[v], (1.0 + alpha) * hg.weights[eid])
        duals += [DualState(y, 0.0), DualState([p / 2 for p in y], 0.0)]
    y = [0.0] * hg.n
    for eid in run_greedy(hg)[0].edge_ids:
        for v in hg.vertices[eid]:
            y[v] = hg.weights[eid]
    duals.append(DualState(y, 0.0))
    outcomes = {True: 0, False: 0}
    for dual in duals:
        expected = covers(hg, dual)
        assert dual_feasible(hg, dual) == expected
        outcomes[expected] += 1
    assert all(outcomes.values()), outcomes
