from __future__ import annotations

import math
import random

import pytest

from hypermatch.core import Hypergraph, InvalidInput, Matching, validate_matching
from hypermatch.ingest import StreamOrder, order_stream
from hypermatch.swap_matcher import optimal_alpha, run_swapset, swapset_ratio

from conftest import (
    NEAR_THRESHOLD_BASES,
    random_instances,
    stream_forms,
    ulp_neighbours,
    with_decimal_weights,
)
from reference import matched_ids, try_swap


def overlap_pair() -> Hypergraph:
    return Hypergraph.build(3, [((0, 1), 2.0), ((1, 2), 3.0)])


def test_try_swap_into_empty_state_evicts_nothing() -> None:
    hg = overlap_pair()
    best = [None] * hg.n
    assert try_swap(best, 0.5, hg, 0) == []
    assert best == [0, 0, None]


def test_try_swap_evictions_are_deduplicated_and_sorted() -> None:
    # edge 2 meets edge 1 on vertices 0 and 1, then edge 0 on vertices 2 and 3
    hg = Hypergraph.build(4, [((2, 3), 1.0), ((0, 1), 1.0), ((0, 1, 2, 3), 9.0)])
    best = [None] * hg.n
    assert try_swap(best, 0.0, hg, 0) == []
    assert try_swap(best, 0.0, hg, 1) == []
    assert try_swap(best, 0.0, hg, 2) == [0, 1]
    assert best == [2, 2, 2, 2]


def test_try_swap_fires_at_low_alpha() -> None:
    hg = overlap_pair()
    best = [None] * hg.n
    assert try_swap(best, 0.4, hg, 0) == []
    assert try_swap(best, 0.4, hg, 1) == [0]  # 3 >= 1.4 * 2
    assert best == [None, 1, 1]
    assert matched_ids(best) == [1]


def test_try_swap_holds_at_high_alpha() -> None:
    hg = overlap_pair()
    best = [None] * hg.n
    assert try_swap(best, 1.0, hg, 0) == []
    assert try_swap(best, 1.0, hg, 1) is None  # 3 < 2 * 2
    assert best == [0, 0, None]


def test_try_swap_alpha_zero_trades_equal_weight() -> None:
    hg = Hypergraph.build(2, [((0, 1), 2.0), ((0, 1), 2.0)])
    best = [None] * hg.n
    assert try_swap(best, 0.0, hg, 0) == []
    assert try_swap(best, 0.0, hg, 1) == [0]
    assert matched_ids(best) == [1]
    strict = [None] * hg.n
    assert try_swap(strict, 0.1, hg, 0) == []
    assert try_swap(strict, 0.1, hg, 1) is None  # 2 < 2.2


def test_try_swap_evicts_whole_conflicting_edges() -> None:
    hg = Hypergraph.build(
        4, [((0, 1), 1.0), ((2, 3), 1.0), ((1, 2), 5.0)]
    )
    best = [None] * hg.n
    assert try_swap(best, 0.5, hg, 0) == []
    assert try_swap(best, 0.5, hg, 1) == []
    assert try_swap(best, 0.5, hg, 2) == [0, 1]  # 5 >= 1.5 * 2, evicts both
    assert best == [None, 2, 2, None]


def test_run_swapset_counts_evictions() -> None:
    hg = Hypergraph.build(
        4, [((0, 1), 1.0), ((2, 3), 1.0), ((1, 2), 5.0)]
    )
    matching, metrics = run_swapset(hg, [0, 1, 2], 0.5)
    assert matching.edge_ids == frozenset({2})
    assert metrics.swaps == 2
    assert metrics.matching_weight == 5.0
    assert metrics.cardinality == 1
    assert metrics.pushes == 0
    assert metrics.peak_stack_pins == 0


def test_run_swapset_example_thresholds() -> None:
    hg = overlap_pair()
    low, low_metrics = run_swapset(hg, [0, 1], 0.4)
    assert low.edge_ids == frozenset({1})
    assert low_metrics.swaps == 1
    high, high_metrics = run_swapset(hg, [0, 1], 1.0)
    assert high.edge_ids == frozenset({0})
    assert high_metrics.swaps == 0


def test_conflict_weight_sums_in_ascending_id_order() -> None:
    # the conflicts of edge 3 are edges 2, 1, 0 in vertex order; summed by
    # ascending id they weigh 0.6000000000000001, so a 0.6 edge must not
    # swap in at alpha 0 (summed in vertex order they would weigh 0.6)
    hg = Hypergraph.build(3, [((2,), 0.1), ((1,), 0.2), ((0,), 0.3), ((0, 1, 2), 0.6)])
    best = [None] * hg.n
    for eid in range(3):
        assert try_swap(best, 0.0, hg, eid) == []
    assert try_swap(best, 0.0, hg, 3) is None
    matching, metrics = run_swapset(hg, [0, 1, 2, 3], 0.0)
    assert matching.edge_ids == frozenset({0, 1, 2})
    assert metrics.swaps == 0


def test_run_swapset_rejects_bad_inputs() -> None:
    hg = overlap_pair()
    with pytest.raises(InvalidInput):
        run_swapset(hg, [0], 0.5)
    for alpha in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match="alpha must be non-negative and finite"):
            run_swapset(hg, [0, 1], alpha)


def test_state_stays_consistent_after_every_step() -> None:
    # a vertex referencing an edge must be one of that edge's vertices, and
    # every vertex of a referenced edge must reference it back
    for hg in random_instances(80, meta_seed=301):
        best = [None] * hg.n
        for eid in range(hg.m):
            try_swap(best, 0.3, hg, eid)
            live = matched_ids(best)
            assert len(live) <= hg.n
            for v, eid in enumerate(best):
                if eid is not None:
                    assert v in hg.vertices[eid]
            for eid in live:
                for v in hg.vertices[eid]:
                    assert best[v] == eid
            Matching.from_edge_ids(hg, live)  # raises if not disjoint


def test_swaps_count_the_conflicts_of_fired_swaps() -> None:
    # step the swap rule by hand and sum the conflict sets of the swaps that fire
    for hg in random_instances(80, meta_seed=305):
        for alpha in (0.0, 0.3, 1.0):
            for order in StreamOrder:
                stream = order_stream(hg, order, seed=37)
                best = [None] * hg.n
                evicted = 0
                for eid in stream:
                    evictions = try_swap(best, alpha, hg, eid)
                    if evictions is not None:
                        evicted += len(evictions)
                _, metrics = run_swapset(hg, stream, alpha)
                assert metrics.swaps == evicted


def test_outputs_are_valid_matchings() -> None:
    for hg in random_instances(100, meta_seed=302):
        for alpha in (0.0, 0.1, 1.0):
            stream = order_stream(hg, StreamOrder.RANDOM, seed=23)
            matching, _ = run_swapset(hg, stream, alpha)
            assert validate_matching(hg, matching)


def test_descending_stream_never_swaps_for_positive_alpha() -> None:
    for hg in random_instances(60, meta_seed=303):
        stream = order_stream(hg, StreamOrder.DESCENDING)
        _, metrics = run_swapset(hg, stream, 0.2)
        assert metrics.swaps == 0


def test_runs_are_deterministic() -> None:
    for hg in random_instances(30, meta_seed=304):
        stream = order_stream(hg, StreamOrder.RANDOM, seed=29)
        results = [run_swapset(hg, stream, 0.7) for _ in range(3)]
        for matching, metrics in results[1:]:
            assert matching == results[0][0]
            assert {**vars(metrics), "runtime_ns": 0} == {**vars(results[0][1]), "runtime_ns": 0}


def test_run_reads_any_iterable_stream_once() -> None:
    for hg in random_instances(30, meta_seed=307):
        stream = order_stream(hg, StreamOrder.RANDOM, seed=31)
        matching, metrics = run_swapset(hg, stream, 0.3)
        for form in stream_forms(stream):
            form_matching, form_metrics = run_swapset(hg, form, 0.3)
            assert form_matching == matching
            assert {**vars(form_metrics), "runtime_ns": 0} == {**vars(metrics), "runtime_ns": 0}


def test_optimal_alpha_values() -> None:
    assert optimal_alpha(1) == 0.0
    assert optimal_alpha(2) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert optimal_alpha(3) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    with pytest.raises(InvalidInput):
        optimal_alpha(0)


def test_swapset_ratio_values() -> None:
    assert abs(swapset_ratio(1.0, 2) - 1.0 / 6.0) <= 1e-15
    assert swapset_ratio(0.5, 1) == pytest.approx(1.0 / 1.5, abs=1e-15)
    with pytest.raises(InvalidInput):
        swapset_ratio(0.0, 2)
    with pytest.raises(InvalidInput):
        swapset_ratio(-0.3, 2)
    with pytest.raises(InvalidInput):
        swapset_ratio(0.5, 0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput):
            swapset_ratio(alpha, 2)


def test_optimal_alpha_maximizes_the_ratio() -> None:
    rng = random.Random(31)
    for d in range(2, 7):
        best = swapset_ratio(optimal_alpha(d), d)
        for _ in range(200):
            alpha = rng.uniform(0.01, 3.0)
            assert swapset_ratio(alpha, d) <= best + 1e-12


def fold_alphas(d: int) -> tuple[float, ...]:
    return (0.0, 0.3, optimal_alpha(max(d, 1)))


# Each layout is the edges matched first (vertex tuples, weights as
# multiples of a base weight), the arriving edge that meets them, and the
# owners whose weight, summed by ascending id, decides that edge: one owner;
# a heavy owner met before or after a light one; two owners that decide
# only together; one owner met on two pins.
SWAP_LAYOUTS = [
    ([(0, 1)], [1.0], (1, 2), [0]),
    ([(0, 1), (2, 3)], [1.0, 0.125], (1, 2), [0]),
    ([(0, 1), (2, 3)], [0.125, 1.0], (1, 2), [1]),
    ([(0, 1), (2, 3)], [1.0, 1.0], (1, 2), [0, 1]),
    ([(0, 1, 2)], [1.0], (1, 2, 3), [0]),
]


def near_threshold_swap_instances() -> list[Hypergraph]:
    """Instances whose last edge weighs one ulp below, at, or one ulp above
    ``(1 + alpha)`` times its deciding owners' weight, for each fold alpha."""
    instances = []
    for matched, multiples, arrival, deciders in SWAP_LAYOUTS:
        d = max(len(verts) for verts in [*matched, arrival])
        for base in NEAR_THRESHOLD_BASES:
            weights = [base * k for k in multiples]
            owner_weight = 0.0
            for other in deciders:
                owner_weight += weights[other]
            for alpha in fold_alphas(d):
                for w in ulp_neighbours((1.0 + alpha) * owner_weight):
                    instances.append(Hypergraph(4, [*matched, arrival], [*weights, w]))
    return instances


def test_run_matches_the_try_swap_fold() -> None:
    instances = random_instances(40, meta_seed=306, n_max=30, m_max=60, d_cap=5)
    instances += [with_decimal_weights(hg, seed) for seed, hg in enumerate(instances)]
    instances += near_threshold_swap_instances()
    for hg in instances:
        for alpha in fold_alphas(hg.d):
            for order in StreamOrder:
                stream = order_stream(hg, order, seed=43)
                best = [None] * hg.n
                evicted = 0
                for eid in stream:
                    evictions = try_swap(best, alpha, hg, eid)
                    if evictions is not None:
                        evicted += len(evictions)
                matching, metrics = run_swapset(hg, stream, alpha)
                assert matching == Matching.from_edge_ids(hg, matched_ids(best))
                assert metrics.swaps == evicted
