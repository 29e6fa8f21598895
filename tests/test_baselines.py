from __future__ import annotations

import dataclasses

import pytest

from hypermatch.core import Hypergraph, InvalidInput, validate_matching
from hypermatch.ingest import StreamOrder, order_stream
from hypermatch.baselines import run_greedy, run_naive
from hypermatch.oracle import exact_max_weight_matching, is_maximal

from conftest import random_instances, stream_forms


def adversarial_pair() -> Hypergraph:
    return Hypergraph.build(3, [((0, 1), 1.0), ((1, 2), 9.0)])


def test_naive_takes_first_fit() -> None:
    hg = adversarial_pair()
    matching, metrics = run_naive(hg, [0, 1])
    assert matching.edge_ids == frozenset({0})
    assert metrics.matching_weight == 1.0
    assert metrics.cardinality == 1


def test_naive_on_descending_stream_takes_the_heavy_edge() -> None:
    hg = adversarial_pair()
    matching, _ = run_naive(hg, order_stream(hg, StreamOrder.DESCENDING))
    assert matching.edge_ids == frozenset({1})


def test_naive_takes_all_disjoint_edges() -> None:
    hg = Hypergraph.build(6, [((0, 1), 1.0), ((2, 3), 2.0), ((4, 5), 3.0)])
    matching, metrics = run_naive(hg, [2, 0, 1])
    assert matching.edge_ids == frozenset({0, 1, 2})
    assert metrics.matching_weight == 6.0


def test_naive_rejects_bad_stream() -> None:
    hg = adversarial_pair()
    with pytest.raises(InvalidInput):
        run_naive(hg, [0])
    for stream in ([True, False], [False, 1]):
        with pytest.raises(InvalidInput):
            run_naive(hg, stream)


def test_greedy_picks_by_weight() -> None:
    hg = adversarial_pair()
    matching, metrics = run_greedy(hg)
    assert matching.edge_ids == frozenset({1})
    assert metrics.matching_weight == 9.0


def test_greedy_breaks_ties_by_id() -> None:
    hg = Hypergraph.build(3, [((0, 1), 5.0), ((1, 2), 5.0)])
    matching, _ = run_greedy(hg)
    assert matching.edge_ids == frozenset({0})


def test_greedy_equals_naive_on_descending_order() -> None:
    for hg in random_instances(120, meta_seed=401):
        greedy, _ = run_greedy(hg)
        naive, _ = run_naive(hg, order_stream(hg, StreamOrder.DESCENDING))
        assert greedy.edge_ids == naive.edge_ids
        assert greedy.weight == naive.weight


def test_outputs_are_maximal_valid_matchings() -> None:
    for hg in random_instances(80, meta_seed=402):
        for order in StreamOrder:
            matching, _ = run_naive(hg, order_stream(hg, order, seed=37))
            assert validate_matching(hg, matching)
            assert is_maximal(hg, matching)
        greedy, _ = run_greedy(hg)
        assert validate_matching(hg, greedy)
        assert is_maximal(hg, greedy)


def test_greedy_stays_within_rank_factor_of_optimum() -> None:
    for hg in random_instances(100, meta_seed=403):
        if hg.m == 0:
            continue
        opt = exact_max_weight_matching(hg).weight
        greedy, _ = run_greedy(hg)
        assert greedy.weight >= opt / hg.d - 1e-9


def test_naive_reads_any_iterable_stream_once() -> None:
    for hg in random_instances(30, meta_seed=104):
        stream = order_stream(hg, StreamOrder.RANDOM, seed=5)
        matching, metrics = run_naive(hg, stream)
        for form in stream_forms(stream):
            form_matching, form_metrics = run_naive(hg, form)
            assert form_matching == matching
            assert dataclasses.replace(form_metrics, runtime_ns=0) == dataclasses.replace(
                metrics, runtime_ns=0
            )
