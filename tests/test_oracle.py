from __future__ import annotations

import pytest

from hypermatch.core import Hypergraph, Matching, validate_matching
from hypermatch.baselines import run_naive
from hypermatch.oracle import (
    OracleLimits,
    TooLarge,
    exact_max_weight_matching,
    exhaustive_max_weight_matching,
    is_maximal,
)

from conftest import random_instances


def test_exact_picks_the_disjoint_pair_over_the_heavy_middle() -> None:
    hg = Hypergraph.build(4, [((0, 1), 3.0), ((2, 3), 3.0), ((1, 2), 5.0)])
    matching = exact_max_weight_matching(hg)
    assert matching.edge_ids == frozenset({0, 1})
    assert matching.weight == 6.0


def test_exact_on_unit_triangle_takes_lowest_id() -> None:
    hg = Hypergraph.build(3, [((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0)])
    matching = exact_max_weight_matching(hg)
    assert matching.edge_ids == frozenset({0})


def test_exact_tie_break_prefers_lexicographically_smallest_ids() -> None:
    # two optima of weight 4: {0, 3} and {1, 2}; (0, 3) < (1, 2)
    hg = Hypergraph.build(
        4, [((0, 1), 2.0), ((0, 2), 2.0), ((1, 3), 2.0), ((2, 3), 2.0)]
    )
    matching = exact_max_weight_matching(hg)
    assert sorted(matching.edge_ids) == [0, 3]
    brute = exhaustive_max_weight_matching(hg)
    assert sorted(brute.edge_ids) == [0, 3]
    # two optima of weight 1.1: {2, 3} and {0, 1, 2}; as floats their sums
    # depend on the summation order, so only an exact comparison ties them
    hg = Hypergraph.build(3, [((2,), 0.2), ((1,), 0.2), ((0,), 0.7), ((1, 2), 0.4)])
    assert sorted(exact_max_weight_matching(hg).edge_ids) == [0, 1, 2]
    assert sorted(exhaustive_max_weight_matching(hg).edge_ids) == [0, 1, 2]


def test_exact_empty_instance() -> None:
    hg = Hypergraph(5, (), ())
    matching = exact_max_weight_matching(hg)
    assert matching.edge_ids == frozenset()
    assert matching.weight == 0.0


def test_exact_matches_exhaustive_enumeration() -> None:
    for hg in random_instances(300, meta_seed=501):
        fast = exact_max_weight_matching(hg)
        brute = exhaustive_max_weight_matching(hg)
        assert fast.weight == brute.weight
        assert fast.edge_ids == brute.edge_ids
        assert validate_matching(hg, fast)


def test_exact_refuses_too_many_edges() -> None:
    hg = Hypergraph.build(50, [((2 * i, 2 * i + 1), 1.0) for i in range(25)])
    with pytest.raises(TooLarge):
        exact_max_weight_matching(hg)
    # a raised cap lets the same instance through
    matching = exact_max_weight_matching(hg, OracleLimits(max_edges=25))
    assert matching.cardinality == 25


def test_exact_node_expansion_cap_triggers() -> None:
    # an all-equal-weight path keeps ties alive everywhere, defeating the
    # weight bound, so a tiny node cap must trip
    hg = Hypergraph.build(19, [((i, i + 1), 1.0) for i in range(18)])
    with pytest.raises(TooLarge):
        exact_max_weight_matching(hg, OracleLimits(max_nodes_expanded=100))


def test_exhaustive_refuses_beyond_cap() -> None:
    hg = Hypergraph.build(50, [((2 * i, 2 * i + 1), 1.0) for i in range(21)])
    with pytest.raises(TooLarge):
        exhaustive_max_weight_matching(hg)


def test_oracle_limits_defaults() -> None:
    limits = OracleLimits()
    assert limits.max_edges == 24
    assert limits.max_nodes_expanded == 1 << 25


def test_is_maximal_examples() -> None:
    hg = Hypergraph.build(4, [((0, 1), 3.0), ((2, 3), 3.0), ((1, 2), 5.0)])
    empty = Matching.from_edge_ids(hg, [])
    assert not is_maximal(hg, empty)
    both = Matching.from_edge_ids(hg, [0, 1])
    assert is_maximal(hg, both)
    middle = Matching.from_edge_ids(hg, [2])
    assert is_maximal(hg, middle)


def test_is_maximal_on_empty_hypergraph() -> None:
    hg = Hypergraph(3, (), ())
    assert is_maximal(hg, Matching.from_edge_ids(hg, []))


def test_naive_outputs_are_maximal_but_not_always_optimal() -> None:
    suboptimal = 0
    for hg in random_instances(60, meta_seed=502):
        matching, _ = run_naive(hg, list(range(hg.m)))
        assert is_maximal(hg, matching)
        if matching.weight < exact_max_weight_matching(hg).weight:
            suboptimal += 1
    assert suboptimal > 0  # first-fit does get beaten on this corpus
