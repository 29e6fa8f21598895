from __future__ import annotations

import pytest

from hypermatch.core import Hypergraph, InvalidInput, Matching, validate_matching
from hypermatch.ingest import WeightScheme, gen_random_hypergraph, synthesize_weights
from hypermatch.baselines import run_naive
from hypermatch.oracle import (
    OracleLimits,
    TooLarge,
    exact_max_weight_matching,
    exhaustive_max_weight_matching,
    is_maximal,
)

from conftest import random_instances, with_decimal_weights


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


def test_exact_matches_exhaustive_enumeration_on_ties() -> None:
    # Unit weights tie every pair of equal-size matchings, but there the
    # search meets optima in id order.  Weights of 1 or 2 also tie matchings
    # of different sizes, which the weight-ordered search can meet out of id
    # order, so a prune that drops an equal bound keeps the wrong optimum.
    # Decimal weights tie only when their exact sums do.
    base = random_instances(150, meta_seed=503, m_max=14)
    corpora = (
        [synthesize_weights(hg, WeightScheme.UNIT) for hg in base],
        random_instances(150, meta_seed=504, m_max=14, weight_caps=(2,)),
        [with_decimal_weights(hg, k) for k, hg in enumerate(base)],
    )
    for corpus in corpora:
        for hg in corpus:
            fast = exact_max_weight_matching(hg)
            brute = exhaustive_max_weight_matching(hg)
            assert fast.weight == brute.weight
            assert fast.edge_ids == brute.edge_ids


def test_exact_search_fits_a_tight_node_cap() -> None:
    # Branching only on edges still compatible with the partial matching,
    # bounded by their total weight and with each child's bound tested
    # before it is entered, solves these shapes in at most 74 nodes.
    # Testing the bound on entry, so that every pruned child and every
    # exclude child of an edge with no conflict left counts, needs up to 147.
    limits = OracleLimits(max_nodes_expanded=100)
    for seed in (1000, 1001, 1002):
        for shape in ((14, 20, 4, 100), (16, 24, 4, 100)):
            hg = gen_random_hypergraph(*shape, seed)
            capped = exact_max_weight_matching(hg, limits)
            assert validate_matching(hg, capped)
            if hg.m <= 20:  # the enumeration's own cap
                brute = exhaustive_max_weight_matching(hg)
                assert capped.weight == brute.weight
                assert capped.edge_ids == brute.edge_ids


def test_exact_solves_disjoint_edges_in_one_node_per_edge() -> None:
    # each edge conflicts with nothing, so only its include child is
    # entered: the root plus one node per edge
    hg = Hypergraph(20, [(2 * i, 2 * i + 1) for i in range(10)], [1.0] * 10)
    with pytest.raises(TooLarge):
        exact_max_weight_matching(hg, OracleLimits(max_nodes_expanded=10))
    matching = exact_max_weight_matching(hg, OracleLimits(max_nodes_expanded=11))
    assert matching.edge_ids == frozenset(range(10))


def test_exact_never_leaves_out_an_edge_with_no_conflict_left() -> None:
    # Two isolated edges, then a star of four pairwise conflicting edges.
    # Leaving an isolated edge out keeps a bound of 46 or 36 against an
    # incumbent of 29, so only the rule that skips the exclude child of an
    # edge with no conflict left holds the search to its 10 nodes (16 without).
    hg = Hypergraph(9, [(5, 6), (7, 8), (0, 1), (0, 2), (0, 3), (0, 4)],
                    [10.0, 10.0, 9.0, 9.0, 9.0, 9.0])
    with pytest.raises(TooLarge):
        exact_max_weight_matching(hg, OracleLimits(max_nodes_expanded=9))
    matching = exact_max_weight_matching(hg, OracleLimits(max_nodes_expanded=10))
    assert matching.edge_ids == frozenset({0, 1, 2})


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


def test_exact_refuses_a_search_deeper_than_the_recursion_limit() -> None:
    # the search nests one call per decision: 1500 disjoint edges go 1500 deep
    hg = Hypergraph(3000, [(2 * i, 2 * i + 1) for i in range(1500)], [1.0] * 1500)
    with pytest.raises(TooLarge, match="recursion limit"):
        exact_max_weight_matching(hg, OracleLimits(max_edges=5000))


def test_exhaustive_refuses_beyond_cap() -> None:
    hg = Hypergraph.build(50, [((2 * i, 2 * i + 1), 1.0) for i in range(21)])
    with pytest.raises(TooLarge):
        exhaustive_max_weight_matching(hg)


def test_oracle_limits_defaults() -> None:
    limits = OracleLimits()
    assert limits.max_edges == 24
    assert limits.max_nodes_expanded == 1 << 25


def test_oracle_limits_reject_out_of_range_caps() -> None:
    with pytest.raises(InvalidInput, match="max_edges"):
        OracleLimits(max_edges=-1)
    with pytest.raises(InvalidInput, match="max_nodes_expanded"):
        OracleLimits(max_nodes_expanded=0)
    smallest = OracleLimits(max_edges=0, max_nodes_expanded=1)
    assert exact_max_weight_matching(Hypergraph(2, (), ()), smallest).weight == 0.0


def test_oracle_limits_refuse_caps_that_are_not_ints() -> None:
    for bad in ({"max_edges": True}, {"max_edges": 2.5}, {"max_edges": "24"},
                {"max_nodes_expanded": 1.5}, {"max_nodes_expanded": True}):
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            OracleLimits(**bad)


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
