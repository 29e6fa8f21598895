from __future__ import annotations

import math

import pytest

from hypermatch.baselines import run_greedy, run_naive
from hypermatch.core import (
    Hypergraph,
    InvalidInput,
    Matching,
    RunMetrics,
    first_fit,
    validate_matching,
)
from hypermatch.ingest import StreamOrder, order_stream
from hypermatch.oracle import exact_max_weight_matching
from hypermatch.stack_matcher import (
    DualState,
    UpdateRule,
    dual_feasible,
    dual_upper_bound,
    run_stack_stream,
)
from hypermatch.swap_matcher import run_swapset

from conftest import (
    NEAR_THRESHOLD_BASES,
    random_instances,
    stream_forms,
    ulp_neighbours,
    with_decimal_weights,
)
from reference import admit, covers


def two_edge_path() -> Hypergraph:
    return Hypergraph.build(3, [((0, 1), 1.0), ((1, 2), 3.0)])


def test_admit_equality_admits() -> None:
    hg = two_edge_path()
    dual = DualState.zeros(3, 0.0)
    dual.potentials = [0.5, 0.5, 0.0]
    assert admit(dual, hg, 0, UpdateRule.GUARANTEE)  # 1.0 >= 1.0


def test_apply_update_zero_surplus_is_noop() -> None:
    # an edge admitted at equality has zero surplus: the potentials stay as they are
    hg = two_edge_path()
    dual = DualState.zeros(3, 0.0)
    dual.potentials = [0.5, 0.5, 0.0]
    admit(dual, hg, 0, UpdateRule.GUARANTEE)
    assert dual.potentials == [0.5, 0.5, 0.0]


def test_admit_epsilon_scales_threshold() -> None:
    hg = Hypergraph.build(2, [((0, 1), 1.0), ((0, 1), 1.1)])
    dual = DualState.zeros(2, 0.1)
    dual.potentials = [0.5, 0.5]
    assert not admit(dual, hg, 0, UpdateRule.GUARANTEE)  # 1.0 < 1.1 * 1.0
    assert dual.potentials == [0.5, 0.5]
    assert admit(dual, hg, 1, UpdateRule.GUARANTEE)  # 1.1 >= 1.1


def test_admit_guarantee_adds_full_surplus() -> None:
    hg = two_edge_path()
    dual = DualState.zeros(3, 0.0)
    assert admit(dual, hg, 0, UpdateRule.GUARANTEE)
    assert dual.potentials == [1.0, 1.0, 0.0]


def test_admit_lenient_divides_by_size() -> None:
    hg = two_edge_path()
    dual = DualState.zeros(3, 0.0)
    assert admit(dual, hg, 0, UpdateRule.LENIENT)
    assert dual.potentials == [0.5, 0.5, 0.0]


def test_run_trace_two_edge_path() -> None:
    hg = two_edge_path()
    matching, dual, metrics = run_stack_stream(hg, [0, 1], 0.0, UpdateRule.GUARANTEE)
    assert dual.potentials == [1.0, 3.0, 2.0]
    assert matching.edge_ids == frozenset({1})
    assert matching.weight == 3.0
    assert metrics.matching_weight == 3.0
    assert metrics.cardinality == 1
    assert metrics.pushes == 2
    assert metrics.pops == 2
    assert metrics.peak_stack_edges == 2
    assert metrics.peak_stack_pins == 4
    assert metrics.vertex_push_max == 2
    assert dual_upper_bound(dual) == 6.0
    assert dual_feasible(hg, dual)


def test_run_trace_unwind_takes_disjoint_pair() -> None:
    hg = Hypergraph.build(4, [((1, 2), 2.0), ((0, 1), 5.0), ((2, 3), 5.0)])
    matching, dual, metrics = run_stack_stream(hg, [0, 1, 2], 0.0, UpdateRule.GUARANTEE)
    assert dual.potentials == [3.0, 5.0, 5.0, 3.0]
    assert matching.edge_ids == frozenset({1, 2})
    assert matching.weight == 10.0
    assert metrics.pushes == 3
    assert metrics.vertex_push_max == 2


def test_run_epsilon_blocks_marginal_improvements() -> None:
    hg = two_edge_path()
    # with epsilon=3 the second edge needs weight >= 4 * 1 and is skipped
    matching, _, metrics = run_stack_stream(hg, [0, 1], 3.0, UpdateRule.GUARANTEE)
    assert matching.edge_ids == frozenset({0})
    assert metrics.pushes == 1


def test_run_empty_hypergraph() -> None:
    # every counter of every kernel reads 0, with no vertex too, where the
    # most pushes onto one vertex is the maximum of no counts
    for n in (4, 0):
        hg = Hypergraph(n, (), ())
        runs = [run_naive(hg, []), run_greedy(hg), run_swapset(hg, [], 0.5)]
        for rule in UpdateRule:
            matching, dual, metrics = run_stack_stream(hg, [], 0.5, rule)
            assert dual.potentials == [0.0] * n
            assert dual_upper_bound(dual) == 0.0
            assert dual_feasible(hg, dual)
            runs.append((matching, metrics))
        for matching, metrics in runs:
            assert matching == Matching(frozenset(), 0.0)
            assert {**vars(metrics), "runtime_ns": 0} == vars(RunMetrics())


def test_run_rejects_bad_stream() -> None:
    hg = two_edge_path()
    with pytest.raises(InvalidInput):
        run_stack_stream(hg, [0], 0.0)
    with pytest.raises(InvalidInput):
        run_stack_stream(hg, [0, 0], 0.0)
    for stream in ([0, 1.0], [0, 1.5], [0, None], [0, "1"]):
        with pytest.raises(InvalidInput):
            run_stack_stream(hg, stream, 0.0)


def test_negative_epsilon_rejected() -> None:
    hg = two_edge_path()
    with pytest.raises(InvalidInput):
        run_stack_stream(hg, [0, 1], -0.1)
    for epsilon in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput):
            run_stack_stream(hg, [0, 1], epsilon)


def test_lenient_admits_more_than_guarantee() -> None:
    hg = Hypergraph.build(3, [((0, 1), 2.0), ((1, 2), 2.1)])
    _, _, strict = run_stack_stream(hg, [0, 1], 0.1, UpdateRule.GUARANTEE)
    _, _, lenient = run_stack_stream(hg, [0, 1], 0.1, UpdateRule.LENIENT)
    assert strict.pushes == 1  # 2.1 < 1.1 * 2.0 after the full update
    assert lenient.pushes == 2  # 2.1 >= 1.1 * 1.0 after the halved update


def test_dual_feasible_counterexample() -> None:
    hg = two_edge_path()
    assert not dual_feasible(hg, DualState.zeros(3, 0.0))


def test_dual_feasible_slack_is_1e9_of_the_weight() -> None:
    hg = Hypergraph.build(1, [((0,), 1.0)])
    assert not dual_feasible(hg, DualState([1.0 - 2e-9], 0.0))
    assert dual_feasible(hg, DualState([1.0 - 5e-10], 0.0))


def test_dual_feasible_refuses_negative_and_nan_potentials() -> None:
    # a negative potential off the edge let the bound fall below the matching
    hg = Hypergraph(2, [(0,)], [1.0])
    assert dual_upper_bound(DualState([1.0, -5.0], 0.0)) == -4.0
    assert not dual_feasible(hg, DualState([1.0, -5.0], 0.0))
    assert not dual_feasible(hg, DualState([math.nan, 0.0], 0.0))
    assert not dual_feasible(hg, DualState([1.0, math.nan], 0.0))
    assert dual_feasible(hg, DualState([1.0, -0.0], 0.0))


def test_dual_feasible_needs_one_potential_per_vertex() -> None:
    # edge 0 is covered at vertex 0, before the missing potential of vertex 2
    hg = Hypergraph(3, [(0, 2), (1,)], [1.0, 1.0])
    assert dual_feasible(hg, DualState([1.0, 1.0, 0.0], 0.0))
    assert not dual_feasible(hg, DualState([1.0, 1.0], 0.0))
    assert not dual_feasible(hg, DualState([1.0], 0.0))
    assert not dual_feasible(hg, DualState([1.0, 1.0, 0.0, 0.0], 0.0))


def test_dual_upper_bound_scales_with_epsilon() -> None:
    dual = DualState([1.0, 3.0, 2.0], 1.0)
    assert dual_upper_bound(dual) == 12.0


def test_dual_bound_overflow_is_vacuous_but_valid() -> None:
    # one edge of weight 1.7e308 puts 1.7e308 on both its vertices
    hg = Hypergraph.build(2, [((0, 1), 1.7e308)])
    matching, dual, _ = run_stack_stream(hg, [0], 0.0, UpdateRule.GUARANTEE)
    assert matching.weight == 1.7e308
    assert dual_upper_bound(dual) == math.inf
    assert dual_feasible(hg, dual)


def test_stream_phase_only_grows_the_stack() -> None:
    for hg in random_instances(40, meta_seed=201):
        _, _, metrics = run_stack_stream(
            hg, order_stream(hg, StreamOrder.ORIGINAL), 0.3, UpdateRule.GUARANTEE
        )
        assert metrics.peak_stack_edges == metrics.pushes
        assert metrics.pops == metrics.pushes
        if metrics.peak_stack_edges > 0:
            assert metrics.peak_stack_pins >= metrics.peak_stack_edges
        assert metrics.vertex_push_max <= metrics.pushes


def test_outputs_are_valid_matchings() -> None:
    for hg in random_instances(100, meta_seed=202):
        for rule in UpdateRule:
            for epsilon in (0.0, 0.3, 1.0):
                stream = order_stream(hg, StreamOrder.RANDOM, seed=11)
                matching, _, _ = run_stack_stream(hg, stream, epsilon, rule)
                assert validate_matching(hg, matching)


def test_guarantee_rule_duals_are_always_feasible() -> None:
    for hg in random_instances(150, meta_seed=203):
        for epsilon in (0.0, 0.1, 1.0):
            stream = order_stream(hg, StreamOrder.RANDOM, seed=13)
            _, dual, _ = run_stack_stream(hg, stream, epsilon, UpdateRule.GUARANTEE)
            assert dual_feasible(hg, dual)


def test_dual_bound_dominates_exact_optimum() -> None:
    for hg in random_instances(80, meta_seed=204):
        opt = exact_max_weight_matching(hg).weight
        for epsilon in (0.0, 1.0):
            _, dual, _ = run_stack_stream(
                hg, order_stream(hg, StreamOrder.ORIGINAL), epsilon, UpdateRule.GUARANTEE
            )
            assert opt <= dual_upper_bound(dual) + 1e-9 * opt


def test_potentials_never_decrease() -> None:
    # step through the stream by hand, snapshotting potentials at each edge
    for hg in random_instances(40, meta_seed=205):
        for rule in UpdateRule:
            dual = DualState.zeros(hg.n, 0.2)
            for eid in range(hg.m):
                before = dual.potentials[:]
                admit(dual, hg, eid, rule)
                for old, new in zip(before, dual.potentials):
                    assert new >= old


def test_runs_are_deterministic() -> None:
    for hg in random_instances(30, meta_seed=206):
        stream = order_stream(hg, StreamOrder.RANDOM, seed=17)
        results = [
            run_stack_stream(hg, stream, 0.1, UpdateRule.LENIENT) for _ in range(3)
        ]
        for matching, dual, metrics in results[1:]:
            assert matching == results[0][0]
            assert dual.potentials == results[0][1].potentials
            assert {**vars(metrics), "runtime_ns": 0} == {**vars(results[0][2]), "runtime_ns": 0}


def test_run_reads_any_iterable_stream_once() -> None:
    for hg in random_instances(30, meta_seed=208):
        stream = order_stream(hg, StreamOrder.RANDOM, seed=7)
        matching, dual, metrics = run_stack_stream(hg, stream, 0.1, UpdateRule.LENIENT)
        for form in stream_forms(stream):
            form_matching, form_dual, form_metrics = run_stack_stream(
                hg, form, 0.1, UpdateRule.LENIENT
            )
            assert form_matching == matching
            assert form_dual.potentials == dual.potentials
            assert {**vars(form_metrics), "runtime_ns": 0} == {**vars(metrics), "runtime_ns": 0}


def reference_stack_run(
    hg: Hypergraph, stream: list[int], epsilon: float, rule: UpdateRule
) -> tuple[DualState, list[int]]:
    """Fold :func:`admit` over ``stream``: the final state and the stack."""
    dual = DualState.zeros(hg.n, epsilon)
    stack = [eid for eid in stream if admit(dual, hg, eid, rule)]
    return dual, stack


FOLD_EPSILONS = (0.0, 0.1, 1.0)

# Each layout is singleton edges (weights as multiples of a base weight)
# and a last edge over their vertices.  A singleton meets no potential, so
# under either rule it raises its vertex's potential by its own weight;
# the last edge's running potential sum then passes through one prefix per
# pin, including a pin of potential zero.
STACK_LAYOUTS = [
    ([(0,), (1,), (2,)], [1.0, 1.0, 1.0], (0, 1, 2, 3)),
    ([(0,), (2,)], [1.0, 0.375], (0, 1, 2)),
]


def near_threshold_stack_instances() -> list[Hypergraph]:
    """Instances whose last edge weighs one ulp below, at, or one ulp above
    ``(1 + epsilon)`` times each prefix of its potential sum, for each fold
    epsilon, so the sum crosses ``W(e) / (1 + epsilon)`` at each of its pins."""
    instances = []
    for singles, multiples, arrival in STACK_LAYOUTS:
        for base in NEAR_THRESHOLD_BASES:
            weights = [base * k for k in multiples]
            potentials = [0.0] * 4
            for (v,), w in zip(singles, weights):
                potentials[v] = w
            prefixes = []
            covered = 0.0
            for v in arrival:
                covered += potentials[v]
                if covered not in prefixes:
                    prefixes.append(covered)
            for epsilon in FOLD_EPSILONS:
                for prefix in prefixes:
                    for w in ulp_neighbours((1.0 + epsilon) * prefix):
                        instances.append(Hypergraph(4, [*singles, arrival], [*weights, w]))
    return instances


def test_run_matches_the_helper_fold() -> None:
    instances = random_instances(40, meta_seed=207, n_max=30, m_max=60, d_cap=5)
    instances += [with_decimal_weights(hg, seed) for seed, hg in enumerate(instances)]
    instances += near_threshold_stack_instances()
    for hg in instances:
        for epsilon in FOLD_EPSILONS:
            for rule in UpdateRule:
                for order in StreamOrder:
                    stream = order_stream(hg, order, seed=19)
                    dual, stack = reference_stack_run(hg, stream, epsilon, rule)
                    matching, run_dual, metrics = run_stack_stream(hg, stream, epsilon, rule)
                    assert run_dual.potentials == dual.potentials
                    assert metrics.pushes == len(stack)
                    assert metrics.peak_stack_pins == sum(len(hg.vertices[e]) for e in stack)
                    assert matching == Matching.from_edge_ids(
                        hg, first_fit(hg, reversed(stack))
                    )


def near_threshold_duals() -> list[tuple[Hypergraph, DualState]]:
    """One 4-pin edge with potentials whose running sum is one ulp below,
    at, or one ulp above ``need / (1 + epsilon)`` at each pin, where
    ``need = W - 1e-9 * W``, for each fold epsilon.

    The pins before that pin hold ``x / 2, x / 4, ...`` and the pin itself
    the rest, so the running sum there is ``x`` exactly; the pins after it
    hold zeros, or one ulp of ``x`` that lifts the full sum past ``x``.
    """
    cases = []
    for base in NEAR_THRESHOLD_BASES:
        hg = Hypergraph(4, [(0, 1, 2, 3)], [base])
        need = base - 1e-9 * base
        for epsilon in FOLD_EPSILONS:
            for x in ulp_neighbours(need / (1.0 + epsilon)):
                for pin in range(4):
                    head = [x / 2 ** (i + 1) for i in range(pin)]
                    head.append(x - sum(head))
                    tails = [[0.0] * (3 - pin)]
                    if pin < 3:
                        tails.append([math.ulp(x)] + [0.0] * (2 - pin))
                    for tail in tails:
                        cases.append((hg, DualState(head + tail, epsilon)))
    return cases


def test_dual_feasible_matches_the_full_sum_near_the_threshold() -> None:
    outcomes = {True: 0, False: 0}
    for hg, dual in near_threshold_duals():
        expected = covers(hg, dual)
        assert dual_feasible(hg, dual) == expected, dual
        outcomes[expected] += 1
    assert all(outcomes.values()), outcomes


def test_dual_feasible_matches_the_full_sum_on_run_duals() -> None:
    outcomes = {True: 0, False: 0}
    for hg in random_instances(150, meta_seed=203):
        for epsilon in FOLD_EPSILONS:
            for rule in UpdateRule:
                stream = order_stream(hg, StreamOrder.RANDOM, seed=13)
                potentials = run_stack_stream(hg, stream, epsilon, rule)[1].potentials
                # the run's potentials, also scaled by the other epsilons
                for scale_epsilon in FOLD_EPSILONS:
                    dual = DualState(potentials, scale_epsilon)
                    expected = covers(hg, dual)
                    assert dual_feasible(hg, dual) == expected
                    outcomes[expected] += 1
    assert all(outcomes.values()), outcomes
