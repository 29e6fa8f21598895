"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
corpus is 1000 seeded random instances with n <= 10, m <= 12, edge size
<= 4, and integer weights <= 100; every expected value is either computed
by the exact oracle or checked against a closed form.
"""

from __future__ import annotations

import dataclasses
import math
import time

import pytest

from hypermatch.core import Hypergraph
from hypermatch.ingest import StreamOrder, order_stream
from hypermatch.stack_matcher import (
    UpdateRule,
    dual_feasible,
    dual_upper_bound,
    run_stack_stream,
)
from hypermatch.swap_matcher import optimal_alpha, run_swapset, swapset_ratio
from hypermatch.baselines import run_greedy, run_naive
from hypermatch.oracle import (
    exact_max_weight_matching,
    exhaustive_max_weight_matching,
    is_maximal,
)
from hypermatch import cli

from conftest import random_instances

CORPUS_SIZE = 1000
EPSILONS = (0.0, 0.1, 1.0)
FIXED_ALPHAS = (0.1, 1.0)
ORDERS = (
    StreamOrder.ORIGINAL,
    StreamOrder.ASCENDING,
    StreamOrder.DESCENDING,
    StreamOrder.RANDOM,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


@pytest.fixture(scope="module")
def corpus() -> list[tuple[Hypergraph, float]]:
    instances = random_instances(CORPUS_SIZE, meta_seed=0xACCE97)
    return [(hg, exact_max_weight_matching(hg).weight) for hg in instances]


def _streams(hg: Hypergraph, index: int) -> list[list[int]]:
    return [order_stream(hg, order, seed=index) for order in ORDERS]


def test_criterion_1_approximation_guarantees(corpus) -> None:
    started = time.perf_counter()
    violations: list[str] = []
    checks = 0
    for index, (hg, opt) in enumerate(corpus):
        if hg.m == 0:
            continue
        d = hg.d
        auto = optimal_alpha(d)
        alphas = [*FIXED_ALPHAS, auto]
        for stream in _streams(hg, index):
            for rule in UpdateRule:
                for epsilon in EPSILONS:
                    matching, _, _ = run_stack_stream(hg, stream, epsilon, rule)
                    checks += 1
                    floor_w = opt / (d * (1.0 + epsilon)) - 1e-9
                    if matching.weight < floor_w:
                        violations.append(
                            f"stack {rule.value} eps={epsilon} inst={index}: "
                            f"{matching.weight} < {floor_w}"
                        )
            for alpha in alphas:
                matching, _ = run_swapset(hg, stream, alpha)
                checks += 1
                ratio = swapset_ratio(alpha, d) if alpha > 0 else 1.0
                if matching.weight < ratio * opt - 1e-9:
                    violations.append(
                        f"swapset alpha={alpha} inst={index}: "
                        f"{matching.weight} < {ratio * opt}"
                    )
        greedy, _ = run_greedy(hg)
        checks += 1
        if greedy.weight < opt / d - 1e-9:
            violations.append(f"greedy inst={index}: {greedy.weight} < {opt / d}")
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 60.0
    _report(
        1,
        "approximation guarantees",
        ok,
        f"{len(violations)} violations in {checks} checks, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_2_dual_certificates(corpus) -> None:
    infeasible = 0
    uncovered = 0
    checks = 0
    for index, (hg, opt) in enumerate(corpus):
        for stream in _streams(hg, index):
            for epsilon in EPSILONS:
                matching, dual, _ = run_stack_stream(
                    hg, stream, epsilon, UpdateRule.GUARANTEE
                )
                checks += 1
                if not dual_feasible(hg, dual):
                    infeasible += 1
                bound = dual_upper_bound(dual)
                if opt > bound + 1e-9 * opt:
                    uncovered += 1
                # the certificate sandwich: returned weight <= optimum <= bound
                assert matching.weight <= opt + 1e-9 * max(1.0, opt)
    ok = infeasible == 0 and uncovered == 0
    _report(
        2,
        "dual certificates",
        ok,
        f"{infeasible} infeasible, {uncovered} bound violations in {checks} runs",
    )
    assert infeasible == 0
    assert uncovered == 0


def test_criterion_3_closed_form_anchors() -> None:
    worst = 0.0
    err_16 = abs(swapset_ratio(1.0, 2) - 1.0 / 6.0)
    ok = err_16 <= 1e-15
    err_opt2 = abs(swapset_ratio(optimal_alpha(2), 2) - 1.0 / (3.0 + 2.0 * math.sqrt(2.0)))
    ok = ok and err_opt2 <= 1e-12
    for d in range(2, 11):
        closed = 1.0 / ((2 * d - 1) + 2.0 * math.sqrt(d * (d - 1)))
        err = abs(swapset_ratio(optimal_alpha(d), d) - closed)
        worst = max(worst, err)
        ok = ok and err <= 1e-12
    _report(
        3,
        "closed-form anchors",
        ok,
        f"|ratio(1,2)-1/6|={err_16:.1e}, worst optimal-alpha error={worst:.1e}",
    )
    assert err_16 <= 1e-15
    assert err_opt2 <= 1e-12
    assert worst <= 1e-12


def test_criterion_4_swapset_descending_equals_greedy(corpus) -> None:
    violations = 0
    checks = 0
    for hg, _ in corpus:
        if hg.m == 0:
            continue
        greedy, _ = run_greedy(hg)
        stream = order_stream(hg, StreamOrder.DESCENDING)
        auto = optimal_alpha(hg.d)
        for alpha in (*FIXED_ALPHAS, auto):
            swap, _ = run_swapset(hg, stream, alpha)
            checks += 1
            if alpha > 0:
                if swap.edge_ids != greedy.edge_ids:
                    violations += 1
            else:
                # alpha 0 (rank-1 instances): equal-weight swaps may pick a
                # different edge among ties, so compare weights then
                weights = list(hg.weights)
                if len(set(weights)) < len(weights):
                    if swap.weight != greedy.weight:
                        violations += 1
                elif swap.edge_ids != greedy.edge_ids:
                    violations += 1
    ok = violations == 0
    _report(4, "swapset on descending equals greedy", ok, f"{violations}/{checks} cells differ")
    assert violations == 0


def test_criterion_5_maximality(corpus) -> None:
    naive_bad = 0
    greedy_bad = 0
    stack_not_maximal = 0
    stack_runs = 0
    for index, (hg, _) in enumerate(corpus):
        for stream in _streams(hg, index):
            matching, _ = run_naive(hg, stream)
            if not is_maximal(hg, matching):
                naive_bad += 1
        greedy, _ = run_greedy(hg)
        if not is_maximal(hg, greedy):
            greedy_bad += 1
        for epsilon in EPSILONS:
            stack_m, _, _ = run_stack_stream(
                hg, order_stream(hg, StreamOrder.ORIGINAL), epsilon, UpdateRule.GUARANTEE
            )
            stack_runs += 1
            if not is_maximal(hg, stack_m):
                stack_not_maximal += 1
    ok = naive_bad == 0 and greedy_bad == 0
    _report(
        5,
        "maximality",
        ok,
        f"naive/greedy violations {naive_bad}/{greedy_bad}; stack not maximal in "
        f"{stack_not_maximal} of {stack_runs} runs (recorded, not asserted)",
    )
    assert naive_bad == 0
    assert greedy_bad == 0


def test_criterion_6_push_bound(corpus) -> None:
    violations = 0
    checks = 0
    for index, (hg, _) in enumerate(corpus):
        if hg.m == 0:
            continue
        w_max = max(hg.weights)
        w_min = min(hg.weights)
        for epsilon in (0.1, 1.0):
            bound = 2 + math.floor(
                math.log(w_max / w_min) / math.log(1.0 + epsilon) + 1e-12
            )
            for stream in _streams(hg, index):
                _, _, metrics = run_stack_stream(hg, stream, epsilon, UpdateRule.GUARANTEE)
                checks += 1
                if metrics.vertex_push_max > bound:
                    violations += 1
    ok = violations == 0
    _report(6, "per-vertex push bound", ok, f"{violations} violations in {checks} runs")
    assert violations == 0


def test_criterion_7_memory_ordering() -> None:
    import random as _random

    from hypermatch.ingest import gen_random_hypergraph

    meta = _random.Random(0x3E30)
    violations: list[str] = []
    checked = 0
    instances = []
    for i in range(40):
        n = meta.randint(4, 12)
        m = 10 * n + meta.randint(0, 2 * n)
        d_max = meta.randint(2, min(4, n))
        w_max = meta.choice((1, 3, 10, 100))
        instances.append(gen_random_hypergraph(n, m, d_max, w_max, seed=7000 + i))
    for hg in instances:
        for order in (StreamOrder.ORIGINAL, StreamOrder.ASCENDING):
            stream = order_stream(hg, order)
            _, naive_metrics = run_naive(hg, stream)
            _, swap_metrics = run_swapset(hg, stream, optimal_alpha(hg.d))
            _, _, stack_metrics = run_stack_stream(hg, stream, 1.0, UpdateRule.GUARANTEE)
            greedy_m, greedy_metrics = run_greedy(hg)
            mem_naive = cli.logical_memory("naive", hg, naive_metrics)
            mem_swap = cli.logical_memory("swapset", hg, swap_metrics)
            mem_stack = cli.logical_memory("stack", hg, stack_metrics)
            mem_greedy = cli.logical_memory("greedy", hg, greedy_metrics)
            checked += 1
            if not mem_naive <= mem_swap <= mem_stack <= mem_greedy:
                violations.append(
                    f"{order.value}: {mem_naive} {mem_swap} {mem_stack} {mem_greedy}"
                )
        ascending = order_stream(hg, StreamOrder.ASCENDING)
        _, _, tight = run_stack_stream(hg, ascending, 1.0, UpdateRule.GUARANTEE)
        _, _, loose = run_stack_stream(hg, ascending, 0.1, UpdateRule.GUARANTEE)
        if cli.logical_memory("stack", hg, tight) > cli.logical_memory("stack", hg, loose):
            violations.append("epsilon ordering")
    ok = not violations
    _report(7, "logical memory ordering", ok, f"{len(violations)} violations in {checked} chains")
    assert not violations, violations[:5]


def test_criterion_8_oracle_agreement() -> None:
    started = time.perf_counter()
    mismatches = 0
    for hg in random_instances(500, meta_seed=0x0C71E):
        fast = exact_max_weight_matching(hg)
        brute = exhaustive_max_weight_matching(hg)
        if fast.weight != brute.weight or fast.edge_ids != brute.edge_ids:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        8,
        "oracle agreement",
        ok,
        f"{mismatches} mismatches in 500 instances, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 30.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_9_determinism(corpus) -> None:
    def strip(metrics):
        return dataclasses.replace(metrics, runtime_ns=0)

    differing = 0
    for index, (hg, _) in enumerate(corpus[:60]):
        stream = order_stream(hg, StreamOrder.RANDOM, seed=index)
        stack_runs = [
            run_stack_stream(hg, stream, 0.1, UpdateRule.GUARANTEE) for _ in range(3)
        ]
        lenient_runs = [
            run_stack_stream(hg, stream, 1.0, UpdateRule.LENIENT) for _ in range(3)
        ]
        swap_runs = [run_swapset(hg, stream, 0.3) for _ in range(3)]
        naive_runs = [run_naive(hg, stream) for _ in range(3)]
        greedy_runs = [run_greedy(hg) for _ in range(3)]
        for runs in (stack_runs, lenient_runs):
            base_m, base_d, base_t = runs[0]
            for m, d, t in runs[1:]:
                if (
                    m != base_m
                    or d.potentials != base_d.potentials
                    or strip(t) != strip(base_t)
                ):
                    differing += 1
        for runs in (swap_runs, naive_runs, greedy_runs):
            base_m, base_t = runs[0]
            for m, t in runs[1:]:
                if m != base_m or strip(t) != strip(base_t):
                    differing += 1

    # end to end through the bench layer as well
    spec = cli.RunSpec(
        source=(9, 12, 4, 100),
        algorithm="stack",
        epsilon=1.0,
        order=StreamOrder.RANDOM,
        seed=5,
        certify=True,
        emit_matching=True,
    )
    records = [cli.run(spec).as_dict() for _ in range(3)]
    for record in records:
        record.pop("runtime_ns")
    cli_identical = records[0] == records[1] == records[2]

    ok = differing == 0 and cli_identical
    _report(
        9,
        "determinism",
        ok,
        f"{differing} library diffs over 60 instances x 5 algorithms x 3 repeats; "
        f"bench records identical: {cli_identical}",
    )
    assert differing == 0
    assert cli_identical
