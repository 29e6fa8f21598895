"""One-pass stack matcher with per-vertex dual potentials.

Every vertex carries a potential, initially zero.  An arriving edge is
admitted when its weight is at least ``(1 + epsilon)`` times the current
potential sum over its vertices; admitted edges are pushed on a stack and
raise the potentials of their vertices.  After the stream ends the stack is
unwound last-in-first-out, taking each popped edge whose vertices are all
still free: first-fit over the reversed stack.

The potential sum of an edge stops at the first pin where the running sum
already fails ``W(e) >= (1 + epsilon) * sum``, and the edge is rejected.
That cannot change a decision: potentials are never negative, so the
rounded running sum never falls as pins are added, and
``(1 + epsilon) * x`` rounds monotonically in ``x``.  An admitted edge has
summed every pin.  The per-edge reference in the tests always takes the
full sum.  :func:`dual_feasible` stops the other way, at the first pin
where the scaled sum covers the weight, for the same reason; it first
refuses any negative or NaN potential, since only ``y >= 0`` bounds a
matching.

Two update rules are supported.  GUARANTEE adds the full surplus
``W(e) - sum`` to every endpoint, which makes the scaled potentials a
certificate: ``(1 + epsilon) * total potential`` bounds the weight of every
matching, so the result is within ``1 / (d * (1 + epsilon))`` of optimal
for instances of maximum edge size d.  LENIENT spreads the surplus evenly
across the endpoints (``(W(e) - sum) / |e|``), admitting more edges at the
price of that certificate.  ``epsilon`` must be finite and non-negative.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import time
from typing import Iterable

from .core import Hypergraph, InvalidInput, Matching, RunMetrics, check_stream, finish_run, first_fit


class UpdateRule(enum.Enum):
    GUARANTEE = "guarantee"
    LENIENT = "lenient"


class DualState:
    """Per-vertex potentials plus the admission slack epsilon."""

    def __init__(self, potentials: list[float], epsilon: float) -> None:
        self.potentials = potentials
        self.epsilon = epsilon

    @classmethod
    def zeros(cls, n: int, epsilon: float) -> "DualState":
        if not 0 <= epsilon < math.inf:
            raise InvalidInput(f"epsilon must be non-negative and finite, got {epsilon}")
        return cls([0.0] * n, epsilon)


def run_stack_stream(
    hg: Hypergraph,
    stream: Iterable[int],
    epsilon: float,
    rule: UpdateRule = UpdateRule.GUARANTEE,
) -> tuple[Matching, DualState, RunMetrics]:
    """Run the stack matcher over ``stream`` and unwind to a matching.

    ``stream`` is read as :func:`check_stream` reads it.  Returns the
    matching, the final dual state, and the run counters (pushes, pops,
    stack peaks, the maximum number of pushes touching any one vertex,
    and runtime).
    """
    stream = check_stream(hg, stream)
    dual = DualState.zeros(hg.n, epsilon)
    potentials = dual.potentials
    stack: list[int] = []
    stack_pins = 0
    pushes_per_vertex = [0] * hg.n
    vertices, weights = hg.vertices, hg.weights
    scale = 1.0 + epsilon
    lenient = rule is UpdateRule.LENIENT

    start = time.perf_counter_ns()
    for eid in stream:
        verts = vertices[eid]
        w = weights[eid]
        covered = 0.0
        for v in verts:
            covered += potentials[v]
            # potentials are never negative, so no later pin lowers the sum
            if not w >= scale * covered:
                break
        else:
            stack.append(eid)
            surplus = w - covered
            if lenient:
                surplus /= len(verts)
            stack_pins += len(verts)
            for v in verts:
                potentials[v] += surplus
                pushes_per_vertex[v] += 1
    matching, metrics = finish_run(hg, first_fit(hg, reversed(stack)), start)
    # The stream phase only pushes and the unwind pops every entry, so the
    # stack peaks at its final edge and pin counts, and pushes == pops.
    metrics.pushes = metrics.pops = metrics.peak_stack_edges = len(stack)
    metrics.peak_stack_pins = stack_pins
    metrics.vertex_push_max = max(pushes_per_vertex, default=0)
    return matching, dual, metrics


def dual_feasible(hg: Hypergraph, dual: DualState) -> bool:
    """Whether the potentials are a dual solution: non-negative and, once
    scaled, covering every edge's weight.

    False unless there is one potential per vertex, and when any potential
    is negative or NaN.  Otherwise checks
    ``(1 + epsilon) * sum(e) >= W(e)`` for every edge, where ``sum(e)`` is
    the potential sum over ``e``'s vertices, with a relative slack of
    ``1e-9 * W(e)`` for floating-point noise; a NaN product covers
    nothing.  An edge's sum stops at the first pin where it covers the
    weight: with no potential negative, the rounded running sum never
    falls, so the full sum would cover it too.
    A run with the GUARANTEE rule always ends in a feasible state.
    """
    potentials = dual.potentials
    if len(potentials) != hg.n:  # an edge covered early never reads a missing one
        return False
    # operator.le, not (0.0).__le__, whose NotImplemented for a Fraction
    # or Decimal would read as true
    if not all(map(operator.le, itertools.repeat(0.0), potentials)):
        return False
    scale = 1.0 + dual.epsilon
    for verts, w in zip(hg.vertices, hg.weights):
        need = w - 1e-9 * w
        covered = 0.0
        for v in verts:
            covered += potentials[v]
            if scale * covered >= need:
                break
        else:
            return False
    return True


def dual_upper_bound(dual: DualState) -> float:
    """``(1 + epsilon)`` times the total potential.

    When :func:`dual_feasible` holds, which needs every potential
    ``y >= 0``, no matching of the instance weighs more than this value.
    The potentials can add up past the largest float even when the edge
    weights do not; the bound is then ``inf``, vacuous but still valid.
    """
    total = 0.0
    for p in dual.potentials:
        total += p
    return (1.0 + dual.epsilon) * total
