"""Exact maximum-weight matching for desk-scale instances.

The primary solver is a depth-first branch-and-bound over include/exclude
decisions.  Edges are taken in descending weight order (ties by id) with
the include-branch explored first, so a strong incumbent appears early.
The search branches only on edges still compatible with the partial
matching: including an edge drops every later edge that shares a vertex
with it.  The bound on a subtree is the exact total weight of the edges
still compatible there.  Two rules prune, each tested on a child before
the search enters it: a child is skipped when the weight collected so far
plus its bound cannot reach the incumbent, and the exclude child is
skipped when the branching edge conflicts with no edge still compatible,
since with positive weights every completion without that edge is lighter
than the same completion with it.  Among equal-weight optima the solver
returns the one whose sorted edge-id tuple is lexicographically smallest,
which keeps results reproducible.  Sums are compared exactly, on weights
scaled to integers, so float rounding in the summation order cannot split
a tie.

A separate brute-force enumerator walks all 2^m edge subsets in id order,
with the same tie-break and no bound.  It exists to check the
branch-and-bound, not to be fast.

Both solvers refuse instances beyond :class:`OracleLimits` by raising
:class:`TooLarge` — exact matching is NP-hard, so there is no graceful way
to handle large inputs here.
"""

from __future__ import annotations

import sys
from operator import attrgetter

from .core import Hypergraph, InvalidInput, Matching, _Frozen


class TooLarge(RuntimeError):
    """Instance exceeds the oracle's configured limits."""


class OracleLimits(_Frozen):
    """Hard caps for the exact solvers.

    ``max_edges`` bounds the search space up front; ``max_nodes_expanded``
    is a safety valve on the number of search-tree nodes actually visited,
    for adversarial instances (e.g. all weights equal) where pruning is
    powerless.  A node is the root, plus each include or exclude child that
    both pruning rules let through: its bound can still reach the
    incumbent, and, for an exclude child, the edge left out conflicts with
    an edge still compatible.  So m disjoint edges take m + 1 nodes.  Raises
    InvalidInput for a cap that is not exactly an ``int`` (not a ``bool``),
    a negative ``max_edges`` or a ``max_nodes_expanded`` below 1.
    """

    # the defaults, read as class attributes too
    max_edges: int = 24
    max_nodes_expanded: int = 1 << 25

    _key = property(attrgetter("max_edges", "max_nodes_expanded"))

    def __init__(self, max_edges: int = max_edges,
                 max_nodes_expanded: int = max_nodes_expanded) -> None:
        for name, value in (("max_edges", max_edges),
                            ("max_nodes_expanded", max_nodes_expanded)):
            if type(value) is not int:  # a bool is an int subclass
                raise InvalidInput(f"{name} must be an int, got {value!r}")
        if max_edges < 0:
            raise InvalidInput(f"max_edges must be non-negative, got {max_edges}")
        if max_nodes_expanded < 1:
            raise InvalidInput(
                f"max_nodes_expanded must be at least 1, got {max_nodes_expanded}")
        vars(self).update(max_edges=max_edges, max_nodes_expanded=max_nodes_expanded)


def exact_max_weight_matching(hg: Hypergraph, limits: OracleLimits | None = None) -> Matching:
    """Maximum-weight matching by branch-and-bound.

    Raises TooLarge when the instance has more than ``limits.max_edges``
    edges, the search would visit more than ``limits.max_nodes_expanded``
    nodes, or it would nest deeper than the interpreter's recursion limit.
    Equal-weight optima are resolved toward the lexicographically smallest
    sorted edge-id tuple.
    """
    limits = limits or OracleLimits()
    if hg.m > limits.max_edges:
        raise TooLarge(f"{hg.m} edges exceeds the oracle cap of {limits.max_edges}")

    exact = _exact_weights(hg)
    order = sorted(range(hg.m), key=hg.weights.__getitem__, reverse=True)
    weights = [exact[eid] for eid in order]
    # incident[v] = the positions of the edges on vertex v
    incident: dict[int, int] = {}
    for i, eid in enumerate(order):
        for v in hg.vertices[eid]:
            incident[v] = incident.get(v, 0) | 1 << i
    # conflicts[i] = the positions whose edges share a vertex with edge i;
    # the search masks it with positions after i, so i and earlier ones stay
    conflicts = []
    for eid in order:
        mask = 0
        for v in hg.vertices[eid]:
            mask |= incident[v]
        conflicts.append(mask)

    best_weight = 0
    best_ids: tuple[int, ...] = ()
    expanded = 0
    chosen: list[int] = []

    def visit(avail: int, current: int, bound: int) -> None:
        # avail: positions still compatible with the chosen edges;
        # bound: their total weight, the most any completion can add.
        # The caller has checked that current + bound can reach best_weight.
        nonlocal best_weight, best_ids, expanded
        expanded += 1
        if expanded > limits.max_nodes_expanded:
            raise TooLarge(
                f"search exceeded {limits.max_nodes_expanded} node expansions"
            )
        if not avail:
            # bound is 0 at a leaf, so the caller's check left current >= best_weight
            ids = tuple(sorted(chosen))
            if current > best_weight or ids < best_ids:
                best_weight = current
                best_ids = ids
            return
        low = avail & -avail
        i = low.bit_length() - 1
        rest = avail ^ low
        clash = dropped = rest & conflicts[i]  # rest holds only positions after i
        # what including edge i takes out of the bound: its conflicts
        lost = 0
        while dropped:
            bit = dropped & -dropped
            lost += weights[bit.bit_length() - 1]
            dropped ^= bit
        # Equal bound stays alive: a tie may still win on the id tie-break.
        if current + bound - lost >= best_weight:
            chosen.append(order[i])
            visit(rest ^ clash, current + weights[i], bound - weights[i] - lost)
            chosen.pop()
        # Excluding an edge that conflicts with nothing left only loses its
        # weight: every completion is lighter than the same one with it.
        if clash and current + bound - weights[i] >= best_weight:
            visit(rest, current, bound - weights[i])

    try:
        visit((1 << len(order)) - 1, 0, sum(weights))
    except RecursionError:
        # visit recurses once per decision, so a deep search outgrows the stack
        raise TooLarge(
            f"search deeper than the recursion limit of {sys.getrecursionlimit()}"
        ) from None
    return Matching.from_edge_ids(hg, best_ids)


def exhaustive_max_weight_matching(hg: Hypergraph) -> Matching:
    """Maximum-weight matching by enumerating every edge subset.

    Same tie-break as :func:`exact_max_weight_matching`.  A depth-first
    walk extends each matching by every later edge in id order, so it
    visits each matching once and tests each other subset at most once, as
    a matching plus a conflicting last edge: O(2^m) in all, with no
    ordering by weight and no bound.  A fixed cap of 20 edges (TooLarge
    beyond it) keeps that honest.  The walk meets the matchings in
    lexicographic order of their ascending id tuples, a matching before
    its extensions, so the first optimum it meets is already the smallest
    and only a heavier matching replaces it.
    """
    if hg.m > 20:
        raise TooLarge(f"{hg.m} edges exceeds the enumeration cap of 20")
    m = hg.m
    masks = [_vertex_mask(hg, eid) for eid in range(m)]
    exact = _exact_weights(hg)

    best_weight = 0
    best_ids: tuple[int, ...] = ()
    chosen: list[int] = []

    def extend(start: int, used: int, weight: int) -> None:
        # chosen is a matching over vertex mask used; extend it by edges >= start
        nonlocal best_weight, best_ids
        if weight > best_weight:
            best_weight = weight
            best_ids = tuple(chosen)
        for eid in range(start, m):
            if not used & masks[eid]:
                chosen.append(eid)
                extend(eid + 1, used | masks[eid], weight + exact[eid])
                chosen.pop()

    extend(0, 0, 0)
    return Matching.from_edge_ids(hg, best_ids)


def is_maximal(hg: Hypergraph, matching: Matching) -> bool:
    """Whether no unselected edge could be added without a conflict."""
    covered = [False] * hg.n
    for eid in matching.edge_ids:
        for v in hg.vertices[eid]:
            covered[v] = True
    # a selected edge covers its own vertices, so only free edges pass
    for verts in hg.vertices:
        if not any(covered[v] for v in verts):
            return False
    return True


def _exact_weights(hg: Hypergraph) -> list[int]:
    """Edge weights times one power of two that makes them all integers."""
    ratios = [w.as_integer_ratio() for w in hg.weights]
    scale = max((den for _, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios]


def _vertex_mask(hg: Hypergraph, eid: int) -> int:
    mask = 0
    for v in hg.vertices[eid]:
        mask |= 1 << v
    return mask
