"""Shared domain types for weighted hypergraph matching.

A hypergraph is a vertex count ``n`` plus an ordered tuple of hyperedges.
Edge ids are ordinals: edge ``i`` is the ``i``-th edge of the input, and
that position doubles as the canonical tie-breaker everywhere ordering
matters.  Weights are positive 64-bit floats; unit weights are the value
``1.0``.  A matching is a set of pairwise vertex-disjoint edge ids together
with its per-vertex ownership map and a cached total weight.

Float totals throughout the package are explicit left-to-right loops, not
``sum()``: from Python 3.12 on, ``sum`` of floats is compensated, so
``sum([1e16, 1.0, 1.0])`` would differ between interpreter versions and so
would the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional


class InvalidInput(ValueError):
    """An argument violated a documented precondition."""


@dataclass(frozen=True)
class Hyperedge:
    """A weighted hyperedge.

    Vertices are deduplicated and sorted ascending at construction, so
    iteration order over ``vertices`` is deterministic.  Size-1 edges are
    legal.  The weight must be positive and finite.
    """

    id: int
    vertices: tuple[int, ...]
    weight: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise InvalidInput(f"edge id must be non-negative, got {self.id}")
        verts = tuple(sorted(set(self.vertices)))
        if not verts:
            raise InvalidInput(f"edge {self.id} has no vertices")
        if verts[0] < 0:
            raise InvalidInput(f"edge {self.id} has a negative vertex id")
        w = float(self.weight)
        if not math.isfinite(w) or w <= 0.0:
            raise InvalidInput(f"edge {self.id} needs a positive finite weight, got {w}")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "weight", w)

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Hypergraph:
    """An edge-weighted hypergraph over vertices ``0..n-1``.

    ``edges[i].id == i`` is enforced: the id of an edge is its position in
    the input stream.  ``d`` is the maximum edge size (0 when there are no
    edges) and ``total_pins`` the total number of vertex slots across all
    edges.  The total edge weight must be finite, so no matching weight
    can overflow.
    """

    n: int
    edges: tuple[Hyperedge, ...]
    d: int = field(init=False)
    total_pins: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidInput(f"vertex count must be non-negative, got {self.n}")
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        total_weight = 0.0
        for pos, edge in enumerate(edges):
            if edge.id != pos:
                raise InvalidInput(
                    f"edge at position {pos} carries id {edge.id}; ids must equal positions"
                )
            if edge.vertices[-1] >= self.n:
                raise InvalidInput(
                    f"edge {edge.id} references vertex {edge.vertices[-1]} "
                    f"but only {self.n} vertices exist"
                )
            total_weight += edge.weight
        if not math.isfinite(total_weight):
            raise InvalidInput("the total edge weight overflows a 64-bit float")
        object.__setattr__(self, "d", max((e.size for e in edges), default=0))
        object.__setattr__(self, "total_pins", sum(e.size for e in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @classmethod
    def build(cls, n: int, edge_data: Iterable[tuple[Iterable[int], float]]) -> "Hypergraph":
        """Construct from ``(vertices, weight)`` pairs, assigning ordinal ids."""
        edges = tuple(
            Hyperedge(i, tuple(verts), w) for i, (verts, w) in enumerate(edge_data)
        )
        return cls(n, edges)

    def with_weights(self, weights: Iterable[float]) -> "Hypergraph":
        """A copy of this hypergraph with the given per-edge weights."""
        ws = list(weights)
        if len(ws) != self.m:
            raise InvalidInput(f"expected {self.m} weights, got {len(ws)}")
        return Hypergraph.build(self.n, ((e.vertices, w) for e, w in zip(self.edges, ws)))


@dataclass(frozen=True)
class Matching:
    """A set of edge ids, its vertex ownership map, and a cached weight.

    ``owner[v]`` is the id of the selected edge covering vertex ``v``, or
    ``None``.  Construct through :meth:`from_edge_ids` for a consistent
    instance; the raw constructor performs no validation so that
    :func:`validate_matching` can be exercised on broken values.
    """

    edge_ids: frozenset[int]
    owner: tuple[Optional[int], ...]
    weight: float

    @property
    def cardinality(self) -> int:
        return len(self.edge_ids)

    @classmethod
    def from_edge_ids(cls, hg: Hypergraph, edge_ids: Iterable[int]) -> "Matching":
        """Build a matching from ids, deriving the owner map and weight.

        Raises InvalidInput if an id is unknown or two edges share a vertex.
        """
        ids = sorted(set(edge_ids))
        owner: list[Optional[int]] = [None] * hg.n
        total = 0.0
        for eid in ids:
            if not 0 <= eid < hg.m:
                raise InvalidInput(f"unknown edge id {eid}")
            edge = hg.edges[eid]
            for v in edge.vertices:
                if owner[v] is not None:
                    raise InvalidInput(
                        f"edges {owner[v]} and {eid} both cover vertex {v}"
                    )
                owner[v] = eid
            total += edge.weight
        return cls(frozenset(ids), tuple(owner), total)


def first_fit(hg: Hypergraph, stream: Iterable[int]) -> list[int]:
    """Ids of the streamed edges whose vertices are all still free on arrival.

    The one first-fit rule of the package: the naive matcher applies it to
    its stream, greedy to the descending-weight order, and the stack matcher
    to its stack, last in first out.  The chosen ids come in stream order.
    """
    free = [True] * hg.n
    chosen: list[int] = []
    for eid in stream:
        vertices = hg.edges[eid].vertices
        if all(free[v] for v in vertices):
            for v in vertices:
                free[v] = False
            chosen.append(eid)
    return chosen


def check_stream(hg: Hypergraph, stream: Iterable[int]) -> None:
    """Raise InvalidInput unless ``stream`` is a permutation of the edge ids."""
    stream = list(stream)
    if len(stream) != hg.m:
        raise InvalidInput(f"stream has {len(stream)} entries for {hg.m} edges")
    seen = [False] * hg.m
    for eid in stream:
        if not 0 <= eid < hg.m or seen[eid]:
            raise InvalidInput(f"stream is not a permutation of edge ids: {eid}")
        seen[eid] = True


def matching_weight(hg: Hypergraph, edge_ids: Iterable[int]) -> float:
    """Total weight of the given edges, summed in ascending id order.

    The fixed summation order makes the result invariant under permutations
    of ``edge_ids``.  Unknown ids raise InvalidInput.
    """
    total = 0.0
    for eid in sorted(set(edge_ids)):
        if not 0 <= eid < hg.m:
            raise InvalidInput(f"unknown edge id {eid}")
        total += hg.edges[eid].weight
    return total


def validate_matching(hg: Hypergraph, matching: Matching) -> bool:
    """Check that a matching is internally consistent for ``hg``.

    True iff the selected edges are pairwise vertex-disjoint, ``owner`` is
    exactly the incidence map of ``edge_ids``, and the cached weight agrees
    with recomputation within relative tolerance 1e-12.  Unknown edge ids
    raise InvalidInput rather than returning False.
    """
    for eid in matching.edge_ids:
        if not 0 <= eid < hg.m:
            raise InvalidInput(f"unknown edge id {eid}")
    if len(matching.owner) != hg.n:
        return False
    counts = [0] * hg.n
    for eid in matching.edge_ids:
        for v in hg.edges[eid].vertices:
            counts[v] += 1
    if any(c > 1 for c in counts):
        return False
    expected: list[Optional[int]] = [None] * hg.n
    for eid in matching.edge_ids:
        for v in hg.edges[eid].vertices:
            expected[v] = eid
    if tuple(expected) != matching.owner:
        return False
    recomputed = matching_weight(hg, matching.edge_ids)
    tol = 1e-12 * max(abs(recomputed), abs(matching.weight))
    return abs(recomputed - matching.weight) <= tol


@dataclass
class RunMetrics:
    """Counters reported by every algorithm run.

    Fields that do not apply to an algorithm stay at zero.  ``runtime_ns``
    covers the algorithm only, never input parsing, and is the one field
    exempt from determinism guarantees.
    """

    matching_weight: float = 0.0
    cardinality: int = 0
    peak_stack_edges: int = 0
    peak_stack_pins: int = 0
    pushes: int = 0
    pops: int = 0
    swaps: int = 0
    vertex_push_max: int = 0
    runtime_ns: int = 0
