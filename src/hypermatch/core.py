"""Shared domain types for weighted hypergraph matching.

A hypergraph is a vertex count ``n`` plus two per-edge arrays: edge ``i``
covers the strictly ascending vertex tuple ``vertices[i]`` and weighs
``weights[i]``.  Edge ids are ordinals: edge ``i`` is the ``i``-th edge of
the input, and that position doubles as the canonical tie-breaker
everywhere ordering matters.  Every algorithm indexes the two arrays by
edge id; :class:`Hyperedge` objects exist only as a derived view
(``Hypergraph.edges``).  Weights are positive 64-bit floats; unit weights
are the value ``1.0``.  A matching is a set of pairwise vertex-disjoint edge ids together
with its per-vertex ownership map and a cached total weight.

Float totals throughout the package are explicit left-to-right loops, not
``sum()``: from Python 3.12 on, ``sum`` of floats is compensated, so
``sum([1e16, 1.0, 1.0])`` would differ between interpreter versions and so
would the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    """An edge-weighted hypergraph over vertices ``0..n-1``, stored per edge.

    Edge ``i`` covers ``vertices[i]``, a strictly ascending tuple of vertex
    ids, and weighs ``weights[i]``, a positive finite float; the id of an
    edge is its position in the input stream.  ``d`` is the maximum edge
    size (0 when there are no edges) and ``total_pins`` the total number of
    vertex slots across all edges.  The total edge weight must be finite,
    so no matching weight can overflow.  The constructor validates both
    arrays once; :meth:`build` accepts unsorted vertex lists.
    """

    n: int
    vertices: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    d: int = field(init=False)
    total_pins: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise InvalidInput(f"vertex count must be non-negative, got {n}")
        vertices = tuple(map(tuple, self.vertices))
        weights = tuple(map(float, self.weights))
        if len(vertices) != len(weights):
            raise InvalidInput(
                f"{len(vertices)} vertex tuples but {len(weights)} weights"
            )
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "weights", weights)
        total_weight = 0.0
        d = total_pins = 0
        for eid, verts in enumerate(vertices):
            if not verts:
                raise InvalidInput(f"edge {eid} has no vertices")
            prev = -1
            for v in verts:
                if v <= prev:
                    raise InvalidInput(
                        f"edge {eid} has vertices {verts}; they must be distinct, "
                        "ascending and non-negative"
                    )
                prev = v
            if prev >= n:
                raise InvalidInput(
                    f"edge {eid} references vertex {prev} but only {n} vertices exist"
                )
            w = weights[eid]
            if not 0.0 < w < math.inf:
                raise InvalidInput(f"edge {eid} needs a positive finite weight, got {w}")
            total_weight += w
            size = len(verts)
            total_pins += size
            if size > d:
                d = size
        if not math.isfinite(total_weight):
            raise InvalidInput("the total edge weight overflows a 64-bit float")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "total_pins", total_pins)

    @property
    def m(self) -> int:
        return len(self.weights)

    @cached_property
    def edges(self) -> tuple[Hyperedge, ...]:
        """The edges as :class:`Hyperedge` objects, built on first access.

        A read-only view for callers that want one object per edge; the
        package itself indexes ``vertices`` and ``weights``.
        """
        return tuple(
            Hyperedge(eid, verts, w)
            for eid, (verts, w) in enumerate(zip(self.vertices, self.weights))
        )

    @classmethod
    def build(cls, n: int, edge_data: Iterable[tuple[Iterable[int], float]]) -> "Hypergraph":
        """Construct from ``(vertices, weight)`` pairs, assigning ordinal ids.

        Each vertex list is deduplicated and sorted ascending.
        """
        vertices = []
        weights = []
        for verts, w in edge_data:
            vertices.append(tuple(sorted(set(verts))))
            weights.append(w)
        return cls(n, vertices, weights)

    def with_weights(self, weights: Iterable[float]) -> "Hypergraph":
        """A copy of this hypergraph with the given per-edge weights."""
        return Hypergraph(self.n, self.vertices, tuple(weights))


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
            for v in hg.vertices[eid]:
                if owner[v] is not None:
                    raise InvalidInput(
                        f"edges {owner[v]} and {eid} both cover vertex {v}"
                    )
                owner[v] = eid
            total += hg.weights[eid]
        return cls(frozenset(ids), tuple(owner), total)


def first_fit(hg: Hypergraph, stream: Iterable[int]) -> list[int]:
    """Ids of the streamed edges whose vertices are all still free on arrival.

    The one first-fit rule of the package: the naive matcher applies it to
    its stream, greedy to the descending-weight order, and the stack matcher
    to its stack, last in first out.  The chosen ids come in stream order.
    """
    free = [True] * hg.n
    vertices = hg.vertices
    chosen: list[int] = []
    for eid in stream:
        verts = vertices[eid]
        for v in verts:
            if not free[v]:
                break
        else:
            for v in verts:
                free[v] = False
            chosen.append(eid)
    return chosen


def check_stream(hg: Hypergraph, stream: Iterable[int]) -> None:
    """Raise InvalidInput unless ``stream`` is a permutation of the edge ids."""
    stream = list(stream)
    if len(stream) != hg.m:
        raise InvalidInput(f"stream has {len(stream)} entries for {hg.m} edges")
    m = hg.m
    seen = [False] * m
    try:
        for eid in stream:
            if not 0 <= eid < m or seen[eid]:
                raise InvalidInput(f"stream is not a permutation of edge ids: {eid}")
            seen[eid] = True
    except TypeError:
        # a float, None or string entry fails the comparison or the index
        raise InvalidInput(f"stream entries must be integer edge ids, got {eid!r}") from None


def matching_weight(hg: Hypergraph, edge_ids: Iterable[int]) -> float:
    """Total weight of the given edges, summed in ascending id order.

    The fixed summation order makes the result invariant under permutations
    of ``edge_ids``.  Unknown ids raise InvalidInput.
    """
    total = 0.0
    for eid in sorted(set(edge_ids)):
        if not 0 <= eid < hg.m:
            raise InvalidInput(f"unknown edge id {eid}")
        total += hg.weights[eid]
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
        for v in hg.vertices[eid]:
            counts[v] += 1
    if any(c > 1 for c in counts):
        return False
    expected: list[Optional[int]] = [None] * hg.n
    for eid in matching.edge_ids:
        for v in hg.vertices[eid]:
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
