"""Shared domain types for weighted hypergraph matching.

A hypergraph is a vertex count ``n`` plus two per-edge arrays: edge ``i``
covers the strictly ascending vertex tuple ``vertices[i]`` and weighs
``weights[i]``.  Edge ids are ordinals: edge ``i`` is the ``i``-th edge of
the input, and that position doubles as the canonical tie-breaker
everywhere ordering matters.  Every algorithm indexes the two arrays by
edge id.  Weights are positive 64-bit floats; unit weights are the value
``1.0``.  Equal weights may be one shared ``float`` object, as the parser
and the weight schemes build them: an edge then costs an 8-byte reference
for its weight, not a 24-byte float of its own, and a kernel reading
weights out of edge order touches only the few distinct objects.
Nothing may rely on weights being distinct objects, or on equal ones being
shared.
A matching is a set of pairwise vertex-disjoint edge ids together
with its cached total weight.  A stream is a permutation of the edge ids in
presentation order, held as a read-only :class:`Stream`; every kernel
iterates a Stream, which :func:`check_stream` makes of any other iterable.

Float totals throughout the package are explicit left-to-right loops, not
``sum()``: from Python 3.12 on, ``sum`` of floats is compensated, so
``sum([1e16, 1.0, 1.0])`` would differ between interpreter versions and so
would the records.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class InvalidInput(ValueError):
    """An argument violated a documented precondition."""


@dataclass(frozen=True)
class Hypergraph:
    """An edge-weighted hypergraph over vertices ``0..n-1``, stored per edge.

    Edge ``i`` covers ``vertices[i]``, a strictly ascending tuple of vertex
    ids, and weighs ``weights[i]``, a positive finite float; the id of an
    edge is its position in the input stream.  ``d`` is the maximum edge
    size (0 when there are no edges) and ``total_pins`` the total number of
    vertex slots across all edges.  The total edge weight must be finite,
    so no matching weight can overflow; ``n`` and vertex ids are ``int``,
    never ``bool``.  The constructor is the package's one edge validator:
    the parser only adds line numbers, and :meth:`build` accepts unsorted
    vertex lists.
    """

    n: int
    vertices: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    d: int = field(init=False)
    total_pins: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 0:
            raise InvalidInput(f"vertex count must be a non-negative int, got {n!r}")
        try:
            vertices = tuple(map(tuple, self.vertices))
        except TypeError as exc:
            raise InvalidInput(f"vertices must be iterables of vertex ids: {exc}") from None
        try:
            # float() returns a float as it is, so shared weights stay shared
            weights = tuple(map(float, self.weights))
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"weights must be numbers: {exc}") from None
        if len(vertices) != len(weights):
            raise InvalidInput(
                f"{len(vertices)} vertex tuples but {len(weights)} weights"
            )
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "weights", weights)
        total_weight = 0.0
        for eid, verts in enumerate(vertices):
            if not verts:
                raise InvalidInput(f"edge {eid} has no vertices")
            prev = -1
            for v in verts:
                # bool is an int subclass; as a vertex id it is a caller's error
                if type(v) is not int or v <= prev:
                    raise InvalidInput(
                        f"edge {eid} has vertices {verts}; they must be distinct, "
                        "ascending and non-negative ints"
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
        if not math.isfinite(total_weight):
            raise InvalidInput("the total edge weight overflows a 64-bit float")
        object.__setattr__(self, "d", max(map(len, vertices), default=0))
        object.__setattr__(self, "total_pins", sum(map(len, vertices)))

    @property
    def m(self) -> int:
        return len(self.weights)

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


@dataclass(frozen=True)
class Matching:
    """A set of edge ids and its cached total weight.

    Construct through :meth:`from_edge_ids` for a consistent instance; the
    raw constructor performs no validation so that
    :func:`validate_matching` can be exercised on broken values.
    """

    edge_ids: frozenset[int]
    weight: float

    @property
    def cardinality(self) -> int:
        return len(self.edge_ids)

    @classmethod
    def from_edge_ids(cls, hg: Hypergraph, edge_ids: Iterable[int]) -> "Matching":
        """Build a matching from ids, deriving its weight.

        Raises InvalidInput if an id is unknown or two edges share a vertex.
        """
        ids = sorted(set(edge_ids))
        owner: list[Optional[int]] = [None] * hg.n
        total = 0.0
        m = hg.m
        vertices, weights = hg.vertices, hg.weights
        for eid in ids:
            if not 0 <= eid < m:
                raise InvalidInput(f"unknown edge id {eid}")
            for v in vertices[eid]:
                if owner[v] is not None:
                    raise InvalidInput(
                        f"edges {owner[v]} and {eid} both cover vertex {v}"
                    )
                owner[v] = eid
            total += weights[eid]
        return cls(frozenset(ids), total)


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


class Stream:
    """A read-only permutation of edge ids, in presentation order.

    The ids are packed into one ``array("q")``, 8 bytes per edge, instead
    of a list of int objects.  The constructor reads ``ids`` once and
    raises InvalidInput unless they are a permutation of ``0..len-1``, the
    package's one permutation check; with no mutating methods the
    permutation then holds for the stream's life, so :func:`check_stream`
    takes it as is.  A stream has no ``__eq__``: compare ``list(stream)``.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: Iterable[int]) -> None:
        ids = list(ids)
        m = len(ids)
        seen = [False] * m
        try:
            for eid in ids:
                if not 0 <= eid < m or seen[eid]:
                    raise InvalidInput(f"stream is not a permutation of edge ids: {eid}")
                seen[eid] = True
        except TypeError:
            # a float, None or string entry fails the comparison or the index
            raise InvalidInput(f"stream entries must be integer edge ids, got {eid!r}") from None
        # bool is a subclass of int, so True and False pass the loop as ids 1
        # and 0; in a permutation only the entries equal to 0 and 1 can be bools
        for eid in range(min(m, 2)):
            entry = ids[ids.index(eid)]
            if type(entry) is bool:
                raise InvalidInput(f"stream entries must be integer edge ids, got {entry!r}")
        self._ids = array("q", ids)

    @classmethod
    def _of_permutation(cls, ids: list[int]) -> "Stream":
        """Pack ``ids``, already a permutation by construction, unchecked."""
        stream = cls.__new__(cls)
        stream._ids = array("q", ids)
        return stream

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __getitem__(self, index: int) -> int:
        return self._ids[index]


def check_stream(hg: Hypergraph, stream: Iterable[int]) -> Stream:
    """The edge ids of ``stream`` as a :class:`Stream` of ``hg``'s edges,
    raising InvalidInput unless they are a permutation of them.

    A :class:`Stream` was checked when it was made, so only its length is
    compared and it is returned as is.  Any other iterable is read once,
    its length compared, and it is packed into a new, checked Stream.
    """
    # a subclass could iterate otherwise, so only Stream itself is trusted
    ids = stream if type(stream) is Stream else list(stream)
    if len(ids) != hg.m:
        raise InvalidInput(f"stream has {len(ids)} entries for {hg.m} edges")
    return stream if ids is stream else Stream(ids)


def validate_matching(hg: Hypergraph, matching: Matching) -> bool:
    """Check that a matching is internally consistent for ``hg``.

    True iff the selected edges are pairwise vertex-disjoint and the cached
    weight agrees within relative tolerance 1e-12 with their weights summed
    in ascending id order.  Unknown edge ids raise InvalidInput rather than
    returning False.
    """
    m = hg.m
    for eid in matching.edge_ids:
        if not 0 <= eid < m:
            raise InvalidInput(f"unknown edge id {eid}")
    covered = [False] * hg.n
    vertices, weights = hg.vertices, hg.weights
    recomputed = 0.0
    for eid in sorted(matching.edge_ids):
        for v in vertices[eid]:
            if covered[v]:
                return False
            covered[v] = True
        recomputed += weights[eid]
    tol = 1e-12 * max(abs(recomputed), abs(matching.weight))
    return abs(recomputed - matching.weight) <= tol


@dataclass
class RunMetrics:
    """Counters reported by every algorithm run.

    Fields that do not apply to an algorithm stay at zero.  ``runtime_ns``,
    set by :func:`finish_run`, covers the kernel from after the stream check
    and its per-vertex set-up up to its chosen ids, greedy's sort included;
    building and checking the matching come after the clock stops.  It is
    the one field exempt from determinism guarantees.
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


def finish_run(hg: Hypergraph, chosen: Iterable[int], start: int) -> tuple[Matching, RunMetrics]:
    """Stop the clock started at ``start``, then build the matching of ``chosen``
    and a fresh :class:`RunMetrics` of its runtime, weight and cardinality."""
    runtime_ns = time.perf_counter_ns() - start
    matching = Matching.from_edge_ids(hg, chosen)
    return matching, RunMetrics(matching.weight, matching.cardinality, runtime_ns=runtime_ns)
