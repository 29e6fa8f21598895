"""References that restate, the plain way, what the package does fast.

``run_stack_stream`` and ``run_swapset`` each do an edge's work inline in
their loop.  ``admit`` and ``try_swap`` restate that work one edge at a
time, with the same float operations in the same order, so the tests can
step a stream by hand and check the kernels against the fold.
``covers`` checks a dual on every edge's full potential sum, where
``dual_feasible`` stops at the first pin that covers the weight.
``token_lines`` and ``data_lines`` read instance text whole, where the
parser reads it a chunk at a time.  ``random_edges`` draws an instance's
edges through ``random.Random``'s ``randint`` and ``sample``, where the
generator restates their draws in one loop over ``getrandbits``.

Run as a script, it checks the generator against ``random_edges`` on
``GEN_SHAPES`` under whichever Python runs it, with no test runner:
``PYTHONPATH=src python tests/reference.py``.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator, Optional

from hypermatch.core import Hypergraph
from hypermatch.stack_matcher import DualState, UpdateRule


def admit(dual: DualState, hg: Hypergraph, eid: int, rule: UpdateRule) -> bool:
    """Apply the stack's admission rule to edge ``eid``; return whether it is admitted.

    Sums the potentials of the edge's vertices left to right over its sorted
    vertex tuple and admits the edge when ``W(e) >= (1 + epsilon) * sum``;
    equality admits.  An admitted edge adds the surplus ``W(e) - sum`` to
    every vertex under GUARANTEE, or the surplus over the edge size under
    LENIENT, so potentials never decrease.
    """
    verts = hg.vertices[eid]
    potentials = dual.potentials
    covered = 0.0
    for v in verts:
        covered += potentials[v]
    w = hg.weights[eid]
    if not w >= (1.0 + dual.epsilon) * covered:
        return False
    surplus = w - covered
    if rule is UpdateRule.LENIENT:
        surplus /= len(verts)
    for v in verts:
        potentials[v] += surplus
    return True


def covers(hg: Hypergraph, dual: DualState) -> bool:
    """Whether ``dual`` is non-negative and covers every edge on full sums.

    No potential may be negative or NaN.  Each edge's potentials are summed
    left to right over its whole sorted vertex tuple, and the edge is
    covered when ``(1 + epsilon) * sum >= W(e) - 1e-9 * W(e)``.
    """
    potentials = dual.potentials
    if not all(p >= 0.0 for p in potentials):
        return False
    scale = 1.0 + dual.epsilon
    for verts, w in zip(hg.vertices, hg.weights):
        covered = 0.0
        for v in verts:
            covered += potentials[v]
        if not scale * covered >= w - 1e-9 * w:
            return False
    return True


def try_swap(
    best: list[Optional[int]], alpha: float, hg: Hypergraph, eid: int
) -> Optional[list[int]]:
    """Swap edge ``eid`` in if it outweighs its conflicts by ``1 + alpha``.

    ``best[v]`` is the matched edge covering vertex ``v``, or None.  The
    conflicts are the distinct matched edges sharing a vertex with the
    edge, taken in ascending id order and their weights summed in that
    order.  The swap fires when ``W(e) >= (1 + alpha) * W(conflicts)``, so
    an edge touching only free vertices always enters: the conflicting
    edges are cleared before the new edge claims its vertices.  Returns the
    evicted ids, ascending, when the swap fires and None when it holds.
    """
    vertices, weights = hg.vertices, hg.weights
    conflicts = sorted({best[v] for v in vertices[eid] if best[v] is not None})
    conflict_weight = 0.0
    for other in conflicts:
        conflict_weight += weights[other]
    if weights[eid] < (1.0 + alpha) * conflict_weight:
        return None
    for other in conflicts:
        for v in vertices[other]:
            best[v] = None
    for v in vertices[eid]:
        best[v] = eid
    return conflicts


def matched_ids(best: list[Optional[int]]) -> list[int]:
    """Distinct ids of the edges ``best`` holds, ascending."""
    return sorted({eid for eid in best if eid is not None})


def token_lines(source: str | bytes) -> Iterator[list[str]]:
    """The tokens of every line of ``source``, blank and comment lines too.

    Decodes the whole text and splits all of it into lines at once.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    return map(str.split, text.splitlines())


def data_lines(source: str | bytes) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line of ``source`` that carries data.

    Decodes the whole text and splits all of it into lines at once.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    return (
        (lineno, tokens)
        for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1)
        if tokens and tokens[0][0] != "%"
    )


def random_edges(n: int, m: int, d_max: int, w_max: int, seed: int):
    """(vertices, weights) of the ``m`` edges that ``gen_random_hypergraph``
    draws, the plain way: per edge a size by ``randint(1, d_max)``, its
    vertices by ``sample(range(n), size)``, sorted, and a weight by
    ``randint(1, w_max)``, stored as a float."""
    rng = random.Random(seed)
    vertices = []
    weights = []
    for _ in range(m):
        size = rng.randint(1, d_max)
        vertices.append(tuple(sorted(rng.sample(range(n), size))))
        weights.append(float(rng.randint(1, w_max)))
    return vertices, weights


def _gen_shapes() -> list[tuple[int, int, int, int, int]]:
    """(n, m, d_max, w_max, seed) shapes that reach both of ``sample``'s
    ways, sizes above 5, ``d_max = n``, ``n = 1``, ``m = 0`` and weights of
    more than one 32-bit word, then a seeded sweep of small shapes."""
    shapes = [
        (1, 5, 1, 1, 0), (1, 0, 1, 1, 0), (5, 0, 2, 10, 3),
        (14, 20, 4, 100, 1), (16, 24, 4, 100, 2), (21, 30, 21, 10, 3),
        (22, 40, 5, 10, 4), (85, 60, 8, 100, 5), (86, 60, 21, 100, 6),
        (277, 40, 30, 100, 7), (278, 40, 30, 100, 8), (300, 20, 100, 7, 9),
        (6, 20, 6, 3, 10), (40, 10, 40, 5, 11), (1000, 30, 1000, 5, 12),
        (50, 30, 4, 2 ** 32, 13), (50, 30, 4, 2 ** 32 + 1, 14),
        (20000, 30, 8, 10 ** 30, 15), (10 ** 6, 50, 5, 100, 16),
        (sys.maxsize, 20, 3, 10, 17), (sys.maxsize, 0, sys.maxsize, 10, 18),
    ]
    meta = random.Random(2024)
    for _ in range(200):
        n = meta.choice((meta.randint(1, 30), meta.randint(1, 300)))
        d_max = meta.randint(1, n)
        w_max = meta.choice((1, 2, 100, 2 ** 32, 2 ** 32 + 1, 10 ** 30, meta.randint(1, 2 ** 70)))
        shapes.append((n, meta.randint(0, 12), d_max, w_max, meta.randrange(1 << 30)))
    return shapes


GEN_SHAPES = _gen_shapes()


if __name__ == "__main__":
    from hypermatch import gen_random_hypergraph

    for shape in GEN_SHAPES:
        hg = gen_random_hypergraph(*shape)
        assert (list(hg.vertices), list(hg.weights)) == random_edges(*shape), shape
    print(f"{len(GEN_SHAPES)} shapes drawn alike on Python {sys.version.split()[0]}")
