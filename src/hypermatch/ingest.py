"""Reading, generating, and reordering hypergraph instances.

The on-disk format is the plain hMetis text layout:

    % comment lines start with a percent sign
    m n [fmt]
    [w] v1 v2 ... vk        (one line per edge, m lines total)

``m`` is the edge count and ``n`` the vertex count.  When ``fmt`` is 1 each
edge line starts with its weight; when ``fmt`` is absent or 0 all weights
are 1.  Vertices are 1-based in the file and shifted to 0-based here.
Lines may end in LF or CRLF.
"""

from __future__ import annotations

import enum
import math
import random
from typing import IO, Iterable, Union

from .core import Hypergraph, InvalidInput


class ParseError(ValueError):
    """Malformed instance text.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class WeightScheme(enum.Enum):
    """How edge weights are assigned after parsing."""

    FROM_FILE = "file"
    UNIT = "unit"
    SIZE_COMPLEMENT = "size-complement"


class StreamOrder(enum.Enum):
    """The order in which edges are presented to a one-pass algorithm."""

    ORIGINAL = "original"
    ASCENDING = "ascending"
    DESCENDING = "descending"
    RANDOM = "random"


def parse_hmetis(source: Union[str, bytes, IO]) -> Hypergraph:
    """Parse hMetis-style text into a Hypergraph.

    Accepts a string, bytes, or a readable file object.  Comment lines
    ('%') and blank lines are skipped.  Raises ParseError (with the
    offending line number) on non-numeric tokens, vertex ids outside
    ``1..n``, a vertex id repeated on one edge, edge-count mismatches,
    empty edges, or weights that are not positive and finite.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"undecodable byte sequence: {exc}", 1) from None
    else:
        text = source

    # (line number, token list) for every line that carries data
    entries: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        entries.append((lineno, stripped.split()))

    if not entries:
        raise ParseError("missing header line", 1)

    header_line, header = entries[0]
    if len(header) not in (2, 3):
        raise ParseError(
            f"header must be 'm n' or 'm n fmt', got {len(header)} tokens", header_line
        )
    try:
        m = int(header[0])
        n = int(header[1])
        fmt = int(header[2]) if len(header) == 3 else 0
    except ValueError:
        raise ParseError(f"non-numeric header token in {header!r}", header_line) from None
    if m < 0 or n < 0:
        raise ParseError("negative edge or vertex count in header", header_line)
    if fmt not in (0, 1):
        raise ParseError(f"unsupported fmt {fmt} (only 0 and 1 are handled)", header_line)

    edge_lines = entries[1:]
    if len(edge_lines) != m:
        lineno = edge_lines[m][0] if len(edge_lines) > m else entries[-1][0]
        raise ParseError(
            f"header declares {m} edges but {len(edge_lines)} edge lines found", lineno
        )

    edge_data: list[tuple[tuple[int, ...], float]] = []
    for lineno, tokens in edge_lines:
        if fmt == 1:
            try:
                weight = float(tokens[0])
            except ValueError:
                raise ParseError(f"non-numeric weight token {tokens[0]!r}", lineno) from None
            if not weight > 0:
                raise ParseError(f"edge weight must be positive, got {tokens[0]}", lineno)
            if not math.isfinite(weight):
                raise ParseError(f"edge weight must be finite, got {tokens[0]}", lineno)
            vertex_tokens = tokens[1:]
        else:
            weight = 1.0
            vertex_tokens = tokens
        if not vertex_tokens:
            raise ParseError("edge has no vertices", lineno)
        vertices = []
        for tok in vertex_tokens:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"non-numeric vertex token {tok!r}", lineno) from None
            if not 1 <= v <= n:
                raise ParseError(f"vertex id {v} outside 1..{n}", lineno)
            vertices.append(v - 1)
        if len(set(vertices)) != len(vertices):
            repeated = next(v for i, v in enumerate(vertices) if v in vertices[:i])
            raise ParseError(f"vertex id {repeated + 1} repeated on one edge", lineno)
        edge_data.append((tuple(vertices), weight))

    return Hypergraph.build(n, edge_data)


def serialize_hmetis(hg: Hypergraph, include_weights: bool | None = None) -> str:
    """Render a Hypergraph back to hMetis text (1-based vertices).

    Weights are written (fmt 1) when any weight differs from 1.0, or always
    when ``include_weights`` is True.  Integral weights are written without
    a decimal point so unit-weight files round-trip byte-for-byte.
    """
    if include_weights is None:
        include_weights = any(e.weight != 1.0 for e in hg.edges)
    header = f"{hg.m} {hg.n} 1" if include_weights else f"{hg.m} {hg.n}"
    lines = [header]
    for edge in hg.edges:
        parts = []
        if include_weights:
            parts.append(_format_weight(edge.weight))
        parts.extend(str(v + 1) for v in edge.vertices)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _format_weight(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def synthesize_weights(hg: Hypergraph, scheme: WeightScheme) -> Hypergraph:
    """Apply a weight scheme, returning a new Hypergraph.

    FROM_FILE keeps the parsed weights.  UNIT sets every weight to 1.
    SIZE_COMPLEMENT favours small edges: an edge of size k gets weight
    ``max_size - k + 1`` where ``max_size`` is the largest edge size in the
    instance, so the largest edges get weight 1 rather than 0.
    """
    if scheme is WeightScheme.FROM_FILE or hg.m == 0:
        return hg
    if scheme is WeightScheme.UNIT:
        return hg.with_weights([1.0] * hg.m)
    if scheme is WeightScheme.SIZE_COMPLEMENT:
        return hg.with_weights([float(hg.d - e.size + 1) for e in hg.edges])
    raise InvalidInput(f"unknown weight scheme {scheme!r}")


def order_stream(hg: Hypergraph, order: StreamOrder, seed: int = 0) -> list[int]:
    """Edge ids in presentation order.  Always a permutation of 0..m-1.

    ASCENDING sorts by (weight, id), DESCENDING by (-weight, id); the id
    component makes both orders total, so equal-weight edges keep their
    input order.  RANDOM applies a Fisher-Yates shuffle driven by
    ``random.Random(seed)`` (CPython's Mersenne Twister), which is stable
    across platforms and runs for a fixed seed.
    """
    ids = list(range(hg.m))
    if order is StreamOrder.ORIGINAL:
        return ids
    if order is StreamOrder.ASCENDING:
        ids.sort(key=lambda i: (hg.edges[i].weight, i))
        return ids
    if order is StreamOrder.DESCENDING:
        ids.sort(key=lambda i: (-hg.edges[i].weight, i))
        return ids
    if order is StreamOrder.RANDOM:
        random.Random(seed).shuffle(ids)
        return ids
    raise InvalidInput(f"unknown stream order {order!r}")


def gen_random_hypergraph(n: int, m: int, d_max: int, w_max: int, seed: int) -> Hypergraph:
    """Deterministic random instance: m edges over n vertices.

    Each edge has size uniform in [1, d_max] with vertices sampled without
    replacement, and an integer weight uniform in [1, w_max] stored as a
    float.  The same arguments always produce the same instance.
    """
    if n < 1:
        raise InvalidInput(f"need at least one vertex, got n={n}")
    if not 1 <= d_max <= n:
        raise InvalidInput(f"d_max must be in 1..{n}, got {d_max}")
    if m < 0:
        raise InvalidInput(f"edge count must be non-negative, got {m}")
    if w_max < 1:
        raise InvalidInput(f"w_max must be at least 1, got {w_max}")
    rng = random.Random(seed)
    edge_data = []
    for _ in range(m):
        size = rng.randint(1, d_max)
        vertices = tuple(sorted(rng.sample(range(n), size)))
        weight = float(rng.randint(1, w_max))
        edge_data.append((vertices, weight))
    return Hypergraph.build(n, edge_data)
