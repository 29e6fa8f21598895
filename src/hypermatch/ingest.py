"""Reading, generating, and reordering hypergraph instances.

The on-disk format is the plain hMetis text layout:

    % comment lines start with a percent sign
    m n [fmt]
    [w] v1 v2 ... vk        (one line per edge, m lines total)

``m`` is the edge count and ``n`` the vertex count.  When ``fmt`` is 1 each
edge line starts with its weight; when ``fmt`` is absent or 0 all weights
are 1.  Vertices are 1-based in the file and shifted to 0-based here.
Lines may end in LF or CRLF.

The parser reads the text a chunk at a time and gives all pins of one
vertex one shared ``int``.  Where ids repeat, it reads a pin with one
lookup in a table keyed by the id's plain spelling; any other token falls
back to ``int()``, so both ways read the same.  The edge loop only decodes:
an error's line number comes from a second read, made only on failure.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from typing import Iterator, Optional

from .core import Hypergraph, InvalidInput

_CHUNK = 1 << 16  # characters or bytes of text split into lines at a time
_TEXT_PER_SPELLED_ID = 128  # least text per id for the spelling table
_SPELLED_IDS_MAX = 1 << 15  # most ids in the spelling table


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


def parse_hmetis(source: str | bytes) -> Hypergraph:
    """Parse hMetis-style text into a Hypergraph.

    Accepts a string or bytes (decoded as UTF-8).
    Comment lines ('%') and blank lines are skipped.  Raises ParseError
    (with the offending line number) on undecodable bytes, a bad header or
    an edge-count mismatch, which is reported before any bad edge line.
    The edges are validated by Hypergraph alone; when it rejects them, the
    first line at fault (non-numeric token, vertex id outside ``1..n`` or
    repeated, no vertices, weight not positive and finite) is found and
    reported.  An overflowing total weight stays InvalidInput.

    The text is split into lines a chunk at a time, so parsing holds the
    growing instance and one chunk of text besides ``source`` itself.  The
    edge loop only decodes, lines past ``m`` too: the edge count is the
    length of the result, and a failure finds its line by a second read.

    All pins of one vertex share one ``int`` object: ids ``1..top`` map
    through a table of ``top + 1`` canonical ints, where
    ``top = min(n, len(source) // 8)``.  The table is sized from the text,
    not from the header alone, so it costs at most about five times the
    text.  An edge with an id past ``top``, an id below 1 or no vertices
    shifts its ids to 0-based one by one instead, so a negative id never
    indexes the table.

    When ids repeat often enough, a second table maps each plain spelling
    ``str(v)`` of ``v`` in ``1..top`` to its canonical int, so a pin costs
    one dict lookup instead of ``int()`` and an index (see
    :func:`_spelled_ids`).  A line with any other token (``02``, ``+2``,
    ``1_0``, an id past ``top``, ``0``, a negative or non-numeric token)
    misses the table and takes the path above, so both give the same
    values, ints and errors.  The table is dropped before the edges reach
    ``Hypergraph``.
    """
    if isinstance(source, bytes) and not source.isascii():
        try:
            # the whole text is checked before any line is read, and the
            # decoded copy dropped: the lines decode again chunk by chunk
            source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"undecodable byte sequence: {exc}", 1) from None

    token_lines = _token_lines(source)
    # the header is read off the iterator that the edge loop then goes on with
    header_line, header = next(_data_lines(token_lines), (1, None))
    if header is None:
        raise ParseError("missing header line", 1)
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

    # A token that does not convert becomes a value Hypergraph rejects: a
    # weight of nan, or an edge with no vertices.
    vertices: list[tuple[int, ...]] = []
    weights: list[float] = []
    shift = (-1).__add__  # 1-based file ids to 0-based
    # canonical(v) is v - 1 for file ids v in 1..top, one int object per id
    top = min(n, len(source) // 8)
    canonical = list(range(-1, top)).__getitem__
    spelled = _spelled_ids(canonical, top, len(source))
    for tokens in token_lines:
        if not tokens or tokens[0][0] == "%":
            continue
        if fmt == 1:
            try:
                weights.append(float(tokens[0]))
            except ValueError:
                weights.append(math.nan)
            del tokens[0]
        if spelled is not None:
            try:
                vertices.append(tuple(sorted(map(spelled, tokens))))
                continue
            except KeyError:  # a token spelled otherwise: read it below
                pass
        try:
            ids = sorted(map(int, tokens))
        except ValueError:
            vertices.append(())
            continue
        if ids and ids[0] > 0 and ids[-1] <= top:
            vertices.append(tuple(map(canonical, ids)))
        else:  # no vertices, or an id past the table, 0 or negative
            vertices.append(tuple(map(shift, ids)))
    spelled = None  # not held while the constructor copies the edges
    found = len(vertices)
    if found != m:
        # the first edge line past m, or the last one read; data line 0 is the header
        line = itertools.islice(_data_lines(_token_lines(source)), min(found, m + 1), None)
        raise ParseError(f"header declares {m} edges but {found} edge lines found", next(line)[0])
    try:
        return Hypergraph(n, vertices, weights if fmt == 1 else [1.0] * m)
    except InvalidInput:
        for lineno, tokens in itertools.islice(_data_lines(_token_lines(source)), 1, m + 1):
            problem = _edge_problem(tokens, fmt, n)
            if problem is not None:
                raise ParseError(problem, lineno) from None
        raise  # no edge is at fault: the total weight overflows


def _spelled_ids(canonical, top: int, size: int):
    """``{str(v): canonical(v) for v in 1..top}.__getitem__``, or None
    where the table would not pay for itself in a text of ``size`` items.

    Measured against ``int()`` plus an index on random texts of edges with
    1-8 pins, 20-45 pins per id (Python 3.11): the table parses 9-20%
    faster with 5e3 to 3.2e4 ids.  On the 1e6-edge text of
    ``bench/instances.random_instance(100000, 1000000, 8, 100, 1)``, with
    the table forced on, it parses 9-14% faster with 1e5 ids (1.98 against
    2.23 s in-process, 6 of 6 pairs; peak RSS 192 against 188 MB) and no
    faster with 3e5 ids (6.4-7.5 against 6.4-7.0 s, slower in 2 of 3
    pairs; 550 against 542 MB), whose entries (about 100 bytes each) no
    longer stay in the cache.  So the crossover lies between 1e5 and 3e5
    ids.  ``_SPELLED_IDS_MAX`` stays at 2^15 until a benchmark workload on
    each side of the rule can gate moving it.  ``_TEXT_PER_SPELLED_ID``
    keeps the table smaller than the text and asks for about 20 pins per
    id to pay for building it.
    """
    if top > min(size // _TEXT_PER_SPELLED_ID, _SPELLED_IDS_MAX):
        return None
    return {str(v): canonical(v) for v in range(1, top + 1)}.__getitem__


def _token_lines(source: str | bytes) -> Iterator[list[str]]:
    """Tokens of every line of ``source``, blank and comment ones too, lazily.

    The lines are those of ``str.splitlines`` on the whole (decoded) text,
    read a chunk at a time: every chunk but the last ends just after a
    ``'\\n'``, which ends a line, never splits a ``'\\r\\n'`` pair and never
    falls inside a UTF-8 character.
    """
    return itertools.chain.from_iterable(
        map(str.split, (chunk.decode("utf-8") if isinstance(chunk, bytes) else chunk).splitlines())
        for chunk in _chunks(source)
    )


def _data_lines(token_lines: Iterator[list[str]]) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every line of ``token_lines`` that carries data."""
    numbered = enumerate(token_lines, 1)
    return ((i, tokens) for i, tokens in numbered if tokens and tokens[0][0] != "%")


def _chunks(source: str | bytes) -> Iterator[str | bytes]:
    """Consecutive slices of ``source`` of about ``_CHUNK`` items, each cut
    just after a newline; a line longer than that makes its chunk longer."""
    newline = b"\n" if isinstance(source, bytes) else "\n"
    start, size = 0, len(source)
    while start < size:
        end = start + _CHUNK
        if end < size:
            end = source.rfind(newline, start, end) + 1 or source.find(newline, end) + 1 or size
        yield source[start:end]
        start = end


def _edge_problem(tokens: list[str], fmt: int, n: int) -> Optional[str]:
    """The first fault of an edge line's tokens, in line order; None if the
    line is a valid edge."""
    if fmt == 1:
        token = tokens[0]
        try:
            weight = float(token)
        except ValueError:
            return f"non-numeric weight token {token!r}"
        if not weight > 0:
            return f"edge weight must be positive, got {token}"
        if weight == math.inf:
            return f"edge weight must be finite, got {token}"
        tokens = tokens[1:]
    if not tokens:
        return "edge has no vertices"
    seen = set()
    repeated = None
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            return f"non-numeric vertex token {tok!r}"
        if not 1 <= v <= n:
            return f"vertex id {v} outside 1..{n}"
        if v in seen and repeated is None:
            repeated = v
        seen.add(v)
    return None if repeated is None else f"vertex id {repeated} repeated on one edge"


def serialize_hmetis(hg: Hypergraph) -> str:
    """Render a Hypergraph back to hMetis text (1-based vertices).

    Weights are written (fmt 1) when any weight differs from 1.0.  Integral
    weights are written without a decimal point so unit-weight files
    round-trip byte-for-byte.
    """
    weighted = any(w != 1.0 for w in hg.weights)
    header = f"{hg.m} {hg.n} 1" if weighted else f"{hg.m} {hg.n}"
    lines = [header]
    for verts, w in zip(hg.vertices, hg.weights):
        parts = []
        if weighted:
            parts.append(_format_weight(w))
        parts.extend(str(v + 1) for v in verts)
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
    if scheme is WeightScheme.FROM_FILE:
        return hg
    if scheme is WeightScheme.UNIT:
        return Hypergraph(hg.n, hg.vertices, [1.0] * hg.m)
    if scheme is WeightScheme.SIZE_COMPLEMENT:
        weights = [float(hg.d - len(verts) + 1) for verts in hg.vertices]
        return Hypergraph(hg.n, hg.vertices, weights)
    raise InvalidInput(f"unknown weight scheme {scheme!r}")


def order_stream(hg: Hypergraph, order: StreamOrder, seed: int = 0) -> list[int]:
    """Edge ids in presentation order.  Always a permutation of 0..m-1.

    ASCENDING sorts by (weight, id), DESCENDING by (-weight, id): one
    stable sort by weight, reversed for DESCENDING, keeps equal-weight
    edges in input order.  RANDOM applies a Fisher-Yates shuffle driven by
    ``random.Random(seed).getrandbits`` (CPython's Mersenne Twister), which
    is stable across platforms and runs for a fixed seed.  The shuffle is
    this module's own loop, so the order does not depend on
    ``random.shuffle``'s internals, which a later Python may change; it
    draws exactly the bits that ``random.Random(seed).shuffle`` draws on
    CPython 3.10-3.13 and gives the same permutation.
    """
    ids = list(range(hg.m))
    if order is StreamOrder.ORIGINAL:
        return ids
    if order is StreamOrder.ASCENDING or order is StreamOrder.DESCENDING:
        ids.sort(key=hg.weights.__getitem__, reverse=order is StreamOrder.DESCENDING)
        return ids
    if order is StreamOrder.RANDOM:
        getrandbits = random.Random(seed).getrandbits
        for i in range(hg.m - 1, 0, -1):
            # j uniform in 0..i by rejection: draw as many bits as i + 1 has
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            ids[i], ids[j] = ids[j], ids[i]
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
    vertices = []
    weights = []
    for _ in range(m):
        size = rng.randint(1, d_max)
        vertices.append(tuple(sorted(rng.sample(range(n), size))))
        weights.append(float(rng.randint(1, w_max)))
    return Hypergraph(n, vertices, weights)
