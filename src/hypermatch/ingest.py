"""Reading, generating, and reordering hypergraph instances.

The on-disk format is the plain hMetis text layout:

    % comment lines start with a percent sign
    m n [fmt]
    [w] v1 v2 ... vk        (one line per edge, m lines total)

``m`` is the edge count and ``n`` the vertex count.  When ``fmt`` is 1 each
edge line starts with its weight; when ``fmt`` is absent or 0 all weights
are 1.  Vertices are 1-based in the file and shifted to 0-based here.
A line ends wherever ``str.splitlines`` ends one in the decoded text: at
LF, CRLF or a lone CR, and also at VT, FF, FS, GS, RS, NEL (U+0085),
U+2028 and U+2029.

The parser reads the text a chunk at a time and gives all pins of one
vertex one shared ``int``.  Where ids repeat, it reads a pin with one
lookup in a table keyed by the id's plain spelling; any other token falls
back to ``int()``, so both ways read the same.  Weight tokens go through
a small table keyed by their spelling in the same way, so the edges of one
weight share one ``float``.  The edge loop only decodes: an error's line
number comes from a second read, made only on failure.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
import random
import sys
from array import array
from typing import Iterator, Optional

from .core import Hypergraph, InvalidInput, Stream, id_typecode

_CHUNK = 1 << 16  # characters or bytes of text split into lines at a time
_TEXT_PER_SPELLED_ID = 128  # least text per id for the spelling table
_SPELLED_IDS_MAX = 1 << 15  # most ids in the spelling table
_SPELLED_WEIGHTS_MAX = 1 << 12  # most weight spellings shared through a table
_WEIGHTS_PER_COUNT = 1 << 12  # weights added at a time to the set that counts them


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

    Each fmt-1 weight token is looked up by its spelling in a third table;
    a miss reads it with ``float()`` (a token that does not convert reads
    as nan) and stores it while the table holds fewer than
    ``_SPELLED_WEIGHTS_MAX`` spellings.  So the edges of one spelled weight
    share one ``float``, an 8-byte reference each instead of a fresh
    24-byte object, and a kernel that reads ``weights[eid]`` out of order
    finds the few distinct floats in the cache.  Values and errors are
    those of ``float()`` on every token; ``"5"`` and ``"5.0"`` are two
    spellings of one value and get two objects.  The cap bounds the table
    at about 0.45 MB on a text whose weights never repeat; tokens past it
    are read by ``float()`` alone.  This table is dropped before
    ``Hypergraph`` runs too.
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
    # each weight token's spelling to its float, one object per spelling
    spelled_weights: dict[str, float] = {}
    spelled_weight = spelled_weights.get
    room = _SPELLED_WEIGHTS_MAX
    for tokens in token_lines:
        if not tokens or tokens[0][0] == "%":
            continue
        if fmt == 1:
            token = tokens[0]
            weight = spelled_weight(token)
            if weight is None:
                try:
                    weight = float(token)
                except ValueError:
                    weight = math.nan
                if room:
                    spelled_weights[token] = weight
                    room -= 1
            weights.append(weight)
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
    # not held while the constructor copies the edges
    spelled = spelled_weights = spelled_weight = None
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

    The table pays only while its entries stay in the cache, so
    ``_SPELLED_IDS_MAX`` caps the ids it takes (see README, "Measured").
    ``_TEXT_PER_SPELLED_ID`` keeps the table smaller than the text and asks
    for about 20 pins per id to pay for building it.
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
    instance, so the largest edges get weight 1 rather than 0.  The
    vertices were checked when ``hg`` was built, and the new weights are
    positive finite floats, so the result skips the per-edge check.
    """
    if scheme is WeightScheme.FROM_FILE:
        return hg
    if scheme is WeightScheme.UNIT:
        return Hypergraph._of_checked(hg.n, hg.vertices, [1.0] * hg.m)
    if scheme is WeightScheme.SIZE_COMPLEMENT:
        # one float per edge size, shared by every edge of that size
        by_size = [float(hg.d - size + 1) for size in range(hg.d + 1)]
        return Hypergraph._of_checked(
            hg.n, hg.vertices, list(map(by_size.__getitem__, map(len, hg.vertices))))
    raise InvalidInput(f"unknown weight scheme {scheme!r}")


def order_stream(hg: Hypergraph, order: StreamOrder, seed: int = 0) -> Stream:
    """Edge ids in presentation order, as a :class:`Stream` of all ``m`` ids.

    ORIGINAL is ``range(m)``, kept as it is: it stores nothing per edge.
    ASCENDING orders by (weight, id) and DESCENDING by (-weight, id), both
    by :func:`_by_weight`, so equal-weight edges keep input order.  RANDOM
    applies a Fisher-Yates shuffle driven by
    ``random.Random(seed).getrandbits`` (CPython's Mersenne Twister), which
    is stable across platforms and runs for a fixed seed.  The shuffle is
    this module's own loop, so the order does not depend on
    ``random.shuffle``'s internals, which a later Python may change; it
    draws exactly the bits that ``random.Random(seed).shuffle`` draws on
    CPython 3.10-3.13 and gives the same permutation.  It shuffles a list,
    which is faster than shuffling the packed array, and packs it once at
    the end.

    Every order is a permutation of ``range(m)`` by construction, so the
    Stream is made without a check.
    """
    m = hg.m
    if order is StreamOrder.ORIGINAL:
        return Stream._of_permutation(range(m))
    if order is StreamOrder.ASCENDING or order is StreamOrder.DESCENDING:
        return Stream._of_permutation(
            _by_weight(hg.weights, descending=order is StreamOrder.DESCENDING))
    if order is not StreamOrder.RANDOM:
        raise InvalidInput(f"unknown stream order {order!r}")
    ids = list(range(m))
    getrandbits = random.Random(check_seed(seed)).getrandbits
    # j uniform in 0..i by rejection, drawing as many bits as i + 1 has:
    # i walks down in bands whose i + 1 has k bits, 2^(k-1) - 1 <= i < 2^k - 1
    top = m - 1
    for k in range(m.bit_length(), 1, -1):
        low = (1 << (k - 1)) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            ids[i], ids[j] = ids[j], ids[i]
        top = low - 1
    return Stream._of_permutation(ids)


def _by_weight(weights: tuple[float, ...], descending: bool) -> array | list[int]:
    """The ids of ``weights`` in the stable sort by weight, ascending or
    descending: ties stay in id order.

    With at most one distinct value per 16 edges, the ids are grouped by
    value instead: one ``array`` per value, made in sorted value order and
    filled in one pass in id order, then copied in turn into an array of
    exactly ``m`` ids.  Equal values held by different ``float`` objects
    (the parser's ``5`` and ``5.0``) are one dict key and share a group, so
    the result is exactly the stable sort's.  The grouping peaks at about 8
    bytes per edge, where the sort holds about 48 in a list of int objects
    and its keys; with many distinct values the per-value arrays cost more
    than the sort, which stays there (README, "Measured").  The values are
    counted a slice at a time, and the count stops once it passes
    ``m / 16``, so its set stays small and is dropped before the sort starts.
    """
    m = len(weights)
    distinct = set()
    for start in range(0, m, _WEIGHTS_PER_COUNT):
        distinct.update(weights[start:start + _WEIGHTS_PER_COUNT])
        if len(distinct) * 16 > m:
            del distinct
            return sorted(range(m), key=weights.__getitem__, reverse=descending)
    code = id_typecode(m)
    groups = {w: array(code) for w in sorted(distinct, reverse=descending)}
    del distinct
    append = {w: group.append for w, group in groups.items()}
    for eid, w in enumerate(weights):
        append[w](eid)
    ids = array(code, [0]) * m  # sized exactly, where a growing array over-allocates
    end = 0
    for group in groups.values():
        start, end = end, end + len(group)
        ids[start:end] = group
    return ids


def _integer(name: str, value: int) -> int:
    """``value`` read through ``operator.index``: any integer type, never a
    float, text or ``bool``, which as a count or a seed is a caller's error."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInput(f"{name} must be an integer, got {value!r}")


def check_seed(seed: int) -> int:
    """``seed`` read as the generator reads its counts, and refused when
    negative: ``random.Random`` seeds an int by its absolute value, so ``-7``
    would draw exactly what ``7`` draws."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    return seed


def gen_random_hypergraph(n: int, m: int, d_max: int, w_max: int, seed: int) -> Hypergraph:
    """Deterministic random instance: m edges over n vertices.

    Each edge draws, in this order, its size uniform in ``1..d_max``, that
    many distinct vertices of ``range(n)`` (sorted), and an integer weight
    uniform in ``1..w_max`` stored as a float, so ``w_max`` is at most the
    largest float.  A draw below ``k`` takes ``k.bit_length()`` bits from
    ``random.Random(seed).getrandbits`` and draws again until the value is
    below ``k``.  The vertices are drawn one of two ways, by ``n`` and the
    size.  When ``n`` is at most 21, plus ``4 ** ceil(log(3 * size, 4))``
    for a size above 5, each is drawn below the length of a pool list of
    ``range(n)``, whose last entry then fills the picked entry's place.
    Otherwise each is drawn below ``n`` until it is not one picked already.

    The loop is this module's own, so the instance does not depend on
    ``random.randint``'s or ``random.sample``'s internals, which a later
    Python may change; it draws exactly the bits that ``randint`` and
    ``sample(range(n), size)`` draw on CPython 3.10-3.13 and gives the same
    values.  ``n`` is an ``int`` and at most ``sys.maxsize``, the longest
    range ``sample`` draws from; the other counts may be of any integer
    type but ``bool``.  The same arguments always produce the same
    instance.  Its edges are valid by construction, so the instance skips
    the per-edge check of :class:`Hypergraph`; the total-weight check stays.
    """
    # a Hypergraph's vertex count is a plain int, never a bool or numpy int
    if type(n) is not int:
        raise InvalidInput(f"vertex count must be an int, got {n!r}")
    m, d_max, w_max = map(_integer, ("m", "d_max", "w_max"), (m, d_max, w_max))
    if n < 1:
        raise InvalidInput(f"need at least one vertex, got n={n}")
    if n > sys.maxsize:  # past the longest range random.sample draws from
        raise InvalidInput(f"n must be at most {sys.maxsize}, got {n}")
    if not 1 <= d_max <= n:
        raise InvalidInput(f"d_max must be in 1..{n}, got {d_max}")
    if m < 0:
        raise InvalidInput(f"edge count must be non-negative, got {m}")
    if w_max < 1:
        raise InvalidInput(f"w_max must be at least 1, got {w_max}")
    if w_max > sys.float_info.max:  # its draws could not be stored as floats
        raise InvalidInput(f"w_max must be at most the largest float, {sys.float_info.max}")
    getrandbits = random.Random(check_seed(seed)).getrandbits
    d_bits, n_bits, w_bits = (k.bit_length() for k in (d_max, n, w_max))
    # the least size drawn from a pool, found by bisection: the pool limit
    # grows with the size
    pooled = 1 if n <= 21 else 6 + bisect.bisect_left(
        range(6, d_max + 1), True,
        key=lambda size: n <= 21 + 4 ** math.ceil(math.log(size * 3, 4)),
    )
    vertex_ids = None  # range(n) as a list, which each pool copies; built at need
    vertices = []
    weights = []
    for _ in range(m):
        size = getrandbits(d_bits)
        while size >= d_max:
            size = getrandbits(d_bits)
        size += 1
        if size >= pooled:
            if vertex_ids is None:
                vertex_ids = list(range(n))
            pool = vertex_ids[:]
            picks = []
            for left in range(n, n - size, -1):
                bits = left.bit_length()
                j = getrandbits(bits)
                while j >= left:
                    j = getrandbits(bits)
                picks.append(pool[j])
                pool[j] = pool[left - 1]
        else:
            # a draw past n and a vertex picked already are both drawn again
            picks = set()
            while len(picks) < size:
                j = getrandbits(n_bits)
                if j < n:
                    picks.add(j)
        vertices.append(tuple(sorted(picks)))
        weight = getrandbits(w_bits)
        while weight >= w_max:
            weight = getrandbits(w_bits)
        weights.append(float(1 + weight))
    return Hypergraph._of_checked(n, vertices, weights)
