from __future__ import annotations

import hashlib
import random
import sys
import tracemalloc
from array import array

import pytest

from hypermatch import core, ingest
from hypermatch.core import Hypergraph, InvalidInput, Stream
from hypermatch.ingest import (
    ParseError,
    StreamOrder,
    WeightScheme,
    gen_random_hypergraph,
    order_stream,
    parse_hmetis,
    serialize_hmetis,
    synthesize_weights,
)

from conftest import random_instances
from reference import GEN_SHAPES, data_lines, random_edges, token_lines


def test_parse_unweighted() -> None:
    hg = parse_hmetis("3 4\n1 2\n2 3\n1 3\n")
    assert hg.m == 3
    assert hg.n == 4
    assert list(hg.vertices) == [(0, 1), (1, 2), (0, 2)]
    assert all(w == 1.0 for w in hg.weights)


def test_parse_weighted_fmt1() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n7 2 3\n")
    assert list(zip(hg.vertices, hg.weights)) == [((0, 1), 5.0), ((1, 2), 7.0)]


def test_parse_comments_blanks_and_crlf() -> None:
    text = "% header comment\r\n2 3 1\r\n\r\n5 1 2\r\n% mid comment\r\n7 2 3\r\n"
    hg = parse_hmetis(text)
    assert hg.m == 2
    assert hg.weights[1] == 7.0


def test_parse_bytes_and_file_object() -> None:
    text = "1 2\n1 2\n"
    assert parse_hmetis(text.encode()) == parse_hmetis(text)


def test_parse_fmt0_explicit() -> None:
    assert parse_hmetis("1 2 0\n1 2\n") == parse_hmetis("1 2\n1 2\n")


# A long first line sizes the vertex id table to cover every vertex of a
# small instance: the table covers ids up to min(n, len(text) // 8).
PAD = "%" * 63 + "\n"


@pytest.mark.parametrize(
    "text,line",
    [
        ("2 3 1\n0 1 2\n7 2 3\n", 2),  # zero weight
        ("2 3 1\n-1 1 2\n7 2 3\n", 2),  # negative weight
        ("1 3\nx 2\n", 2),  # non-numeric vertex
        ("1 3\n0 2\n", 2),  # vertex below 1
        ("1 3\n1 4\n", 2),  # vertex above n
        ("2 3\n1 2\n", 2),  # fewer edge lines than m
        ("1 3\n1 2\n2 3\n", 3),  # more edge lines than m
        ("1 3 1\n5\n", 2),  # weight but no vertices
        ("x 3\n1 2\n", 1),  # non-numeric header
        ("1\n1 2\n", 1),  # one-token header
        ("1 2 3 4\n1 2\n", 1),  # four-token header
        ("1 3 2\n1 2\n", 1),  # unsupported fmt
        ("-1 3\n", 1),  # negative edge count
        ("1 3 1\ninf 1 2\n", 2),  # infinite weight
        ("1 3 1\n1e999 1 2\n", 2),  # weight overflows to infinity
        ("2 3\n1 2\n1 1 2\n", 3),  # vertex id repeated on one edge
        (PAD + "1 3\n-1\n", 3),  # negative vertex that would index the id table from the end
        (PAD + "1 3\n-3 2\n", 3),  # ... and there read as the valid edge (0, 1)
        (PAD + f"1 3\n1 {10**30}\n", 3),  # vertex far past the id table
    ],
)
def test_parse_errors_carry_line_numbers(text: str, line: int) -> None:
    with pytest.raises(ParseError) as exc_info:
        parse_hmetis(text)
    assert exc_info.value.line == line
    assert f"line {line}:" in str(exc_info.value)


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("1 3 1\nx 1 2\n", 2, "non-numeric weight token 'x'"),
        ("1 3 1\nnan 1 2\n", 2, "edge weight must be positive, got nan"),
        ("1 3 1\ninf 1 2\n", 2, "edge weight must be finite, got inf"),
        ("1 3\n1 x\n", 2, "non-numeric vertex token 'x'"),
        ("1 3\n2 2 9\n", 2, "vertex id 9 outside 1..3"),  # the range fault wins
        ("2 3\n1 1\nx\n", 2, "vertex id 1 repeated on one edge"),  # the first bad line
        ("2 3\n3 1 3 1\n1 2\n", 2, "vertex id 3 repeated on one edge"),  # the first repeat
        ("1 3 1\n5\n", 2, "edge has no vertices"),
        ("1 3\n1 9\n1 2\n", 3, "header declares 1 edges but 2 edge lines found"),
        # the count is checked first, so malformed lines past m name the first of them
        ("1 3\n1 2\n%\n\nx y\n0\n-3\n1 1\n", 5, "header declares 1 edges but 5 edge lines found"),
        ("1 3 1\n5 1 2\nx y\n", 3, "header declares 1 edges but 2 edge lines found"),
        ("3 3\n1 2\n2 3\n% c\n\n", 3, "header declares 3 edges but 2 edge lines found"),
        ("% a\n% b\n2 3\n% c\n", 3, "header declares 2 edges but 0 edge lines found"),
    ],
)
def test_parse_error_messages(text: str, line: int, message: str) -> None:
    with pytest.raises(ParseError) as exc_info:
        parse_hmetis(text)
    assert str(exc_info.value) == f"line {line}: {message}"


def test_parse_overflowing_total_weight_is_invalid_input() -> None:
    # every edge is valid, so no line is at fault
    with pytest.raises(InvalidInput) as exc_info:
        parse_hmetis("2 4 1\n1.7e308 1 2\n1.7e308 3 4\n")
    assert type(exc_info.value) is InvalidInput


def test_parse_empty_input() -> None:
    with pytest.raises(ParseError):
        parse_hmetis("")
    with pytest.raises(ParseError):
        parse_hmetis("% only a comment\n")


def test_parse_zero_edges() -> None:
    hg = parse_hmetis("0 5\n")
    assert hg.m == 0
    assert hg.n == 5


# Every line boundary str.splitlines knows, besides "\n".
LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SMALL_CHUNKS = (1, 2, 3, 4, 5, 6, 7, 8)


def _outcome(source: str | bytes):
    """The parsed Hypergraph, or the type, message and line of the error."""
    try:
        return parse_hmetis(source)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _assert_reads_as_whole_text(monkeypatch, source: str | bytes, chunks=SMALL_CHUNKS) -> None:
    """Chunked reading gives the tokens and the numbered data lines, and the
    parse the outcome, of the whole-text reference reader, at every chunk
    size in ``chunks``."""
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_token_lines", token_lines)
        expected = _outcome(source)
    tokens = list(token_lines(source))
    lines = list(data_lines(source))
    for chunk in chunks:
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_CHUNK", chunk)
            assert list(ingest._token_lines(source)) == tokens, (chunk, source)
            assert list(ingest._data_lines(ingest._token_lines(source))) == lines, (chunk, source)
            assert _outcome(source) == expected, (chunk, source)


@pytest.mark.parametrize(
    "text",
    [
        "3 4\r\n1 2\r\n2 3\r\n1 3\r\n",  # a CRLF pair at some cut for every chunk size
        "2 30 1\n5 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n7 29 30\n",  # lines longer than a chunk
        "2 3 1\n5 1 2\n7 2 3",  # no trailing newline
        "2 3 1\r5 1 2\r% only CR\r7 2 3\r",  # no "\n" at all
        "% caf\u00e9 \u20ac \U0001f600\n2 3\n% \u00e9\u00e9\u00e9\n1 2\n2 3\n",  # multi-byte comments
        "% caf\u00e9\n2 3\n1 2\n2 x\n",  # a bad token after a multi-byte line
        "1 3\n1 9\n1 2\n",  # more edge lines than declared
        "2 3\n1 1\nx\n",  # the first bad line is reported
        "2 3\n1 2\n2 3\n% trailing\n\n  \n1 3\n",  # an extra edge after comments and blanks
        "1 3\n1 2\nx y\n",  # extra lines that are malformed themselves
        "1 3\n1 2\n0\n",
        "1 3\n1 2\n-3\n",
        "1 3\n1 2\n1 1\n",
        "1 3 1\n5 1 2\nx y\n0\n-3\n1 1\n",
        "3 3\n1 2\n2 3\n% c\n\n% d\n",  # too few edges, then comments
        "% comment one\n%\n\n% comment two\n2 3\n1 2\n2 3\n1 3\n",  # a late header
    ]
    + [f"% c{sep}2 3 1{sep}{sep}5 1 2{sep}7 2 3{sep}" for sep in LINE_BREAKS]
    + [f"2 3\n1 2{sep}% c\n2 3\n" for sep in LINE_BREAKS],  # a break inside a chunk
)
def test_chunked_reading_matches_whole_text(monkeypatch, text: str) -> None:
    _assert_reads_as_whole_text(monkeypatch, text)
    _assert_reads_as_whole_text(monkeypatch, text.encode())


def test_undecodable_byte_past_a_bad_header_is_reported_first(monkeypatch) -> None:
    source = b"% c\nx 3\n" + b"1 2\n" * 10 + b"% \xff\n"
    with pytest.raises(UnicodeDecodeError) as decode_error:
        source.decode("utf-8")
    for chunk in SMALL_CHUNKS:
        monkeypatch.setattr(ingest, "_CHUNK", chunk)
        assert _outcome(source) == (
            ParseError,
            f"line 1: undecodable byte sequence: {decode_error.value}",
            1,
        )


def _random_text(rng: random.Random) -> str:
    """A small instance text, often malformed, with mixed line breaks."""
    n = rng.randint(1, 6)
    m = rng.randint(0, 5)
    fmt = rng.choice((None, 0, 1, 1))
    header = [str(m), str(n)] + ([] if fmt is None else [str(fmt)])
    if rng.random() < 0.1:
        header[rng.randrange(len(header))] = rng.choice(("x", "-1", "2"))
    lines = [" ".join(header)]
    for _ in range(max(0, m + rng.choice((-1, 0, 0, 0, 0, 1)))):
        tokens = [str(v) for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
        if fmt == 1:
            tokens.insert(0, rng.choice(("1", "2.5", "7", "7", "0", "x", "inf")))
        if rng.random() < 0.1:
            tokens[rng.randrange(len(tokens))] = rng.choice(("x", "0", str(n + 1), tokens[-1]))
        lines.append(rng.choice((" ", "  ", "\t")).join(tokens))
    for _ in range(rng.randint(0, 3)):
        filler = rng.choice(("", "  ", "%", "% caf\u00e9", "% \u20ac\U0001f600 x"))
        lines.insert(rng.randint(0, len(lines)), filler)
    breaks = ("\n",) * 8 + LINE_BREAKS
    text = "".join(line + rng.choice(breaks) for line in lines)
    return text[:-1] if rng.random() < 0.2 else text


def test_chunked_reading_matches_whole_text_on_random_texts(monkeypatch) -> None:
    rng = random.Random(15)
    for _ in range(300):
        text = _random_text(rng)
        for source in (text, text.encode()):
            _assert_reads_as_whole_text(monkeypatch, source, (1, 2, 3, 5, 8, 64))


def test_parse_holds_one_chunk_of_text(monkeypatch) -> None:
    # Reading the whole text at once held it decoded and one str per line:
    # 5.6 (str) and 6.6 (bytes) times the text length above the result here.
    text = serialize_hmetis(gen_random_hypergraph(1000, 3000, 4, 100, seed=15))
    monkeypatch.setattr(ingest, "_CHUNK", 4096)
    for source in (text, text.encode()):
        tracemalloc.start()
        try:
            hg = parse_hmetis(source)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hg.m == 3000
        assert peak - current < 2 * len(source)


def test_pins_of_one_vertex_share_one_int() -> None:
    text = serialize_hmetis(gen_random_hypergraph(1000, 3000, 4, 100, seed=15))
    for source in (text, text.encode()):
        hg = parse_hmetis(source)
        first: dict[int, int] = {}
        for verts in hg.vertices:
            for v in verts:
                assert first.setdefault(v, v) is v
        assert len(first) > 900 and max(first) == 999


def test_equal_weight_spellings_share_one_float() -> None:
    text = serialize_hmetis(gen_random_hypergraph(1000, 3000, 4, 100, seed=15))
    for source in (text, text.encode()):
        hg = parse_hmetis(source)
        # every weight is spelled as a plain integer, so equal values are
        # equal spellings
        first: dict[float, float] = {}
        for w in hg.weights:
            assert first.setdefault(w, w) is w
        assert len(first) == 100


def test_parsed_instance_costs_little_per_pin() -> None:
    # A fresh int per pin would cost about 63 traced bytes per pin here; one
    # int per vertex id costs about 42.
    text = serialize_hmetis(gen_random_hypergraph(1000, 3000, 4, 100, seed=15))
    for source in (text, text.encode()):
        tracemalloc.start()
        try:
            hg = parse_hmetis(source)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current / hg.total_pins < 52


@pytest.mark.parametrize(
    "text,outcome",
    [
        ("3 1000000000 1\n5 1 2\n", "line 2: header declares 3 edges but 1 edge lines found"),
        ("1 1000000000 1\n5 1 2\n", 10**9),
    ],
)
def test_vertex_count_in_header_sizes_nothing(text: str, outcome) -> None:
    # The id table is sized from the text, so a huge n alone allocates nothing.
    tracemalloc.start()
    try:
        try:
            result = parse_hmetis(text).n
        except ParseError as exc:
            result = str(exc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == outcome
    assert peak < 1 << 20


def test_signed_and_zero_padded_vertex_tokens() -> None:
    for pad in ("", PAD):
        hg = parse_hmetis(pad + "2 3\n+2\n02 3\n")
        assert hg.vertices == ((1,), (1, 2))


def test_serialize_unit_weights_omits_fmt() -> None:
    hg = parse_hmetis("2 3\n1 2\n2 3\n")
    assert serialize_hmetis(hg) == "2 3\n1 2\n2 3\n"


def test_serialize_weighted_uses_fmt1() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n7 2 3\n")
    assert serialize_hmetis(hg) == "2 3 1\n5 1 2\n7 2 3\n"


def test_roundtrip_random_instances() -> None:
    for hg in random_instances(60, meta_seed=101):
        assert parse_hmetis(serialize_hmetis(hg)) == hg


def test_synthesize_unit() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n7 2 3\n")
    unit = synthesize_weights(hg, WeightScheme.UNIT)
    assert list(unit.weights) == [1.0, 1.0]
    assert (unit.n, unit.vertices) == (hg.n, hg.vertices)


def test_synthesize_from_file_is_identity() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n7 2 3\n")
    assert synthesize_weights(hg, WeightScheme.FROM_FILE) is hg


def test_synthesize_size_complement() -> None:
    hg = parse_hmetis("2 4\n1 2\n1 3 4\n")  # sizes 2 and 3
    sc = synthesize_weights(hg, WeightScheme.SIZE_COMPLEMENT)
    assert list(sc.weights) == [2.0, 1.0]


def test_synthesize_size_complement_shares_one_float_per_size() -> None:
    hg = gen_random_hypergraph(1000, 3000, 4, 100, seed=15)
    sc = synthesize_weights(hg, WeightScheme.SIZE_COMPLEMENT)
    assert sc.weights == tuple(float(hg.d - len(verts) + 1) for verts in hg.vertices)
    assert len(set(map(id, sc.weights))) == len(set(map(len, hg.vertices))) == 4


def test_synthesize_size_complement_largest_edge_gets_one() -> None:
    for hg in random_instances(30, meta_seed=102):
        if hg.m == 0:
            continue
        sc = synthesize_weights(hg, WeightScheme.SIZE_COMPLEMENT)
        assert min(sc.weights) == 1.0
        for verts, w in zip(sc.vertices, sc.weights):
            assert w == hg.d - len(verts) + 1


def test_synthesize_empty_hypergraph() -> None:
    hg = parse_hmetis("0 3\n")
    assert synthesize_weights(hg, WeightScheme.SIZE_COMPLEMENT).m == 0


def test_unknown_scheme_and_order_are_refused() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n7 2 3\n")
    with pytest.raises(InvalidInput, match="unknown weight scheme"):
        synthesize_weights(hg, "unit")
    with pytest.raises(InvalidInput, match="unknown stream order"):
        order_stream(hg, "random")


def test_order_examples() -> None:
    hg = parse_hmetis("3 4 1\n3 1 2\n1 2 3\n2 3 4\n")  # weights 3, 1, 2
    assert list(order_stream(hg, StreamOrder.ORIGINAL)) == [0, 1, 2]
    assert list(order_stream(hg, StreamOrder.ASCENDING)) == [1, 2, 0]
    assert list(order_stream(hg, StreamOrder.DESCENDING)) == [0, 2, 1]


def test_order_ties_keep_input_order() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n5 2 3\n")
    assert list(order_stream(hg, StreamOrder.ASCENDING)) == [0, 1]
    assert list(order_stream(hg, StreamOrder.DESCENDING)) == [0, 1]


def test_order_random_deterministic_per_seed() -> None:
    hg = gen_random_hypergraph(8, 12, 3, 10, seed=0)
    first = order_stream(hg, StreamOrder.RANDOM, seed=42)
    assert list(order_stream(hg, StreamOrder.RANDOM, seed=42)) == list(first)
    assert sorted(first) == list(range(12))


@pytest.mark.parametrize("seed", [0, 1, 42, 2**40])
def test_order_random_is_random_shuffle(seed: int) -> None:
    # the shuffle draws k bits for each i whose i + 1 has k bits, in bands
    # that end at powers of two: every band edge up to 2^12 + 2 edges
    edges = [2**k + d for k in range(1, 13) for d in (-1, 0, 1, 2)]
    for m in sorted({*range(20), 255, 256, 257, 999, 1000, *edges}):
        hg = Hypergraph(1, [(0,)] * m, [1.0] * m)
        expected = list(range(m))
        random.Random(seed).shuffle(expected)
        assert list(order_stream(hg, StreamOrder.RANDOM, seed)) == expected, m


def test_order_always_a_permutation() -> None:
    for hg in random_instances(40, meta_seed=103):
        for order in StreamOrder:
            stream = order_stream(hg, order, seed=5)
            assert type(stream) is Stream
            assert sorted(stream) == list(range(hg.m))


def test_reversed_ascending_equals_descending_iff_distinct() -> None:
    distinct = parse_hmetis("3 4 1\n3 1 2\n1 2 3\n2 3 4\n")
    assert (
        list(reversed(order_stream(distinct, StreamOrder.ASCENDING)))
        == list(order_stream(distinct, StreamOrder.DESCENDING))
    )
    tied = parse_hmetis("2 3 1\n5 1 2\n5 2 3\n")
    assert (
        list(reversed(order_stream(tied, StreamOrder.ASCENDING)))
        != list(order_stream(tied, StreamOrder.DESCENDING))
    )


def _weighted(weights: list[float]) -> Hypergraph:
    return Hypergraph(1, [(0,)] * len(weights), weights)


def _weights(values: int, m: int, seed: int) -> list[float]:
    """``m`` weights drawn from ``values`` distinct integers, one float object
    per value as the parser shares them."""
    rng = random.Random(seed)
    pool = [float(v) for v in range(1, values + 1)]
    return [pool[rng.randrange(values)] for _ in range(m)]


@pytest.mark.parametrize(
    "weights,grouped",
    [
        ([2.0] * 15, False),  # one value, fewer than 16 edges
        ([2.0] * 16, True),
        ([2.0] * 2500, True),
        (_weights(100, 2000, 1), True),
        (_weights(100, 1599, 2), False),  # 100 values need 1600 edges to group
        (_weights(10, 160, 3), True),
        (_weights(10, 159, 4), False),
        (list(map(float, random.Random(5).sample(range(1, 10**6), 2000))), False),  # all distinct
        ([1.0 + (i % 3) / 4 for i in range(3000)], True),  # a fresh float per edge
        ([], True),
    ],
)
def test_weight_orders_are_the_stable_sort(weights: list[float], grouped: bool) -> None:
    hg = _weighted(weights)
    for order, descending in ((StreamOrder.ASCENDING, False), (StreamOrder.DESCENDING, True)):
        expected = sorted(range(hg.m), key=hg.weights.__getitem__, reverse=descending)
        assert list(order_stream(hg, order)) == expected
        # the rule: grouped into an array when len(set(weights)) * 16 <= m
        assert isinstance(ingest._by_weight(hg.weights, descending), array) is grouped
        assert (len(set(weights)) * 16 <= len(weights)) is grouped


def test_equal_values_in_different_floats_form_one_group() -> None:
    # "5" and "5.0" are two spellings, so the parser gives them two objects
    spellings = ("5", "5.0", "7", "2.5")
    text = "".join(f"{spellings[i % 4]} 1\n" for i in range(64))
    hg = parse_hmetis(f"64 1 1\n{text}")
    assert hg.weights[0] == hg.weights[1] and hg.weights[0] is not hg.weights[1]
    fives = [i for i in range(64) if i % 4 < 2]
    sevens = list(range(2, 64, 4))
    halves = list(range(3, 64, 4))
    assert isinstance(ingest._by_weight(hg.weights, False), array)
    assert list(order_stream(hg, StreamOrder.ASCENDING)) == halves + fives + sevens
    assert list(order_stream(hg, StreamOrder.DESCENDING)) == sevens + fives + halves


def test_streams_cost_at_most_4_bytes_per_edge() -> None:
    m = 20_000
    hg = _weighted(_weights(100, m, 6))
    for order in StreamOrder:
        order_stream(hg, order, seed=3)  # warm any lazily built state
        tracemalloc.start()
        try:
            stream = order_stream(hg, order, seed=3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a kept Stream is one array of 4-byte ids, or a range
        assert kept <= 4 * m + 512, order
        if order is StreamOrder.ORIGINAL:
            assert peak < 512  # nothing per edge, and no list
            assert type(stream._ids) is range
        elif order is StreamOrder.DESCENDING or order is StreamOrder.ASCENDING:
            # the groups and the result; the sort held about 48 bytes per edge
            assert peak / m < 12, order
        assert list(stream) == list(order_stream(hg, order, seed=3))


def test_stream_ids_are_4_bytes_while_they_fit() -> None:
    assert core.id_typecode(0) == core.id_typecode(2**31) == "i"
    assert core.id_typecode(2**31 + 1) == "q"
    assert array("i").itemsize == 4
    assert Stream([2, 0, 1])._ids.typecode == "i"
    assert order_stream(_weighted([1.0] * 3), StreamOrder.RANDOM)._ids.typecode == "i"


def test_gen_is_deterministic() -> None:
    a = gen_random_hypergraph(9, 11, 4, 100, seed=3)
    b = gen_random_hypergraph(9, 11, 4, 100, seed=3)
    assert a == b
    c = gen_random_hypergraph(9, 11, 4, 100, seed=4)
    assert a != c


def test_gen_respects_bounds() -> None:
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 12)
        d_max = rng.randint(1, n)
        w_max = rng.randint(1, 50)
        hg = gen_random_hypergraph(n, 10, d_max, w_max, seed=rng.randrange(1 << 20))
        assert hg.n == n
        assert hg.m == 10
        for verts, w in zip(hg.vertices, hg.weights):
            assert 1 <= len(verts) <= d_max
            assert w == int(w)
            assert 1 <= w <= w_max


def test_gen_draws_what_randint_and_sample_draw() -> None:
    for shape in GEN_SHAPES:
        hg = gen_random_hypergraph(*shape)
        assert (list(hg.vertices), list(hg.weights)) == random_edges(*shape), shape


def test_gen_calls_no_randint_or_sample(monkeypatch) -> None:
    shapes = [(14, 20, 4, 100, 1), (86, 60, 21, 100, 6), (20000, 50, 8, 2 ** 40, 1)]
    expected = [random_edges(*shape) for shape in shapes]

    def refuse(*args, **kwargs):
        raise AssertionError("drew through random.Random's own sampling")

    for name in ("sample", "randint", "randrange"):
        monkeypatch.setattr(random.Random, name, refuse)
    for shape, edges in zip(shapes, expected):
        hg = gen_random_hypergraph(*shape)
        assert (list(hg.vertices), list(hg.weights)) == edges


def test_gen_takes_any_integer_type() -> None:
    np = pytest.importorskip("numpy")
    hg = gen_random_hypergraph(30, 40, np.int64(5), np.int64(2 ** 40), np.int64(1))
    assert (list(hg.vertices), list(hg.weights)) == random_edges(30, 40, 5, 2 ** 40, 1)
    assert list(order_stream(hg, StreamOrder.RANDOM, np.int64(1))) == list(
        order_stream(hg, StreamOrder.RANDOM, 1))
    with pytest.raises(InvalidInput):  # a Hypergraph's vertex count is a plain int
        gen_random_hypergraph(np.int64(30), 40, 5, 100, 1)


@pytest.mark.parametrize("scheme", list(WeightScheme))
def test_trusted_instances_equal_checked_ones(scheme) -> None:
    # generated and re-weighted instances skip the per-edge check; the
    # checked constructor must accept the same arrays and derive the same sizes
    for shape in GEN_SHAPES:
        hg = synthesize_weights(gen_random_hypergraph(*shape), scheme)
        checked = Hypergraph(hg.n, hg.vertices, hg.weights)
        assert (hg, hg.d, hg.total_pins) == (checked, checked.d, checked.total_pins), shape


def test_trusted_instances_keep_the_overflow_check() -> None:
    # two weights near the largest float: each is finite, their sum is not
    with pytest.raises(InvalidInput, match="total edge weight overflows"):
        gen_random_hypergraph(10, 2, 2, int(1.7e308), 1)
    with pytest.raises(InvalidInput, match="total edge weight overflows"):
        Hypergraph._of_checked(1, [(0,), (0,)], [1.7e308, 1.7e308])


@pytest.mark.parametrize("count,value", [
    ("w_max", 1.7e308), ("m", 2.5), ("n", 10.0), ("d_max", 2.0), ("m", "7"), ("m", None),
    ("n", True), ("n", "10"), ("m", True), ("d_max", True), ("w_max", True), ("seed", True),
])
def test_gen_refuses_a_count_that_is_not_an_integer(count, value) -> None:
    counts = {"n": 10, "m": 3, "d_max": 2, "w_max": 10, "seed": 1} | {count: value}
    with pytest.raises(InvalidInput, match="must be an int"):
        gen_random_hypergraph(**counts)


def test_gen_instance_at_scale_is_pinned() -> None:
    # vertices drawn below n, never from a pool, and weights of two 32-bit words
    text = serialize_hmetis(gen_random_hypergraph(20000, 20000, 8, 2 ** 40, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "292cc5cc4147ec3f89e3fb90f9dbd515528508086902df354dd7f70e2fc3cafb")


@pytest.mark.parametrize(
    "n,m,d_max,w_max",
    [(0, 1, 1, 1), (3, 1, 0, 1), (3, 1, 4, 1), (3, -1, 2, 1), (3, 1, 2, 0),
     pytest.param(3, 1, 2, 10 ** 400, id="3-1-2-w_max_past_the_largest_float"),
     # random.sample cannot draw from a longer range; refused with no edge to draw too
     pytest.param(sys.maxsize + 1, 5, 2, 10, id="n_past_sys_maxsize"),
     pytest.param(sys.maxsize + 1, 0, 2, 10, id="n_past_sys_maxsize_no_edges")],
)
def test_gen_rejects_bad_parameters(n, m, d_max, w_max) -> None:
    with pytest.raises(InvalidInput):
        gen_random_hypergraph(n, m, d_max, w_max, seed=0)


def test_a_negative_seed_is_refused() -> None:
    # random.Random seeds an int by its absolute value: -7 would draw what 7 draws
    with pytest.raises(InvalidInput, match="seed must be non-negative, got -7"):
        gen_random_hypergraph(50, 200, 3, 10, seed=-7)
    hg = gen_random_hypergraph(50, 200, 3, 10, seed=7)
    with pytest.raises(InvalidInput, match="seed must be non-negative, got -7"):
        order_stream(hg, StreamOrder.RANDOM, -7)
    # read as the counts are read, through __index__: random.Random would
    # seed 2.5 by its hash; a bool is refused, not drawn as seed 1
    for seed in (2.5, "1", None, True):
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            gen_random_hypergraph(50, 200, 3, 10, seed=seed)
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            order_stream(hg, StreamOrder.RANDOM, seed)


# A leading comment long enough for the spelling table to cover the ids of
# every small text below: the table needs 128 characters of text per id.
LONG_PAD = "%" * 2047 + "\n"


@pytest.fixture
def spelling_built(monkeypatch) -> list[bool]:
    """Whether each parse of the test built the spelling table, in order."""
    built = []
    spelled_ids = ingest._spelled_ids

    def spy(*args):
        table = spelled_ids(*args)
        built.append(table is not None)
        return table

    monkeypatch.setattr(ingest, "_spelled_ids", spy)
    return built


def _read(source: str | bytes, skipped: int = 0):
    """The parse's vertices and weights, or its error with the line number
    lowered by ``skipped``; each vertex id must be one object throughout."""
    try:
        hg = parse_hmetis(source)
    except ParseError as exc:
        message = str(exc).split(": ", 1)[1]
        return ParseError, f"line {exc.line - skipped}: {message}", exc.line - skipped
    except ValueError as exc:
        return type(exc), str(exc), None
    first: dict[int, int] = {}
    for verts in hg.vertices:
        for v in verts:
            assert first.setdefault(v, v) is v
    return hg.n, hg.vertices, hg.weights


def _assert_both_paths_read_alike(built: list[bool], text: str) -> None:
    """``text`` reads the same after ``LONG_PAD``, which turns the spelling
    table on, as on its own; as str and as bytes."""
    for source in (text, text.encode()):
        pad = LONG_PAD.encode() if isinstance(source, bytes) else LONG_PAD
        built.clear()
        assert _read(pad + source, skipped=1) == _read(source), text
        # the padded parse, parsed first, built the table once its header parsed
        assert built[:1] in ([], [True]), text


# The cases of test_parse_errors_carry_line_numbers, read from its marker.
LINE_NUMBER_CASES = test_parse_errors_carry_line_numbers.pytestmark[0].args[1]


@pytest.mark.parametrize("text,line", LINE_NUMBER_CASES)
def test_spelled_ids_keep_line_numbers(spelling_built, text: str, line: int) -> None:
    _assert_both_paths_read_alike(spelling_built, text)


def test_spelled_ids_read_random_texts_alike(spelling_built) -> None:
    rng = random.Random(18)
    for _ in range(300):
        _assert_both_paths_read_alike(spelling_built, _random_text(rng))


@pytest.mark.parametrize(
    "text",
    [
        "4 12\n1 +2\n02 3\n1_0 2 4\n2 10 12\n",  # other spellings of valid ids
        "3 12 1\n5 +2 2\n7 1 2\n7 2 3\n",  # 2 and +2 repeat one id
        "2 12\n1 13\n1 2\n",  # an id past n
        "2 12\n0 1\n1 2\n",
        "2 12\n-3 1\n1 2\n",
        "2 12\n1 2\n1 2_\n",
        "2 12\n1 2\n1 ٢\n",  # int() reads the Arabic-Indic digit two
        "2 12\n1 2\n2 3 x\n",
        "3 12\n1 2\n2 3\n",  # fewer edge lines than declared
    ],
)
def test_spelled_ids_mixed_tokens(spelling_built, text: str) -> None:
    _assert_both_paths_read_alike(spelling_built, text)


@pytest.mark.parametrize("n,built", [(1 << 15, True), ((1 << 15) + 1, False)])
def test_spelling_table_stops_at_its_id_cap(spelling_built, n: int, built: bool) -> None:
    # enough text for either n: only the cap on the table's size decides;
    # "+{n}" misses the table, yet must read as the same int object as "{n}"
    pad = "%" * (128 * n) + "\n"
    text = f"{pad}3 {n}\n{n} 1\n2 +{n} 1\n{n - 1}\n"
    hg = parse_hmetis(text)
    assert spelling_built == [built]
    assert hg.vertices == ((0, n - 1), (0, 1, n - 1), (n - 2,))
    assert hg.vertices[0][1] is hg.vertices[1][2]


WEIGHT_SPELLINGS = ["5", "5.0", "05", "+5", "5e0", "1_0", "٥", "nan", "x", "1e999"]


@pytest.mark.parametrize("token", WEIGHT_SPELLINGS)
def test_weight_spellings_read_as_float_reads_them(monkeypatch, spelling_built, token) -> None:
    # the token's second line reads it from the weight table, its first through float()
    text = f"4 3 1\n5 1 2\n{token} 2 3\n{token} 1 3\n5 1\n"
    _assert_both_paths_read_alike(spelling_built, text)
    sources = (text, text.encode(), LONG_PAD + text, (LONG_PAD + text).encode())
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_SPELLED_WEIGHTS_MAX", 0)  # every weight through float()
        unshared = [_read(source) for source in sources]
    assert [_read(source) for source in sources] == unshared
    try:
        weight = float(token)
    except ValueError:
        weight = None
    if weight is not None and 0 < weight < float("inf"):
        hg = parse_hmetis(text)
        assert hg.weights == (5.0, weight, weight, 5.0)
        assert hg.weights[1] is hg.weights[2] and hg.weights[0] is hg.weights[3]
    else:
        assert unshared[0][0] is ParseError and unshared[0][2] == 3


@pytest.mark.parametrize("spellings,shared", [(1 << 12, True), ((1 << 12) + 1, False)])
def test_weight_table_stops_at_its_cap(spellings: int, shared: bool) -> None:
    # weights 1..spellings, then the last and the first again: the first is
    # in the table either way, the last only while the table had room
    values = [*range(1, spellings + 1), spellings, 1]
    text = f"{len(values)} 1 1\n" + "".join(f"{w} 1\n" for w in values)
    hg = parse_hmetis(text)
    assert hg.weights == tuple(map(float, values))
    assert hg.weights[-1] is hg.weights[0]
    assert (hg.weights[-2] is hg.weights[spellings - 1]) is shared
