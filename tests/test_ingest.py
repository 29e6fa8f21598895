from __future__ import annotations

import io
import random

import pytest

from hypermatch.core import InvalidInput
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


def test_parse_unweighted() -> None:
    hg = parse_hmetis("3 4\n1 2\n2 3\n1 3\n")
    assert hg.m == 3
    assert hg.n == 4
    assert [e.vertices for e in hg.edges] == [(0, 1), (1, 2), (0, 2)]
    assert all(e.weight == 1.0 for e in hg.edges)


def test_parse_weighted_fmt1() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n7 2 3\n")
    assert [(e.vertices, e.weight) for e in hg.edges] == [((0, 1), 5.0), ((1, 2), 7.0)]


def test_parse_comments_blanks_and_crlf() -> None:
    text = "% header comment\r\n2 3 1\r\n\r\n5 1 2\r\n% mid comment\r\n7 2 3\r\n"
    hg = parse_hmetis(text)
    assert hg.m == 2
    assert hg.edges[1].weight == 7.0


def test_parse_bytes_and_file_object() -> None:
    text = "1 2\n1 2\n"
    assert parse_hmetis(text.encode()) == parse_hmetis(text)
    assert parse_hmetis(io.StringIO(text)) == parse_hmetis(text)


def test_parse_fmt0_explicit() -> None:
    assert parse_hmetis("1 2 0\n1 2\n") == parse_hmetis("1 2\n1 2\n")


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
    ],
)
def test_parse_errors_carry_line_numbers(text: str, line: int) -> None:
    with pytest.raises(ParseError) as exc_info:
        parse_hmetis(text)
    assert exc_info.value.line == line
    assert f"line {line}:" in str(exc_info.value)


def test_parse_empty_input() -> None:
    with pytest.raises(ParseError):
        parse_hmetis("")
    with pytest.raises(ParseError):
        parse_hmetis("% only a comment\n")


def test_parse_zero_edges() -> None:
    hg = parse_hmetis("0 5\n")
    assert hg.m == 0
    assert hg.n == 5


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
    assert [e.weight for e in unit.edges] == [1.0, 1.0]


def test_synthesize_from_file_is_identity() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n7 2 3\n")
    assert synthesize_weights(hg, WeightScheme.FROM_FILE) is hg


def test_synthesize_size_complement() -> None:
    hg = parse_hmetis("2 4\n1 2\n1 3 4\n")  # sizes 2 and 3
    sc = synthesize_weights(hg, WeightScheme.SIZE_COMPLEMENT)
    assert [e.weight for e in sc.edges] == [2.0, 1.0]


def test_synthesize_size_complement_largest_edge_gets_one() -> None:
    for hg in random_instances(30, meta_seed=102):
        if hg.m == 0:
            continue
        sc = synthesize_weights(hg, WeightScheme.SIZE_COMPLEMENT)
        assert min(e.weight for e in sc.edges) == 1.0
        for edge in sc.edges:
            assert edge.weight == hg.d - edge.size + 1


def test_synthesize_empty_hypergraph() -> None:
    hg = parse_hmetis("0 3\n")
    assert synthesize_weights(hg, WeightScheme.SIZE_COMPLEMENT).m == 0


def test_order_examples() -> None:
    hg = parse_hmetis("3 4 1\n3 1 2\n1 2 3\n2 3 4\n")  # weights 3, 1, 2
    assert order_stream(hg, StreamOrder.ORIGINAL) == [0, 1, 2]
    assert order_stream(hg, StreamOrder.ASCENDING) == [1, 2, 0]
    assert order_stream(hg, StreamOrder.DESCENDING) == [0, 2, 1]


def test_order_ties_keep_input_order() -> None:
    hg = parse_hmetis("2 3 1\n5 1 2\n5 2 3\n")
    assert order_stream(hg, StreamOrder.ASCENDING) == [0, 1]
    assert order_stream(hg, StreamOrder.DESCENDING) == [0, 1]


def test_order_random_deterministic_per_seed() -> None:
    hg = gen_random_hypergraph(8, 12, 3, 10, seed=0)
    first = order_stream(hg, StreamOrder.RANDOM, seed=42)
    assert order_stream(hg, StreamOrder.RANDOM, seed=42) == first
    assert sorted(first) == list(range(12))


def test_order_always_a_permutation() -> None:
    for hg in random_instances(40, meta_seed=103):
        for order in StreamOrder:
            assert sorted(order_stream(hg, order, seed=5)) == list(range(hg.m))


def test_reversed_ascending_equals_descending_iff_distinct() -> None:
    distinct = parse_hmetis("3 4 1\n3 1 2\n1 2 3\n2 3 4\n")
    assert (
        list(reversed(order_stream(distinct, StreamOrder.ASCENDING)))
        == order_stream(distinct, StreamOrder.DESCENDING)
    )
    tied = parse_hmetis("2 3 1\n5 1 2\n5 2 3\n")
    assert (
        list(reversed(order_stream(tied, StreamOrder.ASCENDING)))
        != order_stream(tied, StreamOrder.DESCENDING)
    )


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
        for edge in hg.edges:
            assert 1 <= edge.size <= d_max
            assert edge.weight == int(edge.weight)
            assert 1 <= edge.weight <= w_max


@pytest.mark.parametrize(
    "n,m,d_max,w_max",
    [(0, 1, 1, 1), (3, 1, 0, 1), (3, 1, 4, 1), (3, -1, 2, 1), (3, 1, 2, 0)],
)
def test_gen_rejects_bad_parameters(n, m, d_max, w_max) -> None:
    with pytest.raises(InvalidInput):
        gen_random_hypergraph(n, m, d_max, w_max, seed=0)
