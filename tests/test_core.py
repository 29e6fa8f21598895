from __future__ import annotations

import dataclasses
import math
import random

import pytest

from hypermatch.baselines import run_naive
from hypermatch.core import (
    Hypergraph,
    InvalidInput,
    Matching,
    RunMetrics,
    Stream,
    check_stream,
    validate_matching,
)
from hypermatch.ingest import StreamOrder, order_stream
from hypermatch.stack_matcher import UpdateRule, run_stack_stream
from hypermatch.swap_matcher import run_swapset

from conftest import random_instances


def test_hypergraph_derived_fields() -> None:
    hg = Hypergraph.build(4, [((0, 1), 1.0), ((1, 2, 3), 2.0)])
    assert hg.m == 2
    assert hg.d == 3
    assert hg.total_pins == 5
    assert hg.vertices == ((0, 1), (1, 2, 3))
    assert hg.weights == (1.0, 2.0)


def test_hypergraph_build_sorts_and_deduplicates() -> None:
    assert Hypergraph.build(4, [((3, 1, 3, 2), 2.0)]).vertices == ((1, 2, 3),)


def test_hypergraph_empty() -> None:
    hg = Hypergraph(3, (), ())
    assert hg.m == 0
    assert hg.d == 0
    assert hg.total_pins == 0


def test_hypergraph_rejects_vertex_out_of_range() -> None:
    with pytest.raises(InvalidInput):
        Hypergraph.build(2, [((0, 2), 1.0)])


@pytest.mark.parametrize(
    "vertices,weights",
    [
        (((1, 0),), (1.0,)),  # unsorted
        (((0, 0),), (1.0,)),  # repeated
        (((0, 3),), (1.0,)),  # past n - 1
        (((-1, 0),), (1.0,)),  # negative
        (((),), (1.0,)),  # empty
        (((0,), (1,)), (1.0,)),  # length mismatch
        (((0,),), (0.0,)),
        (((0,),), (-2.0,)),
        (((0,),), (math.inf,)),
        (((0,),), (math.nan,)),
        (((0, 1.5),), (1.0,)),  # not an int
        (((True,),), (1.0,)),  # bool
        (((0,),), (None,)),  # a weight float() refuses
        (((0,),), ("abc",)),
        (5, (1.0,)),  # vertices not iterable
    ],
)
def test_hypergraph_rejects_bad_arrays(vertices, weights) -> None:
    with pytest.raises(InvalidInput):
        Hypergraph(3, vertices, weights)


def test_hypergraph_rejects_negative_n() -> None:
    with pytest.raises(InvalidInput):
        Hypergraph(-1, (), ())


@pytest.mark.parametrize("n", [3.0, True])
def test_hypergraph_rejects_non_int_n(n) -> None:
    with pytest.raises(InvalidInput):
        Hypergraph(n, [(0,)], [1.0])


def test_hypergraph_rejects_overflowing_total_weight() -> None:
    with pytest.raises(InvalidInput):
        Hypergraph.build(4, [((0, 1), 1.7e308), ((2, 3), 1.7e308)])
    hg = Hypergraph.build(4, [((0, 1), 1.7e308), ((2, 3), 1.0)])
    with pytest.raises(InvalidInput):
        Hypergraph(hg.n, hg.vertices, [1.7e308, 1.7e308])


def test_matching_from_edge_ids() -> None:
    hg = Hypergraph.build(4, [((0, 1), 3.0), ((2, 3), 3.0), ((1, 2), 5.0)])
    m = Matching.from_edge_ids(hg, [0, 1])
    assert m.edge_ids == frozenset({0, 1})
    assert m.weight == 6.0
    assert m.cardinality == 2


def test_matching_from_edge_ids_rejects_conflicts() -> None:
    hg = Hypergraph.build(3, [((0, 1), 1.0), ((1, 2), 1.0)])
    with pytest.raises(InvalidInput):
        Matching.from_edge_ids(hg, [0, 1])
    with pytest.raises(InvalidInput):
        Matching.from_edge_ids(hg, [2])


def test_validate_matching_accepts_consistent() -> None:
    hg = Hypergraph.build(3, [((0, 1), 1.0), ((1, 2), 3.0)])
    m = Matching.from_edge_ids(hg, [1])
    assert validate_matching(hg, m)


def test_validate_matching_rejects_overlap() -> None:
    hg = Hypergraph.build(3, [((0, 1), 1.0), ((1, 2), 3.0)])
    broken = Matching(frozenset({0, 1}), 4.0)
    assert not validate_matching(hg, broken)


def test_validate_matching_rejects_stale_weight_cache() -> None:
    hg = Hypergraph.build(3, [((0, 1), 1.0), ((1, 2), 3.0)])
    stale = Matching(frozenset({1}), 4.0)
    assert not validate_matching(hg, stale)


def test_validate_matching_unknown_id_raises() -> None:
    hg = Hypergraph.build(3, [((0, 1), 1.0)])
    with pytest.raises(InvalidInput):
        validate_matching(hg, Matching(frozenset({9}), 1.0))


def test_validate_matching_weight_tolerance_is_relative() -> None:
    hg = Hypergraph.build(3, [((0, 1), 1e9), ((1, 2), 3.0)])
    m = Matching.from_edge_ids(hg, [0])
    nudged = Matching(m.edge_ids, m.weight * (1 + 1e-13))
    assert validate_matching(hg, nudged)
    # off by 1.0 absolute, far under 1e-6 relative, yet over the 1e-12 bound
    assert not validate_matching(hg, Matching(m.edge_ids, m.weight * (1 + 1e-9)))


def test_matching_weight_examples() -> None:
    hg = Hypergraph.build(4, [((0, 1), 3.0), ((2, 3), 3.0), ((1, 2), 5.0)])
    assert Matching.from_edge_ids(hg, [0, 1]).weight == 6.0
    assert Matching.from_edge_ids(hg, []).weight == 0.0
    with pytest.raises(InvalidInput):
        Matching.from_edge_ids(hg, [3])


def test_matching_weight_permutation_invariant() -> None:
    rng = random.Random(7)
    hg = Hypergraph.build(
        20, [((i % 20, (i * 3 + 1) % 20), rng.uniform(0.1, 9)) for i in range(15)]
    )
    ids = [0, 2, 4, 6, 9, 12]  # pairwise vertex-disjoint
    base = Matching.from_edge_ids(hg, ids).weight
    for _ in range(20):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        assert Matching.from_edge_ids(hg, shuffled).weight == base


def test_check_stream() -> None:
    hg = Hypergraph.build(3, [((0,), 1.0), ((1,), 1.0), ((2,), 1.0)])
    check_stream(hg, [2, 0, 1])
    with pytest.raises(InvalidInput):
        check_stream(hg, [0, 1])
    with pytest.raises(InvalidInput):
        check_stream(hg, [0, 1, 1])
    with pytest.raises(InvalidInput):
        check_stream(hg, [0, 1, 3])
    for stream in ([2, False, 1], [2, 0, True], [True, False, 2]):
        with pytest.raises(InvalidInput, match="integer edge ids"):
            check_stream(hg, stream)


def test_check_stream_takes_a_stream_as_is() -> None:
    hg = Hypergraph.build(3, [((0,), 1.0), ((1,), 1.0), ((2,), 1.0)])
    stream = Stream([2, 0, 1])
    assert check_stream(hg, stream) is stream
    with pytest.raises(InvalidInput, match="^stream has 2 entries for 3 edges$"):
        check_stream(hg, Stream([1, 0]))


def test_check_stream_packs_any_iterable_into_a_stream() -> None:
    hg = Hypergraph.build(3, [((0,), 1.0), ((1,), 1.0), ((2,), 1.0)])
    for ids in ([2, 0, 1], (2, 0, 1), (eid for eid in [2, 0, 1])):
        stream = check_stream(hg, ids)
        assert type(stream) is Stream
        assert list(stream) == [2, 0, 1]


def test_check_stream_compares_the_length_first() -> None:
    hg = Hypergraph.build(3, [((0,), 1.0), ((1,), 1.0), ((2,), 1.0)])
    with pytest.raises(InvalidInput) as exc_info:
        check_stream(hg, [0, 0])
    assert str(exc_info.value) == "stream has 2 entries for 3 edges"


def test_check_stream_checks_a_stream_subclass_again() -> None:
    class Repeating(Stream):
        __slots__ = ()

        def __iter__(self):
            return iter([0, 0])

    hg = Hypergraph.build(2, [((0,), 1.0), ((1,), 1.0)])
    with pytest.raises(InvalidInput) as exc_info:
        check_stream(hg, Repeating([1, 0]))
    assert str(exc_info.value) == "stream is not a permutation of edge ids: 0"


def test_stream_is_read_only() -> None:
    stream = Stream([1, 0])
    with pytest.raises(TypeError):
        stream[0] = 0
    assert (len(stream), list(stream), stream[0], stream[-1]) == (2, [1, 0], 1, 0)


@pytest.mark.parametrize(
    "ids,message",
    [
        ([0, 0], "stream is not a permutation of edge ids: 0"),
        ([0, 2], "stream is not a permutation of edge ids: 2"),
        ([0, 1.0], "stream entries must be integer edge ids, got 1.0"),
        ([True, 0], "stream entries must be integer edge ids, got True"),
    ],
)
def test_stream_refuses_what_check_stream_refuses(ids: list, message: str) -> None:
    hg = Hypergraph.build(2, [((0,), 1.0), ((1,), 1.0)])
    for make in (Stream, lambda ids: check_stream(hg, ids)):
        with pytest.raises(InvalidInput) as exc_info:
            make(ids)
        assert str(exc_info.value) == message


def test_kernels_read_a_stream_as_its_list() -> None:
    def records(hg: Hypergraph, stream) -> list:
        runs = [run_naive(hg, stream), run_swapset(hg, stream, 0.5)]
        for rule in UpdateRule:
            matching, dual, metrics = run_stack_stream(hg, stream, 0.1, rule)
            runs.append((matching, dual.potentials, metrics))
        return [(*run[:-1], dataclasses.replace(run[-1], runtime_ns=0)) for run in runs]

    for hg in random_instances(40, meta_seed=109):
        for order in StreamOrder:
            stream = order_stream(hg, order, seed=3)
            assert records(hg, stream) == records(hg, list(stream))


def test_run_metrics_defaults() -> None:
    metrics = RunMetrics()
    assert metrics.matching_weight == 0.0
    assert metrics.cardinality == 0
    assert metrics.pushes == 0
    assert metrics.runtime_ns == 0
