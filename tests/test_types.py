"""The package's value types are plain classes: what they keep of the
dataclasses they replaced, and that importing the package loads no
``dataclasses``, which brings ``inspect``, ``ast``, ``dis`` and
``tokenize`` with it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypermatch
from hypermatch import Hypergraph, Matching, OracleLimits, RunMetrics
from hypermatch.cli import CSV_COLUMNS, ResultRecord, RunSpec

COUNTERS = ("matching_weight", "cardinality", "peak_stack_edges", "peak_stack_pins",
            "pushes", "pops", "swaps", "vertex_push_max", "runtime_ns")


def test_import_loads_no_dataclasses() -> None:
    src = str(Path(hypermatch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, hypermatch, hypermatch.cli; "
            "print(hypermatch.__file__); print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == [hypermatch.__file__, "False"]


def test_frozen_types_refuse_assignment() -> None:
    hg = Hypergraph(3, [(0, 1), (2,)], [1.0, 2.0])
    for value, name in ((hg, "n"), (hg, "weights"), (hg, "d"),
                        (Matching.from_edge_ids(hg, [0]), "weight"),
                        (OracleLimits(), "max_edges"), (RunSpec("x.hgr"), "seed")):
        before = getattr(value, name)
        for change in (lambda: setattr(value, name, before), lambda: delattr(value, name),
                       lambda: setattr(value, "extra", 1)):
            with pytest.raises(AttributeError):
                change()
        assert getattr(value, name) is before
        assert not hasattr(value, "extra")


def test_equal_values_hash_equal() -> None:
    hg = Hypergraph.build(3, [((1, 0), 1.0), ((2,), 2)])
    same = Hypergraph(3, [[0, 1], [2]], [1, 2.0])
    assert hg == same and hash(hg) == hash(same)
    assert hg != Hypergraph(3, [(0, 1), (2,)], [1.0, 3.0])
    assert hg != Hypergraph(4, [(0, 1), (2,)], [1.0, 2.0])
    assert hg != (3, hg.vertices, hg.weights)
    matching = Matching.from_edge_ids(hg, [1, 0])
    assert matching == Matching(frozenset({0, 1}), 3.0)
    assert hash(matching) == hash(Matching(frozenset({0, 1}), 3.0))
    assert matching != Matching(frozenset({0, 1}), 3.5)
    assert matching != Matching(frozenset({0}), 3.0)
    assert OracleLimits(24) == OracleLimits() and hash(OracleLimits(24)) == hash(OracleLimits())
    spec = RunSpec("x.hgr", algorithm="stack")
    assert spec == RunSpec("x.hgr", algorithm="stack", epsilon=0.0)
    assert hash(spec) == hash(RunSpec("x.hgr", algorithm="stack", epsilon=0.0))
    assert spec != RunSpec("x.hgr", algorithm="stack", epsilon=0.5)


def test_run_metrics_equality_sees_every_counter() -> None:
    assert tuple(vars(RunMetrics())) == COUNTERS
    assert RunMetrics(2.0, 1, runtime_ns=5) == RunMetrics(matching_weight=2.0, cardinality=1,
                                                          runtime_ns=5)
    for name in COUNTERS:
        assert RunMetrics() != RunMetrics(**{name: 1})
    with pytest.raises(TypeError):
        hash(RunMetrics())  # mutable, so it has no hash


def test_csv_columns_are_the_record_fields() -> None:
    # the schema tuple is written out; the record's constructor must keep to it
    assert tuple(vars(ResultRecord("x.hgr", "naive", "from-file", "original", 0, 0))) == CSV_COLUMNS


def test_oracle_cap_default_is_a_class_attribute() -> None:
    # the CLI's --max-edges default reads it off the class
    assert OracleLimits.max_edges == OracleLimits().max_edges == 24
    assert OracleLimits(max_edges=5).max_edges == 5


def test_traced_constructors_stay_classmethods() -> None:
    # bench/tracing.py wraps them from the class dict
    assert isinstance(vars(Hypergraph)["build"], classmethod)
    assert isinstance(vars(Matching)["from_edge_ids"], classmethod)
