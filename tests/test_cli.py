from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from hypermatch import cli
from hypermatch.cli import CSV_COLUMNS, main
from hypermatch.core import InvalidInput
from hypermatch.ingest import (
    StreamOrder,
    WeightScheme,
    gen_random_hypergraph,
    parse_hmetis,
    serialize_hmetis,
)
from hypermatch.swap_matcher import optimal_alpha

TWO_EDGE_FILE = "2 3 1\n1 1 2\n3 2 3\n"

# Decimal weights, unsorted vertex lists, a comment and a CRLF line end.
DECIMAL_FILE = (
    "% decimal weights\n"
    "9 7 1\n"
    "0.2 3\n"
    "0.2 2\n"
    "0.7 1\r\n"
    "0.4 3 2\n"
    "2.5 7 1 4\n"
    "0.1 5 6\n"
    "1.3 6 4 2\n"
    "0.30000000000000004 7\n"
    "2.6 1 3 5 7\n"
)

# sha256 of every row of the grid in test_grid_records_match_golden_digest,
# runtime_ns removed.  Any change to a matching, a counter, a certificate or
# a label changes it.
GOLDEN_GRID_SHA256 = "e891b788e3fefca15d0ac85b7795051aa95004d35d3af676ce2782258e16f331"


@functools.cache
def generated_text(n: int) -> str:
    """The generator's 20000-edge instance on ``n`` vertices (seed 1) as
    hMetis text of several 64 KiB chunks."""
    return serialize_hmetis(gen_random_hypergraph(n, 20000, 4, 100, 1))


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors surface as SystemExit
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text: str) -> list[dict[str, str]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    assert all(tuple(row.keys()) == CSV_COLUMNS for row in rows)
    return rows


def test_run_stack_with_certificate(tmp_path, capsys) -> None:
    path = tmp_path / "two.hgr"
    path.write_text(TWO_EDGE_FILE)
    code, out, _ = run_cli(
        ["run", "--input", str(path), "--algorithm", "stack", "--epsilon", "0",
         "--certify", "--emit-matching"],
        capsys,
    )
    assert code == 0
    (row,) = csv_rows(out)
    assert row["instance"] == str(path)
    assert row["algorithm"] == "stack"
    assert row["matching_weight"] == "3.0"
    assert row["cardinality"] == "1"
    assert row["dual_upper_bound"] == "6.0"
    assert row["dual_feasible"] == "true"
    assert row["oracle_weight"] == "3.0"
    assert row["matching_edges"] == "1"
    assert row["error"] == ""
    # pushes 2, logical memory = 4 stacked pins + 3 potentials
    assert row["pushes"] == "2"
    assert row["logical_memory"] == "7"


def test_run_json_format_types(capsys) -> None:
    code, out, _ = run_cli(
        ["run", "--gen", "6,8,3,10", "--algorithm", "stack-lenient",
         "--epsilon", "0.5", "--certify", "--format", "json"],
        capsys,
    )
    assert code == 0
    records = json.loads(out)
    assert isinstance(records, list) and len(records) == 1
    record = records[0]
    assert record["instance"] == "gen:6,8,3,10"
    assert record["epsilon"] == 0.5
    assert record["alpha"] is None
    assert isinstance(record["matching_weight"], float)
    assert isinstance(record["dual_feasible"], bool)
    assert isinstance(record["oracle_weight"], float)
    assert record["error"] is None


def test_run_swapset_auto_resolves_optimal_alpha(capsys) -> None:
    code, out, _ = run_cli(
        ["run", "--gen", "6,8,3,10", "--algorithm", "swapset", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["alpha"] == "auto"
    d = record["d"]
    assert record["resolved_alpha"] == optimal_alpha(d)
    assert record["logical_memory"] == record["n"]


def test_run_greedy_logical_memory_is_total_pins(capsys) -> None:
    code, out, _ = run_cli(
        ["run", "--gen", "6,9,3,10", "--algorithm", "greedy", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["logical_memory"] == record["total_pins"]


def test_run_weight_schemes_apply(capsys) -> None:
    code, out, _ = run_cli(
        ["run", "--gen", "8,10,4,100", "--algorithm", "greedy",
         "--weights", "unit", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["matching_weight"] == record["cardinality"]


def test_emit_matching_weight_recomputes(capsys) -> None:
    code, out, _ = run_cli(
        ["run", "--gen", "9,12,3,100", "--algorithm", "swapset", "--alpha", "1",
         "--order", "random", "--seed", "7", "--emit-matching", "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)[0]
    hg = gen_random_hypergraph(9, 12, 3, 100, seed=7)
    ids = [int(tok) for tok in record["matching_edges"].split()] if record["matching_edges"] else []
    assert sum(hg.weights[i] for i in ids) == record["matching_weight"]


def test_run_records_are_deterministic_except_runtime(capsys) -> None:
    argv = ["run", "--gen", "8,12,4,100", "--algorithm", "stack", "--epsilon", "1",
            "--order", "random", "--seed", "3", "--certify", "--emit-matching"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    (a,), (b,) = csv_rows(first), csv_rows(second)
    a.pop("runtime_ns")
    b.pop("runtime_ns")
    assert a == b


def test_grid_naive_times_three_orders(capsys) -> None:
    code, out, _ = run_cli(
        ["grid", "--gen", "6,8,3,10", "--algorithm", "naive",
         "--order", "original", "--order", "ascending", "--order", "descending"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 3
    assert [row["order"] for row in rows] == ["original", "ascending", "descending"]


def test_grid_expands_epsilon_only_for_stack_family(capsys) -> None:
    code, out, _ = run_cli(
        ["grid", "--gen", "6,8,3,10", "--algorithm", "stack", "--algorithm", "greedy",
         "--epsilon", "0", "--epsilon", "1",
         "--order", "original", "--order", "random"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(out)
    stack_rows = [r for r in rows if r["algorithm"] == "stack"]
    greedy_rows = [r for r in rows if r["algorithm"] == "greedy"]
    assert len(stack_rows) == 4  # 2 epsilons x 2 orders
    assert len(greedy_rows) == 2  # epsilon axis does not apply
    assert {r["epsilon"] for r in stack_rows} == {"0.0", "1.0"}
    assert all(r["epsilon"] == "" for r in greedy_rows)


def test_grid_repeats_are_identical_except_runtime(capsys) -> None:
    code, out, _ = run_cli(
        ["grid", "--gen", "7,10,3,100", "--algorithm", "swapset", "--alpha", "auto",
         "--order", "random", "--repeats", "3", "--certify", "--emit-matching"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 3
    assert [row["repeat"] for row in rows] == ["0", "1", "2"]
    stripped = []
    for row in rows:
        row = dict(row)
        row.pop("runtime_ns")
        row.pop("repeat")
        stripped.append(row)
    assert stripped[0] == stripped[1] == stripped[2]


def test_grid_records_cell_errors_and_continues(tmp_path, capsys) -> None:
    missing = tmp_path / "missing.hgr"
    code, out, _ = run_cli(
        ["grid", "--input", str(missing), "--gen", "5,6,2,10",
         "--algorithm", "naive"],
        capsys,
    )
    assert code == 2
    rows = csv_rows(out)
    assert len(rows) == 2
    assert rows[0]["error"] != ""
    assert rows[0]["matching_weight"] == ""
    assert rows[1]["error"] == ""
    assert rows[1]["matching_weight"] != ""


def test_grid_json_records_cell_errors_and_continues(tmp_path, capsys) -> None:
    missing = tmp_path / "missing.hgr"
    code, out, _ = run_cli(
        ["grid", "--input", str(missing), "--gen", "5,6,2,10",
         "--algorithm", "naive", "--format", "json"],
        capsys,
    )
    assert code == 2
    failed, solved = json.loads(out)
    assert failed["error"].startswith("FileNotFoundError")
    assert failed["matching_weight"] is None
    assert solved["error"] is None
    assert solved["matching_weight"] > 0


def test_grid_error_rows_record_the_resolved_knobs(tmp_path) -> None:
    # the knobs of a successful run: defaults filled in for the algorithm's own
    resolved = [(0.0, None), (0.0, None), (None, "auto"), (None, None), (None, None)]
    missing = str(tmp_path / "missing.hgr")
    failed = list(cli.grid(cli.RunSpec(missing, algorithm=a) for a in cli.ALGORITHMS))
    assert all(r.error.startswith("FileNotFoundError") for r in failed)
    assert [(r.epsilon, r.alpha) for r in failed] == resolved
    solved = [cli.run(cli.RunSpec((5, 6, 2, 10), algorithm=a)) for a in cli.ALGORITHMS]
    assert [(r.epsilon, r.alpha) for r in solved] == resolved


def test_run_equals_a_one_cell_grid(capsys) -> None:
    for algorithm, knob in cli.KNOBS.items():
        for knob_args in [[]] + ([[f"--{knob}", "0.5"]] if knob else []):
            argv = ["--gen", "9,12,3,100", "--algorithm", algorithm, *knob_args,
                    "--order", "random", "--seed", "3", "--certify", "--emit-matching"]
            rows = []
            for command in ("run", "grid"):
                code, out, _ = run_cli([command, *argv], capsys)
                assert code == 0
                (row,) = csv_rows(out)
                row.pop("runtime_ns")
                rows.append(row)
            assert rows[0] == rows[1]


@pytest.mark.parametrize(
    "n,head,line_end,certified",
    [
        pytest.param(500, "", "\n", [42850.0, 471, 45596.0, True], id="lf"),
        pytest.param(2000, "% generated, CRLF line ends\r\n", "\r\n",
                     [116003.0, 1490, 151426.0, True], id="crlf"),
    ],
)
def test_a_generated_file_runs_as_its_generator(tmp_path, capsys, n, head, line_end,
                                                certified) -> None:
    text = head + generated_text(n).replace("\n", line_end)
    assert len(text) > 65536
    # equal weights share one float, whatever the line ends
    assert len(set(map(id, parse_hmetis(text).weights))) <= 100
    path = tmp_path / "generated.hgr"
    path.write_text(text, newline="")
    keys = ("matching_weight", "cardinality", "dual_upper_bound", "dual_feasible")
    for source in (["--input", str(path)], ["--gen", f"{n},20000,4,100", "--seed", "1"]):
        code, out, _ = run_cli(
            ["run", *source, "--algorithm", "stack", "--certify", "--format", "json"], capsys)
        assert code == 0
        (record,) = json.loads(out)
        assert [record[key] for key in keys] == certified


def test_swapset_keeps_far_more_than_naive_at_1e5_edges(capsys) -> None:
    # The paper's claim at scale: ascending is naive's adverse order, where
    # it keeps 40% of what swapset keeps; one grid draws the instance once.
    code, out, _ = run_cli(
        ["grid", "--gen", "20000,100000,8,100", "--seed", "1",
         "--algorithm", "naive", "--algorithm", "swapset",
         "--order", "original", "--order", "ascending", "--order", "random",
         "--format", "json"], capsys)
    assert code == 0
    assert {(r["algorithm"], r["order"]): (r["matching_weight"], r["cardinality"], r["swaps"])
            for r in json.loads(out)} == {
        ("naive", "original"): (385594.0, 7682, 0),
        ("naive", "ascending"): (219486.0, 7694, 0),
        ("naive", "random"): (390159.0, 7769, 0),
        ("swapset", "original"): (504886.0, 7884, 2220),
        ("swapset", "ascending"): (545043.0, 9057, 8853),
        ("swapset", "random"): (506842.0, 7973, 2116),
    }


def test_grid_records_match_golden_digest(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    Path("decimal.hgr").write_text(DECIMAL_FILE, newline="")
    axes = ["--gen", "12,18,4,100", "--gen", "30,40,3,10", "--input", "decimal.hgr",
            "--epsilon", "0", "--epsilon", "0.5",
            "--alpha", "auto", "--alpha", "0.25", "--alpha", "0",
            "--seed", "1", "--seed", "2", "--certify", "--emit-matching"]
    axes += [arg for a in cli.ALGORITHMS for arg in ("--algorithm", a)]
    axes += [arg for o in StreamOrder for arg in ("--order", o.value)]
    digest = hashlib.sha256()
    rows = 0
    for scheme in WeightScheme:
        out = tmp_path / f"{scheme.value}.csv"
        assert main(["grid", *axes, "--weights", scheme.value, "--output", str(out)]) == 0
        for row in csv_rows(out.read_text()):
            assert row["error"] == ""
            row.pop("runtime_ns")
            digest.update(("\t".join(row.values()) + "\n").encode())
            rows += 1
    assert rows == 3 * 3 * (2 * 2 * 4 * 2 + 3 * 4 * 2 + 2 * 4 * 2)
    assert digest.hexdigest() == GOLDEN_GRID_SHA256


def test_grid_propagates_programming_errors(monkeypatch) -> None:
    def broken(hg, stream):
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(cli, "run_naive", broken)
    specs = cli.expand_grid(
        sources=[(5, 6, 2, 10)], algorithms=["naive"], epsilons=[0.0],
        alphas=["auto"], orders=[StreamOrder.ORIGINAL], seeds=[0], repeats=1,
        weights=WeightScheme.FROM_FILE, certify=False, emit_matching=False,
    )
    with pytest.raises(RuntimeError, match="kernel bug"):
        list(cli.grid(specs))


def test_expand_grid_builds_the_specs_that_run_spec_builds() -> None:
    sources = ["x.hgr", (5, 6, 2, 10)]
    algorithms = ["stack", "swapset", "naive"]
    epsilons, alphas = [None, 0.5], ["auto", 2]
    orders = [StreamOrder.ORIGINAL, StreamOrder.RANDOM]
    seeds, repeats = [0, 7, 3], 2
    axes = dict(sources=sources, algorithms=algorithms, epsilons=epsilons, alphas=alphas,
                orders=orders, seeds=seeds, repeats=repeats, weights=WeightScheme.UNIT,
                certify=True, emit_matching=False)
    settings = {"stack": [{"epsilon": e} for e in epsilons],
                "swapset": [{"alpha": a} for a in alphas], "naive": [{}]}
    expected = []
    for source in sources:
        for algorithm in algorithms:
            for setting in settings[algorithm]:
                for order in orders:
                    for seed in seeds:
                        for repeat in range(repeats):
                            expected.append(cli.RunSpec(
                                source, WeightScheme.UNIT, algorithm, order=order,
                                seed=seed, certify=True, repeat=repeat, **setting))
    got = list(cli.expand_grid(**axes))
    assert len(got) == 2 * (2 + 2 + 1) * 2 * 3 * 2
    assert got == expected
    assert [vars(spec) for spec in got] == [vars(spec) for spec in expected]

    # a value that RunSpec refuses is refused with RunSpec's message
    for axis, bad, field in (("seeds", [0, 1.0], {"seed": 1.0}),
                             ("orders", [StreamOrder.ORIGINAL, "random"], {"order": "random"}),
                             ("sources", ["x.hgr", (5, 6, 2)], {"source": (5, 6, 2)}),
                             ("epsilons", [0.5, "1"], {"algorithm": "stack", "epsilon": "1"}),
                             ("seeds", [0, -1], {"seed": -1})):
        with pytest.raises(InvalidInput) as direct:
            cli.RunSpec(**{"source": "x.hgr", **field})
        with pytest.raises(InvalidInput) as expanded:
            list(cli.expand_grid(**{**axes, axis: bad}))
        assert str(expanded.value) == str(direct.value)


def test_grid_loads_and_solves_each_instance_once(tmp_path, monkeypatch) -> None:
    path = tmp_path / "small.hgr"
    path.write_text(serialize_hmetis(gen_random_hypergraph(9, 12, 3, 100, seed=5)))
    specs = list(cli.expand_grid(
        sources=[str(path), (8, 10, 3, 50)],
        algorithms=list(cli.ALGORITHMS), epsilons=[0.5], alphas=["auto"],
        orders=[StreamOrder.ORIGINAL, StreamOrder.RANDOM], seeds=[1, 2], repeats=1,
        weights=WeightScheme.FROM_FILE, certify=True, emit_matching=True,
    ))
    expected = [cli.run(spec).as_dict() for spec in specs]

    calls = {"load": [], "oracle": 0, "order": []}
    load, solve, order = cli.load_instance, cli.exact_max_weight_matching, cli.order_stream

    def counting_load(spec):
        source = spec.source
        calls["load"].append(source if isinstance(source, str) else (source, spec.seed))
        return load(spec)

    def counting_solve(hg, limits=None):
        calls["oracle"] += 1
        return solve(hg, limits)

    def counting_order(hg, stream_order, seed=0):
        calls["order"].append((stream_order, seed))
        return order(hg, stream_order, seed)

    monkeypatch.setattr(cli, "load_instance", counting_load)
    monkeypatch.setattr(cli, "exact_max_weight_matching", counting_solve)
    monkeypatch.setattr(cli, "order_stream", counting_order)
    got = [record.as_dict() for record in cli.grid(specs)]

    for record in expected + got:
        assert record["error"] is None
        assert record["oracle_weight"] is not None
        record.pop("runtime_ns")
    assert got == expected
    assert calls["load"] == [str(path), ((8, 10, 3, 50), 1), ((8, 10, 3, 50), 2)]
    assert calls["oracle"] == 3
    # one stream per distinct (order, seed) and loaded instance; the original
    # order ignores the seed, so the file's two seeds share it
    original, shuffled = StreamOrder.ORIGINAL, StreamOrder.RANDOM
    assert calls["order"] == [
        (original, 1), (shuffled, 1), (shuffled, 2),  # the file, for both seeds
        (original, 1), (original, 2), (shuffled, 1), (shuffled, 2),  # one instance per seed
    ]

    # the cache lives for one run of equal sources: a source that comes back
    # after another is loaded again
    specs = list(cli.expand_grid(
        sources=[str(path), (8, 10, 3, 50), str(path)],
        algorithms=["naive", "stack"], epsilons=[0.5], alphas=["auto"],
        orders=[StreamOrder.RANDOM], seeds=[1, 2], repeats=1,
        weights=WeightScheme.FROM_FILE, certify=True, emit_matching=True,
    ))
    monkeypatch.undo()
    expected = [cli.run(spec).as_dict() for spec in specs]
    calls["load"].clear()
    monkeypatch.setattr(cli, "load_instance", counting_load)
    got = [record.as_dict() for record in cli.grid(specs)]
    for record in expected + got:
        assert record["error"] is None
        record.pop("runtime_ns")
    assert got == expected
    assert calls["load"] == [str(path), ((8, 10, 3, 50), 1), ((8, 10, 3, 50), 2), str(path)]


def test_oracle_subcommand(tmp_path, capsys) -> None:
    path = tmp_path / "two.hgr"
    path.write_text(TWO_EDGE_FILE)
    code, out, _ = run_cli(["oracle", "--input", str(path)], capsys)
    assert code == 0
    (row,) = csv_rows(out)
    assert row["algorithm"] == "oracle"
    assert row["oracle_weight"] == "3.0"
    assert row["matching_edges"] == "1"


def test_run_spec_is_complete_and_valid_when_built() -> None:
    assert cli.RunSpec("x.hgr", algorithm="stack").epsilon == 0.0
    assert cli.RunSpec("x.hgr", algorithm="swapset").alpha == "auto"
    naive = cli.RunSpec("x.hgr", algorithm="naive")
    assert (naive.epsilon, naive.alpha) == (None, None)
    for bad in ({"algorithm": "bogus"}, {"algorithm": "naive", "epsilon": 0.5},
                {"algorithm": "swapset", "alpha": "fast"},
                # fields of the wrong type
                {"order": "random"}, {"weights": "unit"},
                {"algorithm": "stack", "epsilon": "0.5"},
                {"algorithm": "stack", "epsilon": False},
                {"algorithm": "swapset", "alpha": True},
                {"algorithm": "swapset", "alpha": [0.5]}):
        with pytest.raises(InvalidInput):
            cli.RunSpec("x.hgr", **bad)


def test_run_spec_refuses_wrong_typed_counts_and_switches() -> None:
    source = (5, 6, 2, 10)
    for bad in ({"certify": "no"}, {"certify": 1}, {"emit_matching": "yes"},
                {"emit_matching": None}, {"seed": True}, {"seed": 1.0}, {"seed": "1"},
                {"repeat": "x"}, {"repeat": False}, {"repeat": 2.0}):
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            cli.RunSpec(source, algorithm="naive", **bad)
    for counts in ((5, True, 2, 10), (5, 6, 2.0, 10), (False, 6, 2, 10)):
        with pytest.raises(InvalidInput, match="source must be a file path or"):
            cli.RunSpec(counts, algorithm="naive")
    spec = cli.RunSpec(source, algorithm="naive", seed=3, repeat=1, certify=True,
                       emit_matching=False)
    assert (spec.seed, spec.repeat, spec.instance_label()) == (3, 1, "gen:5,6,2,10")


def test_oracle_record_validates_its_spec() -> None:
    for source in (None, (3, 2, 2), (3.0, 2, 2, 10)):
        with pytest.raises(InvalidInput, match="source must be a file path or"):
            cli.oracle_record(cli.RunSpec(source=source))


def test_oracle_refuses_large_instances_with_exit_3(capsys) -> None:
    code, out, err = run_cli(["oracle", "--gen", "40,30,2,10"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "too_large"


def test_oracle_max_edges_sets_the_cap(capsys) -> None:
    code, _, err = run_cli(["oracle", "--gen", "10,12,3,10", "--max-edges", "11"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "too_large"
    code, out, _ = run_cli(["oracle", "--gen", "10,12,3,10", "--max-edges", "12"], capsys)
    assert code == 0
    assert csv_rows(out)[0]["m"] == "12"


def test_oracle_rejects_a_negative_edge_cap(capsys) -> None:
    code, out, err = run_cli(["oracle", "--gen", "10,12,3,10", "--max-edges", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalid_input"


def test_parse_error_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.hgr"
    for text, message in (
        ("2 3 1\n0 1 2\n7 2 3\n", "line 2: edge weight must be positive, got 0"),
        # past one chunk, with a comment and a blank line among the lines counted
        (generated_text(2000) + "% trailing comment\n\n1 2\n",
         "line 20004: header declares 20000 edges but 20001 edge lines found"),
    ):
        bad.write_text(text)
        code, out, err = run_cli(["run", "--input", str(bad), "--algorithm", "naive"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "parse_error", "message": message}


def test_undecodable_file_is_a_parse_error(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.hgr"
    bad.write_bytes(b"1 2\n\xff\xfe 2\n")
    code, _, err = run_cli(["run", "--input", str(bad), "--algorithm", "naive"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"
    code, out, _ = run_cli(["grid", "--input", str(bad), "--algorithm", "naive"], capsys)
    assert code == 2
    assert csv_rows(out)[0]["error"].startswith("ParseError")


def test_overflowing_weights_exit_2(tmp_path, capsys) -> None:
    path = tmp_path / "huge.hgr"
    path.write_text("2 4 1\n1.7e308 1 2\n1.7e308 3 4\n")
    code, _, err = run_cli(["run", "--input", str(path), "--algorithm", "stack"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "invalid_input"
    code, out, _ = run_cli(["grid", "--input", str(path), "--algorithm", "naive"], capsys)
    assert code == 2
    assert csv_rows(out)[0]["error"].startswith("InvalidInput")


def test_overflowing_w_max_exits_2(capsys) -> None:
    gen = "5,5,2,1" + "0" * 400
    code, out, err = run_cli(["run", "--gen", gen, "--algorithm", "naive"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid_input"
    code, out, _ = run_cli(
        ["grid", "--gen", gen, "--gen", "5,5,2,10", "--algorithm", "naive"], capsys)
    assert code == 2
    failed, solved = csv_rows(out)
    assert failed["error"].startswith("InvalidInput: w_max")
    assert solved["error"] == "" and float(solved["matching_weight"]) > 0


def test_oversized_n_exits_2(capsys) -> None:
    gen = "100000000000000000000,5,2,10"  # past sys.maxsize
    code, out, err = run_cli(["run", "--gen", gen, "--algorithm", "naive"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid_input"
    code, out, _ = run_cli(
        ["grid", "--gen", gen, "--gen", "5,5,2,10", "--algorithm", "naive"], capsys)
    assert code == 2
    failed, solved = csv_rows(out)
    assert failed["error"].startswith("InvalidInput: n must be at most")
    assert solved["error"] == "" and float(solved["matching_weight"]) > 0


def test_a_closed_stdout_exits_with_its_own_code() -> None:
    # The long grid's rows far outgrow a pipe's buffer, so it is still
    # writing when its reader closes the pipe after one byte.  The one-row
    # grid's reader closes before the interpreter has even started, so only
    # its final flush meets the closed pipe.
    many = ["--gen", "400,400,2,10", "--algorithm", "naive", "--repeats", "300",
            "--emit-matching"]
    one = ["--gen", "5,5,2,10", "--algorithm", "naive"]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for flags, fmt, read in ((many, "csv", 1), (many, "json", 1), (one, "json", 0)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hypermatch.cli", "grid", *flags, "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.BROKEN_PIPE_EXIT == 141
        assert err == b""  # no invalid_input error, no traceback at shutdown


class _Writer(io.StringIO):
    """A text buffer that counts its flushes and says whether it seeks."""

    def __init__(self, seekable: bool) -> None:
        super().__init__()
        self._seekable = seekable
        self.flushes = 0

    def seekable(self) -> bool:
        return self._seekable

    def flush(self) -> None:
        self.flushes += 1
        super().flush()


def test_emit_flushes_each_row_into_a_stream_only() -> None:
    specs = cli.expand_grid(sources=[(9, 12, 3, 100)], algorithms=list(cli.ALGORITHMS),
                            epsilons=[None], alphas=[None], orders=list(StreamOrder),
                            seeds=[0, 1], repeats=1, weights=WeightScheme.FROM_FILE,
                            certify=True, emit_matching=True)
    records = list(cli.grid(specs))
    stream, file = _Writer(seekable=False), _Writer(seekable=True)
    assert cli.emit(records, "csv", stream) == cli.emit(records, "csv", file) == 0
    assert stream.flushes == len(records) == 5 * 4 * 2
    assert file.flushes == 0
    assert file.getvalue() == stream.getvalue()
    assert len(csv_rows(file.getvalue())) == len(records)


def test_main_calls_share_no_flag_lists(tmp_path) -> None:
    assert cli.build_parser() is cli.build_parser()
    seeded, default = tmp_path / "seeded.csv", tmp_path / "default.csv"
    grid = ["grid", "--gen", "9,12,3,100", "--algorithm", "naive", "--order", "random"]
    assert main([*grid, "--seed", "3", "--seed", "4", "--output", str(seeded)]) == 0
    assert main([*grid, "--output", str(default)]) == 0
    assert [row["seed"] for row in csv_rows(seeded.read_text())] == ["3", "4"]
    assert [row["seed"] for row in csv_rows(default.read_text())] == ["0"]


def _strict_json(text: str):
    def refuse(constant: str):
        raise ValueError(f"not RFC 8259 JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_json_writes_non_finite_floats_as_text(tmp_path, capsys) -> None:
    code, out, _ = run_cli(
        ["grid", "--gen", "5,5,2,10", "--algorithm", "stack", "--epsilon", "nan",
         "--epsilon", "inf", "--format", "json"], capsys)
    assert code == 2
    assert [row["epsilon"] for row in _strict_json(out)] == ["nan", "inf"]
    path = tmp_path / "huge.hgr"
    path.write_text("1 2 1\n1e308 1 2\n")
    code, out, _ = run_cli(["run", "--input", str(path), "--algorithm", "stack",
                            "--certify", "--format", "json"], capsys)
    assert code == 0
    row, = _strict_json(out)
    assert (row["dual_upper_bound"], row["matching_weight"]) == ("inf", 1e308)
    code, out, _ = run_cli(["run", "--input", str(path), "--algorithm", "stack",
                            "--certify"], capsys)
    assert csv_rows(out)[0]["dual_upper_bound"] == "inf"


def test_csv_rows_render_every_value_kind(tmp_path, monkeypatch) -> None:
    # None is an empty field, dual_feasible reads true/false, a float is its
    # str() (so inf and subnormals too), and an error with a comma is quoted.
    monkeypatch.chdir(tmp_path)
    Path("huge.hgr").write_text("1 2 1\n1e308 1 2\n")
    # a subnormal weight split over three pins rounds to zero potentials
    Path("tiny.hgr").write_text("1 3 1\n5e-324 1 2 3\n")
    specs = [cli.RunSpec("huge.hgr", algorithm="stack", epsilon=float("nan"), certify=True),
             cli.RunSpec("tiny.hgr", algorithm="stack-lenient", certify=True),
             cli.RunSpec("huge.hgr", algorithm="stack", certify=True)]
    out = io.StringIO()
    assert cli.emit(cli.grid(specs), "csv", out) == 1
    runtime = CSV_COLUMNS.index("runtime_ns")

    def masked(line: str) -> str:
        # no field before runtime_ns holds a comma in these rows
        fields = line.split(",")
        if fields[runtime]:
            fields[runtime] = "NS"
        return ",".join(fields)

    header, *rows = out.getvalue().splitlines()
    assert (header, out.getvalue()[-1]) == (",".join(CSV_COLUMNS), "\n")
    assert list(map(masked, rows)) == [
        "huge.hgr,stack,file,original,0,0,nan,,,,,,,,,,,,,,,,,,,,,"
        '"InvalidInput: epsilon must be non-negative and finite, got nan"',
        "tiny.hgr,stack-lenient,file,original,0,0,0.0,,,3,1,3,3,5e-324,1,1,1,0,1,1,3,6,NS,"
        "0.0,false,5e-324,,",
        "huge.hgr,stack,file,original,0,0,0.0,,,2,1,2,2,1e+308,1,1,1,0,1,1,2,4,NS,"
        "inf,true,1e+308,,",
    ]


def test_missing_file_exits_2(capsys) -> None:
    code, _, err = run_cli(["run", "--input", "/no/such/file.hgr",
                            "--algorithm", "naive"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "invalid_input"


def test_mismatched_knobs_exit_2(capsys) -> None:
    code, _, err = run_cli(
        ["run", "--gen", "5,5,2,10", "--algorithm", "swapset", "--epsilon", "1"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "invalid_input"
    code, _, err = run_cli(
        ["run", "--gen", "5,5,2,10", "--algorithm", "stack", "--alpha", "1"],
        capsys,
    )
    assert code == 2


def test_non_finite_knobs_exit_2(capsys) -> None:
    for algorithm, knob in (("stack", "--epsilon"), ("swapset", "--alpha")):
        for value in ("nan", "inf", "-inf"):
            code, out, err = run_cli(
                ["run", "--gen", "10,20,3,10", "--algorithm", algorithm,
                 f"{knob}={value}", "--certify"],
                capsys,
            )
            assert code == 2
            assert out == ""
            assert json.loads(err)["error"] == "invalid_input"


def test_bad_gen_spec_exits_2(capsys) -> None:
    code, _, _ = run_cli(["run", "--gen", "5,5", "--algorithm", "naive"], capsys)
    assert code == 2
    code, out, err = run_cli(["run", "--gen", "5,x,2,10", "--algorithm", "naive"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid_input",
                               "message": "--gen wants four integers, got '5,x,2,10'"}


def test_a_negative_seed_exits_2(tmp_path, capsys) -> None:
    # random.Random seeds an int by its absolute value, so -7 would rerun 7;
    # the spec refuses it before any file is read or output opened
    kept = tmp_path / "kept.csv"
    kept.write_text("keep\n")
    for argv, seed in (
        (["run", "--gen", "50,200,3,10", "--algorithm", "stack", "--order", "random"], -7),
        (["grid", "--gen", "50,200,3,10", "--seed", "1", "--algorithm", "naive",
          "--output", str(kept)], -1),
        (["run", "--input", "/no/such/file.hgr", "--algorithm", "naive"], -1),
        (["oracle", "--gen", "10,12,3,10"], -2),
    ):
        code, out, err = run_cli([*argv, "--seed", str(seed)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid_input",
                                   "message": f"seed must be non-negative, got {seed}"}
    assert kept.read_text() == "keep\n"


def test_bad_flags_are_reported_as_json(capsys) -> None:
    for argv, flag in (
        (["run", "--gen", "5,5,2,10", "--algorithm", "naive", "--order", "bogus"], "--order"),
        (["grid", "--gen", "5,5,2,10"], "--algorithm"),
        (["oracle", "--gen", "5,5,2,10", "--max-edges", "x"], "--max-edges"),
        (["run", "--gen", "5,5,2,10", "--algorithm", "swapset", "--alpha", "foo"],
         "--alpha must be a number or 'auto', got 'foo'"),
        ([], "command"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "usage"
        assert flag in message["message"]
    for command in ("run", "grid", "oracle"):
        code, out, err = run_cli([command, "--help"], capsys)
        assert code == 0
        assert out.startswith(f"usage: hypermatch {command}")
        assert err == ""


def test_run_and_oracle_refuse_repeated_flags(tmp_path, capsys) -> None:
    path = tmp_path / "two.hgr"
    path.write_text(TWO_EDGE_FILE)
    run = ["run", "--gen", "5,6,2,10", "--algorithm", "stack"]
    oracle = ["oracle", "--gen", "5,6,2,10"]
    for argv, flag in (
        (run + ["--algorithm", "naive"], "--algorithm"),
        (run + ["--seed", "1", "--seed", "2"], "--seed"),
        # two flags repeat: the first in the parser's order is named
        (run + ["--algorithm", "naive", "--seed", "1", "--seed", "2"], "--seed"),
        (run + ["--gen", "5,6,2,10"], "--gen"),
        (run + ["--epsilon", "0", "--epsilon", "1"], "--epsilon"),
        (run + ["--order", "random", "--order", "random"], "--order"),
        (["run", "--gen", "5,6,2,10", "--algorithm", "swapset",
          "--alpha", "auto", "--alpha", "1"], "--alpha"),
        (["run", "--input", str(path), "--input", str(path), "--algorithm", "naive"],
         "--input"),
        (oracle + ["--seed", "1", "--seed", "1"], "--seed"),
        (oracle + ["--gen", "5,6,2,10"], "--gen"),
        (["oracle", "--input", str(path), "--input", str(path)], "--input"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        message = json.loads(err)
        assert message["error"] == "usage"
        assert f"{flag}: given more than once" in message["message"]
    code, out, _ = run_cli(["grid", "--gen", "5,6,2,10", "--algorithm", "stack",
                            "--algorithm", "naive", "--seed", "1", "--seed", "2"], capsys)
    assert code == 0
    assert len(csv_rows(out)) == 4


def test_both_or_neither_source_exits_2(tmp_path, capsys) -> None:
    code, _, _ = run_cli(["run", "--algorithm", "naive"], capsys)
    assert code == 2
    path = tmp_path / "two.hgr"
    path.write_text(TWO_EDGE_FILE)
    code, _, _ = run_cli(
        ["run", "--input", str(path), "--gen", "5,5,2,10", "--algorithm", "naive"],
        capsys,
    )
    assert code == 2


def test_front_end_errors_keep_their_precedence(tmp_path, capsys) -> None:
    path = tmp_path / "two.hgr"
    path.write_text(TWO_EDGE_FILE)
    one_source = "exactly one of --input and --gen is required"
    both = ["--input", str(path), "--gen", "5,6,2,10"]
    cases = [
        (["run", "--algorithm", "naive"], one_source),
        (["run", *both, "--algorithm", "naive"], one_source),
        # the source rule comes before the --gen format
        (["run", "--input", str(path), "--gen", "5,5", "--algorithm", "naive"], one_source),
        (["oracle"], one_source),
        (["oracle", *both], one_source),
        (["oracle", "--input", str(path), "--gen", "5,5"], one_source),
        # the oracle's cap comes before the source rule
        (["oracle", *both, "--max-edges", "-1"], "max_edges must be non-negative, got -1"),
        # in a grid: the --gen format, then a missing source, then --repeats
        (["grid", "--gen", "5,5", "--algorithm", "naive", "--repeats", "0"],
         "--gen wants n,m,d_max,w_max, got '5,5'"),
        (["grid", "--algorithm", "naive", "--repeats", "0"],
         "grid needs at least one --input or --gen"),
        (["grid", "--gen", "5,6,2,10", "--algorithm", "naive", "--repeats", "0"],
         "--repeats must be at least 1, got 0"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {"error": "invalid_input", "message": message}, argv


def test_output_file_option(tmp_path, capsys) -> None:
    target = tmp_path / "records.csv"
    code, out, _ = run_cli(
        ["run", "--gen", "5,6,2,10", "--algorithm", "naive",
         "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    rows = csv_rows(target.read_text())
    assert len(rows) == 1
    assert rows[0]["algorithm"] == "naive"


def test_failed_command_leaves_existing_output_intact(tmp_path, capsys) -> None:
    target = tmp_path / "records.csv"
    target.write_text("keep")
    code, _, err = run_cli(
        ["run", "--input", str(tmp_path / "missing.hgr"), "--algorithm", "naive",
         "--output", str(target)],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "invalid_input"
    assert target.read_text() == "keep"
    code, _, err = run_cli(["oracle", "--gen", "30,40,3,10", "--output", str(target)], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "too_large"
    assert target.read_text() == "keep"


def test_output_naming_an_input_file_is_refused(tmp_path, capsys) -> None:
    path, link, hard = tmp_path / "two.hgr", tmp_path / "link.hgr", tmp_path / "hard.hgr"
    path.write_text(TWO_EDGE_FILE)
    link.symlink_to(path)
    hard.hardlink_to(path)
    argvs = [[*command, "--input", str(source), "--output", str(output)]
             for command in (["run", "--algorithm", "naive"], ["grid", "--algorithm", "naive"],
                             ["oracle"])
             for source, output in ((path, path), (path, link), (link, path), (path, hard))]
    argvs.append(["grid", "--gen", "5,6,2,10", "--input", str(tmp_path / "missing.hgr"),
                  "--input", str(path), "--algorithm", "naive", "--output", str(hard)])
    for argv in argvs:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        message = json.loads(err)
        assert message["error"] == "invalid_input"
        assert "would overwrite --input" in message["message"]
        assert path.read_bytes() == TWO_EDGE_FILE.encode()
    # an output that does not exist yet matches no input, even a missing one
    missing = tmp_path / "missing.hgr"
    code, out, _ = run_cli(["grid", "--input", str(missing), "--gen", "5,6,2,10",
                            "--algorithm", "naive", "--output", str(missing)], capsys)
    assert code == 2
    assert [row["error"] != "" for row in csv_rows(missing.read_text())] == [True, False]


def test_grid_loads_a_failing_source_once(tmp_path, monkeypatch, capsys) -> None:
    bad = tmp_path / "bad.hgr"
    bad.write_text(TWO_EDGE_FILE + "1 2\n")
    calls = []
    load = cli.load_instance

    def counting_load(spec):
        calls.append(spec.source)
        return load(spec)

    monkeypatch.setattr(cli, "load_instance", counting_load)
    code, out, _ = run_cli(
        ["grid", "--input", str(bad), "--gen", "5,6,2,10",
         *(arg for a in cli.ALGORITHMS for arg in ("--algorithm", a)),
         "--order", "original", "--order", "random"],
        capsys,
    )
    assert code == 2
    assert calls == [str(bad), (5, 6, 2, 10)]
    rows = csv_rows(out)
    assert len(rows) == 20
    errors = {row["error"] for row in rows[:10]}
    assert errors == {"ParseError: line 4: header declares 2 edges but 3 edge lines found"}
    assert all(row["error"] == "" for row in rows[10:])


def test_grid_holds_one_source_at_a_time(monkeypatch) -> None:
    alive = []
    load = cli.load_instance

    def tracking_load(spec):
        assert all(ref() is None for ref in alive), "an earlier source is still held"
        hg = load(spec)
        alive.append(weakref.ref(hg))
        return hg

    monkeypatch.setattr(cli, "load_instance", tracking_load)
    specs = [cli.RunSpec(source, algorithm="naive") for source in ((5, 6, 2, 10), (6, 7, 2, 10))]
    assert all(record.error is None for record in cli.grid(specs))
    assert len(alive) == 2


def test_alpha_zero_is_accepted_by_cli(capsys) -> None:
    code, out, _ = run_cli(
        ["run", "--gen", "6,8,3,10", "--algorithm", "swapset", "--alpha", "0",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["resolved_alpha"] == 0.0


def test_readme_record_schema_lists_csv_columns() -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Record schema", 1)[1]
    block = section.split("```", 2)[1]
    assert tuple(block.split()) == CSV_COLUMNS
