from __future__ import annotations

import csv
import io
import json

import pytest

from hypermatch import cli
from hypermatch.cli import CSV_COLUMNS, main
from hypermatch.ingest import StreamOrder, WeightScheme, gen_random_hypergraph, serialize_hmetis
from hypermatch.swap_matcher import optimal_alpha

TWO_EDGE_FILE = "2 3 1\n1 1 2\n3 2 3\n"


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
    assert sum(hg.edges[i].weight for i in ids) == record["matching_weight"]


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


def test_grid_propagates_programming_errors(monkeypatch) -> None:
    def broken(hg, stream):
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(cli, "run_naive", broken)
    specs = cli.expand_grid(
        sources=[(None, (5, 6, 2, 10))], algorithms=["naive"], epsilons=[0.0],
        alphas=["auto"], orders=[StreamOrder.ORIGINAL], seeds=[0], repeats=1,
        weights=WeightScheme.FROM_FILE, certify=False, emit_matching=False,
    )
    with pytest.raises(RuntimeError, match="kernel bug"):
        list(cli.grid(specs))


def test_grid_loads_and_solves_each_instance_once(tmp_path, monkeypatch) -> None:
    path = tmp_path / "small.hgr"
    path.write_text(serialize_hmetis(gen_random_hypergraph(9, 12, 3, 100, seed=5)))
    specs = list(cli.expand_grid(
        sources=[(str(path), None), (None, (8, 10, 3, 50))],
        algorithms=list(cli.ALGORITHMS), epsilons=[0.5], alphas=["auto"],
        orders=[StreamOrder.ORIGINAL, StreamOrder.RANDOM], seeds=[1, 2], repeats=1,
        weights=WeightScheme.FROM_FILE, certify=True, emit_matching=True,
    ))
    expected = [cli.run(spec).as_dict() for spec in specs]

    calls = {"load": [], "oracle": 0}
    load, solve = cli.load_instance, cli.exact_max_weight_matching

    def counting_load(spec):
        calls["load"].append(spec.input_path or (spec.gen, spec.seed))
        return load(spec)

    def counting_solve(hg, limits=None):
        calls["oracle"] += 1
        return solve(hg, limits)

    monkeypatch.setattr(cli, "load_instance", counting_load)
    monkeypatch.setattr(cli, "exact_max_weight_matching", counting_solve)
    got = [record.as_dict() for record in cli.grid(specs)]

    for record in expected + got:
        assert record["error"] is None
        assert record["oracle_weight"] is not None
        record.pop("runtime_ns")
    assert got == expected
    assert calls["load"] == [str(path), ((8, 10, 3, 50), 1), ((8, 10, 3, 50), 2)]
    assert calls["oracle"] == 3


def test_oracle_subcommand(tmp_path, capsys) -> None:
    path = tmp_path / "two.hgr"
    path.write_text(TWO_EDGE_FILE)
    code, out, _ = run_cli(["oracle", "--input", str(path)], capsys)
    assert code == 0
    (row,) = csv_rows(out)
    assert row["algorithm"] == "oracle"
    assert row["oracle_weight"] == "3.0"
    assert row["matching_edges"] == "1"


def test_oracle_refuses_large_instances_with_exit_3(capsys) -> None:
    code, out, err = run_cli(["oracle", "--gen", "40,30,2,10"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "too_large"


def test_parse_error_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.hgr"
    bad.write_text("2 3 1\n0 1 2\n7 2 3\n")
    code, _, err = run_cli(["run", "--input", str(bad), "--algorithm", "naive"], capsys)
    assert code == 2
    message = json.loads(err)
    assert message["error"] == "parse_error"
    assert "line 2" in message["message"]


def test_undecodable_file_is_a_parse_error(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.hgr"
    bad.write_bytes(b"1 2\n\xff\xfe 2\n")
    code, _, err = run_cli(["run", "--input", str(bad), "--algorithm", "naive"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"
    code, out, _ = run_cli(["grid", "--input", str(bad), "--algorithm", "naive"], capsys)
    assert code == 2
    assert csv_rows(out)[0]["error"].startswith("ParseError")


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


def test_bad_gen_spec_exits_2(capsys) -> None:
    code, _, _ = run_cli(["run", "--gen", "5,5", "--algorithm", "naive"], capsys)
    assert code == 2


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


def test_alpha_zero_is_accepted_by_cli(capsys) -> None:
    code, out, _ = run_cli(
        ["run", "--gen", "6,8,3,10", "--algorithm", "swapset", "--alpha", "0",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["resolved_alpha"] == 0.0
