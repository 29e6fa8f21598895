"""``tools/bench_files.py``: files only from correct runs, and the diff's verdicts."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_files", ROOT / "tools" / "bench_files.py")
bench_files = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_files)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def fake_bench(correct: dict, scale: float = 1) -> SimpleNamespace:
    """A stand-in for ``subprocess`` running ``bench/run.py``: ``op_p50_ms``
    and ``edges_per_s`` read the seed times ``scale``, the report's
    ``op_p50_wall_ms`` reads the seed, and every other metric reads 1."""

    def run(argv, **kwargs):
        workload, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        values = {name: 1.0 for name in END_TO_END} | {"op_p50_ms": seed * scale,
                                                        "edges_per_s": seed * scale}
        last = {"correct": correct[workload], "attempted": 3, "failed": 0,
                "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}
        stdout = (f"host_slowdown  0.5 ratio    median calibration time\n"
                  f"op_p50_wall_ms {seed} ms       as measured\n{json.dumps(last)}\n")
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    return SimpleNamespace(run=run)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_files, "ROOT", tmp_path)
    monkeypatch.setattr(bench_files, "git", lambda *args: "")
    return tmp_path


def test_writes_medians_and_report_values(checkout, monkeypatch) -> None:
    monkeypatch.setattr(bench_files, "subprocess", fake_bench({"kernels": True}))
    monkeypatch.setattr(bench_files, "SEEDS", (1, 4, 3))
    assert bench_files.main(["kernels"]) == 0
    written = json.loads((checkout / "BENCH_kernels.json").read_text())
    assert written["provenance"]["seeds"] == [1, 4, 3]
    assert written["provenance"]["seconds"] == SPEC["run_seconds"]
    assert written["metrics"]["op_p50_ms"] == {"unit": "ms", "values": [1, 4, 3],
                                               "median": 3, "better": "lower", "bound": 0.25}
    assert written["reported"]["op_p50_wall_ms"]["median"] == 3.0
    assert written["reported"]["host_slowdown"]["values"] == [0.5, 0.5, 0.5]


def test_no_file_unless_every_run_is_correct(checkout, monkeypatch) -> None:
    fake = fake_bench({"kernels": True, "file-grid": False})
    monkeypatch.setattr(bench_files, "subprocess", fake)
    monkeypatch.setattr(bench_files, "SEEDS", (1,))
    with pytest.raises(SystemExit, match="file-grid seed 1"):
        bench_files.main(["kernels", "file-grid"])
    assert list(checkout.glob("BENCH_*.json")) == []


def test_diff_flags_a_metric_worse_than_its_bound(checkout, monkeypatch, capsys) -> None:
    monkeypatch.setattr(bench_files, "SEEDS", (4,))
    monkeypatch.setattr(bench_files, "subprocess", fake_bench({"kernels": True}))
    bench_files.main(["kernels"])
    old, new = checkout / "old.json", checkout / "BENCH_kernels.json"
    new.rename(old)
    capsys.readouterr()
    for scale, status in ((1, 0), (1.25, 0), (1.5, 1)):  # op_p50_ms bound 0.25
        monkeypatch.setattr(bench_files, "subprocess", fake_bench({"kernels": True}, scale))
        bench_files.main(["kernels"])
        assert bench_files.diff(old, new) == status
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        assert rows["op_p50_ms"][3:] == [f"{scale:.6g}", "0.25", "WORSE" if scale > 1.25 else "ok"]
        # higher is better: edges_per_s rose, so it is never worse
        assert rows["edges_per_s"][-1] == "ok"
    # runs that do not match are refused, whatever their figures
    written = json.loads(new.read_text())
    for key, value in (("workload", "file-grid"), ("seeds", [4, 5]), ("seconds", 10.0),
                       ("python", "CPython 3.0.0"), ("platform", "elsewhere")):
        new.write_text(json.dumps({**written, "provenance": {**written["provenance"], key: value}}))
        assert bench_files.diff(old, new) == 2
        assert capsys.readouterr().err.endswith(f"differ in {key}; not compared\n")


def test_provenance_names_the_source_tree_that_ran(checkout, monkeypatch) -> None:
    calls = []

    def git(*args):
        calls.append(args)
        return ""

    monkeypatch.setattr(bench_files, "git", git)
    monkeypatch.setattr(bench_files, "subprocess", fake_bench({"kernels": True}))
    monkeypatch.setattr(bench_files, "SEEDS", (1,))
    package = checkout / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_bytes(b"X = 1\n")

    def written_digest() -> str:
        bench_files.main(["kernels"])
        return json.loads((checkout / "BENCH_kernels.json").read_text())["provenance"]["src_sha256"]

    first = written_digest()
    # bytecode caches are not source; the tree is the same
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert written_digest() == first == bench_files.src_sha256()
    (package / "mod.py").write_bytes(b"X = 2\n")  # one changed byte
    assert written_digest() != first
    (package / "mod.py").write_bytes(b"X = 1\n")
    (package / "extra.py").write_bytes(b"")  # a new file, even an empty one
    assert written_digest() != first
    # dirty reads only the paths whose changes alter what ran
    status = [args for args in calls if args[0] == "status"]
    assert status and all(args[-4:] == ("--", "src", "bench", "BENCHMARK.json")
                          for args in status)


def test_diff_prints_both_source_digests(checkout, monkeypatch, capsys) -> None:
    monkeypatch.setattr(bench_files, "SEEDS", (4,))
    monkeypatch.setattr(bench_files, "subprocess", fake_bench({"kernels": True}))
    bench_files.main(["kernels"])
    old, new = checkout / "old.json", checkout / "BENCH_kernels.json"
    new.rename(old)
    (checkout / "src").mkdir()
    (checkout / "src" / "mod.py").write_text("X = 1\n")
    bench_files.main(["kernels"])
    before = json.loads(old.read_text())["provenance"]["src_sha256"]
    after = json.loads(new.read_text())["provenance"]["src_sha256"]
    assert before != after
    capsys.readouterr()
    # the digests differ, yet the files are compared: --diff compares two trees
    assert bench_files.diff(old, new) == 0
    assert f"src_sha256 old {before} new {after}\n" in capsys.readouterr().out
    # a file written before the digest existed reads as (none)
    written = json.loads(old.read_text())
    del written["provenance"]["src_sha256"]
    old.write_text(json.dumps(written))
    bench_files.diff(old, new)
    assert f"src_sha256 old (none) new {after}\n" in capsys.readouterr().out
