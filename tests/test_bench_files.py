"""``tools/bench_files.py``: files only from correct runs, the diff's verdicts,
and paired runs of two revisions."""

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


def bench_stdout(values: dict, wall: float, digest: str, correct: bool = True,
                 import_s: float = 0.02) -> str:
    """What ``bench/run.py`` prints: the report lines the tool reads, then
    the last line with the end-to-end (or, traced, per-layer) ``values``."""
    last = {"correct": correct, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}
    return (f"host_slowdown  0.5 ratio    median calibration time\n"
            f"op_p50_wall_ms {wall} ms       as measured\n"
            f"record digest (without runtime_ns): {digest}\n"
            f"provenance {json.dumps({'seed': 1, 'import_s': import_s})}\n{json.dumps(last)}\n")


def fake_bench(correct: dict, scale: float = 1) -> SimpleNamespace:
    """A stand-in for ``subprocess`` running ``bench/run.py``: ``op_p50_ms``
    and ``edges_per_s`` read the seed times ``scale``, the report's
    ``op_p50_wall_ms`` reads the seed, and every other metric reads 1."""

    def run(argv, **kwargs):
        workload, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        values = {name: 1.0 for name in END_TO_END} | {"op_p50_ms": seed * scale,
                                                        "edges_per_s": seed * scale}
        stdout = bench_stdout(values, seed, "d", correct[workload])
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


HEAD_MS = (9, 11, 13, 12)  # against the base's 10, 11, 12, 13: won, tied, lost, won
COMMITS = {"base": "ba5e" * 10, "head": "4ead" * 10}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def fake_pair_bench(digest=lambda side, run: "d", traced_digest="d") -> SimpleNamespace:
    """A stand-in for ``subprocess`` running ``bench/run.py`` from a pair's
    checkout.  Each run reads which side's ``src/`` it was given; in pair
    ``i`` the base reads ``op_p50_ms`` 10 + i and the head ``HEAD_MS[i]``,
    and the wall time half of that.  ``calls`` records each untraced run's
    side and checkout; ``digest`` gets the side and the run's number from 1.
    ``traced`` records the side of each ``--trace 1`` run, whose per-layer
    metrics read 2 for the base and 1 for the head, and whose ``import_s``
    reads 0.02 and 0.01."""
    calls, traced = [], []

    def run(argv, cwd, **kwargs):
        assert (Path(cwd) / "BENCHMARK.json").is_file() and (Path(cwd) / "bench" / "run.py").is_file()
        side = (Path(cwd) / "src" / "mod.py").read_text().split()[-1]
        if argv[argv.index("--trace") + 1] == "1":
            traced.append(side)
            value = 2.0 if side == "base" else 1.0
            return subprocess.CompletedProcess(argv, 0, bench_stdout(
                dict.fromkeys(PER_LAYER, value), 1, traced_digest, import_s=value / 100), "")
        calls.append((side, cwd))
        i = (len(calls) - 1) // 2
        ms = 10 + i if side == "base" else HEAD_MS[i % len(HEAD_MS)]
        values = {name: 1.0 for name in END_TO_END} | {"op_p50_ms": ms}
        return subprocess.CompletedProcess(
            argv, 0, bench_stdout(values, ms / 2, digest(side, len(calls))), "")

    return SimpleNamespace(run=run, calls=calls, traced=traced)


@pytest.fixture
def pair_checkout(checkout, monkeypatch):
    (checkout / "bench").mkdir()
    (checkout / "bench" / "run.py").write_text("")

    def export_src(rev, dest):  # each revision's tree names its side
        (dest / "src").mkdir(parents=True)
        (dest / "src" / "mod.py").write_text(f"SIDE = {rev}\n")

    monkeypatch.setattr(bench_files, "export_src", export_src)
    monkeypatch.setattr(bench_files, "git",
                        lambda *args: COMMITS[args[-1].removesuffix("^{commit}")])
    monkeypatch.setattr(bench_files, "PAIRS", 4)
    return checkout


def test_pair_alternates_sides_from_one_checkout(pair_checkout, monkeypatch, capsys) -> None:
    fake = fake_pair_bench()
    monkeypatch.setattr(bench_files, "subprocess", fake)
    assert bench_files.main(["--pair", "base", "head", "kernels", "--seed", "7"]) == 0
    assert [side for side, _ in fake.calls] == ["base", "head", "head", "base"] * 2
    assert len({cwd for _, cwd in fake.calls}) == 1
    written = json.loads((pair_checkout / "PAIR_kernels_ba5eba5_4ead4ea.json").read_text())
    provenance = written["provenance"]
    assert (provenance["workload"], provenance["seed"], provenance["pairs"]) == ("kernels", 7, 4)
    assert provenance["seconds"] == SPEC["run_seconds"]
    assert provenance["record_digest"] == "d"
    assert provenance["base"]["rev"] == "base" and provenance["head"]["commit"] == COMMITS["head"]
    assert provenance["base"]["src_sha256"] != provenance["head"]["src_sha256"]
    op = written["metrics"]["op_p50_ms"]
    assert op["base"]["values"] == [10, 11, 12, 13] and op["head"]["values"] == [9, 11, 13, 12]
    assert (op["base"]["q1"], op["base"]["median"], op["base"]["q3"]) == (10.75, 11.5, 12.25)
    assert op["head_wins"] == 2  # a tie counts for neither side
    assert op["median_ratio"] == pytest.approx((12 / 13 + 11 / 11) / 2)
    assert written["metrics"]["edges_per_s"]["head_wins"] == 0  # all equal: ties
    assert written["metrics"]["op_p50_wall_ms"]["head"]["values"] == [4.5, 5.5, 6.5, 6]
    assert written["metrics"]["host_slowdown"]["head_wins"] is None
    out = capsys.readouterr().out
    assert "record digests equal" in out and "PAIR_kernels_ba5eba5_4ead4ea.json" in out
    assert out.count(" 2/4") == 2  # op_p50_ms and op_p50_wall_ms


def test_pair_stops_at_differing_record_digests(pair_checkout, monkeypatch) -> None:
    fake = fake_pair_bench(digest=lambda side, run: "d" if run < 5 else side)
    monkeypatch.setattr(bench_files, "subprocess", fake)
    with pytest.raises(SystemExit, match="pair 3: the record digests differ, base and head"):
        bench_files.main(["--pair", "base", "head", "certify-small"])
    assert len(fake.calls) == 6
    assert list(pair_checkout.glob("PAIR_*.json")) == []


def test_export_src_unpacks_the_tracked_source_tree(tmp_path) -> None:
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    bench_files.export_src("HEAD", tmp_path)
    unpacked = sorted(path.relative_to(tmp_path).as_posix()
                      for path in (tmp_path / "src").rglob("*") if path.is_file())
    assert unpacked == sorted(bench_files.git("ls-tree", "-r", "--name-only", "HEAD", "src").splitlines())


def test_pair_keeps_one_traced_run_per_side(pair_checkout, monkeypatch, capsys) -> None:
    fake = fake_pair_bench()
    monkeypatch.setattr(bench_files, "subprocess", fake)
    assert bench_files.main(["--pair", "base", "head", "kernels"]) == 0
    assert fake.traced == ["base", "head"] and len(fake.calls) == 8
    traced = json.loads((pair_checkout / "PAIR_kernels_ba5eba5_4ead4ea.json").read_text())["traced"]
    assert traced["base"]["import_s"] == 0.02 and traced["head"]["import_s"] == 0.01
    for side, value in (("base", 2.0), ("head", 1.0)):
        assert traced[side]["per_layer"] == {name: {"value": value, "unit": "u"}
                                             for name in PER_LAYER}
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows["import_s"] == ["0.02", "0.01"]
    assert rows["ingest.order_stream.busy_s"] == rows["baselines.run_greedy.self_s"] == ["2", "1"]


def test_pair_stops_at_a_traced_run_with_another_digest(pair_checkout, monkeypatch) -> None:
    monkeypatch.setattr(bench_files, "subprocess", fake_pair_bench(traced_digest="other"))
    with pytest.raises(SystemExit, match="traced base run: record digest other, not d"):
        bench_files.main(["--pair", "base", "head", "kernels"])
    assert list(pair_checkout.glob("PAIR_*.json")) == []


def test_pair_names_its_file_by_both_commits_and_never_overwrites(
        pair_checkout, monkeypatch) -> None:
    fake = fake_pair_bench()
    monkeypatch.setattr(bench_files, "subprocess", fake)
    # an A/A control and a run of two revisions write two files
    assert bench_files.main(["--pair", "head", "head", "kernels"]) == 0
    assert bench_files.main(["--pair", "base", "head", "kernels"]) == 0
    assert sorted(path.name for path in pair_checkout.glob("PAIR_*.json")) == [
        "PAIR_kernels_4ead4ea_4ead4ea.json", "PAIR_kernels_ba5eba5_4ead4ea.json"]
    written = (pair_checkout / "PAIR_kernels_ba5eba5_4ead4ea.json").read_text()
    runs = len(fake.calls)
    with pytest.raises(SystemExit, match="PAIR_kernels_ba5eba5_4ead4ea.json exists"):
        bench_files.main(["--pair", "base", "head", "kernels"])
    assert len(fake.calls) == runs  # refused before any run
    assert (pair_checkout / "PAIR_kernels_ba5eba5_4ead4ea.json").read_text() == written
