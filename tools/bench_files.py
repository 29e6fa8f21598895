"""Write ``BENCH_<workload>.json`` files from ``bench/run.py`` runs, and diff two.

Run from anywhere in a source checkout:

    python3 tools/bench_files.py file-grid kernels certify-small
    python3 tools/bench_files.py --diff old/BENCH_kernels.json BENCH_kernels.json
    python3 tools/bench_files.py --pair HEAD~1 HEAD certify-small --seed 37

Each seed of ``SEEDS`` runs ``python3 bench/run.py --workload W --seed s
--seconds S`` in a fresh process, with ``S`` the ``run_seconds`` that
``BENCHMARK.json`` fixes.  A file holds each end-to-end metric of
``BENCHMARK.json`` with its per-seed values and their median, the same for
``host_slowdown`` and ``op_p50_wall_ms`` from the report above the last line,
and the provenance of the runs.  No file is written unless every run exited 0
and its last line reads ``correct: true`` with 0 failed operations.
The provenance names the commit, whether ``src/``, ``bench/`` or
``BENCHMARK.json`` differ from it, and ``src_sha256``, a digest of the
package source that ran, so a file written before its commit still names
the code it measured.

``--diff`` prints, per metric, the ratio of the new median to the old one
beside the bound ``BENCHMARK.json`` fixes for it, and exits 1 when a metric
is worse than the old one by more than its bound.  It refuses, with exit 2,
two files whose workload, seeds, seconds, Python or platform differ, and
prints both ``src_sha256`` digests without comparing them.  The
time metrics are scaled by each run's own calibration, which can read
differently for two commits on one host; read the ``op_p50_wall_ms`` and
``host_slowdown`` ratios beside the scaled ones.

``--pair BASE HEAD WORKLOAD`` compares two revisions on one host.  It
unpacks each revision's ``src/`` with ``git archive`` beside one scratch
checkout that holds this tree's ``bench/`` and ``BENCHMARK.json``, and moves
each side's ``src/`` into that checkout for its runs, so both sides run
from one path.  It makes ``PAIRS`` pairs of runs of one seed at
``run_seconds``, alternating which side goes first.  Per metric it prints
each side's median and quartiles, the median of the per-pair ratios
HEAD/BASE and the number of pairs HEAD wins.  Then each side makes one
``--trace 1`` run, whose per-layer last line and ``import_s`` show where
the time went.  It exits 1, writing nothing, as soon as two runs give
different record digests; otherwise it writes
``PAIR_<workload>_<base>_<head>.json``, named by both short commits, with
both revisions' ``src_sha256``.  It refuses to start when that file exists,
so one run never overwrites another.  ``--pair HEAD HEAD`` is the A/A
control: its spread is the noise a claimed gain must beat.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
PAIRS = 10  # pairs of runs per --pair comparison
# report lines, not the last: unit, and which way is better (None: neither)
REPORTED = {"host_slowdown": ("ratio", None), "op_p50_wall_ms": ("ms", "lower")}
DIGEST = "record digest (without runtime_ns): "
PROVENANCE = "provenance "
MATCHING = ("workload", "seeds", "seconds", "python", "platform")  # provenance --diff compares
MEASURED = ("src", "bench", "BENCHMARK.json")  # the paths whose changes make a run dirty


def run_seed(workload: str, seed: int, seconds: float, root: Path | None = None,
             trace: int = 0) -> tuple[dict, dict, str]:
    """One fresh ``bench/run.py --trace TRACE`` process in ``root`` (this
    checkout by default): its last line, the REPORTED values, with the
    provenance's ``import_s`` when the report has one, and the record digest."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root or ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    if (proc.returncode != 0 or not isinstance(last, dict)
            or last.get("correct") is not True or last.get("failed") != 0):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, last line "
                 f"{lines[-1] if lines else '(none)'}; nothing written\n{proc.stderr}")
    reported, digest = {}, None
    for line in lines:
        name, _, rest = line.partition(" ")
        if name in REPORTED:
            reported[name] = float(rest.split()[0])
        elif line.startswith(DIGEST):
            digest = line[len(DIGEST):]
        elif line.startswith(PROVENANCE):
            reported["import_s"] = json.loads(line[len(PROVENANCE):])["import_s"]
    missing = sorted(REPORTED.keys() - reported.keys()) + ["record digest"] * (digest is None)
    if missing:
        sys.exit(f"{workload} seed {seed}: the report lacks {missing}; nothing written")
    return last, reported, digest


def summary(values: list, unit: str) -> dict:
    return {"unit": unit, "values": values, "median": statistics.median(values)}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def src_sha256(src: Path | None = None) -> str:
    """sha256 over the sorted relative paths and bytes of the files under
    ``src`` (this checkout's ``src/`` by default), bytecode caches and
    install metadata aside."""
    digest = hashlib.sha256()
    src = src or ROOT / "src"
    for path in sorted(src.rglob("*")):
        name = path.relative_to(src)
        if path.is_file() and not any(part == "__pycache__" or part.endswith(".egg-info")
                                      for part in name.parts):
            data = path.read_bytes()
            digest.update(f"{name.as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def bench_file(spec: dict, workload: str) -> dict:
    seconds = float(spec["run_seconds"])
    provenance = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", *MEASURED)),
        "src_sha256": src_sha256(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "workload": workload,
        "seeds": list(SEEDS),
        "seconds": seconds,
    }
    runs = [run_seed(workload, seed, seconds) for seed in SEEDS]
    metrics = {}
    for m in spec["end_to_end"]:
        values = [last["metrics"][m["name"]]["value"] for last, _, _ in runs]
        metrics[m["name"]] = {**summary(values, m["unit"]),
                              "better": m["better"], "bound": m["bound"]}
    reported = {name: summary([rep[name] for _, rep, _ in runs], unit)
                for name, (unit, _) in REPORTED.items()}
    return {"provenance": provenance, "metrics": metrics, "reported": reported}


def export_src(rev: str, dest: Path) -> None:
    """Unpack the ``src/`` tree of ``rev`` as ``dest / "src"``, by ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    # the "data" filter, which refuses links and paths out of dest, is new in 3.10.12 and 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)


def side_by_side(base: list, head: list, better: str | None) -> dict:
    """Each side's median and quartiles, the median ratio HEAD/BASE over the
    pairs and, when a direction is better, the number of pairs HEAD wins."""

    def spread(values: list) -> dict:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"values": values, "median": median, "q1": q1, "q3": q3}

    wins = None if better is None else sum(
        h < b if better == "lower" else h > b for b, h in zip(base, head))
    return {"base": spread(base), "head": spread(head), "head_wins": wins,
            "median_ratio": statistics.median(h / b for b, h in zip(base, head))}


def pair(spec: dict, base: str, head: str, workload: str, seed: int) -> int:
    """Run PAIRS alternating pairs of BASE and HEAD from one scratch checkout,
    then one traced run of each side, print the comparison and write
    ``PAIR_<workload>_<base>_<head>.json``, named by both short commits.
    An existing file of that name is refused before anything runs."""
    seconds = float(spec["run_seconds"])
    sides = {"base": base, "head": head}
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in sides.items()}
    path = ROOT / f"PAIR_{workload}_{commits['base'][:7]}_{commits['head'][:7]}.json"
    if path.exists():
        sys.exit(f"{path.relative_to(ROOT)} exists; move it away to run this pair again")
    runs = {side: [] for side in sides}  # per run, every metric's value by name
    traced = {}  # per side, the traced run's per-layer last line and import_s
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        scratch = Path(scratch)
        checkout = scratch / "checkout"
        shutil.copytree(ROOT / "bench", checkout / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
        compileall.compile_dir(checkout / "bench", quiet=1)

        def run_side(side: str, trace: int = 0) -> tuple[dict, dict, str]:
            (scratch / side / "src").rename(checkout / "src")
            try:
                return run_seed(workload, seed, seconds, checkout, trace)
            finally:
                (checkout / "src").rename(scratch / side / "src")

        revisions = {}
        for side, rev in sides.items():
            export_src(rev, scratch / side)
            compileall.compile_dir(scratch / side / "src", quiet=1)
            revisions[side] = {"rev": rev, "commit": commits[side],
                               "src_sha256": src_sha256(scratch / side / "src")}
        for i in range(PAIRS):
            digests = set()
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                last, reported, digest = run_side(side)
                runs[side].append({**{name: entry["value"] for name, entry in last["metrics"].items()},
                                   **reported})
                digests.add(digest)
            if len(digests) != 1:
                sys.exit(f"{workload} pair {i + 1}: the record digests differ, "
                         f"{' and '.join(sorted(digests))}; nothing written")
        for side in sides:
            last, reported, digest = run_side(side, trace=1)
            if digest not in digests:
                sys.exit(f"{workload} traced {side} run: record digest {digest}, not "
                         f"{digests.pop()}; nothing written")
            traced[side] = {"import_s": reported.get("import_s"), "per_layer": last["metrics"]}
    kinds = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} | REPORTED
    metrics = {name: {"unit": unit, "better": better, **side_by_side(
        *([run[name] for run in runs[side]] for side in sides), better)}
        for name, (unit, better) in kinds.items()}
    print(f"{workload}, seed {seed}, {PAIRS} pairs of {seconds:g} s; record digests equal")
    for side, rev in revisions.items():
        print(f"{side} {rev['rev']} {rev['commit']} src_sha256 {rev['src_sha256']}")
    print(f"{'metric':<18} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34} "
          f"{'head/base':>9} {'head wins':>9}")
    for name, entry in metrics.items():
        shown = [f"{entry[side]['median']:.6g} [{entry[side]['q1']:.6g}, {entry[side]['q3']:.6g}]"
                 for side in sides]
        wins = "" if entry["head_wins"] is None else f"{entry['head_wins']}/{PAIRS}"
        print(f"{name:<18} {shown[0]:>34} {shown[1]:>34} {entry['median_ratio']:>9.4f} {wins:>9}")
    print(f"{'one traced run per side':<42} {'base':>12} {'head':>12}")
    print(f"{'import_s':<42} {traced['base']['import_s']:>12.6g} {traced['head']['import_s']:>12.6g}")
    for name, entry in traced["base"]["per_layer"].items():
        print(f"{name:<42} {entry['value']:>12.6g} "
              f"{traced['head']['per_layer'][name]['value']:>12.6g}")
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "pairs": PAIRS,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(), "record_digest": digests.pop(), **revisions,
    }
    path.write_text(json.dumps({"provenance": provenance, "metrics": metrics, "traced": traced},
                               indent=1) + "\n")
    print(path.relative_to(ROOT))
    return 0


def diff(old_path: str, new_path: str) -> int:
    """Print each median's ratio new/old; 1 when one is worse beyond its bound,
    2 when the two files' runs do not match."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    differ = [k for k in MATCHING if old["provenance"][k] != new["provenance"][k]]
    if differ:
        print(f"{old_path} and {new_path} differ in {', '.join(differ)}; not compared",
              file=sys.stderr)
        return 2
    old_src, new_src = (f["provenance"].get("src_sha256", "(none)") for f in (old, new))
    print(f"src_sha256 old {old_src} new {new_src}")
    print(f"{'metric':<18} {'old':>12} {'new':>12} {'new/old':>8} {'bound':>6}")
    status = 0
    for section in ("metrics", "reported"):
        for name, entry in new[section].items():
            before, after = old[section][name]["median"], entry["median"]
            bound, ratio, verdict = entry.get("bound"), after / before, ""
            if bound is not None:
                worse = ratio - 1 if entry["better"] == "lower" else 1 - ratio
                verdict = "WORSE" if worse > bound else "ok"
            status |= verdict == "WORSE"
            print(f"{name:<18} {before:>12.6g} {after:>12.6g} {ratio:>8.6g} "
                  f"{'' if bound is None else bound:>6} {verdict}")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"one of {', '.join(w['name'] for w in spec['workloads'])}")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--pair", nargs=3, metavar=("BASE", "HEAD", "WORKLOAD"))
    parser.add_argument("--seed", type=int, default=1, help="the seed of every --pair run")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    names = {w["name"] for w in spec["workloads"]}
    if args.pair:
        if args.pair[2] not in names:
            parser.error(f"unknown workload {args.pair[2]!r}")
        return pair(spec, *args.pair, args.seed)
    unknown = set(args.workloads) - names
    if unknown or not args.workloads:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown
                     else "name a workload, or give --diff OLD NEW or --pair BASE HEAD WORKLOAD")
    files = {w: bench_file(spec, w) for w in args.workloads}
    for workload, content in files.items():  # only once every run has passed
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(content, indent=1) + "\n")
        print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
