"""Write ``BENCH_<workload>.json`` files from ``bench/run.py`` runs, and diff two.

Run from anywhere in a source checkout:

    python3 tools/bench_files.py file-grid kernels certify-small
    python3 tools/bench_files.py --diff old/BENCH_kernels.json BENCH_kernels.json

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
REPORTED = {"host_slowdown": "ratio", "op_p50_wall_ms": "ms"}  # report lines, not the last
MATCHING = ("workload", "seeds", "seconds", "python", "platform")  # provenance --diff compares
MEASURED = ("src", "bench", "BENCHMARK.json")  # the paths whose changes make a run dirty


def run_seed(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One fresh ``bench/run.py`` process: its last line and the REPORTED values."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    if (proc.returncode != 0 or not isinstance(last, dict)
            or last.get("correct") is not True or last.get("failed") != 0):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, last line "
                 f"{lines[-1] if lines else '(none)'}; nothing written\n{proc.stderr}")
    reported = {}
    for line in lines:
        name, _, rest = line.partition(" ")
        if name in REPORTED:
            reported[name] = float(rest.split()[0])
    if reported.keys() != REPORTED.keys():
        sys.exit(f"{workload} seed {seed}: the report lacks "
                 f"{sorted(REPORTED.keys() - reported.keys())}; nothing written")
    return last, reported


def summary(values: list, unit: str) -> dict:
    return {"unit": unit, "values": values, "median": statistics.median(values)}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def src_sha256() -> str:
    """sha256 over the sorted relative paths and bytes of the files under
    ``src/``, bytecode caches and install metadata aside."""
    digest = hashlib.sha256()
    src = ROOT / "src"
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
        values = [last["metrics"][m["name"]]["value"] for last, _ in runs]
        metrics[m["name"]] = {**summary(values, m["unit"]),
                              "better": m["better"], "bound": m["bound"]}
    reported = {name: summary([rep[name] for _, rep in runs], unit)
                for name, unit in REPORTED.items()}
    return {"provenance": provenance, "metrics": metrics, "reported": reported}


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
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    unknown = set(args.workloads) - {w["name"] for w in spec["workloads"]}
    if unknown or not args.workloads:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown
                     else "name a workload, or give --diff OLD NEW")
    files = {w: bench_file(spec, w) for w in args.workloads}
    for workload, content in files.items():  # only once every run has passed
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(content, indent=1) + "\n")
        print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
