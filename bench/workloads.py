"""The three benchmark workloads.

Each workload has ``setup()``, run several times so that set-up time can
be reported as a median, and ``round(state)``, which yields the round's
operations as ``(key, call)`` pairs.  The caller times each call and then
passes its return value to ``records(state, key, raw)``, outside the timed
region, to get the typed result records the checker reads.

Why these three:

- ``file-grid`` is how users run the tool on their own data: one
  ``hypermatch grid --input FILE`` over all five algorithms.  Every cell
  re-reads the file, so parsing and ``Hypergraph.build`` dominate.
- ``kernels`` parses once in set-up and calls the algorithm kernels
  directly, so ingest does no work.  The four stream orders use the kernels
  differently: on ascending order the stack pushes nearly every edge and
  swapset evicts constantly; on descending order swapset never swaps.
- ``certify-small`` is the acceptance-style sweep over many tiny generated
  instances with the exact oracle.  Per-cell fixed costs dominate, so a
  change that adds per-instance set-up cost shows here as a slowdown.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from instances import Instance, describe, random_instance

ALGORITHMS = ("stack", "stack-lenient", "swapset", "naive", "greedy")
EPSILON = 0.1
ORDERS = ("original", "ascending", "descending", "random")


def _algorithm_args() -> list[str]:
    return [arg for a in ALGORITHMS for arg in ("--algorithm", a)]


def _opt(text: str, cast):
    return None if text == "" else cast(text)


def _bool(text: str) -> bool:
    return text == "true"


def typed_row(row: dict) -> dict:
    """A CSV record with its numbers and flags parsed."""
    rec = dict(row)
    for key in ("seed", "repeat", "n", "m", "d", "total_pins", "cardinality", "pushes",
                "pops", "swaps", "vertex_push_max", "peak_stack_edges", "peak_stack_pins",
                "logical_memory", "runtime_ns"):
        rec[key] = _opt(row[key], int)
    for key in ("epsilon", "resolved_alpha", "matching_weight", "dual_upper_bound",
                "oracle_weight"):
        rec[key] = _opt(row[key], float)
    rec["dual_feasible"] = _opt(row["dual_feasible"], _bool)
    rec["matching_edges"] = [int(e) for e in row["matching_edges"].split()]
    rec["error"] = row["error"] or None
    return rec


class Workload:
    name = ""
    with_oracle = False  # whether records carry the exact optimum

    def __init__(self, hm, workdir: Path, seed: int, smoke: bool) -> None:
        self.hm = hm
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def _write_instance(self):
        """The 1e5-edge instance (1e3 in smoke mode), written as an hMetis file."""
        n, m = (200, 1000) if self.smoke else (20_000, 100_000)
        inst = random_instance(n, m, 8, 100, self.seed)
        text = inst.hmetis()
        path = self.workdir / f"{self.name}-{self.seed}.hgr"
        path.write_bytes(text)
        return inst, path, [dict(inst.params(), **describe(text))]


class _GridWorkload(Workload):
    """A workload whose one operation is an in-process ``hypermatch grid``."""

    def __init__(self, hm, workdir: Path, seed: int, smoke: bool) -> None:
        super().__init__(hm, workdir, seed, smoke)
        self.output = workdir / f"{self.name}-{seed}.csv"

    def round(self, state):
        argv = state["argv"]
        # Look ``main`` up per call so the tracer's wrapper is the one run.
        yield "grid", lambda: self.hm.cli.main(argv)

    def cells_per_op(self, state) -> int:
        return len(ALGORITHMS) * len(state["instances"])

    def records(self, state, key, exit_code):
        try:
            with open(self.output, newline="") as f:
                rows = [typed_row(row) for row in csv.DictReader(f)]
            self.output.unlink()  # so a later op that writes nothing is not read as this one
        except FileNotFoundError:
            rows = []
        return rows, int(exit_code != 0)

    def instance_of(self, state, rec) -> Instance:
        return state["instances"][(rec["instance"], rec["seed"])]


class FileGrid(_GridWorkload):
    name = "file-grid"

    def setup(self):
        inst, path, params = self._write_instance()
        argv = ["grid", "--input", str(path), *_algorithm_args(),
                "--epsilon", str(EPSILON), "--order", "random", "--seed", str(self.seed),
                "--certify", "--emit-matching", "--output", str(self.output)]
        return {"instances": {(str(path), self.seed): inst}, "argv": argv, "params": params}


class CertifySmall(_GridWorkload):
    name = "certify-small"
    with_oracle = True
    SHAPES = ((14, 20, 4, 100), (16, 24, 4, 100))

    def setup(self):
        batch = 2 if self.smoke else 32
        seeds = range(self.seed * 1000, self.seed * 1000 + batch)
        instances = {}
        digest = hashlib.sha256()
        for shape in self.SHAPES:
            label = "gen:" + ",".join(map(str, shape))
            for s in seeds:
                inst = random_instance(*shape, s)
                instances[(label, s)] = inst
                digest.update(inst.hmetis())
        argv = ["grid"]
        for shape in self.SHAPES:
            argv += ["--gen", ",".join(map(str, shape))]
        for s in seeds:
            argv += ["--seed", str(s)]
        argv += [*_algorithm_args(), "--epsilon", str(EPSILON), "--certify",
                 "--emit-matching", "--output", str(self.output)]
        params = {"shapes": ["n,m,d_max,w_max=" + ",".join(map(str, s)) for s in self.SHAPES],
                  "seeds": [seeds.start, seeds.stop - 1], "instances": len(instances),
                  "sha256": digest.hexdigest()}
        return {"instances": instances, "argv": argv, "params": [params]}


class Kernels(Workload):
    """Library calls on one instance parsed in set-up, streams ordered in set-up."""

    name = "kernels"

    def setup(self):
        hm = self.hm
        inst, path, params = self._write_instance()
        hg = hm.ingest.parse_hmetis(path.read_text())
        streams = {o: hm.ingest.order_stream(hg, hm.StreamOrder(o), self.seed) for o in ORDERS}
        return {"hg": hg, "streams": streams, "alpha": hm.swap_matcher.optimal_alpha(hg.d),
                "instance": inst, "params": params}

    def cells_per_op(self, state) -> int:
        return 1

    def instance_of(self, state, rec) -> Instance:
        return state["instance"]

    def round(self, state):
        hm = self.hm
        hg = state["hg"]
        for order, stream in state["streams"].items():
            for algorithm, rule in (("stack", hm.UpdateRule.GUARANTEE),
                                    ("stack-lenient", hm.UpdateRule.LENIENT)):
                yield (algorithm, order), lambda s=stream, r=rule: self._stack(hg, s, r)
            yield ("swapset", order), lambda s=stream: hm.swap_matcher.run_swapset(
                hg, s, state["alpha"])
            yield ("naive", order), lambda s=stream: hm.baselines.run_naive(hg, s)
        yield ("greedy", "descending"), lambda: hm.baselines.run_greedy(hg)

    def _stack(self, hg, stream, rule):
        sm = self.hm.stack_matcher
        matching, dual, metrics = sm.run_stack_stream(hg, stream, EPSILON, rule)
        return matching, metrics, sm.dual_upper_bound(dual), sm.dual_feasible(hg, dual)

    def records(self, state, key, raw):
        algorithm, order = key
        hg = state["hg"]
        matching, metrics, *certificate = raw
        rec = {
            "instance": "kernels", "algorithm": algorithm, "order": order,
            "seed": self.seed, "n": hg.n, "m": hg.m, "d": hg.d, "total_pins": hg.total_pins,
            "epsilon": EPSILON if algorithm.startswith("stack") else None,
            "resolved_alpha": state["alpha"] if algorithm == "swapset" else None,
            "matching_weight": metrics.matching_weight, "cardinality": metrics.cardinality,
            "pushes": metrics.pushes, "pops": metrics.pops, "swaps": metrics.swaps,
            "vertex_push_max": metrics.vertex_push_max,
            "peak_stack_edges": metrics.peak_stack_edges,
            "peak_stack_pins": metrics.peak_stack_pins,
            "logical_memory": self.hm.cli.logical_memory(algorithm, hg, metrics),
            "runtime_ns": metrics.runtime_ns,
            "dual_upper_bound": certificate[0] if certificate else None,
            "dual_feasible": certificate[1] if certificate else None,
            "oracle_weight": None, "matching_edges": sorted(matching.edge_ids),
            "error": None,
        }
        return [rec], 0


WORKLOADS = {w.name: w for w in (FileGrid, Kernels, CertifySmall)}
