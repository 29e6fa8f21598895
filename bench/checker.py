"""Output checks that do not trust the code under test.

Every check compares a record against the benchmark's own copy of the
instance (see ``instances.py``) or against a bound recomputed here from the
paper's formulas.  A violated check makes the run report ``correct: false``.
"""

from __future__ import annotations

import math

# Relative slack for comparing float sums computed in different orders.
REL_TOL = 1e-9


def guarantee(algorithm: str, d: int, epsilon: float | None) -> float | None:
    """The worst-case fraction of the optimum an algorithm keeps at rank ``d``.

    ``stack``: ``1 / (d (1 + eps))``.  ``swapset`` at the automatic
    threshold ``alpha = sqrt((d - 1) / d)``:
    ``1 / ((1 + alpha) ((d - 1) / alpha + d))``, undefined at ``d = 1``
    where that threshold is 0.  ``greedy``: ``1 / d``.  None elsewhere.
    """
    if algorithm == "stack":
        return 1.0 / (d * (1.0 + epsilon))
    if algorithm == "swapset" and d > 1:
        alpha = auto_alpha(d)
        return 1.0 / ((1.0 + alpha) * ((d - 1) / alpha + d))
    if algorithm == "greedy":
        return 1.0 / d
    return None


def auto_alpha(d: int) -> float:
    return math.sqrt((d - 1) / d)


class Checker:
    """Collects violations.  Only the first few messages are kept."""

    KEEP = 20

    def __init__(self) -> None:
        self.checks = 0
        self.failures = 0
        self.messages: list[str] = []

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def expect(self, condition: bool, message: str) -> bool:
        self.checks += 1
        if not condition:
            self.failures += 1
            if len(self.messages) < self.KEEP:
                self.messages.append(message)
        return condition

    def record(self, rec: dict, inst, epsilon: float, with_oracle: bool) -> None:
        """Check one record against the benchmark's copy of its instance."""
        label = f"{rec['algorithm']}/{rec['order']}/seed {rec['seed']}"
        if not self.expect(rec["error"] is None, f"{label}: error {rec['error']}"):
            return
        for key in ("n", "m", "d", "total_pins"):
            self.expect(rec[key] == getattr(inst, key),
                        f"{label}: {key} {rec[key]} != {getattr(inst, key)}")
        ids = rec["matching_edges"]
        self.matching(inst, ids, rec["matching_weight"], label)
        self.expect(rec["cardinality"] == len(ids), f"{label}: cardinality mismatch")
        algorithm = rec["algorithm"]
        if algorithm in ("stack", "stack-lenient"):
            self.expect(rec["epsilon"] == epsilon, f"{label}: epsilon {rec['epsilon']}")
            self.expect(rec["pushes"] == rec["pops"], f"{label}: pushes != pops")
        if algorithm == "stack":
            self.expect(rec["dual_feasible"] is True, f"{label}: dual infeasible")
            bound = rec["dual_upper_bound"]
            self.expect(bound is not None
                        and rec["matching_weight"] <= bound * (1 + REL_TOL),
                        f"{label}: weight {rec['matching_weight']} above dual bound {bound}")
        if algorithm == "swapset" and inst.d > 1:
            self.expect(rec["resolved_alpha"] == auto_alpha(inst.d),
                        f"{label}: alpha {rec['resolved_alpha']} is not sqrt((d-1)/d)")
        if not with_oracle:
            return
        opt = rec["oracle_weight"]
        if not self.expect(opt is not None, f"{label}: no oracle optimum"):
            return
        self.expect(rec["matching_weight"] <= opt * (1 + REL_TOL),
                    f"{label}: weight {rec['matching_weight']} above optimum {opt}")
        ratio = guarantee(algorithm, inst.d, epsilon)
        if ratio is not None:
            self.expect(rec["matching_weight"] >= ratio * opt * (1 - REL_TOL),
                        f"{label}: weight {rec['matching_weight']} below "
                        f"{ratio:.6f} x optimum {opt}")

    def matching(self, inst, edge_ids: list[int], weight: float, label: str) -> None:
        """Vertex-disjoint edges of ``inst`` whose weights fsum to ``weight``."""
        problem = _overlap(inst, edge_ids)
        if not self.expect(problem is None, f"{label}: not a matching ({problem})"):
            return
        expected = math.fsum(float(inst.weights[e]) for e in edge_ids)
        self.expect(math.isclose(weight, expected, rel_tol=REL_TOL, abs_tol=0.0),
                    f"{label}: weight {weight!r} does not recompute ({expected!r})")


def _overlap(inst, edge_ids: list[int]) -> str | None:
    """Why ``edge_ids`` is not a set of vertex-disjoint edges, or None."""
    used = bytearray(inst.n)
    for e in edge_ids:
        if not 0 <= e < inst.m:
            return f"unknown edge {e}"
        for v in inst.edge(e):
            if used[v]:
                return f"vertex {v} covered twice"
            used[v] = 1
    return None
