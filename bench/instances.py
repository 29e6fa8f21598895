"""Seeded benchmark instances built with the standard library only.

The benchmark keeps its own copy of every instance, so the output checker
never trusts the parser or generator under test.  An instance is stored as
flat arrays (edge ``e`` covers ``pins[offsets[e]:offsets[e + 1]]``, 0-based)
to keep the benchmark's own share of the process's memory small.
"""

from __future__ import annotations

import hashlib
import random
from array import array


class Instance:
    """A weighted hypergraph over vertices ``0..n-1`` with integer weights."""

    def __init__(self, n: int, d_max: int, w_max: int, seed: int) -> None:
        self.n = n
        self.d_max = d_max
        self.w_max = w_max
        self.seed = seed
        self.d = 0  # largest edge size
        self.offsets = array("q", [0])
        self.pins = array("q")
        self.weights = array("q")

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def total_pins(self) -> int:
        return len(self.pins)

    def edge(self, e: int) -> array:
        return self.pins[self.offsets[e] : self.offsets[e + 1]]

    def hmetis(self) -> bytes:
        """The instance as hMetis fmt-1 text: ``m n 1``, then ``w v1 .. vk``, 1-based."""
        lines = [f"{self.m} {self.n} 1"]
        pins = self.pins
        offsets = self.offsets
        for e in range(self.m):
            verts = " ".join(str(v + 1) for v in pins[offsets[e] : offsets[e + 1]])
            lines.append(f"{self.weights[e]} {verts}")
        return ("\n".join(lines) + "\n").encode("ascii")

    def params(self) -> dict:
        return {"n": self.n, "m": self.m, "d_max": self.d_max, "w_max": self.w_max,
                "seed": self.seed, "d": self.d, "total_pins": self.total_pins}


def random_instance(n: int, m: int, d_max: int, w_max: int, seed: int) -> Instance:
    """``m`` edges of size uniform in ``1..d_max`` over distinct vertices.

    Weights are integers uniform in ``1..w_max``.  The draws follow the
    order documented for ``hypermatch ... --gen n,m,d_max,w_max --seed s``
    (per edge: size, then the vertex sample, then the weight, all from
    ``random.Random(seed)``), so the same arguments give the edge sets that
    command builds.  Vertices stay in the order drawn, which is the order
    the hMetis writer puts them on the line.
    """
    rng = random.Random(seed)
    inst = Instance(n, d_max, w_max, seed)
    population = range(n)
    for _ in range(m):
        size = rng.randint(1, d_max)
        inst.d = max(inst.d, size)
        inst.pins.extend(rng.sample(population, size))
        inst.offsets.append(len(inst.pins))
        inst.weights.append(rng.randint(1, w_max))
    return inst


def describe(text: bytes) -> dict:
    """Byte size and sha256 of an instance's hMetis text."""
    return {"bytes": len(text), "sha256": hashlib.sha256(text).hexdigest()}
