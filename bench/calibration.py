"""The host's speed, measured with a fixed routine run around and during operations.

The benchmark shares a few cores of a host whose speed swings by up to
two times within seconds, because of other load on the same machine; a
pure-Python loop slows with it as much as the program does.  So the time
metrics are reported at a reference speed: an operation's time is
multiplied by ``REFERENCE_S`` over the mean time of :func:`calibrate`
just before, during (every ``Sampler.PERIOD_S``) and just after it.
The routine is the benchmark's own (dict inserts, tuple allocation and a
sort, like the program's inner loops) and never calls the program, so a
slower program still reads slower, while a slower host does not.
"""

from __future__ import annotations

import gc
import random
import signal
import time

# One calibration takes this long at the reference speed; it is about the
# median on a 2-core x86-64 host under light load.
REFERENCE_S = 0.010
_PASSES = 16
_VALUES = [random.Random(0).random() for _ in range(4_000)]  # small: it adds to peak RSS


def calibrate() -> float:
    """Seconds the fixed routine takes, with collection off.

    Collection is off so that the program's heap, which the collector
    would walk, does not slow the routine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_PASSES):
            table = {}
            for i, x in enumerate(_VALUES):
                table[i] = (x, i * 3)
            sorted(table.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Calibrates every ``PERIOD_S`` seconds while the ``with`` block runs.

    A one-shot ``SIGALRM`` timer, re-armed after each sample so samples
    never nest, runs :func:`calibrate` in the main thread between the
    program's bytecodes.  ``samples`` holds their times and ``paused_ns``
    the wall time they took, which the caller takes off the block's.
    A signal still pending when the block ends takes no sample and does
    not re-arm the timer, which would fire after the handler is restored.
    """

    PERIOD_S = 0.5

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused_ns = 0
        self._active = False

    def __enter__(self) -> "Sampler":
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if not self._active:
            return
        begin = time.perf_counter_ns()
        self.samples.append(calibrate())
        self.paused_ns += time.perf_counter_ns() - begin
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)
