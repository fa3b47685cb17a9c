"""Wall-clock timing normalised to the machine's current speed.

The benchmark was built on a 2-vCPU virtual machine whose speed switches,
for stretches of milliseconds to minutes, between a fast state and one
about 1.5x slower (a fixed 65 us loop took 65 us in some seconds and
100 us in others; CPU time followed wall time, so it is not stolen time).
A run that happens to sit in the slow state for all of its seconds is
slower by that factor, and no choice of fastest copy or median inside the
run can take it out.

So every timed stretch of program work is bracketed by a short reference
chunk of fixed Python work (:func:`calibrate`), and its wall time is
rescaled to the speed the chunk saw around it::

    normalised = wall * REFERENCE_S / (chunk time before + chunk time after) * 2

``REFERENCE_S`` is what the chunk takes on that machine in its fast
state, so normalised times read as fast-state wall times there.  The
program never runs the chunk: a change to the program moves the wall time
and leaves the chunk alone, and shows in full.  The chunk is interpreter
work (dict reads and writes on small ints), which tracked the slowdowns
of the decode steps better than small numpy products, memory streaming or
random gathers did.  It creates no objects the garbage collector tracks,
so running it does not shift the program's collections.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: Seconds :func:`calibrate` reports on the reference machine (Intel Xeon
#: KVM guest, 2 vCPUs, CPython 3) in its fast state.
REFERENCE_S = 28e-6

_TABLE = dict.fromkeys(range(64), 0)


def _chunk() -> None:
    table = _TABLE
    for i in range(400):
        k = i & 63
        table[k] = table[k] + i
    for k in table:
        table[k] = 0


def calibrate() -> float:
    """Seconds of the reference chunk, the faster of two back-to-back
    copies (one interrupt does not read as a slow machine)."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(2):
        t0 = clock()
        _chunk()
        best = min(best, clock() - t0)
    return best


def scale(wall, before, after):
    """``wall`` seconds (scalar or array) rescaled to the reference speed,
    given the chunk times measured just before and just after."""
    return np.asarray(wall) * (2.0 * REFERENCE_S) / (
        np.asarray(before) + np.asarray(after)
    )


def timed(fn, *args, **kwargs):
    """Call ``fn``; return its result, its wall seconds and those seconds
    normalised to the reference speed."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return result, wall, float(scale(wall, before, calibrate()))


class Marks:
    """Cuts one :meth:`ServingEngine.run` into windows of ``every`` engine
    loop iterations, with a reference chunk between two windows.

    Passed as the run's ``profiler`` (it has the ``begin``/``lap``/``step``
    calls the engine makes on one), and forwards those calls to ``inner``,
    a :class:`StepPhaseProfiler`, when given.  The engine is deterministic,
    so window ``k`` holds the same work in every serving of the same
    inputs.  The chunk's own time falls between windows, and before the
    inner profiler's ``begin``, and is counted in neither.
    """

    def __init__(self, every: int, inner=None):
        self.every = every
        self.inner = inner
        self._iterations = 0
        # (chunk start, chunk seconds, chunk end) per mark, as flat arrays:
        # list growth here would add tracked objects to the program's heap.
        self._start = array("d")
        self._chunk = array("d")
        self._end = array("d")

    def mark(self) -> None:
        t0 = time.perf_counter()
        self._chunk.append(calibrate())
        self._start.append(t0)
        self._end.append(time.perf_counter())

    def begin(self) -> None:
        self._iterations += 1
        if self._iterations % self.every == 0:
            self.mark()
        if self.inner is not None:
            self.inner.begin()

    def lap(self, phase: str) -> None:
        if self.inner is not None:
            self.inner.lap(phase)

    def step(self) -> None:
        if self.inner is not None:
            self.inner.step()

    def windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw and normalised seconds of every window between the first
        and the last mark (call :meth:`mark` right before and right after
        the run)."""
        start = np.frombuffer(self._start, dtype=np.float64)
        chunk = np.frombuffer(self._chunk, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        wall = start[1:] - end[:-1]
        return wall, scale(wall, chunk[:-1], chunk[1:])
