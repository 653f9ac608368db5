"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the same repetition can take 1.5x longer from one spell
to the next, and a spell can outlast a whole run, so medians alone do
not settle. The benchmark therefore runs this loop after every
repetition and rescales the run's times to a host on which the loop
takes :data:`NOMINAL_S`. The loop resembles the simulator's own work (many
generator coroutines resumed off a heap, small dicts over a working set
of ~100k objects, cyclic GC), uses the standard library only, and must
never change: every recorded baseline is expressed in its units.

The loop runs in a fresh child interpreter (``python3 -I calibrate.py``)
with fixed GC thresholds, never in the benchmark's own process: there it
would share the program's heap and GC settings, so a change that makes
GC cheaper process-wide would speed up the reference too and hide part
of its own gain. Only the loop itself is timed, not interpreter start-up.
"""

from __future__ import annotations

import gc
import heapq
import os
import subprocess
import sys
from time import perf_counter

__all__ = ["NOMINAL_S", "reference_seconds"]

#: the loop's time on the host the rescaled figures are expressed for
NOMINAL_S = 0.2

_CELLS = 100_000
_PROCS = 2048
_STEPS = 40_000
#: CPython's default GC thresholds, fixed for the loop
_GC_THRESHOLDS = (700, 10, 10)


def reference_seconds() -> float:
    """Host seconds a fresh interpreter takes for the fixed reference work."""
    proc = subprocess.run([sys.executable, "-I", os.path.abspath(__file__)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def _loop() -> float:
    gc.set_threshold(*_GC_THRESHOLDS)
    t0 = perf_counter()
    cells = [{"id": i, "v": [i, i * 2.0], "s": str(i)} for i in range(_CELLS)]

    def proc(i):
        while True:
            msg = yield ((i * 7919) % 13) * 0.001 + 0.0001
            cell = cells[(msg["seq"] * 2654435761) % _CELLS]
            cell["v"] = [msg["t"], cell["id"]]

    heap = []
    seq = 0
    for i in range(_PROCS):
        gen = proc(i)
        next(gen)
        heapq.heappush(heap, (0.0, seq, gen))
        seq += 1
    for _ in range(_STEPS):
        t, _seq, gen = heapq.heappop(heap)
        delay = gen.send({"t": t, "seq": seq})
        heapq.heappush(heap, (t + delay, seq, gen))
        seq += 1
    for _t, _seq, gen in heap:
        gen.close()
    return perf_counter() - t0


if __name__ == "__main__":
    print(repr(_loop()))
