"""A fixed reference kernel that measures how fast the machine is running.

    python3 perfbench/reference.py      # one run in a fresh interpreter

The kernel does not use gsurf.  It has two halves of about equal time:
an int64 product of a ROWSx8 block with an 8x8 matrix, cast to int16, with
its 16-byte rows hashed into a set, which moves memory through numpy and
hashes bytes in the interpreter as the closures do; and a loop of Python
integer arithmetic, as the enumeration and the obstruction scan do.  A
slower machine slows the two unequally, and the workloads in between.
Integer products do not go through BLAS, so the kernel starts no threads.

A ``Reference`` runs the kernel between timed ops, in the benchmark's own
process, or as a fresh interpreter that imports numpy and runs it once
(``child=True``), to time against ops that start processes.  Each op run
is then scaled by the nominal time over the median of the kernel runs
around it: it reads as time on a machine where the kernel takes the
nominal time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROWS = 20000
LOOP = 30000
# About the kernel's fastest run on the 2-vCPU VM the benchmark was written
# on, in process and as a fresh interpreter; they only fix the unit.
NOMINAL_S = 7e-3
CHILD_NOMINAL_S = 0.135
WINDOW = 3              # kernel runs on each side of an op that set its scale


def kernel(np) -> int:
    rng = np.random.default_rng(0)
    a = rng.integers(-2, 3, size=(ROWS, 8))
    m = rng.integers(-1, 2, size=(8, 8))
    return _run(np, a, m)


def _run(np, a, m) -> int:
    raw = (a @ m).astype(np.int16).tobytes()
    seen = set()
    add = seen.add
    for pos in range(0, 16 * ROWS, 16):
        add(raw[pos:pos + 16])
    total = 0
    for x in range(-LOOP, 0):
        num = -(x * x * 3)
        den = 2 * x - 1
        if num % den == 0:
            total += num // den
    return len(seen) + total


class Reference:
    """Runs of the kernel, spaced by the op time between them."""

    def __init__(self, np, every_s: float, child: bool = False):
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.integers(-2, 3, size=(ROWS, 8))
        self._m = rng.integers(-1, 2, size=(8, 8))
        self.result = _run(np, self._a, self._m)
        self.every_s = every_s
        self.child = child
        self.nominal_s = CHILD_NOMINAL_S if child else NOMINAL_S
        self.samples: List[float] = []
        self._owed = 0.0
        self._scales: Dict[tuple, float] = {}

    def _run_once(self) -> int:
        if not self.child:
            return _run(self._np, self._a, self._m)
        out = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                             stdout=subprocess.PIPE, check=True, timeout=60)
        return int(out.stdout)

    def sample(self) -> None:
        t0 = time.perf_counter()
        result = self._run_once()
        self.samples.append(time.perf_counter() - t0)
        if result != self.result:
            raise RuntimeError("reference kernel gave a different result")

    @property
    def pos(self) -> int:
        """Where the next kernel run goes; an op run records it."""
        return len(self.samples)

    def after_op(self, elapsed: float) -> None:
        self._owed += elapsed
        if self._owed >= self.every_s:
            self._owed = 0.0
            self.sample()

    def scale_at(self, pos: int, window: int = WINDOW) -> float:
        """The nominal time over the median of the ``2 * window`` kernel
        runs nearest to ``pos``; call it once the run is over."""
        key = (pos, window)
        if key not in self._scales:
            while len(self.samples) < 2 * window:
                self.sample()
            lo = min(max(0, pos - window), len(self.samples) - 2 * window)
            near = self.samples[lo:lo + 2 * window]
            self._scales[key] = self.nominal_s / statistics.median(near)
        return self._scales[key]

    def median_s(self) -> Optional[float]:
        return statistics.median(self.samples) if self.samples else None


if __name__ == "__main__":
    import numpy

    print(kernel(numpy))
