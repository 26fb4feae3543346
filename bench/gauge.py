"""Host-speed gauge: a fixed reference kernel timed between the benchmark's calls.

The benchmark host shares its cores with other machines, and their load
changes its speed by up to 1.5x in phases of seconds to minutes; a second
host-wide phase can shift every raw time of a run.  The gauge times a fixed
kernel of interpreter and small-table numpy work, the mix the package itself
runs, at least every INTERVAL_S between calls and around every timed step.
A time measured between two samples is scaled by REFERENCE_S over the mean
of their kernel times, so it reads as seconds on a host where the kernel
takes REFERENCE_S: a slow phase lengthens call and kernel alike and cancels.
The kernel only tracks the speed of the process that runs it, so a child
interpreter times the kernel itself (see ``IMPORT_PROBE`` in ``run.py``).

REFERENCE_S is a fixed constant, about the kernel's time on a quiet 2-vCPU
host with Python 3.11.7 and numpy 2.4.6 (the one the workloads were sized
on); any fixed value keeps runs comparable.  A change to the package does
not move it, since the kernel calls nothing in ``fo2level``.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.003
INTERVAL_S = 0.1

_TABLE = np.random.default_rng(1).integers(0, 60, (60, 60))


def kernel() -> None:
    """About 3 ms of fixed work: tuple and dict churn, then small-table indexing."""
    seen: dict[tuple, int] = {}
    t = tuple(range(8))
    for i in range(3000):
        t = t[1:] + t[:1]
        seen[t] = seen.get(t, 0) + i
    tab = _TABLE
    for _ in range(40):
        tab[tab[:, 3], :].sum()
        tab[np.ix_(tab[0], tab[1])]
        (tab == tab.T).all()


class Gauge:
    """Kernel samples of one run, as (when it ended, how long it took)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> int:
        """Time the kernel once; the index of the new sample."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][0] >= INTERVAL_S

    def scale(self, j: int) -> float:
        """Factor from seconds measured between samples j and j+1 to reference seconds."""
        return REFERENCE_S / ((self.samples[j][1] + self.samples[j + 1][1]) / 2)
