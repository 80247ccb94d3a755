"""Probes of the machine's current speed, for scaling op times.

On the 2-core virtual machine this benchmark was built on, the CPU switched
every few seconds between two speeds about 1.5x apart, and CPU time tracked
wall time, so a run's figures depended on how much of it fell in the slow
state.  Each timed op is therefore multiplied by a scale measured next to
it: ``reference / probe time``.  The times then read as seconds on a machine
on which the probe takes its reference time, which is its time in that
machine's fast state.  Neither probe runs ortholab code, so a change to
ortholab cannot move them.

Two probes, because two kinds of work responded differently:

* ``arithmetic_scale``: a fixed batch of Fraction arithmetic.  In a 90 s
  test, three in-process ortholab ops ran 1.43-1.54x slower in the slow
  state; scaled by this probe they read 0.90-0.95x of their fast-state
  values.
* ``startup_scale``: a bare ``python -c pass``.  Over 75 s of cli
  invocations, 5 windows of raw medians ranged 0.91-1.32x; scaled by the
  arithmetic probe 0.82-1.11x; scaled by this probe 0.97-1.04x.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

ARITHMETIC_REFERENCE_S = 2.2e-3
STARTUP_REFERENCE_S = 5.0e-2

_VALUES = tuple(Fraction(k % 7 - 3, k % 5 + 1) for k in range(64))
_ROWS = tuple(
    tuple((_VALUES[(8 * i + j) % 64], _VALUES[(3 * i + j) % 64]) for j in range(8)) for i in range(8)
)


def arithmetic_probe() -> float:
    """Seconds for a fixed batch of complex multiply-adds on Fraction pairs,
    allocating tuples as ortholab's Scalar arithmetic does."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    for i, pivot in enumerate(_ROWS[:2]):
        a, b = pivot[i]
        for row in _ROWS:
            c, d = row[i]
            tuple((x * a - y * b - (x * c + y * d), x * b + y * a) for x, y in row)
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def arithmetic_scale() -> float:
    return ARITHMETIC_REFERENCE_S / arithmetic_probe()


def startup_scale() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return STARTUP_REFERENCE_S / (perf_counter() - t0)
