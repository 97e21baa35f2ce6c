"""A fixed reference job that measures the host's current speed.

The benchmark's host shares its cores with other tenants, and its speed
changes by a third and more from second to second and from minute to
minute.  The benchmark runs a few units of this probe before and after
every timed step, and one unit every ``run.TICK_S`` seconds while the step
runs; a step's time over the probe's mean time per unit stays steady while
both move with the host.

The probe is plain Python and does not touch gemkit, so a change to gemkit
moves the steps and not the probe.  Each unit mixes what gemkit's layers
spend their time on: small-integer loops, tuples, sorting and
dictionaries, and big-integer arithmetic.  Run on its own, it prints its
time per unit:

    python3 perfbench/probe.py
"""

from __future__ import annotations

import random
import time

#: The time of one unit on the host the normalised metrics are expressed
#: for, roughly its time on one 2 GHz Intel Xeon vCPU.  A normalised time is
#: a measured time times ``NOMINAL_UNIT_S`` over the time per unit measured
#: next to it.
NOMINAL_UNIT_S = 0.01


def _unit() -> int:
    total = 0
    for i in range(37_500):
        total += i * i & 0xFF
    rng = random.Random(1)
    rows = [(rng.random(), i, str(i)) for i in range(2_500)]
    rows.sort()
    index = {key: value for value, _, key in rows}
    x = 3
    for i in range(1_000):
        x = (x * 7919 + i) % (1 << 4000)
    return total + len(index) + x % 97


def probe(units: int) -> float:
    """The wall time of ``units`` runs of the reference unit."""
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print("%.4f s per unit" % (min(probe(8) for _ in range(5)) / 8))
