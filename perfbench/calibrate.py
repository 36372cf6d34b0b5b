"""Host-speed calibration for the end-to-end time metrics.

On a shared host the speed of one CPU drifts by up to ~1.7x, in
phases up to minutes long, as other tenants load the machine, and a
whole run can fall inside a slow phase.  So the analysing process times a
fixed piece of pure-Python work -- :func:`work`, which never calls the
program -- between the measured units, and each unit's time is scaled
by ``NOMINAL_S`` over the mean of the two samples that bracket it.
The scaled time is the time the unit would take on a host where
:func:`work` takes ``NOMINAL_S``.  A change to the program moves the
scaled times exactly as it moves the measured ones; a change in host
speed moves both the unit and the samples beside it, and mostly cancels.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Tuple

#: about what one sample takes on an uncontended vCPU of the 2-vCPU
#: Intel Xeon host the benchmark was built on; scaled times are seconds
#: on a host where a sample takes this long
NOMINAL_S = 0.020
#: units analysed between two samples add up to at least this long, so
#: calibration costs at most ~10% of a pass
SEGMENT_S = 0.2

#: the work walks a graph of this many nodes, this many times over; a
#: small graph keeps the sample from raising the process's peak memory
_NODES = 1000
_ROUNDS = 12


class _Node:
    __slots__ = ("key", "succ", "mark")

    def __init__(self, key: int) -> None:
        self.key = key
        self.succ: List[int] = []
        self.mark = 0


def work() -> int:
    """The fixed work: the interpreter operations the analysis spends
    its time in -- a graph of small objects walked with a stack and a
    set, dict and list churn, string keys, a sort and big-integer bit
    sets.  It makes no reference cycles, so it leaves no garbage."""
    total = 0
    for _ in range(_ROUNDS):
        nodes = [_Node(i) for i in range(_NODES)]
        for node in nodes:
            i = node.key
            node.succ.extend(j % _NODES for j in (i * 7 + 1, i * 13 + 5, i // 2))
        seen = set()
        stack = [0]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            node = nodes[key]
            node.mark += 1
            stack.extend(node.succ)
        words = sorted((f"k{i % 97}:{i}" for i in range(_NODES)), key=len)
        index: Dict[str, List[str]] = {}
        for word in words:
            index.setdefault(word[:3], []).append(word)
        bits = 0
        for i in range(0, _NODES, 3):
            bits |= 1 << i
            bits &= ~(1 << (i // 2))
        total += len(seen) + len(index) + bits.bit_count()
    return total


def sample() -> float:
    """Seconds one run of :func:`work` takes now.  The cyclic garbage
    collector is off meanwhile: a collection's cost depends on how much
    the process holds, not on the host's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def cpu_pair() -> Tuple[int, int]:
    """The CPU the analysis runs on and the one the serve-fleet router
    feeds from: the lowest and the highest this process may use (one
    and the same when it may use only one)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int) -> None:
    """Run the calling thread, and the processes and threads it starts
    from now on, on ``cpu`` only.  The host slows its CPUs one by one, so
    a sample speaks only for the CPU it ran on."""
    os.sched_setaffinity(0, {cpu})


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between samples ``before`` and ``after``,
    scaled to the nominal host."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
