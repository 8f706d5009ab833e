"""Host speed, sampled while the measured work runs.

A shared host's CPU speed swings by half or more within seconds to
minutes, and every wall time swings with it. A :class:`Sampler` times a
short fixed walk over a graph of Python objects (attribute reads, dict
updates, a heap) every :data:`INTERVAL_S` seconds from a ``SIGALRM``
handler, so its samples cover the measured calls themselves, not just
their edges, and records ``(perf_counter, steps per second)`` pairs.
The benchmark reports a time as it would read on a host that walks
:data:`REFERENCE_SPEED` steps per second::

    wall_s * mean speed of the samples during it / REFERENCE_SPEED

The walk is the benchmark's own code, so no change to the program moves
it; it costs about 2.5% of the measured time, on every commit alike.
``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so samples taken in a
child process can be matched to windows timed in its parent.
"""

from __future__ import annotations

import heapq
import random
import signal
from time import perf_counter

#: Walk steps per second on the reference host (about a calm shared
#: 2-core VM).
REFERENCE_SPEED = 3.5e6
#: Seconds between samples, and walk steps per sample (about 13 ms at
#: the reference speed).
INTERVAL_S = 0.5
STEPS = 40_000
#: Objects in the graph (a few MB, below any run's peak RSS) and keys of
#: each object's dict.
NODES = 20_000
KEYS = 4


class _Node:
    __slots__ = ("count", "load", "next")


class Sampler:
    """Periodic host-speed samples in this process."""

    def __init__(self) -> None:
        rng = random.Random(7)
        nodes = [_Node() for _ in range(NODES)]
        for node in nodes:
            node.count = 0
            node.load = dict.fromkeys(range(KEYS), 0)
            node.next = nodes[rng.randrange(NODES)]
        self._node = nodes[0]
        self._heap: list[tuple[int, int]] = []
        self._busy = False
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Time one walk now. The graph is built once, so the walk
        allocates nothing but heap entries."""
        if self._busy:  # a tick that lands inside a sample
            return
        self._busy = True
        node, heap = self._node, self._heap
        start = perf_counter()
        for step in range(STEPS):
            node = node.next
            node.count += 1
            node.load[step % KEYS] += 1
            if step & 3 == 0:
                heapq.heappush(heap, (node.count, step))
                if len(heap) > 1000:
                    heapq.heappop(heap)
        end = perf_counter()
        self._node = node
        self.samples.append(((start + end) / 2, STEPS / (end - start)))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_between(samples: list, start: float, end: float) -> float:
    """Mean speed of the samples from the last one before ``start`` to
    the first one after ``end``."""
    times = [t for t, _ in samples]
    first = max((i for i, t in enumerate(times) if t <= start), default=0)
    last = min(
        (i for i, t in enumerate(times) if t >= end), default=len(times) - 1
    )
    speeds = [speed for _, speed in samples[first:last + 1]]
    return sum(speeds) / len(speeds)


def scaled(wall_s: float, speed: float) -> float:
    """``wall_s`` measured at host ``speed``, at the reference speed."""
    return wall_s * speed / REFERENCE_SPEED
