"""Synthetic traffic-pattern factory.

Each pattern is a callable ``(src_index, n_nodes, rng) -> dst_index``
mapping a source to the destination it sends to this cycle. The classic
permutations (bit complement/reverse, transpose, tornado, shuffle) are
deterministic in ``src_index``; ``uniform`` and ``hotspot`` draw from the
per-generator ``rng``, so they stay reproducible given the traffic seed.

The registry (:data:`PATTERNS`) is the single naming authority: the CLI,
the :class:`~repro.simulation.traffic.SyntheticTraffic` generator and the
:mod:`~repro.simulation.campaign` sweeps all resolve pattern names here.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from random import Random

from repro.errors import SimulationError

PatternFn = Callable[[int, int, Random], int]

#: Fraction of hotspot traffic aimed at the hot node (the rest is uniform).
HOTSPOT_FRACTION = 0.3


def _bits(n: int) -> int:
    return max(1, (n - 1).bit_length())


def uniform(i: int, n: int, rng: Random) -> int:
    """Uniformly random destination, never the source itself."""
    dst = rng.randrange(n - 1)
    return dst if dst < i else dst + 1


def bit_complement(i: int, n: int, rng: Random) -> int:
    """Destination is the bitwise complement of the source index."""
    if n & (n - 1) == 0:
        return (~i) & (n - 1)
    return (n - 1) - i


def bit_reverse(i: int, n: int, rng: Random) -> int:
    """Destination is the source index with its bits reversed."""
    b = _bits(n)
    out = 0
    for k in range(b):
        if i & (1 << k):
            out |= 1 << (b - 1 - k)
    return out % n


def transpose(i: int, n: int, rng: Random) -> int:
    """Matrix-transpose permutation (row/column swap on a square grid)."""
    k = int(math.isqrt(n))
    if k * k == n:
        return (i % k) * k + i // k
    b = _bits(n)
    half = b // 2
    out = ((i << half) | (i >> (b - half))) & ((1 << b) - 1)
    return out % n


def tornado(i: int, n: int, rng: Random) -> int:
    """Each node sends almost halfway around the node ring."""
    return (i + max(1, math.ceil(n / 2) - 1)) % n


def neighbor(i: int, n: int, rng: Random) -> int:
    """Each node sends to its index successor (best case for rings)."""
    return (i + 1) % n


def shuffle(i: int, n: int, rng: Random) -> int:
    """Perfect-shuffle permutation (left bit rotation)."""
    b = _bits(n)
    out = ((i << 1) | (i >> (b - 1))) & ((1 << b) - 1)
    return out % n


def hotspot(i: int, n: int, rng: Random) -> int:
    """Uniform traffic with a fraction concentrated on one hot node.

    :data:`HOTSPOT_FRACTION` of the packets target node ``n // 2`` (a
    central slot on most layouts) — the memory-controller-style
    congestion scenario; the rest behave like :func:`uniform`.
    """
    hot = n // 2
    if i != hot and rng.random() < HOTSPOT_FRACTION:
        return hot
    return uniform(i, n, rng)


PATTERNS: dict[str, PatternFn] = {
    "uniform": uniform,
    "bit_complement": bit_complement,
    "bit_reverse": bit_reverse,
    "transpose": transpose,
    "tornado": tornado,
    "neighbor": neighbor,
    "shuffle": shuffle,
    "hotspot": hotspot,
}

#: Name of the trace-driven "pattern" understood by the traffic factory
#: and the campaign runner (not a synthetic permutation, hence not in
#: :data:`PATTERNS`).
APP_PATTERN = "app"

#: Empirically worst standard permutation per topology family (measured
#: at 0.35 flits/cycle/node on the 16-node instances) — the paper's
#: "adversarial traffic pattern for each topology" (Section 6.2). The
#: Clos has no adversarial permutation thanks to its path diversity.
ADVERSARIAL_PATTERNS = {
    "mesh": "bit_reverse",
    "torus": "bit_reverse",
    "hypercube": "transpose",
    "clos": "tornado",
    "butterfly": "bit_complement",
}


def resolve_pattern(pattern: str | PatternFn) -> PatternFn:
    """Look a pattern up by name (callables pass through unchanged).

    Raises:
        SimulationError: for names not in :data:`PATTERNS`.
    """
    if callable(pattern):
        return pattern
    try:
        return PATTERNS[pattern]
    except KeyError:
        raise SimulationError(
            f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}"
        ) from None


def adversarial_pattern(topology) -> str:
    """The stress pattern for a topology instance (default transpose)."""
    for prefix, pattern in ADVERSARIAL_PATTERNS.items():
        if topology.name.startswith(prefix):
            return pattern
    return "transpose"
