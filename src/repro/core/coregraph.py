"""Application core graphs (Definition 1 of the paper).

The communication between the cores of the SoC is represented by the *core
graph* ``G(V, E)``: each vertex is a core, each directed edge ``(vi, vj)``
carries a weight ``comm(i, j)`` — the bandwidth, in MB/s, of the
communication from core *i* to core *j*.

Each edge is treated as a flow of a single *commodity* ``dk`` whose value
``vl(dk) = comm(i, j)`` (Equation 2 of the paper); the mapping engine routes
commodities in decreasing order of value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CoreGraphError

#: Default synthetic core area when the designer does not provide one (mm^2).
DEFAULT_CORE_AREA_MM2 = 2.0

#: Default aspect-ratio range for soft (resizable) core blocks.
DEFAULT_ASPECT_MIN = 1.0 / 3.0
DEFAULT_ASPECT_MAX = 3.0


@dataclass
class Core:
    """A processing or storage element of the SoC.

    Area/power values of cores are an *input* to SUNMAP (Section 5 of the
    paper); they are carried here so the floorplanner and reports can use
    them.

    Attributes:
        name: unique human-readable identifier (e.g. ``"idct"``).
        index: position of the core in the graph's vertex list.
        area_mm2: silicon area of the core.
        is_soft: whether the block may be reshaped by the floorplanner
            within ``[aspect_min, aspect_max]``.
        aspect_min: minimum allowed width/height ratio for soft blocks.
        aspect_max: maximum allowed width/height ratio for soft blocks.
        power_mw: internal (non-NoC) power of the core; reported but not
            optimized, since SUNMAP minimizes *network* power.
    """

    name: str
    index: int
    area_mm2: float = DEFAULT_CORE_AREA_MM2
    is_soft: bool = True
    aspect_min: float = DEFAULT_ASPECT_MIN
    aspect_max: float = DEFAULT_ASPECT_MAX
    power_mw: float = 0.0


@dataclass(frozen=True)
class Commodity:
    """A single-commodity flow ``dk`` between two mapped cores.

    Attributes:
        index: identifier ``k`` of the commodity.
        src: source core index.
        dst: destination core index.
        value: bandwidth ``vl(dk)`` in MB/s.
    """

    index: int
    src: int
    dst: int
    value: float


class CoreGraph:
    """Directed application graph of cores and bandwidth demands.

    Typical construction::

        g = CoreGraph("my-app")
        g.add_core("cpu", area_mm2=4.0)
        g.add_core("mem", area_mm2=6.0)
        g.add_flow("cpu", "mem", 240.0)   # MB/s

    The class is deliberately small and explicit; all mapping-time queries
    (commodity list, per-core communication totals) are derived views.
    """

    def __init__(self, name: str):
        self.name = name
        self._cores: list[Core] = []
        self._by_name: dict[str, int] = {}
        self._flows: dict[tuple[int, int], float] = {}
        self._commodities_cache: list[Commodity] | None = None
        self._total_area_cache: float | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_core(
        self,
        name: str,
        area_mm2: float = DEFAULT_CORE_AREA_MM2,
        is_soft: bool = True,
        aspect_min: float = DEFAULT_ASPECT_MIN,
        aspect_max: float = DEFAULT_ASPECT_MAX,
        power_mw: float = 0.0,
    ) -> int:
        """Add a core and return its index.

        Raises:
            CoreGraphError: on duplicate names or non-positive area.
        """
        if name in self._by_name:
            raise CoreGraphError(f"duplicate core name: {name!r}")
        if area_mm2 <= 0:
            raise CoreGraphError(f"core {name!r} must have positive area")
        if aspect_min <= 0 or aspect_max < aspect_min:
            raise CoreGraphError(f"core {name!r} has invalid aspect bounds")
        index = len(self._cores)
        self._cores.append(
            Core(
                name=name,
                index=index,
                area_mm2=area_mm2,
                is_soft=is_soft,
                aspect_min=aspect_min,
                aspect_max=aspect_max,
                power_mw=power_mw,
            )
        )
        self._by_name[name] = index
        self._total_area_cache = None
        return index

    def add_flow(self, src: int | str, dst: int | str, bandwidth: float) -> None:
        """Add (or accumulate onto) a directed flow of ``bandwidth`` MB/s."""
        si = self.core_index(src)
        di = self.core_index(dst)
        if si == di:
            raise CoreGraphError("self-flows are not allowed in a core graph")
        if bandwidth <= 0:
            raise CoreGraphError("flow bandwidth must be positive")
        self._flows[(si, di)] = self._flows.get((si, di), 0.0) + bandwidth
        self._commodities_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self._cores)

    @property
    def cores(self) -> list[Core]:
        return list(self._cores)

    def core(self, key: int | str) -> Core:
        return self._cores[self.core_index(key)]

    def core_index(self, key: int | str) -> int:
        """Resolve a core name or index to an index."""
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise CoreGraphError(f"unknown core: {key!r}") from None
        if not 0 <= key < len(self._cores):
            raise CoreGraphError(f"core index out of range: {key}")
        return key

    def comm(self, src: int | str, dst: int | str) -> float:
        """Bandwidth from ``src`` to ``dst`` (0.0 if no flow)."""
        return self._flows.get((self.core_index(src), self.core_index(dst)), 0.0)

    @property
    def num_flows(self) -> int:
        return len(self._flows)

    def flows(self) -> dict[tuple[int, int], float]:
        """All flows as ``{(src_index, dst_index): MB/s}`` (a copy)."""
        return dict(self._flows)

    def commodities(self) -> list[Commodity]:
        """Commodities sorted by decreasing value (step 2 of Figure 5).

        Ties are broken by (src, dst) so the order is deterministic.
        """
        if self._commodities_cache is None:
            items = sorted(
                self._flows.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
            )
            self._commodities_cache = [
                Commodity(index=k, src=s, dst=d, value=v)
                for k, ((s, d), v) in enumerate(items)
            ]
        return list(self._commodities_cache)

    def total_bandwidth(self) -> float:
        """Sum of all commodity values in MB/s."""
        return sum(self._flows.values())

    def core_traffic(self, key: int | str) -> float:
        """Total bandwidth entering plus leaving one core (MB/s)."""
        i = self.core_index(key)
        return sum(
            v for (s, d), v in self._flows.items() if s == i or d == i
        )

    def comm_between(self, a: int, b: int) -> float:
        """Bandwidth between two cores in either direction."""
        return self.comm(a, b) + self.comm(b, a)

    def total_core_area(self) -> float:
        if self._total_area_cache is None:
            self._total_area_cache = sum(c.area_mm2 for c in self._cores)
        return self._total_area_cache

    def validate(self) -> None:
        """Check internal consistency; raises :class:`CoreGraphError`."""
        if not self._cores:
            raise CoreGraphError("core graph has no cores")
        for (s, d), v in self._flows.items():
            if not (0 <= s < self.num_cores and 0 <= d < self.num_cores):
                raise CoreGraphError(f"flow ({s},{d}) references unknown core")
            if v <= 0:
                raise CoreGraphError(f"flow ({s},{d}) has non-positive value")

    def __repr__(self) -> str:
        return (
            f"CoreGraph({self.name!r}, cores={self.num_cores}, "
            f"flows={self.num_flows}, total={self.total_bandwidth():.1f} MB/s)"
        )
