"""Cycle-accurate flit-level NoC simulation (stands in for the paper's
SystemC simulations, Sections 6.2 and 6.4).

Layers, bottom to top:

* :mod:`~repro.simulation.network` — the wormhole simulator itself;
* :mod:`~repro.simulation.patterns` — the synthetic traffic-pattern
  factory (uniform, hotspot, transpose, …);
* :mod:`~repro.simulation.traffic` — rate-controlled generators
  (synthetic and application-trace) and :func:`build_traffic`;
* :mod:`~repro.simulation.stats` — the warmup/measure/drain protocol and
  :class:`SimReport`;
* :mod:`~repro.simulation.campaign` — engine-parallel sweeps over
  (pattern, rate, seed) with saturation detection, closing the loop
  from selection back to validation.
"""

from repro.simulation.campaign import (
    CampaignConfig,
    CampaignCurve,
    CampaignPoint,
    CampaignResult,
    detect_saturation,
    run_campaign,
)
from repro.simulation.flit import Flit, Packet
from repro.simulation.network import Network, SimConfig
from repro.simulation.patterns import APP_PATTERN, resolve_pattern
from repro.simulation.routes import RouteTable
from repro.simulation.stats import (
    SimReport,
    latency_vs_injection,
    run_measurement,
    switch_label,
)
from repro.simulation.traffic import (
    ADVERSARIAL_PATTERNS,
    PATTERNS,
    SyntheticTraffic,
    TraceTraffic,
    adversarial_pattern,
    build_traffic,
)

__all__ = [
    "Flit",
    "Packet",
    "Network",
    "SimConfig",
    "RouteTable",
    "SimReport",
    "run_measurement",
    "latency_vs_injection",
    "switch_label",
    "SyntheticTraffic",
    "TraceTraffic",
    "build_traffic",
    "PATTERNS",
    "APP_PATTERN",
    "ADVERSARIAL_PATTERNS",
    "adversarial_pattern",
    "resolve_pattern",
    "CampaignConfig",
    "CampaignCurve",
    "CampaignPoint",
    "CampaignResult",
    "detect_saturation",
    "run_campaign",
]
