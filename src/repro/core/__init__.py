"""SUNMAP's primary contribution: mapping, evaluation, selection."""

from repro.core.constraints import (
    DEFAULT_LINK_CAPACITY_MB_S,
    Constraints,
    area_feasible,
    bandwidth_feasible,
    bandwidth_overflow,
    qos_feasible,
)
from repro.core.coregraph import Commodity, Core, CoreGraph
from repro.core.evaluate import (
    MappingEvaluation,
    evaluate_mapping,
    nominal_pitch_mm,
)
from repro.core.exploration import (
    ParetoPoint,
    area_power_exploration,
    minimum_bandwidth_per_routing,
    pareto_front,
)
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import MapperConfig, map_onto
from repro.core.memo import swap_assignment
from repro.core.objectives import (
    AreaObjective,
    BandwidthObjective,
    HopDelayObjective,
    Objective,
    PowerObjective,
    WeightedObjective,
    make_objective,
)
from repro.core.selector import SelectionResult, select_topology

__all__ = [
    "CoreGraph",
    "Core",
    "Commodity",
    "Constraints",
    "DEFAULT_LINK_CAPACITY_MB_S",
    "bandwidth_feasible",
    "bandwidth_overflow",
    "qos_feasible",
    "area_feasible",
    "MappingEvaluation",
    "evaluate_mapping",
    "nominal_pitch_mm",
    "initial_greedy_mapping",
    "MapperConfig",
    "map_onto",
    "swap_assignment",
    "Objective",
    "HopDelayObjective",
    "AreaObjective",
    "PowerObjective",
    "BandwidthObjective",
    "WeightedObjective",
    "make_objective",
    "SelectionResult",
    "select_topology",
    "ParetoPoint",
    "pareto_front",
    "area_power_exploration",
    "minimum_bandwidth_per_routing",
]
