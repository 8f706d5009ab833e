"""MPEG4 decoder core graph (Figure 7(a); [13]).

The canonical 12-core MPEG4 decoder graph with the shared SDRAM hub. Edge
bandwidths match the paper's figure annotations {910, 670, 600, 600, 500,
250, 190, 173, 40, 40, 32, 0.5, 0.5}. The paper's prose says "14 cores",
but its figure and the companion DATE'04 paper both draw this 12-core
graph, and only the figure gives the flows and bandwidths the
experiments need, so the figure's graph is the one reproduced.

The graph's defining property for the experiments: four flows exceed the
500 MB/s link capacity (910/670/600/600), so minimum-path routing is
infeasible on *every* topology and the path-diversity-free butterfly has
no feasible mapping at all (Section 6.1).
"""

from __future__ import annotations

from repro.core.coregraph import CoreGraph

#: (name, area mm^2) — synthetic areas, shared SDRAM largest.
MPEG4_CORES = (
    ("vu", 4.0),
    ("au", 3.5),
    ("med_cpu", 6.0),
    ("sdram", 13.0),
    ("sram1", 6.0),
    ("sram2", 6.0),
    ("rast", 3.0),
    ("adsp", 4.0),
    ("up_samp", 2.5),
    ("bab", 3.0),
    ("risc", 4.5),
    ("idct_etc", 4.0),
)

#: (src, dst, MB/s) — SDRAM-centric traffic.
MPEG4_FLOWS = (
    ("sdram", "up_samp", 910.0),
    ("rast", "sdram", 670.0),
    ("med_cpu", "sdram", 600.0),
    ("idct_etc", "sram1", 600.0),
    ("up_samp", "rast", 500.0),
    ("risc", "sram2", 250.0),
    ("vu", "sdram", 190.0),
    ("sram2", "bab", 173.0),
    ("adsp", "sram2", 40.0),
    ("sdram", "med_cpu", 40.0),
    ("bab", "risc", 32.0),
    ("au", "sdram", 0.5),
    ("sdram", "au", 0.5),
)


def mpeg4() -> CoreGraph:
    """The 12-core MPEG4 decoder benchmark."""
    graph = CoreGraph("mpeg4")
    for name, area in MPEG4_CORES:
        graph.add_core(name, area_mm2=area)
    for src, dst, bandwidth in MPEG4_FLOWS:
        graph.add_flow(src, dst, bandwidth)
    graph.validate()
    return graph
