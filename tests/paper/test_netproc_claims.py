"""Network-processor claims: Figure 8(b)-(d) (Section 6.2).

"The clos clearly outperforms other topologies" on latency, while its
area and power are "only slightly higher than the butterfly topology".
"""

import math

import pytest

OTHERS = ("mesh", "torus", "hypercube", "butterfly")
DIRECT = ("mesh", "torus", "hypercube")


def latency(curves, name, rate_idx):
    """Average latency at one rate; a saturated point counts as inf."""
    report = curves[name][1][rate_idx]
    return math.inf if report.saturated() else report.avg_latency


#: Figure 8(b): latency vs injection rate (0.1-0.5 flits/cycle), each
#: topology under its adversarial traffic pattern.
FIG8B = {
    "clos-unsaturated-at-0.4-and-0.5": lambda c: all(
        latency(c, "clos", i) < math.inf for i in (3, 4)
    ),
    "clos-fastest-at-0.4-and-0.5": lambda c: all(
        latency(c, "clos", i) <= latency(c, n, i) + 1e-9
        for i in (3, 4) for n in OTHERS
    ),
    "latency-grows-with-rate": lambda c: all(
        reports[-1].avg_latency >= reports[0].avg_latency
        for _, reports in c.values()
    ),
    # No path diversity: the butterfly collapses within the sweep.
    "butterfly-collapses": lambda c: (
        c["butterfly"][1][-1].saturated()
        or latency(c, "butterfly", 4) > 10 * latency(c, "clos", 4)
    ),
}


@pytest.mark.parametrize("claim", FIG8B)
def test_fig8b_latency_curves(claim, netproc_latency):
    assert FIG8B[claim](netproc_latency), {
        name: (pattern, [round(r.avg_latency, 1) for r in reports])
        for name, (pattern, reports) in netproc_latency.items()
    }


#: Figures 8(c)/(d): area and power of the relaxed-bandwidth mappings.
FIG8CD = {
    "all-five-mapped": lambda e: len(e) == 5,
    "butterfly-least-area": lambda e: e["butterfly"].area_mm2
    == min(ev.area_mm2 for ev in e.values()),
    "butterfly-least-power": lambda e: e["butterfly"].power_mw
    == min(ev.power_mw for ev in e.values()),
    "clos-area-within-25pct-of-butterfly": lambda e: (
        e["clos"].area_mm2 <= 1.25 * e["butterfly"].area_mm2
    ),
    "clos-power-within-50pct-of-butterfly": lambda e: (
        e["clos"].power_mw <= 1.5 * e["butterfly"].power_mw
    ),
    # 12 4x4 switches versus 16 switches of up to 5x5.
    "clos-fewer-switches-than-direct": lambda e: all(
        e["clos"].resources.num_switches < e[n].resources.num_switches
        for n in DIRECT
    ),
    "clos-less-area-than-direct": lambda e: all(
        e["clos"].area_mm2 < e[n].area_mm2 for n in DIRECT
    ),
}


@pytest.mark.parametrize("claim", FIG8CD)
def test_fig8cd_area_power(claim, netproc_relaxed, netproc_evs):
    assert FIG8CD[claim](netproc_evs), netproc_relaxed.format_table()
