"""DSP-filter claims: Figures 10(b), 10(c) and 11 (Section 6.4).

The butterfly is selected, pruned to four 3x3 switches (Figure 10(b)'s
floorplan) and emitted as SystemC (Figure 11 simulates that output); on
the mapped trace it has the least latency.
"""

import pytest

FIG10B_11 = {
    "butterfly-selected": lambda r: r.best_topology_name.startswith("butterfly"),
    "four-switches-survive-pruning": lambda r: len(r.netlist.switches) == 4,
    "switches-are-3x3": lambda r: all(
        s.n_in == 3 and s.n_out == 3 for s in r.netlist.switches
    ),
    "six-network-interfaces": lambda r: len(r.netlist.nis) == 6,
    "systemc-has-sc-main": lambda r: "sc_main" in r.systemc,
    "systemc-braces-balance": lambda r: r.systemc.count("{") == r.systemc.count("}"),
}


@pytest.mark.parametrize("claim", FIG10B_11)
def test_fig10b_11_generation(claim, dsp_flow):
    assert FIG10B_11[claim](dsp_flow), dsp_flow.summary()


def test_fig10b_11_netlist_is_valid(dsp_flow):
    dsp_flow.netlist.validate()


#: Figure 10(c): simulated average packet latency per topology.
FIG10C = {
    "butterfly-least-latency": lambda lat: lat["butterfly"] == min(lat.values()),
    # Every Clos packet crosses three stages.
    "clos-most-latency": lambda lat: lat["clos"] == max(lat.values()),
    "all-unsaturated": lambda lat: all(10.0 < v < 100.0 for v in lat.values()),
}


@pytest.mark.parametrize("claim", FIG10C)
def test_fig10c_latency(claim, dsp_latency):
    assert FIG10C[claim](dsp_latency), dsp_latency
