"""xpipes netlist construction and SystemC emission (phase 3)."""

import json

import pytest

from repro.errors import GenerationError
from repro.xpipes.components import (
    LinkSpec,
    SwitchSpec,
    pipeline_stages_for_length,
)
from repro.xpipes.generator import generate_systemc
from repro.xpipes.netlist import Netlist, build_netlist
from repro.topology.library import make_topology


def identity(n: int) -> dict:
    return {i: i for i in range(n)}


@pytest.fixture
def dsp_netlist(dsp_app):
    topo = make_topology("mesh", 6)
    return topo, build_netlist(dsp_app, topo, identity(6))


class TestComponents:
    def test_switch_module_name(self):
        s = SwitchSpec("sw_0", 4, 5, 32, 8)
        assert s.module == "xpipes_switch_4x5"

    def test_bad_switch_rejected(self):
        with pytest.raises(GenerationError):
            SwitchSpec("sw_0", 0, 5, 32, 8)

    def test_pipeline_stages_grow_with_length(self):
        assert pipeline_stages_for_length(0.5) == 1
        assert pipeline_stages_for_length(3.5) >= 2
        assert pipeline_stages_for_length(10.0) > pipeline_stages_for_length(2.0)

    def test_negative_length_rejected(self):
        with pytest.raises(GenerationError):
            pipeline_stages_for_length(-1.0)


class TestNetlist:
    def test_counts(self, dsp_netlist, dsp_app):
        topo, netlist = dsp_netlist
        assert len(netlist.switches) == 6
        assert len(netlist.nis) == dsp_app.num_cores
        assert len(netlist.links) == len(topo.graph.edges())

    def test_validate_passes(self, dsp_netlist):
        _, netlist = dsp_netlist
        netlist.validate()

    def test_ni_names_follow_cores(self, dsp_netlist, dsp_app):
        _, netlist = dsp_netlist
        names = {ni.instance for ni in netlist.nis}
        assert "ni_arm" in names and "ni_fft" in names

    def test_json_round_trip(self, dsp_netlist):
        _, netlist = dsp_netlist
        payload = json.loads(netlist.to_json())
        assert payload["design"] == netlist.design_name
        assert len(payload["links"]) == len(netlist.links)
        assert len(payload["switches"]) == 6

    def test_pruned_butterfly_netlist(self, dsp_app, estimator):
        from repro.routing.library import make_routing

        topo = make_topology("butterfly", 6)
        assignment = identity(6)
        result = make_routing("MP").route_all(
            topo, assignment, dsp_app.commodities()
        )
        used = estimator.used_switches(topo, result)
        netlist = build_netlist(
            dsp_app, topo, assignment, used_switches=used
        )
        assert len(netlist.switches) == len(used) < len(topo.switches)
        netlist.validate()

    def test_port_reuse_detected(self):
        netlist = Netlist("bad")
        netlist.switches.append(SwitchSpec("sw_0", 2, 2, 32, 8))
        netlist.switches.append(SwitchSpec("sw_1", 2, 2, 32, 8))
        for i in range(2):
            netlist.links.append(
                LinkSpec(
                    instance=f"l{i}",
                    src_instance="sw_0",
                    src_port=0,
                    dst_instance="sw_1",
                    dst_port=0,
                    flit_width_bits=32,
                    length_mm=1.0,
                    pipeline_stages=1,
                )
            )
        with pytest.raises(GenerationError):
            netlist.validate()

    def test_unknown_instance_detected(self):
        netlist = Netlist("bad")
        netlist.switches.append(SwitchSpec("sw_0", 2, 2, 32, 8))
        netlist.links.append(
            LinkSpec(
                instance="l0",
                src_instance="sw_0",
                src_port=0,
                dst_instance="ghost",
                dst_port=0,
                flit_width_bits=32,
                length_mm=1.0,
                pipeline_stages=1,
            )
        )
        with pytest.raises(GenerationError):
            netlist.validate()

    def test_floorplan_lengths_used(self, dsp_app):
        from repro.floorplan.lp import floorplan_mapping

        topo = make_topology("mesh", 6)
        assignment = identity(6)
        fp = floorplan_mapping(topo, assignment, dsp_app)
        lengths = fp.link_lengths(topo, assignment)
        netlist = build_netlist(
            dsp_app, topo, assignment, lengths_mm=lengths
        )
        assert any(link.length_mm > 1.0 for link in netlist.links)


class TestGenerator:
    def test_contains_all_instances(self, dsp_netlist):
        topo, netlist = dsp_netlist
        code = generate_systemc(netlist, topo)
        for spec in netlist.switches:
            assert spec.instance in code
        for ni in netlist.nis:
            assert ni.instance in code
        for link in netlist.links:
            assert f"{link.instance}_flit" in code

    def test_contains_routing_tables(self, dsp_netlist):
        topo, netlist = dsp_netlist
        code = generate_systemc(netlist, topo)
        assert "_route[][2]" in code

    def test_has_sc_main_and_clock(self, dsp_netlist):
        topo, netlist = dsp_netlist
        code = generate_systemc(netlist, topo)
        assert "sc_main" in code
        assert "sc_clock" in code
        assert code.count("{") == code.count("}")

    def test_empty_netlist_rejected(self):
        with pytest.raises(GenerationError):
            generate_systemc(Netlist("empty"))

    def test_write_systemc(self, dsp_netlist, tmp_path):
        topo, netlist = dsp_netlist
        from repro.xpipes.generator import write_systemc

        out = tmp_path / "design.cpp"
        text = write_systemc(netlist, out, topo)
        assert out.read_text() == text
