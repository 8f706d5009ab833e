"""The run_sunmap facade and its report object."""

from repro.core.constraints import Constraints
from repro.core.mapper import MapperConfig
from repro.sunmap import DEFAULT_ROUTING_FALLBACKS, run_sunmap
from repro.topology.library import make_topology

FAST = MapperConfig(max_rounds=1)


class TestRunSunmap:
    def test_report_fields(self, tiny_app):
        report = run_sunmap(tiny_app, routing="MP", config=FAST)
        assert report.application == "tiny"
        assert report.best is not None
        assert report.best_topology_name == report.selection.best_name
        assert report.netlist is not None
        assert report.systemc and "sc_main" in report.systemc

    def test_no_fallback_needed_stays_on_first_routing(self, tiny_app):
        report = run_sunmap(tiny_app, routing="MP", config=FAST)
        assert report.attempted_routings == ["MP"]
        assert report.selection.routing_code == "MP"

    def test_default_fallback_order(self):
        assert DEFAULT_ROUTING_FALLBACKS == ("SM", "SA")

    def test_custom_fallback_sequence(self, dsp_app):
        report = run_sunmap(
            dsp_app,
            routing="MP",
            constraints=Constraints(link_capacity_mb_s=500.0),
            routing_fallbacks=("SA",),
            config=FAST,
        )
        assert report.attempted_routings == ["MP", "SA"]
        assert report.selection.routing_code == "SA"

    def test_duplicate_routing_not_reattempted(self, tiny_app):
        report = run_sunmap(
            tiny_app, routing="SM", routing_fallbacks=("SM", "SA"),
            config=FAST,
        )
        assert report.attempted_routings.count("SM") == 1

    def test_explicit_topology_subset(self, tiny_app):
        topos = [make_topology("mesh", 4)]
        report = run_sunmap(tiny_app, topologies=topos, config=FAST)
        assert report.best_topology_name == "mesh-2x2"

    def test_summary_lists_key_facts(self, tiny_app):
        report = run_sunmap(tiny_app, objective="power", config=FAST)
        text = report.summary()
        assert "application: tiny" in text
        assert "objective:   power" in text
        assert "generated:" in text

    def test_netlist_matches_best_topology(self, dsp_app):
        report = run_sunmap(
            dsp_app,
            constraints=Constraints(link_capacity_mb_s=1000.0),
            config=MapperConfig(max_rounds=6),
        )
        best = report.best
        mapped_cores = {ni.core_name for ni in report.netlist.nis}
        assert mapped_cores == {c.name for c in dsp_app.cores}
        used = {s.instance for s in report.netlist.switches}
        assert len(used) <= len(best.topology.switches)
