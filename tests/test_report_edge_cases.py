"""Rendering edge cases for repro.report."""

from repro.core.mapper import MapperConfig
from repro.core.selector import SelectionResult, select_topology
from repro.floorplan.lp import floorplan_mapping
from repro.report import render_floorplan, selection_to_markdown
from repro.topology.library import make_topology

FAST = MapperConfig(max_rounds=1)


class TestRenderFloorplan:
    def test_butterfly_floorplan_renders(self, dsp_app):
        topo = make_topology("butterfly", 6)
        assignment = {i: i for i in range(6)}
        fp = floorplan_mapping(topo, assignment, dsp_app)
        text = render_floorplan(fp, dsp_app)
        assert "fft" in text
        # Canvas lines stay within requested width.
        for line in text.splitlines()[1:]:
            assert len(line) <= 68

    def test_custom_canvas_size(self, dsp_app):
        topo = make_topology("mesh", 6)
        assignment = {i: i for i in range(6)}
        fp = floorplan_mapping(topo, assignment, dsp_app)
        text = render_floorplan(fp, dsp_app, width=40, height=12)
        assert len(text.splitlines()) == 13  # header + 12 rows

    def test_no_core_graph_uses_indices(self, dsp_app):
        topo = make_topology("mesh", 6)
        assignment = {i: i for i in range(6)}
        fp = floorplan_mapping(topo, assignment, dsp_app)
        text = render_floorplan(fp, core_graph=None)
        assert "c0" in text


class TestMarkdownEdgeCases:
    def test_no_feasible_winner(self, tiny_app):
        from repro.core.constraints import Constraints

        selection = select_topology(
            tiny_app,
            routing="MP",
            constraints=Constraints(link_capacity_mb_s=1.0),
            config=FAST,
        )
        md = selection_to_markdown(selection)
        assert "**x**" not in md
        assert md.count("| no |") >= 5

    def test_empty_selection(self):
        selection = SelectionResult(objective_name="hops", routing_code="MP")
        md = selection_to_markdown(selection)
        assert md.startswith("| topology |")
