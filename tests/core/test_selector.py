"""Phase-2 topology selection."""

import pytest

from repro.core.constraints import Constraints
from repro.core.mapper import MapperConfig
from repro.core.selector import select_topology
from repro.errors import ReproError
from repro.topology.library import make_topology

FAST = MapperConfig(max_rounds=1)


class TestSelectTopology:
    def test_default_library_is_standard_five(self, tiny_app):
        selection = select_topology(tiny_app, routing="MP", config=FAST)
        assert len(selection.evaluations) + len(selection.errors) == 5

    def test_best_is_feasible_minimum(self, tiny_app):
        selection = select_topology(tiny_app, routing="MP", config=FAST)
        best = selection.best
        assert best is not None and best.feasible
        for ev in selection.feasible.values():
            assert best.cost <= ev.cost + 1e-9

    def test_do_on_clos_lands_in_errors(self, tiny_app):
        selection = select_topology(tiny_app, routing="DO", config=FAST)
        assert any("clos" in name for name in selection.errors)

    def test_table_contains_all_topologies(self, tiny_app):
        selection = select_topology(tiny_app, routing="MP", config=FAST)
        names = {row["topology"] for row in selection.table()}
        assert len(names) == 5

    def test_format_table_is_printable(self, tiny_app):
        selection = select_topology(tiny_app, routing="MP", config=FAST)
        text = selection.format_table()
        assert "topology" in text and "avg hops" in text
        assert selection.best_name in text

    def test_invalid_objective_rejected_early(self, tiny_app):
        with pytest.raises(ReproError):
            select_topology(tiny_app, objective="beauty", config=FAST)

    def test_explicit_topology_list(self, tiny_app):
        topos = [make_topology("mesh", 4), make_topology("star", 4)]
        selection = select_topology(tiny_app, topologies=topos, config=FAST)
        assert set(selection.evaluations) == {"mesh-2x2", "star-4"}

    def test_impossible_capacity_yields_no_best(self, tiny_app):
        selection = select_topology(
            tiny_app, routing="MP",
            constraints=Constraints(link_capacity_mb_s=1.0), config=FAST,
        )
        assert selection.best is None
        assert selection.best_name is None
        rows = selection.table()
        assert all(not row["feasible"] for row in rows)
