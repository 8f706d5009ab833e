"""Flow behaviour of ``run_sunmap``: routing escalation, the
no-feasible-topology outcomes and argument checks.

The paper's Section 6 results are claims in ``tests/paper/``.
"""

import pytest

from repro.core.constraints import Constraints
from repro.core.mapper import MapperConfig
from repro.core.selector import select_topology
from repro.errors import MappingInfeasibleError
from repro.sunmap import run_sunmap


class TestDsp:
    def test_fallback_escalates_to_split_routing(self, dsp_app):
        report = run_sunmap(
            dsp_app,
            routing="MP",
            objective="hops",
            constraints=Constraints(link_capacity_mb_s=500.0),
            config=MapperConfig(max_rounds=1),
        )
        assert report.selection.routing_code in ("SM", "SA")
        assert len(report.attempted_routings) >= 2

    def test_impossible_everywhere_raises(self, dsp_app):
        with pytest.raises(MappingInfeasibleError):
            run_sunmap(
                dsp_app,
                constraints=Constraints(link_capacity_mb_s=1.0),
                config=MapperConfig(max_rounds=1),
            )

    def test_generate_false_returns_report_without_netlist(self, dsp_app):
        report = run_sunmap(
            dsp_app,
            constraints=Constraints(link_capacity_mb_s=1.0),
            config=MapperConfig(max_rounds=1),
            generate=False,
        )
        assert report.best is None
        assert report.netlist is None
        assert "NO FEASIBLE" in report.summary()

    def test_empty_topology_list_raises_value_error(self, dsp_app):
        """An empty library is a caller bug, not a 'no feasible
        topology' outcome — both entry points refuse it up front."""
        with pytest.raises(ValueError, match="empty topologies list"):
            run_sunmap(dsp_app, topologies=[])
        with pytest.raises(ValueError, match="empty topologies list"):
            select_topology(dsp_app, topologies=[])
