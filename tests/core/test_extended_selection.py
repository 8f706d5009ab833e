"""Selection over the extended topology library (octagon/star/ring)."""

import pytest

from repro.core.mapper import MapperConfig
from repro.core.selector import select_topology
from repro.topology.library import extended_library

FAST = MapperConfig(max_rounds=1)


class TestExtendedSelection:
    def test_star_dominates_pure_hop_objective(self, tiny_app):
        """A single-hub star is 1 hop for every pair — with no power or
        bandwidth pressure it wins raw delay. (This is why the paper's
        realistic objectives matter.)"""
        selection = select_topology(
            tiny_app,
            topologies=extended_library(tiny_app.num_cores),
            routing="MP",
            objective="hops",
            config=FAST,
        )
        assert selection.best_name.startswith("star")
        assert selection.best.avg_hops == pytest.approx(1.0)

    def test_star_hub_bandwidth_is_constrained(self, tiny_app):
        """Star terminal links ARE its network links: a hot hub port
        must count against capacity."""
        from repro.core.constraints import Constraints

        selection = select_topology(
            tiny_app,
            topologies=extended_library(tiny_app.num_cores),
            routing="MP",
            objective="hops",
            constraints=Constraints(link_capacity_mb_s=150.0),
            config=FAST,
        )
        rows = {r["topology"]: r for r in selection.table()}
        star_row = next(v for k, v in rows.items() if k.startswith("star"))
        assert not star_row["feasible"]  # 200 MB/s flow exceeds 150

    def test_power_objective_rejects_star_at_scale(self):
        """The hub crossbar grows quadratically; for a 12-core app the
        star must not be the power winner."""
        from repro.apps import vopd

        app = vopd()
        selection = select_topology(
            app,
            topologies=extended_library(app.num_cores),
            routing="MP",
            objective="power",
            config=FAST,
        )
        assert selection.best is not None
        assert not selection.best_name.startswith("star")

    def test_octagon_included_only_when_it_fits(self, tiny_app):
        names_small = {
            t.name for t in extended_library(tiny_app.num_cores)
        }
        assert any(n.startswith("octagon") for n in names_small)
