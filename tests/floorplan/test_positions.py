"""Relative-position derivation (columns) from topology + mapping."""

import pytest

from repro.core.coregraph import CoreGraph
from repro.errors import FloorplanError
from repro.floorplan.positions import _chunk_columns, derive_columns
from repro.topology.custom import CustomTopology
from repro.topology.library import make_topology


def identity(n: int) -> dict:
    return {i: i for i in range(n)}


class TestChunking:
    def test_empty(self):
        assert _chunk_columns([], 4) == []

    def test_balanced_split(self):
        cols = _chunk_columns(list(range(6)), 4)
        assert [len(c) for c in cols] == [3, 3]

    def test_no_split_needed(self):
        cols = _chunk_columns(list(range(3)), 4)
        assert [len(c) for c in cols] == [3]


class TestDirectColumns:
    def test_mesh_columns_match_grid(self, vopd_app):
        topo = make_topology("mesh", 12)  # 3x4
        columns = derive_columns(topo, identity(12), vopd_app)
        assert len(columns) == 4  # one per mesh column
        for col in columns:
            cores = [b for b in col if b.key[0] == "core"]
            switches = [b for b in col if b.key[0] == "sw"]
            assert len(cores) == 3 and len(switches) == 3

    def test_all_blocks_present_once(self, vopd_app):
        topo = make_topology("mesh", 12)
        columns = derive_columns(topo, identity(12), vopd_app)
        keys = [b.key for col in columns for b in col]
        assert len(keys) == len(set(keys)) == 24

    def test_unmapped_slots_have_no_core_blocks(self, dsp_app):
        topo = make_topology("hypercube", 6)  # 8 slots, 6 cores
        columns = derive_columns(topo, identity(6), dsp_app)
        cores = [b for col in columns for b in col if b.key[0] == "core"]
        switches = [b for col in columns for b in col if b.key[0] == "sw"]
        assert len(cores) == 6
        assert len(switches) == 8

    def test_duplicate_slot_rejected(self, dsp_app):
        topo = make_topology("mesh", 6)
        with pytest.raises(FloorplanError):
            derive_columns(topo, {i: 0 for i in range(6)}, dsp_app)


class TestIndirectColumns:
    def test_butterfly_layout_follows_figure_10b(self, dsp_app):
        """Cores split left/right around the switch-stage columns."""
        topo = make_topology("butterfly", 6)  # 3-ary 2-fly
        columns = derive_columns(topo, identity(6), dsp_app)
        kinds = [
            {b.key[0] for b in col} for col in columns
        ]
        assert kinds[0] == {"core"}
        assert kinds[-1] == {"core"}
        assert {"sw"} in kinds

    def test_pruned_switches_excluded(self, dsp_app):
        topo = make_topology("butterfly", 6)
        used = set(topo.switches[:2])
        columns = derive_columns(
            topo, identity(6), dsp_app, used_switches=used
        )
        switches = [b for col in columns for b in col if b.key[0] == "sw"]
        assert len(switches) == 2

    def test_clos_three_stage_columns(self, vopd_app):
        topo = make_topology("clos", 12)
        columns = derive_columns(topo, identity(12), vopd_app)
        switch_cols = [
            col for col in columns if all(b.key[0] == "sw" for b in col)
        ]
        assert len(switch_cols) == 3


class TestSwitchBlocks:
    @pytest.mark.parametrize("topo_name", ["mesh", "clos"])
    def test_blocks_are_fresh_per_call(self, vopd_app, topo_name):
        """Switch areas are cached per topology, but every call builds its
        own blocks: floorplans pickled together (a collected search)
        share no block objects, so a result's pickled bytes do not
        depend on the cache."""
        topo = make_topology(topo_name, 12)
        first, second = (
            [b for col in derive_columns(topo, identity(12), vopd_app)
             for b in col]
            for _ in range(2)
        )
        assert first == second
        assert all(a is not b for a, b in zip(first, second))


class TestColocatedSlots:
    def test_colocated_slots_follow_the_mappings_core_order(self):
        """Two slots on one switch share a position; their cores stack
        in the order the mapping lists them, whatever their slots, and
        the topology's layout is computed once."""
        topo = CustomTopology("pairs", [0, 0, 1, 1], [(0, 1)])
        app = CoreGraph("four")
        for i in range(4):
            app.add_core(f"c{i}", area_mm2=1.0 + i)
        for order in ([0, 1, 2, 3], [1, 0, 3, 2], [3, 1, 2, 0]):
            assignment = {core: core for core in order}
            for col in derive_columns(topo, assignment, app):
                cores = [b.key[1] for b in col if b.key[0] == "core"]
                assert cores == [c for c in order if c in cores]
        layout = topo.derived("physical")["columns"]
        derive_columns(topo, identity(4), app)
        assert topo.derived("physical")["columns"] is layout
