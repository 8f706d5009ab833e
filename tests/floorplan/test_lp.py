"""LP floorplanner legality and quality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FloorplanError
from repro.floorplan.blocks import Block, BlockRect
from repro.floorplan.lp import FloorplanResult, floorplan_mapping
from repro.topology.library import make_topology


def identity(n: int) -> dict:
    return {i: i for i in range(n)}


@pytest.fixture(
    params=["mesh", "torus", "hypercube", "clos", "butterfly", "star"]
)
def floorplan(request, vopd_app):
    topo = make_topology(request.param, 12)
    fp = floorplan_mapping(topo, identity(12), vopd_app)
    return topo, fp


class TestLegality:
    def test_validate_passes(self, floorplan):
        _topo, fp = floorplan
        fp.validate()  # raises on any violation

    def test_no_overlaps(self, floorplan):
        _topo, fp = floorplan
        rects = list(fp.rects.values())
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b)

    def test_soft_areas_conserved(self, floorplan):
        _topo, fp = floorplan
        for rect in fp.rects.values():
            assert rect.area_mm2 >= rect.block.area_mm2 - 1e-6

    def test_blocks_inside_chip(self, floorplan):
        _topo, fp = floorplan
        for rect in fp.rects.values():
            assert rect.x >= -1e-9 and rect.y >= -1e-9
            assert rect.x + rect.w <= fp.width_mm + 1e-6
            assert rect.y + rect.h <= fp.height_mm + 1e-6

    def test_aspect_bounds_respected(self, floorplan):
        _topo, fp = floorplan
        for rect in fp.rects.values():
            block = rect.block
            if block.is_soft:
                ratio = rect.w / rect.h
                assert block.aspect_min - 1e-6 <= ratio <= block.aspect_max + 1e-6

    def test_area_at_least_total_block_area(self, floorplan):
        _topo, fp = floorplan
        assert fp.area_mm2 >= fp.block_area_mm2

    def test_whitespace_reasonable(self, floorplan):
        _topo, fp = floorplan
        assert fp.whitespace_fraction < 0.5


class TestLinkLengths:
    def test_lengths_positive_and_bounded(self, floorplan, vopd_app):
        topo, fp = floorplan
        lengths = fp.link_lengths(topo, identity(12))
        diag = fp.width_mm + fp.height_mm
        assert lengths
        for length in lengths.values():
            assert 0 < length <= diag

    def test_bidirectional_links_have_equal_length(self, vopd_app):
        topo = make_topology("mesh", 12)
        fp = floorplan_mapping(topo, identity(12), vopd_app)
        lengths = fp.link_lengths(topo, identity(12))
        for (u, v), length in lengths.items():
            if (v, u) in lengths:
                assert lengths[(v, u)] == pytest.approx(length)

    def test_unmapped_terminal_edges_skipped(self, dsp_app):
        topo = make_topology("hypercube", 6)  # 8 slots
        fp = floorplan_mapping(topo, identity(6), dsp_app)
        lengths = fp.link_lengths(topo, identity(6))
        terms = {("term", 6), ("term", 7)}
        for u, v in lengths:
            assert u not in terms and v not in terms


class TestBehaviour:
    def test_deterministic(self, vopd_app):
        topo = make_topology("mesh", 12)
        fp1 = floorplan_mapping(topo, identity(12), vopd_app)
        fp2 = floorplan_mapping(topo, identity(12), vopd_app)
        assert fp1.area_mm2 == pytest.approx(fp2.area_mm2)

    def test_mapping_changes_link_lengths(self, vopd_app):
        topo = make_topology("mesh", 12)
        a1 = identity(12)
        a2 = dict(a1)
        a2[0], a2[11] = a2[11], a2[0]
        l1 = floorplan_mapping(topo, a1, vopd_app).link_lengths(topo, a1)
        l2 = floorplan_mapping(topo, a2, vopd_app).link_lengths(topo, a2)
        assert l1 != l2

    def test_torus_wrap_links_longer_than_mesh_average(self, vopd_app):
        torus = make_topology("torus", 12)
        fp = floorplan_mapping(torus, identity(12), vopd_app)
        lengths = fp.link_lengths(torus, identity(12))
        wrap = [
            lengths[(u, v)]
            for u, v, d in torus.graph.edges(data=True)
            if d.get("wrap") and (u, v) in lengths
        ]
        regular = [
            lengths[(u, v)]
            for u, v, d in torus.graph.edges(data=True)
            if d["kind"] == "net" and not d.get("wrap") and (u, v) in lengths
        ]
        assert sum(wrap) / len(wrap) > sum(regular) / len(regular)

    def test_tight_aspect_pads_to_square(self, vopd_app):
        """An aspect bound the packing can't meet is absorbed as
        whitespace (area cost) rather than failure."""
        topo = make_topology("mesh", 12)
        free = floorplan_mapping(topo, identity(12), vopd_app, max_aspect=None)
        square = floorplan_mapping(topo, identity(12), vopd_app, max_aspect=1.0)
        assert square.aspect_ratio == pytest.approx(1.0, abs=1e-6)
        assert square.area_mm2 >= free.area_mm2 - 1e-6


# ----------------------------------------------------------------------
# FloorplanResult.validate sweeps in x; the all-pairs check is its oracle.
def _any_pair_overlaps(fp: FloorplanResult) -> bool:
    rects = list(fp.rects.values())
    return any(
        a.overlaps(b) for i, a in enumerate(rects) for b in rects[i + 1 :]
    )


def _validate_raises(fp: FloorplanResult) -> bool:
    try:
        fp.validate()
    except FloorplanError:
        return True
    return False


def _result(boxes) -> FloorplanResult:
    """A floorplan of ``(x, y, w, h)`` boxes, each block exactly its
    box's area, on a chip that holds them all: only an overlap can make
    it illegal."""
    rects = {}
    for i, (x, y, w, h) in enumerate(boxes):
        block = Block(key=("core", i), name=f"b{i}", area_mm2=w * h)
        rects[block.key] = BlockRect(block=block, x=x, y=y, w=w, h=h)
    width = max(x + w for x, _, w, _ in boxes)
    height = max(y + h for _, y, _, h in boxes)
    return FloorplanResult(
        rects=rects, width_mm=width, height_mm=height,
        columns=[list(rects)],
    )


#: Coordinates on a coarse grid, so edges often touch exactly, plus
#: offsets around the overlap tolerance (1e-9).
_NUDGE = st.sampled_from([0.0, 0.0, 5e-10, -5e-10, 1e-9, 2e-9, -2e-9])
_BOX = st.tuples(
    st.integers(0, 8), st.integers(0, 8), st.integers(1, 4),
    st.integers(1, 4), _NUDGE, _NUDGE,
).map(lambda t: (1 + t[0] * 0.5 + t[4], 1 + t[1] * 0.5 + t[5],
                   t[2] * 0.5, t[3] * 0.5))


class TestValidateSweep:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_BOX, min_size=1, max_size=12))
    def test_random_floorplans_get_the_all_pairs_verdict(self, boxes):
        fp = _result(boxes)
        assert _validate_raises(fp) == _any_pair_overlaps(fp)

    @pytest.mark.parametrize("topo_name", ["mesh", "clos", "butterfly"])
    @pytest.mark.parametrize("shift", [-1e-8, -1e-9, 0.0, 1e-9, 1e-8, 0.3])
    def test_moved_blocks_get_the_all_pairs_verdict(
        self, vopd_app, topo_name, shift
    ):
        """Legal floorplans pass; moving one block onto its neighbour in
        the column or the next column, by a little more or less than
        the tolerance, gives exactly the all-pairs verdict."""
        topo = make_topology(topo_name, 12)
        fp = floorplan_mapping(topo, identity(12), vopd_app)
        assert not _validate_raises(fp) and not _any_pair_overlaps(fp)
        verdicts = set()
        for col, right in zip(fp.columns, fp.columns[1:] + [[]]):
            for a, b in zip(col, col[1:] + right[:1]):
                ra, rb = fp.rects[a], fp.rects[b]
                if b in col:  # stacked: drop b onto a's top edge
                    moved = BlockRect(rb.block, rb.x, ra.y + ra.h - shift,
                                      rb.w, rb.h)
                else:  # next column: slide b onto a's right edge
                    moved = BlockRect(rb.block, ra.x + ra.w - shift, ra.y,
                                      rb.w, rb.h)
                broken = FloorplanResult(
                    rects={**fp.rects, b: moved},
                    width_mm=fp.width_mm + 100.0,
                    height_mm=fp.height_mm + 100.0, columns=fp.columns,
                )
                verdict = _any_pair_overlaps(broken)
                verdicts.add(verdict)
                assert _validate_raises(broken) == verdict
        if shift >= 1e-8:
            assert verdicts == {True}
