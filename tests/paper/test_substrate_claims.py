"""Claims about the substrate under the flow: Section 4.1's quadrant
saving and the simulator's buffer-depth sensitivity.
"""

import pytest


def test_quadrant_search_routes_the_same_hops(quadrant_search):
    """Minimum paths all lie inside the quadrant (Section 4.3), so
    searching it loses no quality."""
    assert quadrant_search[True][0] == quadrant_search[False][0]


def test_quadrant_search_graphs_are_smaller(quadrant_search):
    """"As the minimum-path computations are performed on the quadrant
    graph instead of the entire NoC graph, large computational time
    savings is achieved": summed over the commodities the quadrant
    graphs hold 980 nodes, the whole graph 7,920 (8.1x)."""
    quadrant_nodes, whole_nodes = quadrant_search[True][1], quadrant_search[False][1]
    assert 8 * quadrant_nodes < whole_nodes


#: Input-FIFO depth vs latency near saturation (16-node mesh,
#: bit-reverse at 0.3 flits/cycle/node): deeper buffers never hurt, and
#: the default depth (8 flits) is on the flat part of the curve.
BUFFERS = {
    "deepest-no-slower-than-shallowest": lambda r: (
        r[16].avg_latency <= r[2].avg_latency
    ),
    "default-within-25pct-of-deepest": lambda r: (
        r[8].avg_latency <= 1.25 * r[16].avg_latency
    ),
}


@pytest.mark.parametrize("claim", BUFFERS)
def test_buffer_depth_ablation(claim, buffer_depth_reports):
    assert BUFFERS[claim](buffer_depth_reports), {
        depth: (r.avg_latency, r.delivered_fraction)
        for depth, r in buffer_depth_reports.items()
    }
