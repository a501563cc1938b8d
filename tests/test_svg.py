"""SVG rendering: deterministic, well-formed, complete."""

import xml.etree.ElementTree as ET

import numpy as np

from anisoclusters import (
    Cluster,
    EuclideanGauge,
    NetSegment,
    ShiftedDiskGauge,
    SliceConfig,
    double_bubble_cluster,
    detect_junctions,
    square_cross_cluster,
)
from anisoclusters.svg import (
    render_cluster_svg,
    render_fermat_svg,
    render_gauge_svg,
    render_network_svg,
)


def parse(text):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    return root


class TestClusterRendering:
    def test_cross_with_junctions(self):
        cl = square_cross_cluster(n_sub=3)
        pts = [j.point for j in detect_junctions(cl)]
        text = render_cluster_svg(cl, junction_points=pts)
        root = parse(text)
        # one filled polygon per chamber
        fills = [el for el in root.iter() if el.tag.endswith("path")]
        assert len(fills) >= cl.m
        markers = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(markers) >= len(pts)

    def test_deterministic_bytes(self):
        cl = double_bubble_cluster(n_arc=10, n_mid=4)
        assert render_cluster_svg(cl) == render_cluster_svg(cl)

    def test_empty_cluster_still_renders(self):
        text = render_cluster_svg(Cluster(np.zeros((0, 2)), [], 0))
        parse(text)


class TestOtherRenderers:
    def test_network(self):
        segs = [
            NetSegment(np.zeros(2), np.array([1.0, 0.0]), 1, 0),
            NetSegment(np.zeros(2), np.array([0.0, 1.0]), 2, 1),
        ]
        cfg = SliceConfig(np.radians([0, 90, 200]), [1, 2, 3], EuclideanGauge())
        parse(render_network_svg(segs, circle_radius=1.0))
        parse(render_network_svg(cfg.base_network().segments))

    def test_gauge_ball(self):
        text = render_gauge_svg(ShiftedDiskGauge((0.2, -0.1), 1.0))
        root = parse(text)
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        assert paths

    def test_fermat(self):
        terminals = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        text = render_fermat_svg(terminals, np.array([0.5, 0.3]), ("out", "in", "sym"))
        root = parse(text)
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert {"A", "B", "C"} <= set(labels)
