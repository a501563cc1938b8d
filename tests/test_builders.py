"""The builders' clusters against their closed-form areas and perimeters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoclusters import (
    Density,
    EuclideanGauge,
    LpGauge,
    double_bubble_cluster,
    interface_perimeter,
    regular_polygon_chamber,
    square_cross_cluster,
    weighted_perimeter,
    weighted_volume,
)

EUCLID = Density.constant(EuclideanGauge())
MAXNORM = Density.constant(LpGauge(np.inf))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 400),
    st.floats(1e-3, 1e3),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_regular_polygon_area_and_perimeter(n, area, center):
    cl = regular_polygon_chamber(n, area=area, center=center)
    r = np.sqrt(2.0 * area / (n * np.sin(2.0 * np.pi / n)))
    # the fan triangles sum around the origin, which the center moves off
    scale = 1.0 + (abs(center[0]) + abs(center[1])) / r
    assert weighted_volume(cl, EUCLID)[0] == pytest.approx(area, rel=1e-13 * n * scale)
    assert weighted_perimeter(cl, EUCLID) == pytest.approx(
        2.0 * n * r * np.sin(np.pi / n), rel=1e-13 * n
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(1e-2, 1e2))
def test_square_cross_chambers_and_interfaces(n_sub, half):
    cl = square_cross_cluster(n_sub=n_sub, half=half)
    for e in cl.edges:
        if 0 in (e.left, e.right):
            e.tags["wall"] = True
    np.testing.assert_allclose(weighted_volume(cl, EUCLID), half * half, rtol=1e-13 * n_sub)
    # four half-diagonals of length sqrt(2) h, whose normals have max norm h
    assert interface_perimeter(cl, MAXNORM) == pytest.approx(4.0 * half, rel=1e-13 * n_sub)
    assert interface_perimeter(cl, EUCLID) == pytest.approx(
        4.0 * np.sqrt(2.0) * half, rel=1e-13 * n_sub
    )


def lobe_areas(n_arc, width, height, bulge):
    """A lobe of double_bubble_cluster is the circular segment cut by the
    chord between the junctions (0, +-height) from the circle through them
    and (+-width * bulge, 0), less the n_arc small segments between the
    circle and the polygon inscribed in its arc. Returns (segment, polygon)
    areas."""
    X = width * bulge
    x0 = (X * X - height * height) / (2.0 * X)
    r = abs(X - x0)
    # central angle of the arc: twice the angle between the directions from
    # the center to a junction and to (X, 0)
    theta = 2.0 * np.arccos(x0 * (x0 - X) / (r * r))
    phi = theta / n_arc
    segment = 0.5 * r * r * (theta - np.sin(theta))
    return segment, segment - n_arc * 0.5 * r * r * (phi - np.sin(phi))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 200),
    st.floats(0.3, 3.0),
    st.floats(0.3, 3.0),
    st.floats(0.8, 1.6),
)
def test_double_bubble_volumes_match_the_circular_segments(n_arc, width, height, bulge):
    cl = double_bubble_cluster(n_arc=n_arc, n_mid=4, width=width, height=height, bulge=bulge)
    segment, polygon = lobe_areas(n_arc, width, height, bulge)
    vols = weighted_volume(cl, EUCLID)
    # the inscribed polygon's area, to rounding, and so below the segment's
    np.testing.assert_allclose(vols, polygon, rtol=1e-12 * n_arc)
    assert np.all(vols < segment)
