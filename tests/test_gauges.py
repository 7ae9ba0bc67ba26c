"""Crystalline gauges, envelopes, and Wulff duality (exact arithmetic)."""

import random
from fractions import Fraction as F

import pytest

from chiralattice.gauges import (
    GaugePolygon,
    envelope_with_points,
    min_envelope,
    mirror,
    phi_closed_form,
    wulff_shape,
)
from chiralattice.polygeom import polygon_area


def support_function(poly, direction):
    """max over the polygon of x . direction."""
    return max(x * direction[0] + y * direction[1] for x, y in poly)


HEX = phi_closed_form(1)
HEX_M = phi_closed_form(5)


def test_closed_form_values():
    assert HEX.gauge((1, 1)) == 2
    assert HEX.gauge((-1, 1)) == 2
    assert HEX.gauge((1, -1)) == 2
    assert HEX.gauge((0, 1)) == 2
    assert HEX.gauge((0, -1)) == 2
    assert HEX.gauge((1, 0)) == F(3, 2)
    assert HEX.gauge((3, -1)) == 4
    assert HEX.gauge((-3, 1)) == 4


def test_gauge_on_vertices_and_homogeneity():
    rng = random.Random(5)
    for v in HEX.vertices:
        assert HEX.gauge(v) == 1
    for _ in range(50):
        x = (F(rng.randint(-50, 50), rng.randint(1, 9)), F(rng.randint(-50, 50), rng.randint(1, 9)))
        if x == (0, 0):
            continue
        assert HEX.gauge((2 * x[0], 2 * x[1])) == 2 * HEX.gauge(x)
    assert HEX.gauge((0, 0)) == 0


def test_gauge_convexity_random_rational_pairs():
    rng = random.Random(31)
    for _ in range(10_000):
        x = (F(rng.randint(-40, 40), rng.randint(1, 7)), F(rng.randint(-40, 40), rng.randint(1, 7)))
        y = (F(rng.randint(-40, 40), rng.randint(1, 7)), F(rng.randint(-40, 40), rng.randint(1, 7)))
        s = (x[0] + y[0], x[1] + y[1])
        assert HEX.gauge(s) <= HEX.gauge(x) + HEX.gauge(y)


def test_l1_bound_with_equality_cones():
    rng = random.Random(13)
    for _ in range(300):
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if (p, q) == (0, 0):
            continue
        assert HEX.gauge((p, q)) >= abs(p) + abs(q)
    # equality on the cones between (3,-1) and (1,-1) and between (-3,1)
    # and (-1,1), and additionally at the isolated vertex directions
    # +-(1,1)
    for v in [(3, -1), (1, -1), (2, -1), (5, -2), (-3, 1), (-1, 1), (-2, 1),
              (1, 1), (-1, -1)]:
        assert HEX.gauge(v) == abs(v[0]) + abs(v[1])
    for v in [(0, 1), (1, 0), (4, -1), (1, -2), (2, 1), (1, 2), (-1, 2)]:
        assert HEX.gauge(v) > abs(v[0]) + abs(v[1])


def test_mirror_properties():
    assert mirror(mirror(HEX)) == HEX
    assert mirror(HEX) == HEX_M
    assert (F(3, 4), F(1, 4)) in HEX_M.vertices
    # square is a mirror fixed point
    sq = GaugePolygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert mirror(sq) == sq
    # equal values at (1,0) yet different polygons
    assert HEX.gauge((1, 0)) == HEX_M.gauge((1, 0)) == F(3, 2)
    assert HEX != HEX_M
    # central symmetry of each closed form
    for v in [(1, 1), (2, -3), (5, 1)]:
        assert HEX.gauge(v) == HEX.gauge((-v[0], -v[1]))


def test_min_envelope_octagon():
    pmin, fss = min_envelope([HEX, HEX_M])
    assert pmin((1, 0)) == F(3, 2)
    assert fss.gauge((1, 0)) == F(4, 3)
    assert fss.gauge((0, 1)) == 2
    assert set(fss.vertices) == {
        (F(1, 2), F(1, 2)), (F(-1, 2), F(1, 2)), (F(1, 2), F(-1, 2)), (F(-1, 2), F(-1, 2)),
        (F(3, 4), F(1, 4)), (F(-3, 4), F(1, 4)), (F(3, 4), F(-1, 4)), (F(-3, 4), F(-1, 4)),
    }
    # envelope below the min at sampled rational directions
    rng = random.Random(2)
    for _ in range(32):
        x = (F(rng.randint(-20, 20), rng.randint(1, 5)), F(rng.randint(-20, 20), rng.randint(1, 5)))
        if x == (0, 0):
            continue
        assert fss.gauge(x) <= pmin(x)
    # single gauge: envelope is itself
    pm, same = min_envelope([HEX])
    assert same == HEX


def test_envelope_with_points():
    refined = envelope_with_points([HEX], [((1, 0), F(1))])
    assert refined.gauge((1, 0)) == 1


def test_wulff_duality():
    sq = GaugePolygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
    w = wulff_shape(sq)
    assert set(w) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}
    w_hex = wulff_shape(HEX)
    assert len(w_hex) == 6
    assert set(w_hex) == {
        (F(0), F(2)), (F(-1), F(1)), (F(-3, 2), F(-1, 2)),
        (F(0), F(-2)), (F(1), F(-1)), (F(3, 2), F(1, 2)),
    }
    # involution: the dual of the dual is the level set again
    assert GaugePolygon(wulff_shape(GaugePolygon(w_hex))) == HEX
    # support of the Wulff shape equals 1 at every level-set vertex
    for v in HEX.vertices:
        assert support_function(w_hex, v) == 1
    assert 2 * polygon_area(w_hex) == 14


def test_gauge_polygon_validation():
    with pytest.raises(ValueError):
        GaugePolygon([(0, 0), (1, 0), (1, 1)])  # origin on the boundary
    with pytest.raises(ValueError):
        GaugePolygon([(2, 0), (1, 0), (1, 1)])  # origin outside
