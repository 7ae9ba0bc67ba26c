"""Rectangle regions and exact polygon geometry."""

from fractions import Fraction as F

import pytest

from chiralattice.polygeom import (
    convex_hull,
    polygon_area,
    predicate_area,
)
from chiralattice.rectregions import rect, region_area, symdiff_area
from conftest import intersection_area


def vec(x, y):
    return (F(x), F(y))


def polyset_area(polygons):
    """Even-odd area of a set of polygons."""
    return predicate_area([list(polygons)], lambda p: p[0])


def polyset_symdiff_area(a, b):
    return predicate_area([list(a), list(b)], lambda p: p[0] != p[1])


def test_symdiff_examples():
    q2 = [rect(-1, -1, 1, 1)]
    assert symdiff_area(q2, q2) == 0
    assert symdiff_area([rect(0, 0, 1, 1)], [rect(3, 3, 4, 4)]) == 2
    assert symdiff_area(q2, [rect(0, -1, 2, 1)]) == 4


def test_region_area_overlaps_once():
    region = [rect(0, 0, 2, 2), rect(1, 1, 3, 3)]
    assert region_area(region) == 7
    assert intersection_area([rect(0, 0, 2, 2)], [rect(1, 1, 3, 3)]) == 1


def test_rect_validation():
    with pytest.raises(ValueError):
        rect(0, 0, 0, 1)


def test_polygon_area_and_hull():
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    assert polygon_area(sq) == 1
    assert polygon_area(list(reversed(sq))) == -1
    hull = convex_hull([vec(0, 0), vec(2, 0), vec(1, 1), vec(2, 2), vec(0, 2), vec(1, 0)])
    assert set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}


def test_polyset_areas():
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    tri = [vec(0, 0), vec(2, 0), vec(0, 2)]
    assert polyset_area([sq]) == 1
    assert polyset_area([tri]) == 2
    assert polyset_symdiff_area([sq], [tri]) == 1
    assert polyset_symdiff_area([sq], [sq]) == 0
    # diagonal-edge crossing case
    diamond = [vec(1, 0), vec(2, 1), vec(1, 2), vec(0, 1)]
    a = polyset_area([diamond])
    assert a == 2
    inter = predicate_area([[sq], [diamond]], lambda p: p[0] and p[1])
    assert inter == F(1, 2)


def test_predicate_area_rejects_unbounded():
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    with pytest.raises(ValueError):
        predicate_area([[sq]], lambda p: not p[0])
