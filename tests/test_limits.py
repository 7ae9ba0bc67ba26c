"""Limiting partition energy, anchoring, and the lower-bound functionals."""

from fractions import Fraction as F

import pytest

from chiralattice.densities import DensityModel
from chiralattice.gauges import phi_closed_form, wulff_shape
from chiralattice.interfaces import DensityRecord
from chiralattice.limits import (
    InvalidPartition,
    PolygonalPartition,
    anchored_admissible,
    extract_interfaces,
    limit_energy,
    rs_lower_bound,
    spin_lower_bound,
)
from chiralattice.molecules import InvalidInput
from chiralattice.polygeom import polygon_area

MODEL = DensityModel.with_patterns()
SQ = [(0, 0), (1, 0), (1, 1), (0, 1)]
WIN4 = [(-2, -2), (2, -2), (2, 2), (-2, 2)]


def windowed_island(island, window):
    """Window partition with A_1 = island and A_0 = the complement slabs."""
    (x0, y0), (x1, y1) = island[0], island[2]
    (wx0, wy0), (wx1, wy1) = window[0], window[2]
    a0 = []
    if wy0 < y0:
        a0.append([(wx0, wy0), (wx1, wy0), (wx1, y0), (wx0, y0)])
    if y1 < wy1:
        a0.append([(wx0, y1), (wx1, y1), (wx1, wy1), (wx0, wy1)])
    if wx0 < x0:
        a0.append([(wx0, y0), (x0, y0), (x0, y1), (wx0, y1)])
    if x1 < wx1:
        a0.append([(x1, y0), (wx1, y0), (wx1, y1), (x1, y1)])
    return PolygonalPartition(regions={0: a0, 1: [island]}, window=window)


def test_unit_square_island_prices_to_7():
    plane = PolygonalPartition(regions={1: [SQ]}, window=None)
    assert limit_energy(plane, MODEL) == 7
    windowed = windowed_island(SQ, WIN4)
    assert limit_energy(windowed, MODEL) == 7


def test_all_empty_prices_to_0():
    part = PolygonalPartition(regions={0: [WIN4]}, window=WIN4)
    assert limit_energy(part, MODEL) == 0
    assert extract_interfaces(part) == []


def test_vertical_split_segments():
    win = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    part = PolygonalPartition(
        regions={
            1: [[(-1, -1), (0, -1), (0, 1), (-1, 1)]],
            2: [[(0, -1), (1, -1), (1, 1), (0, 1)]],
        },
        window=win,
    )
    segs = extract_interfaces(part)
    interior = [s for s in segs if (s.i, s.j) == (1, 2)]
    assert len(interior) == 1
    assert interior[0].normal == (-1, 0)  # inner normal of A_1
    assert interior[0].lattice_length == 2
    boundary = [s for s in segs if s.j == 0 or s.i == 0]
    # the four window sides, with top and bottom split at the seam foot
    assert len(boundary) == 6
    assert sum(s.lattice_length for s in boundary) == 8
    total = limit_energy(part, MODEL)
    # interior 2 * subadditive(1,2,(1,0)) = 6; boundary: two vertical
    # sides at 3/2 each times length 2, four horizontal pieces at 2 each
    assert total == 6 + 2 * 3 + 4 * 2


def test_three_label_junction():
    win = [(0, 0), (2, 0), (2, 2), (0, 2)]
    part = PolygonalPartition(
        regions={
            1: [[(0, 0), (2, 0), (2, 1), (0, 1)]],
            2: [[(0, 1), (1, 1), (1, 2), (0, 2)]],
            3: [[(1, 1), (2, 1), (2, 2), (1, 2)]],
        },
        window=win,
    )
    segs = [s for s in extract_interfaces(part) if s.i != 0 and s.j != 0]
    pairs = {(s.i, s.j) for s in segs}
    assert pairs == {(1, 2), (1, 3), (2, 3)}
    lengths = {(s.i, s.j): s.lattice_length for s in segs}
    assert lengths[(1, 2)] == 1 and lengths[(1, 3)] == 1 and lengths[(2, 3)] == 1


def test_translation_invariance_and_additivity():
    part = PolygonalPartition(regions={1: [SQ]}, window=None)
    moved = PolygonalPartition(
        regions={1: [[(x + 3, y - 7) for x, y in SQ]]}, window=None
    )
    assert limit_energy(part, MODEL) == limit_energy(moved, MODEL)
    # two disjoint islands price to the sum of the islands
    both = PolygonalPartition(
        regions={1: [SQ, [(x + 5, y) for x, y in SQ]]}, window=None
    )
    assert limit_energy(both, MODEL) == 2 * limit_energy(part, MODEL)


def test_label_swap_within_r_phases():
    a = PolygonalPartition(regions={1: [SQ]}, window=None)
    b = PolygonalPartition(regions={2: [SQ]}, window=None)
    assert limit_energy(a, MODEL) == limit_energy(b, MODEL)


def test_wulff_island_energy_equals_twice_area():
    w = wulff_shape(phi_closed_form(1))
    part = PolygonalPartition(regions={1: [list(w)]}, window=None)
    assert limit_energy(part, MODEL) == 2 * polygon_area(w)
    # the scaled Wulff shape beats same-area competitors
    area_w = polygon_area(w)
    side = F(1)  # compare at equal area using scaled energies: E/sqrt(area)
    sq_part = PolygonalPartition(regions={1: [SQ]}, window=None)
    e_w, e_sq = limit_energy(part, MODEL), limit_energy(sq_part, MODEL)
    # E^2 / area is scale-invariant; the Wulff island wins strictly
    assert e_w * e_w * polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) < e_sq * e_sq * area_w


def test_spin_lower_bound():
    assert spin_lower_bound([SQ], MODEL) == F(20, 3)
    assert spin_lower_bound([], MODEL) == 0
    part = PolygonalPartition(regions={1: [SQ]}, window=None)
    assert spin_lower_bound([SQ], MODEL) <= limit_energy(part, MODEL)


def test_rs_lower_bound():
    er = [[(0, 0), (1, 0), (1, 1), (0, 1)]]
    es = [[(1, 0), (2, 0), (2, 1), (1, 1)]]
    assert rs_lower_bound(er, [], MODEL) == 7
    assert rs_lower_bound([], es, MODEL) == 7
    v = rs_lower_bound(er, es, MODEL)
    assert v == F(55, 4)
    # swapping species and mirroring preserves the value
    er2 = [[(1, 0), (2, 0), (2, 1), (1, 1)]]
    es2 = [[(0, 0), (1, 0), (1, 1), (0, 1)]]
    assert rs_lower_bound(er2, es2, MODEL) == v
    with pytest.raises(InvalidPartition):
        rs_lower_bound(er, er, MODEL)
    # abutting polygons of one species are one island: their seam is not
    # an interface
    rectangle = [[(0, 0), (2, 0), (2, 1), (0, 1)]]
    assert rs_lower_bound(er + es, [], MODEL) == rs_lower_bound(rectangle, [], MODEL) == 11
    assert rs_lower_bound([], er + es, MODEL) == rs_lower_bound([], rectangle, MODEL)


def test_model_monotonicity_under_refinement():
    refined = DensityModel.with_patterns()
    refined.add_records([
        DensityRecord(1, 2, 1, 0, 12, "surface", F(1), F(1), F(30), F(5, 2), "exact", 0)
    ])
    win = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    part = PolygonalPartition(
        regions={
            1: [[(-1, -1), (0, -1), (0, 1), (-1, 1)]],
            2: [[(0, -1), (1, -1), (1, 1), (0, 1)]],
        },
        window=win,
    )
    assert limit_energy(part, refined) <= limit_energy(part, MODEL)


def test_invalid_partitions_rejected():
    win = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    with pytest.raises(InvalidPartition):
        PolygonalPartition(regions={1: [SQ]}, window=win)  # area mismatch
    with pytest.raises(InvalidPartition):
        PolygonalPartition(regions={0: [SQ]}, window=None)  # explicit 0 island
    # a label out of 0..8 is bad input, read by `label` before any geometry
    with pytest.raises(InvalidInput, match="region label 9 out of range 0..8"):
        PolygonalPartition(regions={9: [SQ]}, window=None)
    # overlap along an edge piece: two copies of the same island area-match
    # the window but double-cover it
    part = PolygonalPartition(
        regions={
            1: [[(-1, -1), (1, -1), (1, 1), (-1, 1)]],
            2: [[(-1, -1), (1, -1), (1, 1), (-1, 1)]],
        },
        window=[(-1, -1), (3, -1), (3, 1), (-1, 1)],
    )
    with pytest.raises(InvalidPartition):
        extract_interfaces(part)


BIG = [(0, 0), (4, 0), (4, 4), (0, 4)]
INNER = [(1, 1), (2, 1), (2, 2), (1, 2)]


def test_overlapping_islands_rejected():
    # a unit square inside a 4x4 one shares no edge with it: every price
    # would count the overlap twice
    for price in (
        lambda: limit_energy(PolygonalPartition(regions={1: [BIG], 2: [INNER]}), MODEL),
        lambda: spin_lower_bound([BIG, INNER], MODEL),
        lambda: rs_lower_bound([BIG], [INNER], MODEL),
    ):
        with pytest.raises(InvalidPartition, match="^islands overlap$"):
            price()
    # two triangles that cross properly, of one label or of two
    tri, crossing = [(0, 0), (4, 0), (2, 4)], [(0, 3), (2, -1), (4, 3)]
    # and a self-crossing island, whose two lobes wind opposite ways
    bow_tie = [(0, 0), (4, 2), (4, 0), (0, 1)]
    for regions in ({1: [tri, crossing]}, {1: [tri], 5: [crossing]}, {1: [bow_tie]}):
        with pytest.raises(InvalidPartition, match="^islands overlap$"):
            extract_interfaces(PolygonalPartition(regions=regions))
    # abutting islands, and islands that touch at a corner, still price
    assert limit_energy(PolygonalPartition(regions={1: [BIG]}), MODEL) == 28
    assert spin_lower_bound([BIG], MODEL) == 4 * spin_lower_bound([SQ], MODEL)
    halves = [[(0, 0), (4, 0), (4, 4)], [(0, 0), (4, 4), (0, 4)]]
    assert spin_lower_bound(halves, MODEL) == spin_lower_bound([BIG], MODEL)
    corner = [(4, 4), (5, 4), (5, 5), (4, 5)]
    assert spin_lower_bound([BIG, corner], MODEL) == 5 * spin_lower_bound([SQ], MODEL)


def test_anchored_admissible():
    big = [(-4, -4), (4, -4), (4, 4), (-4, 4)]
    ext = PolygonalPartition(regions={1: [big]}, window=None)
    same = PolygonalPartition(regions={1: [big]}, window=None)
    swapped = PolygonalPartition(regions={2: [big]}, window=None)
    assert anchored_admissible(same, ext, omega=WIN4)
    assert not anchored_admissible(swapped, ext, omega=WIN4)
    # interior differences only: still anchored
    interior_diff = PolygonalPartition(
        regions={
            1: [
                [(-4, -4), (4, -4), (4, -1), (-4, -1)],
                [(-4, -1), (-1, -1), (-1, 1), (-4, 1)],
                [(1, -1), (4, -1), (4, 1), (1, 1)],
                [(-4, 1), (4, 1), (4, 4), (-4, 4)],
            ],
            2: [[(-1, -1), (1, -1), (1, 1), (-1, 1)]],
        },
        window=None,
    )
    assert anchored_admissible(interior_diff, ext, omega=WIN4)


def test_spin_bound_under_mixed_partition():
    # a two-phase decomposition of the same island costs at least the
    # spin bound of the island's boundary
    win = None
    part = PolygonalPartition(
        regions={
            1: [[(0, 0), (1, 0), (1, 1), (0, 1)]],
            5: [[(1, 0), (2, 0), (2, 1), (1, 1)]],
        },
        window=win,
    )
    island = [[(0, 0), (2, 0), (2, 1), (0, 1)]]
    assert spin_lower_bound(island, MODEL) <= limit_energy(part, MODEL)


def test_wulff_beats_hexagonal_competitor():
    w = wulff_shape(phi_closed_form(1))
    wulff_part = PolygonalPartition(regions={1: [list(w)]}, window=None)
    e_w = limit_energy(wulff_part, MODEL)
    area_w = polygon_area(w)
    hexagon = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    hex_part = PolygonalPartition(regions={1: [hexagon]}, window=None)
    e_h = limit_energy(hex_part, MODEL)
    area_h = polygon_area(hexagon)
    # E^2 / area is scale invariant; the Wulff island wins strictly
    assert e_w * e_w * area_h < e_h * e_h * area_w
