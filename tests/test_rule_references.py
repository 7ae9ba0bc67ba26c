"""Differential tests: each phase and gauge rule against the restatement it replaced.

The phase map is stated once in `molecules.phase_shape`, and the level-set
hull once in `gauges.envelope_with_points`.  The routines that used to
restate them (the species branches of `subadditive_bound`, the dual loop
of `wulff_shape`, the hulls of `min_envelope` and `sum_gauge`) are kept
below as references and must agree exactly.  So is the `Fraction` edge
functional evaluation that `GaugePolygon.gauge` replaced with integer
functionals over one common denominator.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from chiralattice.densities import DensityModel, subadditive_bound, sum_gauge
from chiralattice.gauges import (
    GaugePolygon,
    _canonical_ccw,
    envelope_with_points,
    min_envelope,
    mirror,
    phi_closed_form,
    wulff_shape,
)
from chiralattice.molecules import InvalidInput, R, S, phase_shape
from chiralattice.polygeom import convex_hull


# -------------------------------------------------------------------
# References
# -------------------------------------------------------------------

def ref_subadditive_bound(i: int, j: int, nu) -> F:
    hexagon = phi_closed_form(1)
    hexagon_m = phi_closed_form(5)
    if i <= 4 and j <= 4:
        return 2 * hexagon.gauge(nu)
    if i >= 5 and j >= 5:
        return 2 * hexagon_m.gauge(nu)
    return hexagon.gauge(nu) + hexagon_m.gauge(nu)


def ref_functionals(polygon: GaugePolygon) -> list:
    """The edge functionals e with e . x = 1 on each edge, as Fractions."""
    v = polygon.vertices
    n = len(v)
    out = []
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        det = a[0] * b[1] - a[1] * b[0]
        out.append(((b[1] - a[1]) / det, (a[0] - b[0]) / det))
    return out


def ref_gauge(functionals: list, x) -> F:
    px, py = F(x[0]), F(x[1])
    if px == 0 and py == 0:
        return F(0)
    return max(ex * px + ey * py for ex, ey in functionals)


def ref_wulff_shape(polygon: GaugePolygon):
    return _canonical_ccw(ref_functionals(polygon))


def ref_min_envelope_hull(gauges) -> GaugePolygon:
    return GaugePolygon(convex_hull(v for g in gauges for v in g.vertices))


def ref_sum_gauge(a: GaugePolygon, b: GaugePolygon) -> GaugePolygon:
    pts = []
    for v in a.vertices + b.vertices:
        val = a.gauge(v) + b.gauge(v)
        pts.append((v[0] / val, v[1] / val))
    return GaugePolygon(convex_hull(pts))


# -------------------------------------------------------------------
# Inputs
# -------------------------------------------------------------------

def random_gauge(rng: random.Random) -> GaugePolygon:
    """Hull of rational points in all four open quadrants, so 0 is inside."""
    pts = []
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        for _ in range(rng.randint(1, 3)):
            x = F(rng.randint(1, 12), rng.randint(1, 3))
            y = F(rng.randint(1, 12), rng.randint(1, 3))
            pts.append((sx * x, sy * y))
    return GaugePolygon(convex_hull(pts))


NAMED = [
    phi_closed_form(1),
    phi_closed_form(5),
    DensityModel.closed_form_only().spin_envelope(),
    DensityModel.closed_form_only().rs_contact_envelope(),
    DensityModel.with_patterns().rs_contact_envelope(),
]
_rng = random.Random(20260808)
RANDOM = [random_gauge(_rng) for _ in range(50)]
POLYGONS = NAMED + RANDOM
# every pair of named polygons, and each random polygon with the next
PAIRS = list(itertools.combinations(NAMED, 2)) + list(zip(RANDOM, RANDOM[1:] + RANDOM[:1]))

NORMALS = [
    (p, q) for p in range(-5, 6) for q in range(-5, 6)
    if (p, q) != (0, 0) and math.gcd(p, q) == 1
]


def gauge_polygons() -> list[GaugePolygon]:
    """Every polygon the library prices with, and seeded random refined hulls."""
    closed = [phi_closed_form(i) for i in range(1, 9)]
    out = closed + [mirror(g) for g in closed]
    out.append(min_envelope([phi_closed_form(1), phi_closed_form(5)])[1])
    out += [model.rs_contact_envelope()
            for model in (DensityModel.closed_form_only(), DensityModel.with_patterns())]
    out += [sum_gauge(a, b) for a, b in itertools.permutations(closed, 2)]
    rng = random.Random(17)
    for _ in range(30):
        points = [((F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))),
                   F(rng.randint(1, 30), rng.randint(1, 5))) for _ in range(rng.randint(1, 6))]
        out.append(envelope_with_points([random_gauge(rng)],
                                        [(x, val) for x, val in points if x != (0, 0)]))
    return list(dict.fromkeys(out))


# -------------------------------------------------------------------
# Tests
# -------------------------------------------------------------------

def test_phase_shape_on_labels():
    assert [phase_shape(i) for i in range(1, 9)] == [R] * 4 + [S] * 4


@pytest.mark.parametrize("label", [0, 9, -1])
def test_phase_shape_rejects_other_labels(label):
    with pytest.raises(InvalidInput, match=rf"^phase label {label} out of range 1\.\.8$"):
        phase_shape(label)


def test_subadditive_bound_matches_species_branches():
    pairs = [(i, j) for i in range(1, 9) for j in range(1, 9) if i != j]
    assert len(pairs) == 56
    # the reference reads only the species of i and j: one value per species pair
    expected = {
        (i <= 4, j <= 4, nu): ref_subadditive_bound(i, j, nu)
        for (i, j), nu in itertools.product([(1, 2), (1, 5), (5, 1), (5, 6)], NORMALS)
    }
    for (i, j), nu in itertools.product(pairs, NORMALS):
        assert subadditive_bound(i, j, nu) == expected[(i <= 4, j <= 4, nu)], (i, j, nu)


def test_wulff_shape_matches_dual_loop():
    for polygon in POLYGONS:
        assert wulff_shape(polygon) == ref_wulff_shape(polygon)


def test_min_envelope_hull_matches_vertex_hull():
    for group in [[g] for g in POLYGONS] + [list(pair) for pair in PAIRS] + [NAMED]:
        assert min_envelope(group)[1].vertices == ref_min_envelope_hull(group).vertices


def test_sum_gauge_matches_level_set_loop():
    for a, b in PAIRS:
        assert sum_gauge(a, b).vertices == ref_sum_gauge(a, b).vertices


def test_gauge_matches_fraction_functionals():
    rng = random.Random(29)
    rationals = [
        (F(rng.randint(-60, 60), rng.randint(1, 12)), F(rng.randint(-60, 60), rng.randint(1, 12)))
        for _ in range(40)
    ]
    assert len(NORMALS) == 80
    for polygon in gauge_polygons():
        functionals = ref_functionals(polygon)
        for x in NORMALS + rationals + [(0, 0), (F(0), F(0))]:
            got = polygon.gauge(x)
            assert got == ref_gauge(functionals, x) and type(got) is F, (polygon, x)
        assert wulff_shape(polygon) == ref_wulff_shape(polygon)


def test_gauge_polygon_equality_ignores_the_starting_vertex():
    for polygon in NAMED + RANDOM[:5]:
        verts = polygon.vertices
        for k in range(len(verts)):
            rotated = GaugePolygon(verts[k:] + verts[:k])
            assert rotated == polygon and hash(rotated) == hash(polygon)
        assert GaugePolygon(tuple(reversed(verts))) == polygon
    assert phi_closed_form(1) != phi_closed_form(5)
    assert phi_closed_form(1) != phi_closed_form(1).vertices
