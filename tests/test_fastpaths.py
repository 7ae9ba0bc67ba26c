"""Differential tests: integer fast paths against the Fraction reference code.

The lattice energies, the window cell tests, the family enumeration, the
polygon area and the polygon sweep count whole edges, cells and anchors
with ints, price each cut line once and search crossings slab by slab.  Each is checked here for exact equality against the plain
Fraction formulation that it replaced, kept below as the reference.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from chiralattice.interfaces import (
    InterfaceProblem,
    _family_members,
    _inner,
    _units,
    _window_cells,
    direction,
)
from chiralattice.molecules import (
    R_LIKE,
    Molecule,
    R,
    S,
    Window,
    pattern_columns,
    perimeter,
    phase_label,
    phase_pattern,
    phase_shape,
    validate,
    volume_deficit,
    weighted_perimeter,
)
from chiralattice.polygeom import polygon_area, predicate_area
from conftest import random_configuration
from test_line_bound import in_boundary_family, inside_inner


# -------------------------------------------------------------------
# Reference implementations (all Fraction, no caching, no pruning)
# -------------------------------------------------------------------

def ref_bounds(window: Window):
    cx, cy = window.center
    h = window.side / 2
    return (cx - h, cy - h, cx + h, cy + h)


def ref_contains_cell(bounds, cell) -> bool:
    x0, y0, x1, y1 = bounds
    a, b = cell
    return a < x1 and a + 1 > x0 and b < y1 and b + 1 > y0


def ref_edge_length(bounds, kind: str, x: int, y: int) -> F:
    if bounds is None:
        return F(1)
    x0, y0, x1, y1 = bounds
    if kind == "V":
        if not (x0 < x < x1):
            return F(0)
        lo, hi = max(F(y), y0), min(F(y + 1), y1)
    else:
        if not (y0 < y < y1):
            return F(0)
        lo, hi = max(F(x), x0), min(F(x + 1), x1)
    return hi - lo if hi > lo else F(0)


def ref_edges(config):
    occ = config.occupancy
    for (a, b) in occ:
        if (a - 1, b) not in occ:
            yield ("V", a, b, (a, b))
        if (a + 1, b) not in occ:
            yield ("V", a + 1, b, (a, b))
        if (a, b - 1) not in occ:
            yield ("H", a, b, (a, b))
        if (a, b + 1) not in occ:
            yield ("H", a, b + 1, (a, b))


def ref_perimeter(config, window) -> F:
    bounds = None if window.is_plane else ref_bounds(window)
    return sum((ref_edge_length(bounds, k, x, y) for k, x, y, _ in ref_edges(config)), F(0))


def ref_weighted(config, c_R, c_S, window) -> F:
    bounds = None if window.is_plane else ref_bounds(window)
    total = F(0)
    for kind, x, y, owner in ref_edges(config):
        mol = config.molecules[config.occupancy[owner]]
        w = c_R if mol.shape.chirality_class == R_LIKE else c_S
        total += ref_edge_length(bounds, kind, x, y) * w
    return total


def ref_volume(config, window) -> F:
    x0, y0, x1, y1 = ref_bounds(window)
    covered = F(0)
    for (a, b) in config.occupancy:
        w = min(F(a + 1), x1) - max(F(a), x0)
        h = min(F(b + 1), y1) - max(F(b), y0)
        if w > 0 and h > 0:
            covered += w * h
    return (x1 - x0) * (y1 - y0) - covered


def ref_cell_range(window: Window):
    x0, y0, x1, y1 = ref_bounds(window)
    return (
        range(math.floor(x0 - 1) + 1, math.ceil(x1) - 1 + 1),
        range(math.floor(y0 - 1) + 1, math.ceil(y1) - 1 + 1),
    )


def pattern_anchor(i: int, cell) -> tuple[int, int]:
    """Anchor of the unique phase-i molecule covering the given cell.

    For each cell and each phase exactly one of the four candidate anchors
    has the right residue, which is why each family tiles the plane.
    """
    a, b = cell
    if 1 <= i <= 4:
        for n in ((a, b), (a, b - 1), (a, b - 2), (a - 1, b - 2)):
            r = (n[0] + n[1]) % 4
            if (4 if r == 0 else r) == i:
                return n
    elif 5 <= i <= 8:
        for n in ((a + 1, b), (a + 1, b - 1), (a + 1, b - 2), (a + 2, b - 2)):
            r = (n[1] - n[0]) % 4
            if (8 if r == 0 else r + 4) == i:
                return n
    raise AssertionError("unreachable: one candidate anchor always matches")


def phase_molecule(i: int, cell) -> Molecule:
    """The unique molecule of phase i whose cells contain the given cell."""
    return Molecule(R if i <= 4 else S, pattern_anchor(i, cell))


def ref_phase_pattern(i: int, window: Window) -> list[Molecule]:
    xs, ys = ref_cell_range(window)
    anchors = {pattern_anchor(i, (a, b)) for a in xs for b in ys}
    shape = R if i <= 4 else S
    mols = [Molecule(shape, n) for n in sorted(anchors)]
    bounds = ref_bounds(window)
    return [m for m in mols if any(ref_contains_cell(bounds, c) for c in m.cells())]


def ref_family_members(i, j, nu, window) -> list[Molecule]:
    """The cell sweep: one phase molecule per cell of the padded box."""
    xs, ys = ref_cell_range(window)
    bounds = ref_bounds(window)
    seen = set()
    out = []
    labels = [lab for lab in (i, j) if lab != 0]
    for a in range(xs.start - 3, xs.stop + 3):
        for b in range(ys.start - 3, ys.stop + 3):
            for lab in labels:
                m = phase_molecule(lab, (a, b))
                key = (m.shape.name, m.anchor)
                if key in seen:
                    continue
                seen.add(key)
                if not in_boundary_family(m, i, j, nu):
                    continue
                if any(ref_contains_cell(bounds, c) for c in m.cells()):
                    out.append(m)
    out.sort(key=lambda m: (m.shape.name, m.anchor))
    return out


def _edges_of(polygons):
    out = []
    for poly in polygons:
        n = len(poly)
        for i in range(n):
            a = (F(poly[i][0]), F(poly[i][1]))
            b = (F(poly[(i + 1) % n][0]), F(poly[(i + 1) % n][1]))
            if a != b:
                out.append((a, b))
    return out


def ref_polygon_area(poly) -> F:
    """The Fraction shoelace, one product pair per vertex."""
    total = F(0)
    for k in range(len(poly)):
        (x0, y0), (x1, y1) = poly[k], poly[(k + 1) % len(poly)]
        total += F(x0) * F(y1) - F(x1) * F(y0)
    return total / 2


def ref_predicate_area(polygon_sets, predicate) -> F:
    """The all-pairs slab sweep, slopes rebuilt per pair and per slab."""
    edge_sets = [_edges_of(ps) for ps in polygon_sets]
    all_edges = [(e, si) for si, es in enumerate(edge_sets) for e in es]
    if not all_edges:
        return F(0)
    breaks = set()
    for (a, b), _ in all_edges:
        breaks.add(a[0])
        breaks.add(b[0])
    nonvert = [(a, b, si) for (a, b), si in all_edges if a[0] != b[0]]
    for i in range(len(nonvert)):
        a1, b1, _ = nonvert[i]
        for j in range(i + 1, len(nonvert)):
            a2, b2, _ = nonvert[j]
            d1 = (b1[0] - a1[0], b1[1] - a1[1])
            d2 = (b2[0] - a2[0], b2[1] - a2[1])
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if den == 0:
                continue
            s = ((a2[0] - a1[0]) * d2[1] - (a2[1] - a1[1]) * d2[0]) / den
            x = a1[0] + s * d1[0]
            lo1, hi1 = min(a1[0], b1[0]), max(a1[0], b1[0])
            lo2, hi2 = min(a2[0], b2[0]), max(a2[0], b2[0])
            if lo1 <= x <= hi1 and lo2 <= x <= hi2:
                breaks.add(x)
    xs = sorted(breaks)
    total = F(0)
    for xi in range(len(xs) - 1):
        xl, xr = xs[xi], xs[xi + 1]
        active = []
        for a, b, si in nonvert:
            lo, hi = (a, b) if a[0] < b[0] else (b, a)
            if lo[0] <= xl and hi[0] >= xr:
                slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
                active.append((lo[1] + slope * (xl - lo[0]), lo[1] + slope * (xr - lo[0]), si))
        active.sort(key=lambda t: t[0] + t[1])
        parity = [False] * len(polygon_sets)
        for ei in range(len(active)):
            parity[active[ei][2]] = not parity[active[ei][2]]
            if ei + 1 < len(active) and predicate(tuple(parity)):
                ya_l, ya_r, _ = active[ei]
                yb_l, yb_r, _ = active[ei + 1]
                total += (xr - xl) * ((yb_l + yb_r) - (ya_l + ya_r)) / 2
    return total


# -------------------------------------------------------------------
# Windows and lattice energies
# -------------------------------------------------------------------

def random_window(rng: random.Random) -> Window:
    """Sides and centres on grids of 1, 1/2, 1/3, 1/4 and 1/7, so that the
    boundary sometimes runs along lattice lines and sometimes cuts cells."""
    den = rng.choice((1, 1, 2, 3, 4, 7))
    side = F(rng.randint(1, 30 * den), den)
    cden = rng.choice((1, 2, 3, 5))
    center = (F(rng.randint(-12 * cden, 12 * cden), cden),
              F(rng.randint(-12 * cden, 12 * cden), cden))
    return Window.square(side, center)


def assert_lattice_energies(config, window, c_R, c_S):
    got = (
        perimeter(config, window),
        weighted_perimeter(config, c_R, c_S, window),
        volume_deficit(config, window),
    )
    assert got == (
        ref_perimeter(config, window),
        ref_weighted(config, c_R, c_S, window),
        ref_volume(config, window),
    ), (window, config.molecules)
    assert all(type(v) is F for v in got)
    assert got[0] == weighted_perimeter(config, 1, 1, window)


def seam(den: int) -> list[Molecule]:
    """The criterion-10 seam at eps = 1/den on the lattice: phase 1 left of
    x = 0 and phase 2 right of it, with an empty column between."""
    wlat = Window.square(4 * den + 16)
    return ([m for m in phase_pattern(1, wlat) if all(c[0] + 1 <= 0 for c in m.cells())]
            + [m for m in phase_pattern(2, wlat) if all(c[0] >= 1 for c in m.cells())])


def test_lattice_energies_match_fraction_clipping():
    rng = random.Random(20261017)
    cut_cells = 0
    for _ in range(400):
        window = random_window(rng)
        config = random_configuration(rng, max_molecules=30)
        c_R = F(rng.randint(1, 9), rng.randint(1, 4))
        c_S = F(rng.randint(1, 9), rng.randint(1, 4))
        assert_lattice_energies(config, window, c_R, c_S)
        for shape in (R, S):  # one species only
            one = validate([m for m in config if m.shape is shape])
            assert_lattice_energies(one, window, c_R, c_S)
        x0, y0, x1, y1 = ref_bounds(window)
        cut_cells += any(v.denominator != 1 for v in (x0, y0, x1, y1))
    assert cut_cells > 100  # the boundary cuts cells in many of the windows
    # long runs of interior cells; the second window also cuts the seam's rim
    config = validate(seam(16))
    for window in (Window.square(F(193, 3), (F(1, 2), F(-2, 7))),
                   Window.square(F(163, 2), (F(1, 3), 0))):
        assert_lattice_energies(config, window, F(3, 2), F(5, 7))


def test_plane_energies_are_fractions():
    rng = random.Random(7)
    for _ in range(20):
        config = random_configuration(rng)
        got = perimeter(config), weighted_perimeter(config, 1, F(1, 4))
        assert got == (ref_perimeter(config, Window.plane()),
                       ref_weighted(config, F(1), F(1, 4), Window.plane()))
        assert all(type(v) is F for v in got)


def test_cut_lines_are_priced_once(monkeypatch):
    """On the criterion-10 seam, in the two windows above that cut cells,
    each energy prices a cut line with `Window._clip` at most once per
    chirality class (once in all for the deficit), and only cut lines."""
    calls = []

    def recording(self, axis, k):
        calls.append((axis, k))
        return clip(self, axis, k)

    clip = Window._clip
    monkeypatch.setattr(Window, "_clip", recording)
    config = validate(seam(16))
    for window in (Window.square(F(193, 3), (F(1, 2), F(-2, 7))),
                   Window.square(F(163, 2), (F(1, 3), 0))):
        cells, whole = window.cell_range(), window._whole
        cut_lines = {(axis, k) for axis in (0, 1) for k in cells[axis] if k not in whole[axis]}
        for energy, per_line in (
            (lambda: perimeter(config, window), 2),
            (lambda: weighted_perimeter(config, F(3, 2), F(5, 7), window), 2),
            (lambda: volume_deficit(config, window), 1),
        ):
            calls.clear()
            assert type(energy()) is F
            assert calls and set(calls) <= cut_lines, window
            assert max(calls.count(line) for line in calls) <= per_line, (window, calls)
        monkeypatch.setattr(Window, "_clip", clip)
        assert_lattice_energies(config, window, F(3, 2), F(5, 7))
        monkeypatch.setattr(Window, "_clip", recording)


def test_contains_cell_and_cell_range_match_fraction_bounds():
    rng = random.Random(42)
    for _ in range(400):
        window = random_window(rng)
        assert window.cell_range() == ref_cell_range(window)
        assert window.bounds() == ref_bounds(window)
        bounds = x0, y0, x1, y1 = ref_bounds(window)
        for a in range(math.floor(x0) - 2, math.ceil(x1) + 2):
            for b in (math.floor(y0) - 1, math.floor(y0), math.floor(y0) + 1,
                      math.ceil(y1) - 1, math.ceil(y1), rng.randint(-40, 40)):
                assert window.contains_cell((a, b)) == ref_contains_cell(bounds, (a, b))
                assert window.contains_cell((b, a)) == ref_contains_cell(bounds, (b, a))


def test_window_is_still_a_plain_value():
    a = Window.square(F(7, 2), (F(1, 3), 0))
    a.contains_cell((0, 0))  # fills the per-instance cache
    b = Window.square(F(7, 2), (F(1, 3), 0))
    assert a == b and hash(a) == hash(b)


def test_frame_cell_tests_match_fraction_formulas():
    for T in range(8, 41):
        h = F(T, 2)
        inner_range, window_range = _inner(T), _window_cells(T)
        for a in range(-T, T + 1):
            for b in (-T // 2 - 1, -T // 2, 0, T // 2 - 5, T // 2 - 4, T // 2):
                cell = (a, b)
                meets = a < h and a + 1 > -h and b < h and b + 1 > -h
                inner = -h + 4 <= a and a + 1 <= h - 4 and -h + 4 <= b and b + 1 <= h - 4
                assert (a in window_range and b in window_range) == meets
                in_range = a in inner_range and b in inner_range
                assert in_range == inside_inner(cell, T) == inner


# -------------------------------------------------------------------
# Phase patterns and boundary families
# -------------------------------------------------------------------

def test_phase_pattern_matches_cell_sweep():
    rng = random.Random(5)
    for _ in range(40):
        window = random_window(rng)
        for i in range(1, 9):
            assert list(phase_pattern(i, window).molecules) == ref_phase_pattern(i, window)


def ref_pattern_columns(i: int, window: Window) -> list[tuple[int, range]]:
    """The per-column loop that `pattern_columns` replaced: every column's
    rows worked out one by one, on the window's cell ranges."""
    shape = phase_shape(i)
    origin = phase_label(Molecule(shape, (0, 0)))
    step = phase_label(Molecule(shape, (1, 0))) - origin
    dxs = [c for c, _ in shape.cells]
    xs, ys = window.cell_range()
    out = []
    for a in range(xs.start - max(dxs), xs.stop - min(dxs)):
        dys = [r for c, r in shape.cells if a + c in xs]
        first = ys.start - max(dys)
        first += (i - origin - step * a - first) % 4
        out.append((a, range(first, ys.stop - min(dys), 4)))
    return out


def test_pattern_columns_match_the_per_column_loop():
    # every label on windows of integer and fractional sides from 1 to 21,
    # at lattice and off-lattice centres; sides below the shape's width
    # leave no interior column
    sides = [F(k) for k in range(1, 22)] + [F(1, 2), F(5, 3), F(7, 2), F(19, 4), F(41, 4), F(62, 3)]
    centres = [(0, 0), (F(1, 2), 0), (F(1, 3), F(-2, 7)), (F(-5, 4), F(7, 3))]
    windows = [Window.square(side, centre) for side in sides for centre in centres]
    checked = 0
    for window in windows:
        for i in range(1, 9):
            got = pattern_columns(i, window.cell_range())
            assert got == ref_pattern_columns(i, window), (i, window)
            checked += 1
    assert checked == 864


def test_outer_clip_matches_the_window():
    # the clip of Q_T's outer lines is the Fraction window's, on both axes
    # and at both ends, and the next line is whole; in the units of
    # `_units` an edge along them costs w less w >> 1 at odd T, with every
    # int weight w even there, and an outer cell's area is scale less
    # scale >> 1, a corner cell's that less scale >> 1 plus scale >> 2
    weights = [(1, 1), (1, F(1, 4)), (F(1, 3), 2), (F(1, 2), F(3, 4)), (F(2, 3), F(1, 4))]
    for T in range(8, 41):
        odd = T & 1
        clips = set()
        for w in weights:
            scale, *ints = _units(InterfaceProblem(1, 0, direction(1, 1), T, w))
            for c, w_int in zip(w, ints):
                assert F(w_int, scale) == c and w_int % (1 + odd) == 0, (T, w)
                clips.add(F(w_int - odd * (w_int >> 1), w_int))
        scale, _, _ = _units(InterfaceProblem(1, 0, direction(1, 1), T, energy_kind="volume"))
        clips.add(F(scale - odd * (scale >> 1), scale))
        (clip,) = clips
        corner = scale - odd * 2 * (scale >> 1) + odd * (scale >> 2)
        assert F(corner, scale) == clip * clip, T
        window, cells = Window.square(T), _window_cells(T)
        for axis in (0, 1):
            for k in (cells[0], cells[-1]):
                assert clip == window._clip(axis, k), T
            assert window._clip(axis, cells[1]) == window._clip(axis, cells[-2]) == 1, T
        assert clip == (1 if T % 2 == 0 else F(1, 2)), T


FAMILY_PAIRS = (
    (1, 0), (2, 0), (5, 0), (8, 0), (0, 3), (0, 6),
    (1, 2), (1, 5), (1, 7), (5, 6), (4, 8), (7, 3),
)
FAMILY_DIRECTIONS = ((1, 0), (0, 1), (-1, 0), (1, 1), (1, -1), (-1, -1), (3, -1), (2, 1))


@pytest.mark.parametrize("T", (8, 9, 12, 13, 16, 20))
def test_family_members_match_cell_sweep(T):
    window = Window.square(T + 8)
    for i, j in FAMILY_PAIRS:
        for p, q in FAMILY_DIRECTIONS:
            nu = direction(p, q)
            got = _family_members(i, j, nu, window.cell_range())
            assert got == ref_family_members(i, j, nu, window)


def test_family_members_every_pair_on_off_grid_windows():
    rng = random.Random(9)
    pairs = [(i, j) for i in range(9) for j in range(9) if i != j]
    for i, j in pairs:
        window = random_window(rng)
        nu = direction(*rng.choice(FAMILY_DIRECTIONS))
        got = _family_members(i, j, nu, window.cell_range())
        assert got == ref_family_members(i, j, nu, window)


# -------------------------------------------------------------------
# The polygon sweep
# -------------------------------------------------------------------

def _grid_point(rng, den):
    return (F(rng.randint(0, 4 * den), den), F(rng.randint(0, 4 * den), den))


def random_polygon_set(rng: random.Random) -> list:
    """Triangles, rectangles and unit-cell halves on a fine rational grid.

    Rectangles share a baseline and cell halves share their diagonals and
    sides, so the sets carry shared and collinear edges."""
    den = rng.choice((1, 2, 3, 6))
    polys = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            polys.append((_grid_point(rng, den), _grid_point(rng, den), _grid_point(rng, den)))
        elif kind == 1:
            x0, x1 = sorted(F(rng.randint(0, 4 * den), den) for _ in range(2))
            y1 = F(rng.randint(1, 4 * den), den)
            polys.append(((x0, F(0)), (x1, F(0)), (x1, y1), (x0, y1)))
        else:
            x, y = rng.randint(0, 3), rng.randint(0, 3)
            if rng.random() < 0.5:
                polys.append(((x, y), (x + 1, y), (x + 1, y + 1)))
            else:
                polys.append(((x, y), (x + 1, y + 1), (x, y + 1)))
    return polys


PREDICATES = {
    "first": lambda p: p[0],
    "any": any,
    "first_xor_last": lambda p: p[0] != p[-1],
    "first_minus_last": lambda p: p[0] and not p[-1],
}


def _star(rng: random.Random, n: int, step: int, den: int) -> tuple:
    """The star polygon {n/step} on n rational points taken in angular
    order around a random centre on the 1/den grid."""
    cx, cy = F(rng.randint(0, 4 * den), den), F(rng.randint(0, 4 * den), den)
    pts = []
    for k in range(n):
        angle = 2 * math.pi * (k + rng.random() / 2) / n
        r = rng.randint(2 * den, 4 * den)
        pts.append((cx + F(round(r * math.cos(angle)), den), cy + F(round(r * math.sin(angle)), den)))
    return tuple(pts[(k * step) % n] for k in range(n))


def crossing_heavy_sets(rng: random.Random) -> list:
    """Fixed and random polygon sets whose edges cross a lot: star polygons,
    crossings on a vertex abscissa, collinear overlaps, vertical edges and
    sets that share vertices."""
    pentagram = ((0, 3), (2, -3), (-3, 1), (3, 1), (-2, -3))
    fixed = [
        [[pentagram]],
        [[pentagram], [((-3, -3), (3, -3), (3, 3), (-3, 3))]],
        # the X crosses at x = 1, a vertex abscissa of the third triangle
        [[((0, 0), (2, 2), (0, 2))], [((0, 2), (2, 0), (2, 2))], [((1, 3), (3, 3), (2, 4))]],
        # an edge through another set's vertex, and a crossing on its abscissa
        [[((0, 0), (4, 4), (0, 4))], [((2, 2), (5, 0), (5, 3))], [((2, -1), (3, 5), (1, 5))]],
        # collinear overlapping edges, one set inside the other's hull
        [[((0, 0), (4, 4), (0, 4))], [((1, 1), (3, 3), (3, 0))], [((2, 2), (6, 6), (6, 2))]],
        # vertical edges crossed by slanted ones and stacked on a line
        [[((1, 0), (1, 4), (3, 4), (3, 0))], [((0, 1), (4, 3), (0, 3))],
         [((1, 1), (1, 2), (F(5, 2), 5)), ((3, 0), (3, 2), (4, 1))]],
        # every set drawn from one pool of five points
        [[((0, 0), (4, 1), (1, 4))], [((4, 1), (1, 4), (3, 3))],
         [((0, 0), (3, 3), (4, 1)), ((0, 0), (1, 4), (2, 1))]],
    ]
    pool = [_grid_point(rng, 2) for _ in range(6)]
    randoms = []
    for _ in range(12):
        den = rng.choice((1, 2, 3, 5))
        sets = []
        for _ in range(rng.randint(1, 3)):
            polys = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(3)
                if kind == 0:
                    n = rng.choice((5, 7, 8))
                    polys.append(_star(rng, n, rng.choice([k for k in (2, 3) if math.gcd(n, k) == 1]), den))
                elif kind == 1:
                    polys.append(tuple(rng.sample(pool, rng.randint(3, 5))))
                else:
                    x0, x1 = sorted(rng.sample(range(0, 4 * den + 1), 2))
                    polys.append(((F(x0, den), 0), (F(x1, den), F(rng.randint(1, 4 * den), den)),
                                  (F(x1, den), 4), (F(x0, den), F(rng.randint(0, 4 * den), den))))
            sets.append(polys)
        randoms.append(sets)
    return fixed + randoms


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_predicate_area_matches_all_pairs_sweep(name):
    predicate = PREDICATES[name]
    rng = random.Random(sorted(PREDICATES).index(name))
    cases = [[random_polygon_set(rng) for _ in range(rng.randint(1, 4))] for _ in range(40)]
    for sets in cases + crossing_heavy_sets(rng):
        got = predicate_area(sets, predicate)
        assert type(got) is F
        assert got == ref_predicate_area(sets, predicate), sets
    # even-odd parity differs from the signed area only through crossings
    pentagram = ((0, 3), (2, -3), (-3, 1), (3, 1), (-2, -3))
    assert 0 < predicate_area([[pentagram]], lambda p: p[0]) < abs(polygon_area(pentagram))


def test_polygon_area_matches_fraction_shoelace():
    rng = random.Random(2026)
    for n in range(300):
        size = rng.randint(3, 8)
        if n % 3 == 0:
            poly = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(size)]
        else:
            poly = [(F(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 7, 12))),
                     F(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 7, 12)))) for _ in range(size)]
        for verts in (poly, poly[::-1]):
            got = polygon_area(verts)
            assert type(got) is F
            assert got == ref_polygon_area(verts), verts
        assert polygon_area(poly[::-1]) == -polygon_area(poly)
