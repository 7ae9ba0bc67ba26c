"""Differential tests: integer fast paths against the Fraction reference code.

The lattice energies, the window cell tests, the family enumeration, the
polygon area and the polygon sweep count whole edges, cells and anchors
with ints, price each cut line once and search crossings slab by slab.  Each is checked here for exact equality against the plain
Fraction formulation that it replaced, kept below as the reference.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction as F
from functools import cached_property

import pytest

from chiralattice import decomposition, molecules
from chiralattice.altpairs import FLAT_PAIR, SKEW_PAIR
from chiralattice.decomposition import ScaledConfiguration, decompose
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


def ref_clip(bounds, axis: int, k: int) -> F:
    """Length of the unit interval [k, k+1] on axis 0 (x) or 1 (y) inside
    the open window with these bounds, for a line k of its cells."""
    return min(bounds[axis + 2], k + 1) - max(bounds[axis], k)


def ref_cuts(window: Window) -> dict[tuple[int, int], F]:
    """{(axis, k): clip} for every line k of the window's cells whose clip
    is below 1."""
    bounds = ref_bounds(window)
    return {(axis, k): clip for axis, cells in enumerate(ref_cell_range(window))
            for k in cells if (clip := ref_clip(bounds, axis, k)) < 1}


def assert_cuts_match(window: Window):
    """`Window._cuts` lists exactly the window's cut lines, each with its
    exact Fraction clip as 1 + e / unit, unit the clips' least common
    denominator."""
    unit, cuts = window._cuts
    want = ref_cuts(window)
    assert {(axis, k): 1 + F(e, unit) for axis, k, e in cuts} == want, window
    assert len(cuts) == len(want) and unit == math.lcm(*(c.denominator for c in want.values())), window


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


def droplet(eps: F) -> ScaledConfiguration:
    """Phase 1 inside a disk of radius 5/4 about the origin, phase 2 outside
    it, on Q_(4/eps + 16): a curved seam, as `decompose` reads it."""
    box, n = Window.square(4 / eps + 16), int(1 / eps)

    def inside(m):  # the cells' centres inside the disk of radius 5n/4
        return [25 * n * n > 4 * ((2 * a + 1) ** 2 + (2 * b + 1) ** 2) for a, b in m.cells()]

    return ScaledConfiguration(eps, validate([m for m in phase_pattern(1, box) if all(inside(m))]
                                             + [m for m in phase_pattern(2, box) if not any(inside(m))]))


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
    # the other pairs, and all six shapes at once: several shapes per class
    for shapes in (FLAT_PAIR, SKEW_PAIR, (R, S, *FLAT_PAIR, *SKEW_PAIR)):
        for _ in range(40):
            config = random_configuration(rng, max_molecules=25, shapes=shapes, span=12)
            assert_lattice_energies(config, random_window(rng), F(2, 3), F(5, 4))
    # the empty configuration, and windows that miss the configuration or
    # are far larger than its board
    config = random_configuration(random.Random(5), max_molecules=20, span=12)
    assert len(config) > 10
    for window in (Window.square(F(7, 2), (F(1, 3), 40)), Window.square(5, (-30, -30)),
                   Window.square(F(801, 2), (F(1, 2), F(-1, 3))), Window.square(1000)):
        assert_lattice_energies(validate([]), window, F(3, 2), F(5, 7))
        assert_lattice_energies(config, window, F(3, 2), F(5, 7))
    # sparse configurations, boxes far larger than their cells, on several
    # boards: two molecules 10^5 apart, a diagonal staircase, an L of two
    # strips of touching molecules, cut across, and molecules scattered over
    # up to 2 * 10^5 cells, in windows around one molecule or over many
    far = validate([Molecule(R, (0, 0)), Molecule(S, (100_000, 100_000))])
    stair = validate([Molecule(R, (3 * i, 3 * i)) for i in range(300)])
    # the phase-1 molecules inside two strips, read off the stripe columns
    # over the strips' cells, in the column order of `phase_pattern`
    strips = ((range(600), range(4)), (range(4), range(600)))
    near = {Molecule(R, (a, b)) for cells in strips for a, bs in pattern_columns(1, cells) for b in bs}
    ell = validate(sorted((m for m in near if all(
        0 <= a < 600 and 0 <= b < 4 or 0 <= a < 4 and 0 <= b < 600 for a, b in m.cells())),
        key=lambda m: m.anchor))
    for config, windows in (
        (far, [Window.square(5, (F(1, 2), 1)), Window.square(9, (100_000, F(100_003, 3))),
               Window.square(F(400_003, 2), (50_000, F(100_001, 2)))]),
        (stair, [Window.square(F(1801, 2), (450, 450)), Window.square(F(61, 3), (F(301, 2), 150))]),
        (ell, [Window.square(F(1201, 2), (300, 300)), Window.square(F(601, 3), (300, F(3, 2))),
               Window.square(F(17, 2), (F(599, 2), F(1, 3))), Window.square(7, (F(3, 2), F(601, 2)))]),
    ):
        assert perimeter(config) == ref_perimeter(config, Window.plane())
        for window in windows:
            assert_lattice_energies(config, window, F(3, 2), F(5, 7))
        assert len(config._boards) > 1
    for _ in range(40):
        span = rng.choice((300, 100_000))
        config = random_configuration(rng, max_molecules=30, span=span)
        assert perimeter(config) == ref_perimeter(config, Window.plane())
        a, b = rng.choice(config.molecules).anchor if len(config) else (0, 0)
        window = Window.square(F(rng.randint(1, 8 * span), rng.choice((1, 3))),
                               (a + F(rng.randint(-9, 9), 5), b + F(rng.randint(-9, 9), 2)))
        assert_lattice_energies(config, window, F(3, 2), F(5, 7))
    # one configuration, its board built once, read through several windows
    # in turn and on the plane
    config = validate(seam(16))
    windows = [Window.square(F(193, 3), (F(1, 2), F(-2, 7))), Window.square(F(163, 2), (F(1, 3), 0)),
               Window.square(F(17, 4), (F(-1, 2), 3)), Window.square(24, (F(1, 7), 0))]
    for window in windows + windows[::-1]:
        assert_lattice_energies(config, window, F(3, 2), F(5, 7))
        assert perimeter(config) == ref_perimeter(config, Window.plane())


@pytest.mark.parametrize("eps", [F(1, 16), F(1, 32)])
def test_decompose_prices_a_curved_seam(eps):
    """On a droplet's curved seam, in a centred and an off-centre window,
    the boundary length `decompose` reports equals the per-edge Fraction
    reference over every cell of the configuration."""
    sc = droplet(eps)
    for window in (Window.square(4), Window.square(5, (F(1, 3), F(-2, 7)))):
        wlat = decomposition._window_in_lattice(window, eps)
        assert decompose(sc, window).boundary_length == eps * ref_perimeter(sc.config, wlat)


def test_plane_energies_are_fractions():
    rng = random.Random(7)
    for _ in range(20):
        config = random_configuration(rng)
        got = perimeter(config), weighted_perimeter(config, 1, F(1, 4))
        assert got == (ref_perimeter(config, Window.plane()),
                       ref_weighted(config, F(1), F(1, 4), Window.plane()))
        assert all(type(v) is F for v in got)


def test_cut_lines_are_priced_once(monkeypatch):
    """On the criterion-10 seam, in two windows that cut cells, the three
    energies together price the window's cut lines (`Window._cuts`) once
    in all, and those are exactly the lines whose exact Fraction clip is
    below 1, at that clip."""
    calls = []

    def recording(self):
        calls.append(self)
        return cuts.func(self)

    cuts = Window.__dict__["_cuts"]
    spy = cached_property(recording)
    spy.__set_name__(Window, "_cuts")
    monkeypatch.setattr(Window, "_cuts", spy)
    config = validate(seam(16))
    for window in (Window.square(F(193, 3), (F(1, 2), F(-2, 7))),
                   Window.square(F(163, 2), (F(1, 3), 0))):
        calls.clear()
        energies = (
            perimeter(config, window),
            weighted_perimeter(config, F(3, 2), F(5, 7), window),
            volume_deficit(config, window),
        )
        assert all(type(v) is F for v in energies)
        assert calls == [window], window
        assert window._cuts[1] and ref_cuts(window), window
        assert_cuts_match(window)
        assert_lattice_energies(config, window, F(3, 2), F(5, 7))
        assert calls == [window], window


def test_energy_work_guard(monkeypatch):
    """Validation builds a configuration's board once, and the three
    energies read it and build none; `decompose` on the eps = 1/64 seam,
    twice, and a later `perimeter` on it build none either.  None of them
    builds the occupancy dict, and validating that seam traces less than
    3 MB, where a dict over its 74k cells held about 9 MiB.  Boards take at
    most 64 bits a cell plus 64 x 64 bits each, however far apart the cells
    lie: two molecules 10^5 apart, whose box has 10^10 cells, are validated
    and read in less than 100 kB of traced memory."""
    mols16, mols64, drop = seam(16), seam(64), droplet(F(1, 32))
    builds = []

    def counted(groups, x0, y0, height, width, own):
        builds.append((sum(len(cells) * len(offsets) for _, cells, offsets in groups), height * width))
        return build(groups, x0, y0, height, width, own)

    build = molecules._build_board
    monkeypatch.setattr(molecules, "_build_board", counted)
    config = validate(mols16)
    assert [cells for cells, _ in builds] == [4 * len(config)]
    window = Window.square(F(193, 3), (F(1, 2), F(-2, 7)))
    for _ in range(2):
        perimeter(config)
        perimeter(config, window)
        weighted_perimeter(config, 1, F(1, 4), window)
        volume_deficit(config, window)
    assert len(builds) == 1 and config._occupancy is None

    def bounded(read) -> int:
        builds.clear()
        tracemalloc.start()
        read()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sum(area for _, area in builds) <= 64 * sum(cells + 64 for cells, _ in builds), builds
        return peak

    sc = ScaledConfiguration(F(1, 64), validate(mols64))
    assert bounded(lambda: validate(mols64)) < 3_000_000
    assert [cells for cells, _ in builds] == [4 * len(sc.config)]
    builds.clear()
    decompose(sc, Window.square(4))
    decompose(sc, Window.square(4))
    perimeter(sc.config, window)
    assert builds == [] and sc.config._occupancy is None

    # sparse: two molecules 10^5 apart and a diagonal staircase of 2,000
    # molecules in a box 6,000 cells square, each validated and read; and
    # the curved seam of a droplet, validated and read by `decompose`
    far = [Molecule(R, (0, 0)), Molecule(S, (100_000, 100_000))]
    assert bounded(lambda: volume_deficit(validate(far), Window.square(200_010, (50_000, 50_000)))) < 100_000
    assert len(builds) == 2
    stair = [Molecule(R, (3 * i, 3 * i)) for i in range(2000)]
    assert bounded(lambda: perimeter(validate(stair))) < 1_000_000
    assert sum(cells for cells, _ in builds) < 2 * 8000
    bounded(lambda: decompose(ScaledConfiguration(drop.epsilon, validate(drop.config.molecules)), Window.square(4)))
    assert builds and sum(cells for cells, _ in builds) == 4 * len(drop.config)


def test_threads_racing_for_the_occupancy_read_equal_energies():
    # a configuration fills its occupancy slot on its first read; eight
    # threads reading one fresh configuration at once may each build the
    # dict, and every thread reads the occupancy and energies of a lone
    # reader
    window = Window.square(F(193, 3), (F(1, 2), F(-2, 7)))
    mols = seam(16)

    def read(config):
        return (list(config.occupancy.items()), perimeter(config),
                weighted_perimeter(config, 1, F(1, 4), window), volume_deficit(config, window))

    expected = read(validate(mols))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            config, results = validate(mols), []
            threads = [threading.Thread(target=lambda: results.append(read(config))) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_contains_cell_and_cell_range_match_fraction_bounds():
    rng = random.Random(42)
    for _ in range(400):
        window = random_window(rng)
        assert window.cell_range() == ref_cell_range(window)
        assert window.bounds() == ref_bounds(window)
        assert_cuts_match(window)
        bounds = x0, y0, x1, y1 = ref_bounds(window)
        for a in range(math.floor(x0) - 2, math.ceil(x1) + 2):
            for b in (math.floor(y0) - 1, math.floor(y0), math.floor(y0) + 1,
                      math.ceil(y1) - 1, math.ceil(y1), rng.randint(-40, 40)):
                assert window.contains_cell((a, b)) == ref_contains_cell(bounds, (a, b))
                assert window.contains_cell((b, a)) == ref_contains_cell(bounds, (b, a))
    # a window inside one cell, one across a lattice line, one on lattice
    # lines, and one on a lattice line at one end of an axis only
    for window in (Window.square(F(1, 3), (F(1, 2), F(1, 2))), Window.square(F(1, 2), (1, 1)),
                   Window.square(1, (F(1, 2), F(1, 2))), Window.square(F(7, 2), (F(-1, 4), 0))):
        assert_cuts_match(window)


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


def ref_cut_anchors(i: int, cells, cut) -> list[tuple[int, int]]:
    """The per-molecule brute force of `pattern_columns` under a cut: every
    phase-i anchor near the box whose molecule has a cell in the box and a
    closed-cell corner (x, y) with p x + q y > c, in anchor order."""
    xs, ys = cells
    p, q, c = cut
    shape = phase_shape(i)
    out = []
    for a in range(xs.start - 3, xs.stop + 3):
        for b in range(ys.start - 3, ys.stop + 3):
            m = Molecule(shape, (a, b))
            if phase_label(m) != i or not any(x in xs and y in ys for x, y in m.cells()):
                continue
            if any(p * (x + dx) + q * (y + dy) > c for x, y in m.cells() for dx in (0, 1) for dy in (0, 1)):
                out.append((a, b))
    return out


def test_pattern_columns_cut_matches_the_per_molecule_brute_force():
    # random boxes, some narrower than the shape and some empty, under the
    # default cut and under random cuts with |p|, |q| <= 5, non-primitive
    # normals and q = 0 among them, and c on both sides of the box
    rng = random.Random(21)
    normals = [(p, q) for p in range(-5, 6) for q in range(-5, 6) if (p, q) != (0, 0)]
    for _ in range(300):
        x0, y0 = rng.randint(-12, 12), rng.randint(-12, 12)
        cells = (range(x0, x0 + rng.choice((0, 1, 2, 3, 7, 12))), range(y0, y0 + rng.choice((0, 1, 2, 4, 9))))
        p, q = rng.choice(normals)
        corners = [p * x + q * y for x in (x0 - 4, x0 + 16) for y in (y0 - 4, y0 + 13)]
        for i in range(1, 9):
            for cut in ((0, 0, -1), (p, q, rng.randint(min(corners), max(corners)))):
                got = pattern_columns(i, cells, cut)
                assert [(a, b) for a, bs in got for b in bs] == ref_cut_anchors(i, cells, cut), (i, cells, cut)
                assert all(bs.step == 4 for _, bs in got)
                if not cells[0] or not cells[1]:
                    assert got == []


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
        bounds, cells = Window.square(T).bounds(), _window_cells(T)
        for axis in (0, 1):
            for k in (cells[0], cells[-1]):
                assert clip == ref_clip(bounds, axis, k), T
            assert ref_clip(bounds, axis, cells[1]) == ref_clip(bounds, axis, cells[-2]) == 1, T
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
    # and every pair with every primitive normal |p|, |q| <= 3 on Q_13,
    # whose boundary halves its outer cells, against the cell sweep's
    # molecules of each phase, swept once and tested one by one
    normals = [(p, q) for p in range(-3, 4) for q in range(-3, 4) if math.gcd(p, q) == 1]
    window = Window.square(13)
    swept = {lab: ref_phase_pattern(lab, window) for lab in range(1, 9)}
    for i, j in pairs:
        for p, q in normals:
            nu = direction(p, q)
            want = [m for lab in {i, j} - {0} for m in swept[lab] if in_boundary_family(m, i, j, nu)]
            want.sort(key=lambda m: (m.shape.name, m.anchor))
            assert _family_members(i, j, nu, window.cell_range()) == want, (i, j, nu)


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
